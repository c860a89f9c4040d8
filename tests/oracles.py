"""Independent brute-force oracles used to check the library implementations.

Everything here is written as a direct, loop-based transcription of the metric
definitions, on purpose without numpy, so agreement with the vectorized
library code is a meaningful cross-check rather than a tautology. The one
exception is ``istft_brute``, which borrows numpy's inverse FFT and loops over
the frames itself.
"""

import json
import math
import unicodedata

import numpy as np


def sdr_brute(estimate, reference, eps=0.0):
    """Energy-ratio SDR in dB: 10*log10((sum s^2 + eps) / (sum (s - s_hat)^2 + eps))."""
    if len(estimate) != len(reference):
        raise ValueError("length mismatch")
    ref_energy = 0.0
    err_energy = 0.0
    for s, e in zip(reference, estimate):
        ref_energy += s * s
        d = s - e
        err_energy += d * d
    num = ref_energy + eps
    den = err_energy + eps
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def sdri_brute(estimate, mixture, reference, eps=0.0):
    return sdr_brute(estimate, reference, eps) - sdr_brute(mixture, reference, eps)


def si_sdr_brute(estimate, reference, eps=0.0):
    """Scale-invariant SDR: project the estimate onto the reference first."""
    if len(estimate) != len(reference):
        raise ValueError("length mismatch")
    ref_energy = 0.0
    dot = 0.0
    for s, e in zip(reference, estimate):
        ref_energy += s * s
        dot += s * e
    if ref_energy == 0.0 and eps == 0.0:
        raise ValueError("zero-energy reference")
    # a silent reference projects every estimate to zero
    alpha = dot / ref_energy if ref_energy else 0.0
    target_energy = 0.0
    err_energy = 0.0
    for s, e in zip(reference, estimate):
        t = alpha * s
        target_energy += t * t
        d = e - t
        err_energy += d * d
    num = target_energy + eps
    den = err_energy + eps
    if den == 0.0:
        return math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)


def mix_gain_brute(target, interference, snr_db):
    """Interference gain g = sqrt(E_t / (E_i * 10^(snr/10)))."""
    e_t = sum(x * x for x in target)
    e_i = sum(x * x for x in interference)
    return math.sqrt(e_t / (e_i * 10.0 ** (snr_db / 10.0)))


def clamp_mean_brute(values, clamp_db=60.0):
    clamped = [min(max(v, -clamp_db), clamp_db) for v in values]
    return sum(clamped) / len(clamped)


def render_concat_brute(instruction, count, caption):
    """Expected rendering for templates without an inline caption slot."""
    return instruction.replace("{N}", str(count)) + "\n" + caption


def normalize_brute(caption):
    """Dedup key, one character at a time: lowercase, drop Unicode punctuation
    (categories P*), collapse whitespace."""
    lowered = caption.lower()
    no_punct = "".join(ch for ch in lowered if not unicodedata.category(ch).startswith("P"))
    return " ".join(no_punct.split())


def istft_brute(matrix, window_size, hop, length=None):
    """Inverse STFT with the overlap-add written as a per-frame loop.

    The inverse FFT itself is numpy's, as in the library: this checks the
    overlap-add and the synthesis-window normalization, sample for sample,
    in the order a direct transcription adds them.
    """
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    frames = np.fft.irfft(np.asarray(matrix).T, n=window_size, axis=1) * window
    n_frames = frames.shape[0]
    total = window_size + (n_frames - 1) * hop
    out = np.zeros(total)
    norm = np.zeros(total)
    wsq = window ** 2
    for m in range(n_frames):
        start = m * hop
        out[start:start + window_size] += frames[m]
        norm[start:start + window_size] += wsq
    out = np.where(norm > 1e-12, out / np.maximum(norm, 1e-12), 0.0)
    payload = out[window_size:]
    return payload if length is None else payload[:length]


def stft_reference(samples, window_size, hop):
    """The STFT as one expression per step, every intermediate freshly allocated:
    pad by a window on each side (and to whole frames), window the frames,
    rfft. Returns the (bins, frames) transposed view, as the library does."""
    x = np.asarray(samples, dtype=np.float64)
    total = x.size + 2 * window_size
    rem = (total - window_size) % hop
    if rem:
        total += hop - rem
    padded = np.zeros(total)
    padded[window_size:window_size + x.size] = x
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    n_frames = (total - window_size) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(padded, window_size)[::hop][:n_frames]
    return np.fft.rfft(frames * window, axis=1).T


def irm_mask_reference(target, interference, window_size, hop):
    """The ideal ratio mask written out: |S_t|^2 / (|S_t|^2 + |S_i|^2 + 1e-12)."""
    p_t = np.abs(stft_reference(target, window_size, hop)) ** 2
    p_i = np.abs(stft_reference(interference, window_size, hop)) ** 2
    return p_t / (p_t + p_i + 1e-12)


def oracle_irm_reference(mixture, target, interference, window_size, hop):
    """Ideal-ratio-mask separation written out: :func:`irm_mask_reference` times
    the mixture's STFT, resynthesised by :func:`istft_brute`."""
    mask = irm_mask_reference(target, interference, window_size, hop)
    masked = mask * stft_reference(mixture, window_size, hop)
    return istft_brute(masked, window_size, hop, len(mixture))


def tone_burst_reference(freq_hz, duration_s, sample_rate, amplitude, burst_period_s, duty):
    """A sine tone times a 0/1 float envelope that is on while
    ``t % burst_period_s < burst_period_s * duty``."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    carrier = amplitude * np.sin(2.0 * np.pi * freq_hz * t)
    return carrier * ((t % burst_period_s) < burst_period_s * duty).astype(np.float64)


def synthetic_eval_set_reference(n_clips, seed=0, sample_rate=16000, duration_s=4.0,
                                 snr_db=0.0, snr_range=(-10.0, 10.0)):
    """The synthetic eval set built eagerly, as one list, by the loop the library
    first used: clip ``i`` from ``SeedSequence([seed, i])``."""
    from capaug.audio import mix, tone_burst, white_noise
    from capaug.evaluation import _EVAL_CAPTIONS, EvalItem
    items = []
    for i in range(n_clips):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        freq = float(rng.uniform(200.0, 4000.0))
        target = tone_burst(freq, duration_s, sample_rate,
                            burst_period_s=float(rng.uniform(0.3, 0.8)))
        interference = white_noise(duration_s, sample_rate, rng)
        clip_snr = snr_db if snr_db is not None else float(rng.uniform(*snr_range))
        mixed = mix(target, interference, clip_snr)
        items.append(EvalItem(
            clip_id=f"clip_{i:03d}",
            mixture=mixed.mixture,
            reference=mixed.target,
            interference=mixed.interference,
            caption=_EVAL_CAPTIONS[i % len(_EVAL_CAPTIONS)],
        ))
    return items


def manifest_bytes_reference(manifest):
    """``manifest.json`` as the library first wrote it: the document built as
    dicts (``Manifest.to_dict`` and ``ClipEntry.to_dict``), then
    ``json.dumps(indent=2, ensure_ascii=False)`` and a final newline."""
    from capaug.corpus import TOOL_VERSION
    meta = {
        "created_at": manifest.metadata.get("created_at"),
        "tool_version": manifest.metadata.get("tool_version", TOOL_VERSION),
        "prompt_kind": manifest.metadata.get("prompt_kind"),
        "seed": manifest.metadata.get("seed"),
    }
    entries = [{
        "clip_id": e.clip_id,
        "audio_path": e.audio_path,
        "source_dataset": e.source_dataset.value,
        "original_captions": list(e.original_captions),
        "augmented_captions": list(e.augmented_captions),
    } for e in sorted(manifest.entries, key=lambda e: e.clip_id)]
    doc = {"metadata": meta, "entries": entries}
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def stats_bytes_reference(stats):
    """``augment_stats.json`` as the library first wrote it: the document built
    as dicts (``AugmentationStats.to_dict`` and ``ClipAugmentation.to_dict``),
    then ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)`` and a
    final newline."""
    per_clip = {}
    for cid in sorted(stats.per_clip):
        doc = vars(stats.per_clip[cid]).copy()
        del doc["clip_id"]
        doc["rejected"] = dict(sorted(doc["rejected"].items()))
        per_clip[cid] = doc
    doc = {"totals": stats.totals(), "per_clip": per_clip}
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return text.encode("utf-8")
