"""Mono WAV I/O, SNR-controlled mixing, and STFT/ISTFT.

All operations are deterministic and work on float64 sample buffers in
[-1, 1)-ish range. Only mono PCM16 and IEEE float32 WAV files are supported;
PCM16 is decoded by dividing by 32768 so that -32768 maps to exactly -1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

PEAK_LIMIT = 0.99
DEFAULT_SNR_RANGE_DB = (-10.0, 10.0)


class WavFormatError(ValueError):
    """Unreadable or unsupported WAV content."""


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be mono (1-D)")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return (self.sample_rate == other.sample_rate
                and np.array_equal(self.samples, other.samples))

    def energy(self) -> float:
        return float(np.sum(self.samples ** 2))


@dataclass(frozen=True)
class StftParams:
    window_size: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.window_size < 2 or self.window_size & (self.window_size - 1):
            raise ValueError("window_size must be a power of two")
        if not 0 < self.hop <= self.window_size:
            raise ValueError("hop must be in (0, window_size]")


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV file."""
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise WavFormatError(f"cannot read WAV file {path}: {exc}") from exc
    if data.ndim != 1:
        raise WavFormatError(f"{path}: non-mono file ({data.shape[1]} channels)")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(f"{path}: unsupported sample encoding {data.dtype}")
    return Waveform(samples=samples, sample_rate=int(rate))


def write_wav(path, waveform: Waveform, encoding: str = "float32") -> None:
    """Write a waveform as PCM16 or float32. Float32 round-trips losslessly."""
    if encoding == "float32":
        data = waveform.samples.astype(np.float32)
    elif encoding == "pcm16":
        data = np.clip(np.round(waveform.samples * 32768.0), -32768, 32767).astype(np.int16)
    else:
        raise ValueError(f"unsupported encoding {encoding!r}")
    wavfile.write(path, waveform.sample_rate, data)


@dataclass
class MixResult:
    """Mixture plus the co-scaled stems, so dB ratios stay meaningful."""
    mixture: Waveform
    target: Waveform
    interference: Waveform
    gain: float
    rescale: float = 1.0


def mix(target: Waveform, interference: Waveform, snr_db: float) -> MixResult:
    """Mix interference into target at an exact SNR.

    The interference is scaled by g = sqrt(E_t / (E_i * 10^(snr/10))). If the
    mixture peak exceeds 0.99, mixture and both stems are rescaled by the same
    factor, which preserves every energy ratio and therefore every dB metric.
    """
    if target.sample_rate != interference.sample_rate:
        raise ValueError("sample rate mismatch")
    if len(target) != len(interference):
        raise ValueError("length mismatch")
    e_t = target.energy()
    e_i = interference.energy()
    if e_t == 0.0 or e_i == 0.0:
        raise ValueError("zero-energy input")
    gain = math.sqrt(e_t / (e_i * 10.0 ** (snr_db / 10.0)))
    scaled_interference = interference.samples * gain
    mixture = target.samples + scaled_interference
    target_samples = target.samples

    rescale = 1.0
    peak = float(np.max(np.abs(mixture)))
    if peak > PEAK_LIMIT:
        rescale = PEAK_LIMIT / peak
        mixture = mixture * rescale
        scaled_interference = scaled_interference * rescale
        target_samples = target_samples * rescale

    rate = target.sample_rate
    return MixResult(
        mixture=Waveform(mixture, rate),
        target=Waveform(target_samples, rate),
        interference=Waveform(scaled_interference, rate),
        gain=gain,
        rescale=rescale,
    )


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(waveform: Waveform, params: StftParams | None = None) -> np.ndarray:
    """Complex STFT, shape (window_size // 2 + 1, n_frames).

    The signal is zero-padded by one window on each side so that every
    original sample sits in the constant-overlap region of the Hann window;
    :func:`istft` undoes the padding. The result is a transposed view of the
    frame-major spectrum, so it is not C-contiguous; :func:`istft` transposes
    it back without a copy.
    """
    params = params or StftParams()
    w, h = params.window_size, params.hop
    x = waveform.samples
    if x.size < w:
        raise ValueError(f"signal shorter than the analysis window ({x.size} < {w})")
    total = x.size + 2 * w
    rem = (total - w) % h
    if rem:
        total += h - rem
    padded = np.zeros(total)
    padded[w:w + x.size] = x

    window = _periodic_hann(w)
    n_frames = (total - w) // h + 1
    frames = np.lib.stride_tricks.sliding_window_view(padded, w)[::h][:n_frames]
    return np.fft.rfft(frames * window, axis=1).T


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum frames placed ``hop`` apart: (n_frames, w) -> (w + (n_frames-1)*hop,).

    Column k*hop + r of frame m is sample (m+k)*hop + r, which is row m+k of a
    (rows, hop) view of the output, so one slice-add per chunk k places every
    frame's chunk k at once. Chunks go in descending k, so each sample gets its
    frames in ascending frame order: the same additions in the same order as a
    per-frame loop, hence the same bits.
    """
    n_frames, w = frames.shape
    n_chunks = -(-w // hop)
    out = np.zeros((n_frames + n_chunks - 1, hop))
    for k in reversed(range(n_chunks)):
        width = min(hop, w - k * hop)
        out[k:k + n_frames, :width] += frames[:, k * hop:k * hop + width]
    return out.reshape(-1)[:w + (n_frames - 1) * hop]


def istft(matrix: np.ndarray, params: StftParams | None = None,
          length: int | None = None, sample_rate: int = 16000) -> Waveform:
    """Overlap-add inverse with synthesis-window normalization."""
    params = params or StftParams()
    w, h = params.window_size, params.hop
    if matrix.shape[0] != w // 2 + 1:
        raise ValueError("matrix bin count does not match window_size")
    window = _periodic_hann(w)
    frames = np.fft.irfft(matrix.T, n=w, axis=1)
    frames *= window

    out = _overlap_add(frames, h)[w:]
    norm = _overlap_add(np.broadcast_to(window ** 2, frames.shape), h)[w:]
    if length is not None:
        out, norm = out[:length], norm[:length]
    payload = np.where(norm > 1e-12, out / np.maximum(norm, 1e-12), 0.0)
    return Waveform(payload, sample_rate)


def tone_burst(freq_hz: float, duration_s: float, sample_rate: int,
               amplitude: float = 0.5, burst_period_s: float = 0.5,
               duty: float = 0.5) -> Waveform:
    """Sine tone gated on/off with a rectangular burst envelope."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    carrier = amplitude * np.sin(2.0 * np.pi * freq_hz * t)
    envelope = ((t % burst_period_s) < burst_period_s * duty).astype(np.float64)
    return Waveform(carrier * envelope, sample_rate)


def white_noise(duration_s: float, sample_rate: int, rng: np.random.Generator,
                amplitude: float = 0.1) -> Waveform:
    n = int(round(duration_s * sample_rate))
    return Waveform(amplitude * rng.standard_normal(n), sample_rate)
