"""Pluggable separators and waveform-domain weighted-sum ensembling.

Three separator kinds are supported:

* ``identity`` returns the mixture untouched (the null baseline);
* ``oracle_irm`` applies an ideal ratio mask built from the true stems, an
  upper-bound reference that needs the target/interference pair;
* ``external`` shells out to any command that reads a mixture WAV and a
  caption and writes an estimate WAV, which is how trained checkpoints plug in.
"""

from __future__ import annotations

import logging
import os
import re
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .audio import (StftParams, Waveform, read_wav, resynthesize_masked, stft,
                    write_wav)

logger = logging.getLogger(__name__)

MASK_EPS = 1e-12
DEFAULT_EXTERNAL_TIMEOUT_S = 120.0
EXTERNAL_PLACEHOLDERS = ("{MIXTURE}", "{CAPTION}", "{OUT}")
_PLACEHOLDER_RE = re.compile(r"\{(MIXTURE|CAPTION|OUT)\}")
EXTERNAL_PROCESS_BOUND = 2

# caps concurrent external subprocesses across all callers in this process
_external_slots = threading.BoundedSemaphore(EXTERNAL_PROCESS_BOUND)

KIND_IDENTITY = "identity"
KIND_ORACLE_IRM = "oracle_irm"
KIND_EXTERNAL = "external"


class ExternalSeparatorError(RuntimeError):
    """External command failed, timed out, or produced unreadable output."""


@dataclass(frozen=True)
class SeparatorSpec:
    kind: str
    stft_params: StftParams = field(default_factory=StftParams)
    command_template: str = ""
    timeout_s: float = DEFAULT_EXTERNAL_TIMEOUT_S

    def __post_init__(self):
        if self.kind not in (KIND_IDENTITY, KIND_ORACLE_IRM, KIND_EXTERNAL):
            raise ValueError(f"unknown separator kind {self.kind!r}")
        if self.kind == KIND_EXTERNAL:
            missing = [p for p in EXTERNAL_PLACEHOLDERS if p not in self.command_template]
            if missing:
                raise ValueError(f"external command template is missing {missing}")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == KIND_ORACLE_IRM:
            doc["stft"] = {"window_size": self.stft_params.window_size,
                           "hop": self.stft_params.hop}
        if self.kind == KIND_EXTERNAL:
            doc["command"] = self.command_template
            doc["timeout_s"] = self.timeout_s
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SeparatorSpec":
        unknown = sorted(set(doc) - {"kind", "stft", "command", "timeout_s"})
        if unknown:
            raise ValueError(f"unknown separator keys {unknown}")
        return cls(kind=doc["kind"], stft_params=StftParams(**doc.get("stft", {})),
                   command_template=doc.get("command", ""),
                   timeout_s=doc.get("timeout_s", DEFAULT_EXTERNAL_TIMEOUT_S))


def _irm_in_place(p_t: np.ndarray, p_i: np.ndarray) -> np.ndarray:
    """|S_t|^2 / (|S_t|^2 + |S_i|^2 + eps) from the two power spectra, written
    over ``p_t`` (``p_i`` is overwritten too)."""
    np.add(p_t, p_i, out=p_i)
    np.add(p_i, MASK_EPS, out=p_i)
    return np.divide(p_t, p_i, out=p_t)


def irm_mask(target: Waveform, interference: Waveform,
             params: StftParams | None = None) -> np.ndarray:
    """Ideal ratio mask |S_t|^2 / (|S_t|^2 + |S_i|^2 + eps), values in [0, 1]."""
    params = params or StftParams()
    return _irm_in_place(np.abs(stft(target, params)) ** 2,
                         np.abs(stft(interference, params)) ** 2)


def _run_external(spec: SeparatorSpec, mixture: Waveform, caption: str) -> Waveform:
    with tempfile.TemporaryDirectory(prefix="capaug_sep_") as tmp:
        # os.path, not pathlib: see score_clips in capaug.harness
        mixture_path = os.path.join(tmp, "mixture.wav")
        out_path = os.path.join(tmp, "estimate.wav")
        write_wav(mixture_path, mixture, encoding="float32")
        # split first, substitute per token: captions with spaces stay one argv entry;
        # one pass per token, so a caption containing "{OUT}" stays literal text
        values = {"MIXTURE": mixture_path, "CAPTION": caption, "OUT": out_path}
        argv = [_PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], token)
                for token in shlex.split(spec.command_template)]
        try:
            with _external_slots:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=spec.timeout_s)
        except subprocess.TimeoutExpired as exc:
            raise ExternalSeparatorError(
                f"external separator timed out after {spec.timeout_s}s") from exc
        except OSError as exc:
            raise ExternalSeparatorError(f"cannot run external separator: {exc}") from exc
        if proc.returncode != 0:
            raise ExternalSeparatorError(
                f"external separator exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        try:
            estimate = read_wav(out_path)
        except Exception as exc:
            raise ExternalSeparatorError(f"cannot read separator output: {exc}") from exc
    if len(estimate) != len(mixture):
        logger.warning("external estimate length %d != mixture length %d; adjusting",
                       len(estimate), len(mixture))
        samples = estimate.samples
        if samples.size > len(mixture):
            samples = samples[:len(mixture)]
        else:
            samples = np.pad(samples, (0, len(mixture) - samples.size))
        estimate = Waveform(samples, estimate.sample_rate)
    return estimate


def separate(spec: SeparatorSpec, mixture: Waveform, caption: str,
             oracle_sources: tuple[Waveform, Waveform] | None = None) -> Waveform:
    """Run one separator on one mixture and return the estimated target."""
    if spec.kind == KIND_IDENTITY:
        return mixture
    if spec.kind == KIND_ORACLE_IRM:
        if oracle_sources is None:
            raise ValueError("oracle_irm requires oracle_sources=(target, interference)")
        target, interference = oracle_sources
        for stem in (target, interference):
            if len(stem) != len(mixture) or stem.sample_rate != mixture.sample_rate:
                raise ValueError("oracle sources must align with the mixture")
        return resynthesize_masked(mixture, (target, interference), _irm_in_place,
                                   spec.stft_params)
    return _run_external(spec, mixture, caption)


def ensemble(estimates: list[Waveform],
             weights: list[float] | tuple[float, ...] | None = None) -> Waveform:
    """Weighted sum of estimates with weights normalized to sum to one
    (equal weights when none are given)."""
    if not estimates:
        raise ValueError("need at least one estimate")
    weights = [1.0] * len(estimates) if weights is None else [float(w) for w in weights]
    if len(weights) != len(estimates):
        raise ValueError("one weight per estimate is required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    rates = {e.sample_rate for e in estimates}
    lengths = {len(e) for e in estimates}
    if len(rates) != 1 or len(lengths) != 1:
        raise ValueError("estimates must share length and sample rate")
    out = np.zeros(lengths.pop())
    for w, est in zip(weights, estimates):
        out += (w / total) * est.samples
    return Waveform(out, rates.pop())
