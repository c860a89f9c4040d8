"""Pluggable separators and waveform-domain weighted-sum ensembling.

Three separator kinds are supported:

* ``identity`` returns the mixture untouched (the null baseline);
* ``oracle_irm`` applies an ideal ratio mask built from the true stems, an
  upper-bound reference that needs the target/interference pair;
* ``external`` shells out to any command that reads a mixture WAV and a
  caption and writes an estimate WAV, which is how trained checkpoints plug in.

Every experiment config imports this module for its separator specs, so
importing it does not load NumPy: the oracle, external and ensemble paths
import NumPy and :mod:`capaug.audio` when they first run.
"""

from __future__ import annotations

import logging
import math
import os
import re
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .audio import Waveform

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
class StftParams:
    window_size: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.window_size < 2 or self.window_size & (self.window_size - 1):
            raise ValueError("window_size must be a power of two")
        if not 0 < self.hop <= self.window_size:
            raise ValueError("hop must be in (0, window_size]")


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
        # NaN passes a plain comparison; a string raises TypeError here
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError("timeout_s must be positive and finite")

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
    p_i += p_t
    p_i += MASK_EPS
    p_t /= p_i
    return p_t


def _run_external(spec: SeparatorSpec, mixture: Waveform, caption: str) -> Waveform:
    import numpy as np

    from .audio import Waveform, read_wav, write_wav
    with tempfile.TemporaryDirectory(prefix="capaug_sep_") as tmp:
        # os.path, not pathlib: see score_clips in capaug.evaluation
        mixture_path = os.path.join(tmp, "mixture.wav")
        out_path = os.path.join(tmp, "estimate.wav")
        write_wav(mixture_path, mixture)
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
        from .audio import resynthesize_masked
        return resynthesize_masked(mixture, (target, interference), _irm_in_place,
                                   spec.stft_params)
    return _run_external(spec, mixture, caption)


def ensemble(estimates: list[Waveform],
             weights: list[float] | tuple[float, ...] | None = None) -> Waveform:
    """Weighted sum of estimates with weights normalized to sum to one
    (equal weights when none are given)."""
    import numpy as np

    from .audio import Waveform
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
