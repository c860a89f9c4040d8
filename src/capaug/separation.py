"""Separator specs: which separator a config names, and its settings.

Three kinds: ``identity`` returns the mixture untouched (the null baseline);
``oracle_irm`` applies an ideal ratio mask built from the true stems (an upper
bound that needs the target/interference pair); ``external`` shells out to a
command that reads a mixture WAV and a caption and writes an estimate WAV,
which is how trained checkpoints plug in. Every config imports this module,
so it never loads NumPy: :mod:`capaug.evaluation` runs the separators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_EXTERNAL_TIMEOUT_S = 120.0
EXTERNAL_PLACEHOLDERS = ("{MIXTURE}", "{CAPTION}", "{OUT}")

KIND_IDENTITY = "identity"
KIND_ORACLE_IRM = "oracle_irm"
KIND_EXTERNAL = "external"


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
