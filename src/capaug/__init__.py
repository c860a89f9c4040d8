"""capaug: caption augmentation and evaluation toolkit for language-queried
audio source separation.

The pipeline side renders LLM prompts from source captions, collects
completions (real endpoint or deterministic mock), parses and filters the
candidate captions, and attaches the survivors to a dataset manifest. The
evaluation side synthesizes SNR-exact mixtures, runs pluggable separators,
scores them with SDR/SDRi/SI-SDR, ensembles estimates, and renders
comparison reports.
"""

__version__ = "0.1.0"

import importlib

from .corpus import (ClipEntry, Manifest, SourceDataset, ingest_clotho, ingest_fsd50k,
                     ingest_wavcaps, read_manifest, summarize, write_manifest)
from .filtering import FilterReport, FilterRules, RejectReason, filter_captions, normalize, parse_numbered
from .harness import ExperimentConfig, run_augmentation
from .llm import LlmClient, LlmConfig, MockLlmClient, RawResponse, mock_complete
from .prompts import PromptKind, PromptTemplate, builtin_template, render
from .reporting import MetricsTriple, ReportRow, render_report
from .separation import SeparatorSpec, StftParams

# names whose modules load NumPy, each resolved from its module on first use,
# so that augmentation, config loading and the CLI start without it
_LAZY_HOMES = {
    "Waveform": "audio", "MixResult": "audio", "read_wav": "audio", "write_wav": "audio",
    "mix": "audio", "stft": "audio", "istft": "audio",
    "EvalItem": "evaluation", "run_evaluation": "evaluation", "separate": "evaluation",
    "make_synthetic_eval_set": "evaluation", "ensemble": "evaluation",
    "score_clips": "evaluation", "write_per_clip_csv": "evaluation",
    "sdr": "metrics", "sdri": "metrics", "si_sdr": "metrics", "aggregate": "metrics",
}


def __getattr__(name):
    if name in _LAZY_HOMES:
        return getattr(importlib.import_module(f".{_LAZY_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Waveform", "StftParams", "MixResult", "read_wav", "write_wav", "mix", "stft", "istft",
    "ClipEntry", "Manifest", "SourceDataset", "ingest_clotho", "ingest_fsd50k",
    "ingest_wavcaps", "summarize", "read_manifest", "write_manifest",
    "FilterRules", "FilterReport", "RejectReason", "parse_numbered", "normalize",
    "filter_captions",
    "ExperimentConfig", "EvalItem", "run_augmentation", "run_evaluation",
    "make_synthetic_eval_set", "score_clips", "write_per_clip_csv",
    "LlmConfig", "LlmClient", "MockLlmClient", "RawResponse", "mock_complete",
    "MetricsTriple", "sdr", "sdri", "si_sdr", "aggregate",
    "PromptKind", "PromptTemplate", "builtin_template", "render",
    "ReportRow", "render_report",
    "SeparatorSpec", "separate", "ensemble",
]
