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

from .audio import MixResult, StftParams, Waveform, istft, mix, read_wav, stft, write_wav
from .corpus import (ClipEntry, Manifest, SourceDataset, ingest_clotho, ingest_fsd50k,
                     ingest_wavcaps, read_manifest, sample_training_pair, summarize,
                     write_manifest)
from .filtering import FilterReport, FilterRules, RejectReason, filter_captions, normalize, parse_numbered
from .harness import (EvalItem, ExperimentConfig, make_synthetic_eval_set,
                      run_augmentation, run_evaluation)
from .llm import LlmClient, LlmConfig, MockLlmClient, RawResponse, mock_complete
from .metrics import MetricsTriple, aggregate, compute_triple, sdr, sdri, si_sdr
from .prompts import PromptKind, PromptTemplate, builtin_template, render
from .reporting import ReportRow, render_report
from .separation import SeparatorSpec, ensemble, separate

__all__ = [
    "__version__",
    "Waveform", "StftParams", "MixResult", "read_wav", "write_wav", "mix", "stft", "istft",
    "ClipEntry", "Manifest", "SourceDataset", "ingest_clotho", "ingest_fsd50k",
    "ingest_wavcaps", "summarize", "sample_training_pair",
    "read_manifest", "write_manifest",
    "FilterRules", "FilterReport", "RejectReason", "parse_numbered", "normalize",
    "filter_captions",
    "ExperimentConfig", "EvalItem", "run_augmentation", "run_evaluation",
    "make_synthetic_eval_set",
    "LlmConfig", "LlmClient", "MockLlmClient", "RawResponse", "mock_complete",
    "MetricsTriple", "sdr", "sdri", "si_sdr", "compute_triple", "aggregate",
    "PromptKind", "PromptTemplate", "builtin_template", "render",
    "ReportRow", "render_report",
    "SeparatorSpec", "separate", "ensemble",
]
