"""Workload definitions: seeded inputs, experiment configs and one timed pass each.

Inputs are a pure function of the seed. Generators draw from ``random.Random``
and ``numpy`` generators in a fixed order over lists, never over sets, so the
same seed always gives the same manifest bytes and eval set.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

AUGMENT_MOCK_CLIPS = 5_000
AUGMENT_HTTP_CLIPS = 500
EVAL_CLIPS = 100
HTTP_CONCURRENCY = 2
STUB_DELAY_MS = 10.0
STUB_REFUSE_SHARE = 0.02

# Relative to the checkout root, which is the working directory of a run, so
# that the config hash written into report.md does not depend on where the
# checkout lives.
EXTERNAL_COMMAND = "sh perfbench/ext_identity.sh {MIXTURE} {CAPTION} {OUT}"

_SUBJECTS = [
    "a dog", "an old car", "the wind", "a small bird", "heavy rain", "a crowd",
    "someone", "a church bell", "a motorbike", "running water", "a baby",
    "an engine", "a wooden door", "footsteps", "a train", "thunder", "a cat",
    "children", "a clock", "ocean waves", "a kettle", "a lawn mower",
]
_VERBS = [
    "barks", "rumbles", "whistles", "chirps", "pours", "cheers", "talks",
    "rings", "revs", "splashes", "cries", "idles", "creaks", "echoes",
    "passes", "rolls", "meows", "laughs", "ticks", "crashes", "hisses", "buzzes",
]
_TAILS = [
    "in the distance", "nearby", "loudly", "softly", "over and over",
    "on a busy street", "inside a large hall", "late at night",
    "through an open window", "behind a fence", "while birds sing",
    "under a metal roof",
]
# Non-ASCII punctuation exercises the Unicode category test in normalize.
_DECORATIONS = [
    "{}.", "“{}”", "{} — again and again.", "{}…", "«{}»", "¡{}!", "{} · {}",
    "{} – then silence.", "{}’s echo fades.", "{}",
]
_FSD_LABELS = [
    "Bark", "Dog", "Domestic_animals_and_pets", "Rain", "Water", "Vehicle",
    "Car", "Speech", "Human_voice", "Bell", "Church_bell", "Music", "Wind",
    "Bird", "Bird_vocalization_and_bird_call_and_bird_song", "Engine",
    "Footsteps", "Door", "Thunder", "Clock", "Tick", "Ocean", "Crowd",
]
_WAVCAPS_SOURCES = ["WavCapsBBC", "WavCapsSoundBible", "WavCapsAudioSet"]
_CREATED_AT = "2024-01-01T00:00:00Z"


def _caption(rng: random.Random) -> str:
    core = f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_TAILS)}"
    shape = rng.choice(_DECORATIONS)
    if shape.count("{}") == 2:
        text = shape.format(core, f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)}")
    else:
        text = shape.format(core)
    return text[0].upper() + text[1:] if text[0].isalpha() else text


def manifest_doc(seed: int, n_clips: int) -> dict:
    """A manifest mixing the Clotho (5 captions), FSD50K (label list) and
    WavCaps (1 caption) shapes, in the on-disk format capaug reads."""
    rng = random.Random(f"perfbench-manifest:{seed}")
    entries = []
    for i in range(n_clips):
        shape = rng.randrange(3)
        if shape == 0:
            clip_id, source = f"clotho_{i:05d}.wav", "ClothoV2"
            captions = [_caption(rng) for _ in range(5)]
        elif shape == 1:
            clip_id, source = f"{100000 + i}", "FSD50K"
            captions = [", ".join(rng.sample(_FSD_LABELS, rng.randint(1, 4)))]
        else:
            source = rng.choice(_WAVCAPS_SOURCES)
            clip_id = f"wavcaps_{i:05d}"
            captions = [_caption(rng)]
        entries.append({"clip_id": clip_id, "audio_path": None,
                        "source_dataset": source, "original_captions": captions,
                        "augmented_captions": []})
    metadata = {"created_at": _CREATED_AT, "tool_version": "0.1.0",
                "prompt_kind": None, "seed": None}
    return {"metadata": metadata, "entries": entries}


def write_inputs(workload: str, seed: int, work: Path) -> Path | None:
    """Write the workload's input manifest under ``work``; ``eval`` has none."""
    sizes = {"augment_mock": AUGMENT_MOCK_CLIPS, "augment_http": AUGMENT_HTTP_CLIPS}
    if workload not in sizes:
        return None
    path = work / "input_manifest.json"
    text = json.dumps(manifest_doc(seed, sizes[workload]), indent=2, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def build_config(workload: str, seed: int, work: Path, manifest_path: Path | None = None,
                 endpoint_url: str | None = None):
    """The workload's ExperimentConfig, with paths relative to the checkout root.

    Without ``endpoint_url`` (the set-up probe), ``augment_http`` gets a
    placeholder endpoint: its client is built but never called.
    """
    from capaug.harness import EnsembleDef, ExperimentConfig
    from capaug.llm import LlmConfig
    from capaug.separation import SeparatorSpec

    out_dir = str(work / "out")
    if workload in ("augment_mock", "augment_http"):
        llm = None
        if workload == "augment_http":
            llm = LlmConfig(endpoint_url=endpoint_url or "http://127.0.0.1:9/complete",
                            max_concurrent_requests=HTTP_CONCURRENCY)
        return ExperimentConfig(
            manifest_path=str(manifest_path) if manifest_path else None,
            prompt_kind="modified_wavcaps", requested_count=4,
            use_mock_llm=llm is None, mock_seed=seed, llm=llm,
            out_dir=out_dir, seed=seed)
    if workload != "eval":
        raise ValueError(f"unknown workload {workload!r}")
    separators = [("identity", SeparatorSpec(kind="identity")),
                  ("oracle_irm", SeparatorSpec(kind="oracle_irm")),
                  ("external_identity", SeparatorSpec(
                      kind="external", command_template=EXTERNAL_COMMAND))]
    ensembles = {"ens_identity_oracle": EnsembleDef(
        members=("identity", "oracle_irm"), weights=(0.5, 0.5))}
    return ExperimentConfig(separators=separators, ensembles=ensembles,
                            out_dir=out_dir, seed=seed)


def build_backend(config):
    """The augmentation backend (complete_fn), or the separator specs for eval."""
    from capaug.harness import build_complete_fn
    if config.separators:
        return [spec for _, spec in config.separators]
    return build_complete_fn(config)


@dataclass
class PassResult:
    wall_s: float
    clips: int
    output: object


def run_pass(workload: str, seed: int, config, complete_fn=None) -> PassResult:
    """One timed pipeline call into a fresh out-dir.

    Augmentation: ``run_augmentation`` from the manifest on disk to the
    written out-dir. Evaluation: ``make_synthetic_eval_set`` (the mix stage)
    plus ``run_evaluation`` with artifacts written.
    """
    from capaug import harness
    shutil.rmtree(config.out_dir, ignore_errors=True)
    if workload.startswith("augment"):
        start = time.perf_counter()
        manifest, stats = harness.run_augmentation(config, complete_fn=complete_fn,
                                                   resume=False)
        wall = time.perf_counter() - start
        return PassResult(wall, len(manifest.entries), (manifest, stats))
    start = time.perf_counter()
    items = harness.make_synthetic_eval_set(EVAL_CLIPS, seed=seed, snr_db=None)
    result = harness.run_evaluation(config, items)
    wall = time.perf_counter() - start
    return PassResult(wall, len(items), (items, result))
