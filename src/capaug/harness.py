"""End-to-end orchestration: augmentation runs and separation evaluation.

Runs are deterministic for a fixed config and seed. Per-clip decisions are
seeded from ``(global seed, clip_id)``, reductions happen over clip_id-sorted
results, and every artifact is written in a canonical form, so a rerun (or a
resumed run) reproduces the previous outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import corpus
from .audio import DEFAULT_SNR_RANGE_DB, Waveform, mix, tone_burst, white_noise, write_wav
from .corpus import Manifest, merge_augmented_captions, read_manifest, write_manifest
from .filtering import FilterRules, filter_captions, parse_numbered
from .llm import LlmClient, LlmConfig, LlmError, MockLlmClient
from .metrics import DEFAULT_CLAMP_DB, MetricsTriple, aggregate, compute_triple
from .prompts import PromptKind, builtin_template, render
from .reporting import ReportRow, render_report
from .separation import (EXTERNAL_PROCESS_BOUND, KIND_EXTERNAL, ExternalSeparatorError,
                         SeparatorSpec, ensemble, separate)

logger = logging.getLogger(__name__)

MANIFEST_FILENAME = "manifest.json"
STATS_FILENAME = "augment_stats.json"
FAILURES_FILENAME = "failures.json"
ABORT_FAILURE_FRACTION = 0.5
DEFAULT_EVAL_EPSILON = 1e-8


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class HarnessError(RuntimeError):
    """A run could not be completed (for example, too many failed clips)."""


def load_config(path, from_dict):
    """``from_dict`` of the JSON document at ``path``.

    A document that cannot be read or parsed, or that ``from_dict`` rejects
    (a missing field, a wrong type, a value out of range), raises
    :class:`ConfigError` naming ``path``.
    """
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class EnsembleDef:
    members: tuple[str, ...]
    weights: tuple[float, ...] | None = None


@dataclass
class ExperimentConfig:
    manifest_path: str | None = None
    prompt_kind: str = PromptKind.MODIFIED_WAVCAPS.value
    requested_count: int = 4
    use_mock_llm: bool = True
    mock_seed: int = 0
    llm: LlmConfig | None = None
    filter_rules: FilterRules = field(default_factory=FilterRules)
    separators: list[tuple[str, SeparatorSpec]] = field(default_factory=list)
    ensembles: dict[str, EnsembleDef] = field(default_factory=dict)
    snr_range: tuple[float, float] = DEFAULT_SNR_RANGE_DB
    epsilon: float = DEFAULT_EVAL_EPSILON
    clamp_db: float = DEFAULT_CLAMP_DB
    out_dir: str | None = None
    seed: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            builtin_template(self.prompt_kind)
        except ValueError as exc:
            raise ConfigError(
                f"prompt kind {self.prompt_kind!r} has no built-in template") from exc
        if self.requested_count < 1:
            raise ConfigError("requested_count must be >= 1")
        names = [name for name, _ in self.separators]
        if len(names) != len(set(names)):
            raise ConfigError("separator names must be unique")
        clashes = sorted(set(names) & set(self.ensembles))
        if clashes:
            raise ConfigError(f"ensemble names {clashes} are also separator names")
        for ens_name, definition in self.ensembles.items():
            unknown = [m for m in definition.members if m not in names]
            if unknown:
                raise ConfigError(
                    f"ensemble {ens_name!r} references unknown separators {unknown}")
            if definition.weights is not None and \
                    len(definition.weights) != len(definition.members):
                raise ConfigError(f"ensemble {ens_name!r} needs one weight per member")
        if self.use_mock_llm == (self.llm is not None):
            raise ConfigError("set exactly one backend: use_mock_llm or an llm config")

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest_path,
            "prompt": {"kind": self.prompt_kind, "count": self.requested_count},
            "llm": ({"mock": True, "seed": self.mock_seed} if self.use_mock_llm
                    else self.llm.to_dict()),
            "filter_rules": self.filter_rules.to_dict(),
            "separators": [{"name": name, **spec.to_dict()}
                           for name, spec in self.separators],
            "ensembles": {name: {"members": list(d.members),
                                 "weights": list(d.weights) if d.weights else None}
                          for name, d in self.ensembles.items()},
            "snr_range": list(self.snr_range),
            "epsilon": self.epsilon,
            "clamp_db": self.clamp_db,
            "out_dir": self.out_dir,
            "seed": self.seed,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        prompt = doc.get("prompt", {})
        llm_doc = doc.get("llm", {"mock": True, "seed": 0})
        use_mock = bool(llm_doc.get("mock", False))
        separators = []
        for item in doc.get("separators", []):
            separators.append((item["name"], SeparatorSpec.from_dict(item)))
        ensembles = {}
        for name, d in doc.get("ensembles", {}).items():
            weights = d.get("weights")
            ensembles[name] = EnsembleDef(
                members=tuple(d["members"]),
                weights=tuple(weights) if weights else None,
            )
        return cls(
            manifest_path=doc.get("manifest"),
            prompt_kind=prompt.get("kind", PromptKind.MODIFIED_WAVCAPS.value),
            requested_count=int(prompt.get("count", 4)),
            use_mock_llm=use_mock,
            mock_seed=int(llm_doc.get("seed", 0)) if use_mock else 0,
            llm=None if use_mock else LlmConfig.from_dict(llm_doc),
            filter_rules=FilterRules.from_dict(doc.get("filter_rules", {})),
            separators=separators,
            ensembles=ensembles,
            snr_range=tuple(doc.get("snr_range", DEFAULT_SNR_RANGE_DB)),
            epsilon=float(doc.get("epsilon", DEFAULT_EVAL_EPSILON)),
            clamp_db=float(doc.get("clamp_db", DEFAULT_CLAMP_DB)),
            out_dir=doc.get("out_dir"),
            seed=int(doc.get("seed", 0)),
            provenance=dict(doc.get("provenance", {})),
        )

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_complete_fn(config: ExperimentConfig):
    if config.use_mock_llm:
        return MockLlmClient(config.mock_seed).complete
    return LlmClient(config.llm).complete


@dataclass
class ClipAugmentation:
    clip_id: str
    requested: int
    parsed: int
    accepted: int
    seed_caption_index: int | None = None
    attach_skipped: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    gateway_failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        # a shallow copy: dataclasses.asdict deep-copies, about 20 times as slow per clip
        doc = vars(self).copy()
        del doc["clip_id"]
        doc["rejected"] = dict(sorted(self.rejected.items()))
        return doc

    @classmethod
    def from_dict(cls, clip_id: str, doc: dict) -> "ClipAugmentation":
        known = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        return cls(**{**known, "clip_id": clip_id})


@dataclass
class AugmentationStats:
    per_clip: dict[str, ClipAugmentation] = field(default_factory=dict)

    def gateway_failures(self) -> list[str]:
        return sorted(c for c, s in self.per_clip.items() if s.gateway_failed)

    def totals(self) -> dict:
        rejected: dict[str, int] = {}
        for s in self.per_clip.values():
            for reason, count in s.rejected.items():
                rejected[reason] = rejected.get(reason, 0) + count
        return {
            "clips": len(self.per_clip),
            "gateway_failures": len(self.gateway_failures()),
            "parsed": sum(s.parsed for s in self.per_clip.values()),
            "accepted": sum(s.accepted for s in self.per_clip.values()),
            "attach_skipped": sum(s.attach_skipped for s in self.per_clip.values()),
            "rejected": dict(sorted(rejected.items())),
        }

    def to_dict(self) -> dict:
        return {
            "totals": self.totals(),
            "per_clip": {cid: self.per_clip[cid].to_dict()
                         for cid in sorted(self.per_clip)},
        }


def _load_previous_run(out_dir: Path,
                       ) -> dict[str, tuple[corpus.ClipEntry, ClipAugmentation]]:
    """The clips an earlier run in ``out_dir`` completed: entry and stats by clip id.

    A clip that failed at the gateway, or that the earlier manifest lacks, is
    left out, so a resume processes it again.
    """
    manifest_path = out_dir / MANIFEST_FILENAME
    stats_path = out_dir / STATS_FILENAME
    if not manifest_path.exists() or not stats_path.exists():
        return {}
    entries = {entry.clip_id: entry for entry in read_manifest(manifest_path).entries}
    doc = json.loads(stats_path.read_text(encoding="utf-8"))
    carried = {}
    for cid, clip_doc in doc.get("per_clip", {}).items():
        clip_stats = ClipAugmentation.from_dict(cid, clip_doc)
        if cid in entries and not clip_stats.gateway_failed:
            carried[cid] = (entries[cid], clip_stats)
    return carried


def _map_in_order(fn, items, workers: int) -> list:
    """``fn`` over ``items``, results in item order, on ``workers`` threads if > 0.

    Only work that waits on I/O (the HTTP client, external separator
    processes) gets threads: in-process work is CPU-bound under the GIL,
    where a thread pool adds overhead and no parallelism, so it runs on the
    calling thread.
    """
    if not workers:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _augment_one(config: ExperimentConfig, template, complete_fn,
                 clip: corpus.ClipEntry) -> tuple[corpus.ClipEntry, ClipAugmentation]:
    """One clip's new entry and stats.

    A gateway failure or a blank source caption leaves the entry as it was
    and is recorded in the clip's ``error``; only a gateway failure sets
    ``gateway_failed``, which a resume retries.
    """
    rng = random.Random(f"{config.seed}:{clip.clip_id}")
    index = rng.randrange(len(clip.original_captions))
    failed = dict(clip_id=clip.clip_id, seed_caption_index=index,
                  requested=config.requested_count, parsed=0, accepted=0)
    try:
        prompt = render(template, clip.original_captions[index], config.requested_count)
    except ValueError as exc:  # a blank source caption
        logger.warning("clip %s: %s", clip.clip_id, exc)
        return clip, ClipAugmentation(**failed, error=str(exc))
    try:
        response = complete_fn(prompt)
    except LlmError as exc:
        logger.warning("clip %s: gateway failure: %s", clip.clip_id, exc)
        return clip, ClipAugmentation(**failed, gateway_failed=True, error=str(exc))
    candidates = parse_numbered(response.text)
    report = filter_captions(candidates, config.filter_rules)
    entry, skipped = merge_augmented_captions(clip, report.accepted)
    return entry, ClipAugmentation(
        clip_id=clip.clip_id, seed_caption_index=index,
        requested=config.requested_count, parsed=len(candidates),
        accepted=len(report.accepted), attach_skipped=skipped,
        rejected=report.reject_histogram())


def run_augmentation(config: ExperimentConfig, manifest: Manifest | None = None,
                     complete_fn=None, resume: bool = True,
                     ) -> tuple[Manifest, AugmentationStats]:
    """Augment every clip in the manifest: render, complete, parse, filter, attach.

    Gateway failures skip the clip and the run continues; the run aborts if
    more than half of the clips fail. With ``resume`` enabled and an existing
    output directory, previously completed clips are carried over unchanged
    and only missing or failed clips are processed.
    """
    if manifest is None:
        if not config.manifest_path:
            raise ConfigError("no manifest given and no manifest path configured")
        manifest = read_manifest(config.manifest_path)
    if complete_fn is None:
        complete_fn = build_complete_fn(config)
    template = builtin_template(config.prompt_kind)

    out_dir = Path(config.out_dir) if config.out_dir else None
    carried = _load_previous_run(out_dir) if resume and out_dir is not None else {}
    if carried:
        logger.info("resume: %d completed clips found in %s", len(carried), out_dir)

    def augment(clip: corpus.ClipEntry) -> tuple[corpus.ClipEntry, ClipAugmentation]:
        if clip.clip_id not in carried:
            return _augment_one(config, template, complete_fn, clip)
        previous, clip_stats = carried[clip.clip_id]
        return merge_augmented_captions(clip, previous.augmented_captions)[0], clip_stats

    clips = sorted(manifest.entries, key=lambda e: e.clip_id)
    workers = 0 if config.use_mock_llm else config.llm.max_concurrent_requests
    outcomes = _map_in_order(augment, clips, workers)
    stats = AugmentationStats(per_clip={s.clip_id: s for _, s in outcomes})

    failures = stats.gateway_failures()
    if clips and len(failures) / len(clips) > ABORT_FAILURE_FRACTION:
        raise HarnessError(
            f"aborting: {len(failures)} of {len(clips)} clips failed at the gateway")

    merged = {entry.clip_id: entry for entry, _ in outcomes}
    metadata = dict(manifest.metadata)
    metadata["created_at"] = manifest.metadata.get("created_at") or corpus.utc_now_iso()
    metadata["tool_version"] = corpus.TOOL_VERSION
    metadata["prompt_kind"] = config.prompt_kind
    metadata["seed"] = config.seed
    result = Manifest(entries=[merged[entry.clip_id] for entry in manifest.entries],
                      metadata=metadata)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_manifest(result, out_dir / MANIFEST_FILENAME)
        stats_text = json.dumps(stats.to_dict(), indent=2, sort_keys=True,
                                ensure_ascii=False) + "\n"
        (out_dir / STATS_FILENAME).write_text(stats_text, encoding="utf-8")
        failures_path = out_dir / FAILURES_FILENAME
        if failures:
            failure_text = json.dumps({"failed_clips": failures}, indent=2) + "\n"
            failures_path.write_text(failure_text, encoding="utf-8")
        else:
            failures_path.unlink(missing_ok=True)
    return result, stats


@dataclass
class EvalItem:
    clip_id: str
    mixture: Waveform
    reference: Waveform
    caption: str
    interference: Waveform | None = None


@dataclass
class ClipScore:
    clip_id: str
    metrics: MetricsTriple


@dataclass
class SeparatorResult:
    name: str
    per_clip: list[ClipScore] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    aggregate: MetricsTriple | None = None


@dataclass
class EvaluationResult:
    separators: dict[str, SeparatorResult]
    config_hash: str

    def report_rows(self) -> list[ReportRow]:
        rows = []
        for name, result in self.separators.items():
            if result.aggregate is not None:
                rows.append(ReportRow(model=name, training_dataset="-",
                                      caption_augmentation="-",
                                      metrics=result.aggregate))
        return rows


def write_per_clip_csv(path: Path, scores: list[ClipScore]) -> None:
    lines = ["clip_id,sdr,sdri,si_sdr"]
    for score in scores:
        t = score.metrics
        lines.append(f"{score.clip_id},{t.sdr_db:.6f},{t.sdri_db:.6f},{t.si_sdr_db:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def score_clips(name: str, items, estimate_of, epsilon: float,
                clamp_db: float = DEFAULT_CLAMP_DB, est_dir: Path | None = None,
                keep: bool = False, processes: int = 0,
                ) -> tuple[SeparatorResult, dict[str, Waveform]]:
    """Score ``estimate_of(item)`` against each item's reference, in the order given.

    ``items`` is any iterable of :class:`EvalItem` and is read once. A clip
    whose estimate or score raises ``ExternalSeparatorError`` or
    ``ValueError`` (an unreadable WAV, a silent reference with
    ``epsilon=0``) is listed in ``failed``, not raised. With ``est_dir`` each
    estimate is written there as soon as it is scored. The estimates are
    returned by clip id only with ``keep``; otherwise each is freed once
    scored. ``processes`` > 0 scores that many clips at once, for estimators
    that wait on external processes.
    """
    result = SeparatorResult(name=name)
    if est_dir is not None:
        est_dir.mkdir(parents=True, exist_ok=True)

    # a function, not a loop body, so that an estimate nothing keeps is
    # freed before the next one is made
    def step(item: EvalItem) -> tuple[str, MetricsTriple | None, Waveform | None]:
        try:
            estimate = estimate_of(item)
            triple = compute_triple(estimate, item.mixture, item.reference, epsilon)
        except (ExternalSeparatorError, ValueError) as exc:
            logger.warning("%s failed on clip %s: %s", name, item.clip_id, exc)
            return item.clip_id, None, None
        if est_dir is not None:
            write_wav(est_dir / f"{item.clip_id}.wav", estimate)
        return item.clip_id, triple, estimate if keep else None

    kept: dict[str, Waveform] = {}
    for clip_id, triple, estimate in _map_in_order(step, items, processes):
        if triple is None:
            result.failed.append(clip_id)
            continue
        if keep:
            kept[clip_id] = estimate
        result.per_clip.append(ClipScore(clip_id, triple))
    if result.per_clip:
        result.aggregate = aggregate([s.metrics for s in result.per_clip], clamp_db)
    if result.failed:
        logger.warning("%s failed on %d clips: %s", name, len(result.failed),
                       result.failed)
    return result, kept


def run_evaluation(config: ExperimentConfig,
                   eval_set: list[EvalItem]) -> EvaluationResult:
    """Evaluate every configured separator and ensemble on an eval set.

    Each estimate is written as soon as it is scored when an output directory
    is configured; only the estimates of ensemble members are kept in memory
    until the ensembles run. A separator or scoring failure on a clip (for
    example a silent reference with ``epsilon=0``) excludes that clip from
    the separator's aggregate and is reported, not fatal.
    """
    if not config.separators:
        raise ConfigError("no separators configured")
    items = sorted(eval_set, key=lambda i: i.clip_id)
    out_dir = Path(config.out_dir) if config.out_dir else None
    members = {m for definition in config.ensembles.values() for m in definition.members}
    kept: dict[str, dict[str, Waveform]] = {}
    results: dict[str, SeparatorResult] = {}

    # separator-major (all clips of one separator, then the next): a
    # clip-major order ran slower in-process
    def evaluate(name: str, estimate_of, processes: int = 0) -> None:
        est_dir = None if out_dir is None else out_dir / "estimates" / name
        results[name], kept[name] = score_clips(
            name, items, estimate_of, config.epsilon, config.clamp_db, est_dir,
            keep=name in members, processes=processes)

    for name, spec in config.separators:
        # oracle_irm needs the stems; separate() rejects it when they are missing
        def run_separator(item: EvalItem) -> Waveform:
            sources = None if item.interference is None else (item.reference,
                                                              item.interference)
            return separate(spec, item.mixture, item.caption, sources)
        evaluate(name, run_separator,
                 EXTERNAL_PROCESS_BOUND if spec.kind == KIND_EXTERNAL else 0)

    for ens_name, definition in config.ensembles.items():
        def combine(item: EvalItem) -> Waveform:
            missing = [m for m in definition.members if item.clip_id not in kept[m]]
            if missing:
                raise ValueError(f"no estimate from members {missing}")
            return ensemble([kept[m][item.clip_id] for m in definition.members],
                            definition.weights)
        evaluate(ens_name, combine)

    evaluation = EvaluationResult(separators=results, config_hash=config.hash())
    if out_dir is not None:
        metrics_dir = out_dir / "metrics"
        metrics_dir.mkdir(parents=True, exist_ok=True)
        for name, result in results.items():
            write_per_clip_csv(metrics_dir / f"{name}.csv", result.per_clip)
        rows = evaluation.report_rows()
        if rows:
            report = render_report(rows, config_hash=evaluation.config_hash)
            report += (f"eval epsilon: {config.epsilon:g} (library default 0), "
                       f"clamp: +/-{config.clamp_db:g} dB\n")
            (out_dir / "report.md").write_text(report, encoding="utf-8")
    return evaluation


_EVAL_CAPTIONS = [
    "a steady tone pulses on and off",
    "a clear beep repeats over noise",
    "a sustained electronic tone cuts through static",
    "a bright tone alternates with silence",
]


def make_synthetic_eval_set(n_clips: int, seed: int = 0, sample_rate: int = 16000,
                            duration_s: float = 4.0, snr_db: float | None = 0.0,
                            snr_range: tuple[float, float] = DEFAULT_SNR_RANGE_DB,
                            ) -> list[EvalItem]:
    """Desk-scale eval clips: tone-burst targets in white-noise interference.

    With ``snr_db=None`` the per-clip SNR is drawn uniformly from
    ``snr_range`` using the seeded generator.
    """
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
