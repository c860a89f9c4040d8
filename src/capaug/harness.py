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
import math
import operator
import os
import random
from collections import deque
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import corpus
from .audio import DEFAULT_SNR_RANGE_DB, Waveform, mix, tone_burst, white_noise, write_wav
from .corpus import (Manifest, merge_augmented_captions, open_replacing, read_manifest,
                     write_manifest)
from .filtering import FilterRules, filter_captions, parse_numbered
from .llm import LlmClient, LlmConfig, LlmError, MockLlmClient
from .metrics import DEFAULT_CLAMP_DB, MetricsTriple, aggregate, scorer
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
            weights = definition.weights or (1.0,)  # None: equal weights
            if definition.weights is not None and len(weights) != len(definition.members):
                raise ConfigError(f"ensemble {ens_name!r} needs one weight per member")
            # weights that separation.ensemble refuses, or turns to NaN, on every clip
            if not (all(math.isfinite(w) and w >= 0 for w in weights) and max(weights) > 0):
                raise ConfigError(f"ensemble {ens_name!r} needs finite weights >= 0, one > 0")
        if not (self.clamp_db > 0 and self.epsilon >= 0):  # NaN fails this too
            raise ConfigError("clamp_db must be > 0 and epsilon >= 0")
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
        prompt, ensemble_docs = doc.get("prompt", {}), doc.get("ensembles", {})
        llm_doc = dict(doc.get("llm", {"mock": True, "seed": 0}))
        use_mock = bool(llm_doc.pop("mock", False))
        parts = [("config", doc, cls().to_dict()), ("prompt", prompt, ("kind", "count")),
                 ("llm", llm_doc, ("seed",) if use_mock else vars(LlmConfig()))]
        parts += [("ensemble", d, ("members", "weights")) for d in ensemble_docs.values()]
        for where, part, known in parts:
            unknown = sorted(set(part) - set(known))
            if unknown:
                raise ConfigError(f"unknown {where} keys {unknown}")
        separators = [(item["name"], SeparatorSpec.from_dict(
            {k: v for k, v in item.items() if k != "name"}))
            for item in doc.get("separators", [])]
        ensembles = {name: EnsembleDef(tuple(d["members"]),
                                       tuple(d["weights"]) if d.get("weights") else None)
                     for name, d in ensemble_docs.items()}
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


def build_client(config: ExperimentConfig) -> LlmClient | MockLlmClient:
    """The completion client ``config`` names; its owner closes it."""
    if config.use_mock_llm:
        return MockLlmClient(config.mock_seed)
    return LlmClient(config.llm)


def build_complete_fn(config: ExperimentConfig):
    return build_client(config).complete


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


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)``
    writes it ``indent`` deep, without its pure-Python encoder for the types
    augmentation stats hold: str, int, bool, None and dicts of them."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = indent + "  "
        items = ",\n".join([f"{inner}{encode_basestring(k)}: {_json_value(value[k], inner)}"
                             for k in sorted(value)])
        return f"{{\n{items}\n{indent}}}"
    # json escapes every newline inside a string, so each one here is structural
    return json.dumps(value, indent=2, sort_keys=True,
                      ensure_ascii=False).replace("\n", "\n" + indent)


# (name, its line prefix) for each stats field, in sorted order
_CLIP_STATS_FIELDS = [(f.name, f'      "{f.name}": ')
                      for f in sorted(fields(ClipAugmentation), key=lambda f: f.name)
                      if f.name != "clip_id"]


def _write_stats(stats: AugmentationStats, path) -> None:
    """Write ``{"per_clip": ..., "totals": ...}`` as ``json.dumps(doc, indent=2,
    sort_keys=True, ensure_ascii=False)`` would, streamed one clip at a time."""
    with open_replacing(path) as fh:
        fh.write('{\n  "per_clip": {')
        separator = "\n"
        for cid in sorted(stats.per_clip):
            values = vars(stats.per_clip[cid])
            body = ",\n".join([prefix + _json_value(values[name], "      ")
                                for name, prefix in _CLIP_STATS_FIELDS])
            fh.write(f"{separator}    {encode_basestring(cid)}: {{\n{body}\n    }}")
            separator = ",\n"
        fh.write("}" if separator == "\n" else "\n  }")
        fh.write(f',\n  "totals": {_json_value(stats.totals(), "  ")}\n}}\n')


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
    calling thread. The first exception, in item order, propagates, and the
    items not yet started are dropped.
    """
    if not workers:
        return list(map(fn, items))
    # at most 2 * workers items are drawn and unfinished, so a lazy ``items``
    # is read as fast as it is processed (Executor.map draws it all), and an
    # item that is slow to finish holds back no other
    results, pending, unfinished = [], deque(), set()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for item in items:
            future = pool.submit(fn, item)
            pending.append(future)
            unfinished.add(future)
            if len(unfinished) == 2 * workers:
                done, unfinished = wait(unfinished, return_when=FIRST_COMPLETED)
                if any(f.exception() is not None for f in done):
                    break  # the loop below raises the first exception in item order
                while pending and pending[0].done():
                    results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


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
    entry, skipped = merge_augmented_captions(clip, report.accepted, report.accepted_keys)
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
    client = None
    if complete_fn is None:
        client = build_client(config)
        complete_fn = client.complete
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
    try:
        outcomes = _map_in_order(augment, clips, workers)
    finally:
        if client is not None:
            client.close()
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
        _write_stats(stats, out_dir / STATS_FILENAME)
        failures_path = out_dir / FAILURES_FILENAME
        if failures:
            with open_replacing(failures_path) as fh:
                fh.write(json.dumps({"failed_clips": failures}, indent=2) + "\n")
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


def score_clips(items, estimators, epsilon: float, est_dir: Path | None = None,
                workers: int = 0) -> dict[str, SeparatorResult]:
    """Score every estimator on each item, clip by clip, in the order given.

    ``estimators`` maps a name to ``estimate_of(item, estimates)``, where
    ``estimates`` holds the estimates earlier names made of the same clip.
    ``items`` is any iterable of :class:`EvalItem`, read once. A clip whose
    estimate or score raises ``ExternalSeparatorError`` or ``ValueError`` is
    listed in that name's ``failed``; a clip whose mixture cannot be scored
    (for example a silent reference with ``epsilon=0``) is listed in every
    name's, and no estimate of it is made. With ``est_dir``, estimates are
    written to ``est_dir/<name>/`` as soon as they are scored. A clip's
    estimates are freed once it is done; ``workers`` > 0 runs that many clips
    at once. No aggregate is set: :func:`run_evaluation` forms it in clip_id order.
    """
    results = {name: SeparatorResult(name=name) for name in estimators}
    # per-clip paths through os.path: pathlib interns each component, and a
    # new interned name per clip makes the interpreter rebuild its ~1 MB table
    # of interned strings now and then on whichever thread interns, where it
    # can pin the top of that thread's malloc arena for good
    est_dirs = {}
    if est_dir is not None:
        for name in estimators:
            (est_dir / name).mkdir(parents=True, exist_ok=True)
            est_dirs[name] = os.path.join(est_dir, name)

    # a function, not a loop body, so that a clip's estimates are freed
    # before the next clip's are made
    def step(item: EvalItem) -> tuple[str, dict[str, MetricsTriple]]:
        estimates, triples = {}, {}
        try:
            score = scorer(item.mixture, item.reference, epsilon)
        except ValueError as exc:
            logger.warning("clip %s cannot be scored: %s", item.clip_id, exc)
            return item.clip_id, triples
        for name, estimate_of in estimators.items():
            try:
                estimate = estimate_of(item, estimates)
                triples[name] = score(estimate)
            except (ExternalSeparatorError, ValueError) as exc:
                logger.warning("%s failed on clip %s: %s", name, item.clip_id, exc)
                continue
            estimates[name] = estimate
            if est_dir is not None:
                write_wav(os.path.join(est_dirs[name], item.clip_id + ".wav"), estimate)
        return item.clip_id, triples

    for clip_id, triples in _map_in_order(step, items, workers):
        for name, result in results.items():
            if name in triples:
                result.per_clip.append(ClipScore(clip_id, triples[name]))
            else:
                result.failed.append(clip_id)
    for name, result in results.items():
        if result.failed:
            logger.warning("%s failed on %d clips: %s", name, len(result.failed),
                           result.failed)
    return results


def run_evaluation(config: ExperimentConfig,
                   eval_set: Iterable[EvalItem]) -> EvaluationResult:
    """Evaluate every configured separator and ensemble on an eval set.

    Clip by clip, each separator and then each ensemble makes and scores its
    estimate, which is written at once when an output directory is configured.
    ``eval_set`` is read once, in its own order; the results, metrics CSVs
    and report are those of the clips in clip_id order. A separator or
    scoring failure on a clip (for example a silent reference with
    ``epsilon=0``) excludes that clip from the separator's aggregate and is
    reported, not fatal.
    """
    if not config.separators:
        raise ConfigError("no separators configured")
    out_dir = Path(config.out_dir) if config.out_dir else None

    def run_separator(spec: SeparatorSpec, item: EvalItem, _estimates) -> Waveform:
        # oracle_irm needs the stems; separate() rejects it when they are missing
        sources = None if item.interference is None else (item.reference, item.interference)
        return separate(spec, item.mixture, item.caption, sources)

    def combine(definition: EnsembleDef, item: EvalItem, estimates: dict) -> Waveform:
        missing = [m for m in definition.members if m not in estimates]
        if missing:
            raise ValueError(f"no estimate from members {missing}")
        return ensemble([estimates[m] for m in definition.members], definition.weights)

    estimators = {name: partial(run_separator, spec) for name, spec in config.separators}
    estimators.update((name, partial(combine, definition))
                      for name, definition in config.ensembles.items())
    external = any(spec.kind == KIND_EXTERNAL for _, spec in config.separators)
    results = score_clips(eval_set, estimators, config.epsilon,
                          None if out_dir is None else out_dir / "estimates",
                          EXTERNAL_PROCESS_BOUND if external else 0)
    # sorted outputs, not inputs, so that the eval set is never held whole;
    # the aggregate then sums in clip_id order, whatever order the clips came in
    for result in results.values():
        result.per_clip.sort(key=lambda s: s.clip_id)
        result.failed.sort()
        if result.per_clip:
            result.aggregate = aggregate([s.metrics for s in result.per_clip],
                                         config.clamp_db)
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


@dataclass(frozen=True)
class _SyntheticEvalSet(Sequence):
    """A read-only sequence of synthetic clips, each made when it is read.

    Clip ``i`` depends only on ``(seed, i)``, so a read costs one synthesis
    and nothing is kept: each read returns a fresh :class:`EvalItem`.
    """
    n_clips: int
    seed: int
    sample_rate: int
    duration_s: float
    snr_db: float | None
    snr_range: tuple[float, float]

    def __len__(self) -> int:
        return self.n_clips

    def __getitem__(self, index):
        # range's indexing: negative indices, slices, IndexError past the end
        picked = range(self.n_clips)[index]
        if isinstance(picked, range):
            return [self._clip(i) for i in picked]
        return self._clip(picked)

    def _clip(self, i: int) -> EvalItem:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
        freq = float(rng.uniform(200.0, 4000.0))
        target = tone_burst(freq, self.duration_s, self.sample_rate,
                            burst_period_s=float(rng.uniform(0.3, 0.8)))
        interference = white_noise(self.duration_s, self.sample_rate, rng)
        snr_db = self.snr_db
        if snr_db is None:
            snr_db = float(rng.uniform(*self.snr_range))
        mixed = mix(target, interference, snr_db)
        return EvalItem(
            clip_id=f"clip_{i:03d}",
            mixture=mixed.mixture,
            reference=mixed.target,
            interference=mixed.interference,
            caption=_EVAL_CAPTIONS[i % len(_EVAL_CAPTIONS)],
        )


def make_synthetic_eval_set(n_clips: int, seed: int = 0, sample_rate: int = 16000,
                            duration_s: float = 4.0, snr_db: float | None = 0.0,
                            snr_range: tuple[float, float] = DEFAULT_SNR_RANGE_DB,
                            ) -> Sequence[EvalItem]:
    """Desk-scale eval clips: tone-burst targets in white-noise interference.

    With ``snr_db=None`` the per-clip SNR is drawn uniformly from
    ``snr_range`` using the seeded generator. The result is a read-only
    sequence that synthesises each clip when it is read, so evaluation
    holds only the clips in flight; ``list()`` it to keep or edit the items.
    Bad arguments raise ``ValueError`` here, before any clip is made.
    """
    n_clips = operator.index(n_clips)
    if n_clips < 0:
        raise ValueError("n_clips must be >= 0")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    if not (math.isfinite(duration_s) and round(duration_s * sample_rate) >= 1):
        raise ValueError("duration_s must give at least one sample")
    low, high = snr_range if snr_db is None else (snr_db, snr_db)
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise ValueError("snr_db must be finite, or None with a finite (low, high) snr_range")
    return _SyntheticEvalSet(n_clips, seed, sample_rate, duration_s, snr_db, snr_range)
