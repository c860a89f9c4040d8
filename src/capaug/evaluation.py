"""Separation evaluation: separators, ensembles, synthetic eval sets, scoring, reports.

This is the one capaug module besides ``audio`` and ``metrics`` that loads
NumPy when it is imported; ``capaug`` and ``capaug.harness`` load it on the
first use of one of its names, so augmentation never does. Runs are
deterministic for a fixed config and eval set: results are sorted by clip id
after scoring, and every artifact is written in a canonical form.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import re
import shlex
import subprocess
import tempfile
import threading
from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .audio import Waveform, _mix, oracle_irm, read_wav, tone_burst, white_noise, write_wav
from .corpus import open_replacing
from .harness import (DEFAULT_SNR_RANGE_DB, ConfigError, EnsembleDef, ExperimentConfig,
                      _map_in_order)
from .metrics import aggregate, scorer
from .reporting import MetricsTriple, ReportRow, render_report
from .separation import KIND_IDENTITY, KIND_ORACLE_IRM, SeparatorSpec

logger = logging.getLogger(__name__)

_PLACEHOLDER_RE = re.compile(r"\{(MIXTURE|CAPTION|OUT)\}")
EXTERNAL_PROCESS_BOUND = 2

# caps concurrent external subprocesses across all callers in this process
_external_slots = threading.BoundedSemaphore(EXTERNAL_PROCESS_BOUND)


class ExternalSeparatorError(RuntimeError):
    """External command failed, timed out, or produced unreadable output."""


def _run_external(spec: SeparatorSpec, mixture: Waveform, caption: str) -> Waveform:
    with tempfile.TemporaryDirectory(prefix="capaug_sep_") as tmp:
        # os.path, not pathlib: see score_clips
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
                # stdout is not read: a separator's progress log is not held per clip
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True,
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
        return oracle_irm(mixture, target, interference, spec.stft_params)
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
    with open_replacing(path) as fh:
        fh.write("clip_id,sdr,sdri,si_sdr\n")
        for score in scores:
            t = score.metrics
            fh.write(f"{score.clip_id},{t.sdr_db:.6f},{t.sdri_db:.6f},{t.si_sdr_db:.6f}\n")


def score_clips(items, estimators, epsilon: float, est_dir: Path | None = None, *,
                kept: Container[str]) -> dict[str, SeparatorResult]:
    """Score every estimator on each item, clip by clip, in the order given.

    ``estimators`` maps a name to ``estimate_of(item, estimates)``, where
    ``estimates`` holds the estimates that earlier names in ``kept`` made of
    the same clip. ``kept`` has no default: a caller names every estimate
    that a later name reads, or none.
    ``items`` is any iterable of :class:`EvalItem`, read once. A clip whose
    estimate or score raises ``ExternalSeparatorError`` or ``ValueError`` is
    listed in that name's ``failed``; a clip whose mixture cannot be scored
    (for example a silent reference with ``epsilon=0``) is listed in every
    name's, and no estimate of it is made. With ``est_dir``, estimates are
    written to ``est_dir/<name>/`` as soon as they are scored. An estimate
    not in ``kept`` is dropped once it is scored and written, and the rest
    once the clip is done. Clips run on ``EXTERNAL_PROCESS_BOUND`` worker
    threads, and one more clip is queued, so at most
    ``EXTERNAL_PROCESS_BOUND + 1`` clips are in memory at a time. No
    aggregate is set: :func:`run_evaluation` forms it in clip_id order.
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
            if est_dir is not None:
                write_wav(os.path.join(est_dirs[name], item.clip_id + ".wav"), estimate)
            if name in kept:
                estimates[name] = estimate
            del estimate  # not held through the next name's work
        return item.clip_id, triples

    for clip_id, triples in _map_in_order(step, items, EXTERNAL_PROCESS_BOUND):
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

    Clip by clip, through :func:`score_clips`, each separator and then each
    ensemble makes and scores its estimate, which is written at once when an
    output directory is configured. ``eval_set`` is read once, in its own
    order; the results, metrics CSVs and report are those of the clips in
    clip_id order. A separator or scoring failure on a clip (for example a
    silent reference with ``epsilon=0``) excludes that clip from the
    separator's aggregate and is reported, not fatal.
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
    # only the ensembles read other estimates, and only their members'
    members = {m for definition in config.ensembles.values() for m in definition.members}
    results = score_clips(eval_set, estimators, config.epsilon,
                          None if out_dir is None else out_dir / "estimates", kept=members)
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
            with open_replacing(out_dir / "report.md") as fh:
                fh.write(render_report(rows, config_hash=evaluation.config_hash))
                fh.write(f"eval epsilon: {config.epsilon:g} (library default 0), "
                         f"clamp: +/-{config.clamp_db:g} dB\n")
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
        # the stems are this clip's own, so they are mixed in place
        mixed = _mix(target, interference, snr_db)
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
