"""Span tracing installed from outside by rebinding capaug module attributes.

Each wrapped call records a span (id, name, start, end, parent, clip id) in
memory; counters record call counts without timing. Spans of a clip share its
clip id. Nothing is written until the run ends. An attribute that a later
version of capaug no longer has is skipped, and its metrics then read 0.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.attempts: list[int] = []
        self.failed: dict[str, int] = {}
        self.write_bytes = 0
        self.root: tuple[int, str | None] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict[str, int]] = []
        self._restore: list[tuple] = []
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counts(self) -> dict[str, int]:
        # One dict per thread, so counting takes no lock; merged by counts().
        try:
            return self._local.counts
        except AttributeError:
            self._local.counts = {}
            self._thread_counts.append(self._local.counts)
            return self._local.counts

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for per_thread in self._thread_counts:
            for name, count in per_thread.items():
                merged[name] = merged.get(name, 0) + count
        return merged

    def wrap(self, fn, name, clip_of=None, name_of=None, on_result=None, root=False):
        """``fn`` recorded as a span. With an empty stack on this thread the
        parent is the current root span, because pool threads start empty.
        A root span (a pipeline call) becomes that parent while it runs."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            clip = clip_of(args) if clip_of else None
            if clip is None and parent is not None:
                clip = parent[1]
            if root:
                parent, tracer.root = None, (sid, clip)
            stack.append((sid, clip))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with tracer._lock:
                    tracer.failed[span_name] = tracer.failed.get(span_name, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    tracer.root = None
                tracer.spans.append((sid, span_name, start, end,
                                     parent[0] if parent else None, clip))
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def counter(self, fn, name):
        counts = self._counts

        def counted(*args, **kwargs):
            per_thread = counts()
            per_thread[name] = per_thread.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Wrap the capaug entry points each layer metric is read from."""
        from capaug import corpus, filtering, harness, separation
        # id(mixture) -> clip id, so separator and scoring spans carry their clip
        ids: dict[int, str] = {}

        def remember_clips(_args, items):
            ids.update((id(item.mixture), item.clip_id) for item in items)

        def by_mixture(position):
            return lambda args: ids.get(id(args[position])) if len(args) > position else None

        def count_bytes(args, _result):
            size = os.path.getsize(args[0])
            with self._lock:
                self.write_bytes += size

        spans = [
            (harness, "run_augmentation", "harness.run_augmentation", {"root": True}),
            (harness, "run_evaluation", "harness.run_evaluation", {"root": True}),
            (harness, "make_synthetic_eval_set", "harness.make_synthetic_eval_set",
             {"on_result": remember_clips}),
            (harness, "_augment_one", "harness.augment_clip",
             {"clip_of": lambda args: args[3].clip_id}),
            (harness, "render", "prompts.render", {}),
            (harness, "parse_numbered", "filtering.parse_numbered", {}),
            (harness, "filter_captions", "filtering.filter_captions", {}),
            (harness, "merge_augmented_captions", "corpus.merge_augmented_captions",
             {"clip_of": lambda args: args[0].clip_id}),
            (harness, "read_manifest", "corpus.read_manifest", {}),
            (harness, "write_manifest", "corpus.write_manifest", {}),
            (harness, "mix", "audio.mix", {}),
            (harness, "separate", None,
             {"name_of": lambda args: f"separation.separate.{args[0].kind}",
              "clip_of": by_mixture(1)}),
            (harness, "compute_triple", "metrics.compute_triple",
             {"clip_of": by_mixture(1)}),
            (harness, "ensemble", "separation.ensemble", {}),
            (harness, "write_wav", "audio.write_wav", {"on_result": count_bytes}),
            (harness, "render_report", "reporting.render_report", {}),
            (separation, "stft", "audio.stft", {}),
            (separation, "istft", "audio.istft", {}),
            (separation, "irm_mask", "separation.irm_mask", {}),
            (separation, "read_wav", "audio.read_wav", {}),
            (separation, "write_wav", "audio.write_wav", {"on_result": count_bytes}),
        ]
        for module, attr, name, options in spans:
            self.rebind(module, attr, lambda fn, n=name, o=options: self.wrap(fn, n, **o))
        self.rebind(filtering, "normalize",
                    lambda fn: self.counter(fn, "filtering.normalize"))
        self.rebind(corpus, "normalize", lambda fn: self.counter(fn, "corpus.normalize"))

    def wrap_complete(self, complete_fn):
        """The complete_fn passed into run_augmentation, recording attempts."""
        def record(_args, response):
            self.attempts.append(response.attempt)
        return self.wrap(complete_fn, "llm.complete", on_result=record)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, clip in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": round(start - self.origin, 9),
                                     "end": round(end - self.origin, 9),
                                     "parent": parent, "clip": clip}) + "\n")

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations(name))

    def self_s(self, name: str) -> float:
        """Span time minus the union of its child spans, summed over spans."""
        total = 0.0
        for sid, n, start, end, _, _ in self.spans:
            if n != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted((s[2], s[3]) for s in self.spans if s[4] == sid):
                if c_end > reach:
                    covered += c_end - max(c_start, reach)
                    reach = c_end
            total += (end - start) - covered
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


def layer_metrics(tracer: Tracer, clips: int, stats_totals: dict | None) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by per_layer metric name.

    Latency percentiles are left to the caller, which pools the samples of
    all traced passes so that p99 has at least ten samples beyond it.
    """
    totals = stats_totals or {}
    complete = tracer.durations("llm.complete")
    counts = tracer.counts()
    values = {
        "prompts.render.busy_s": tracer.busy_s("prompts.render"),
        "llm.complete.busy_s": sum(complete),
        "llm.complete.calls": len(complete),
        "llm.complete.failed": tracer.failed.get("llm.complete", 0),
        "llm.attempts_per_call": _ratio(sum(tracer.attempts), len(tracer.attempts)),
        "filtering.parse_numbered.busy_s": tracer.busy_s("filtering.parse_numbered"),
        "filtering.filter_captions.busy_s": tracer.busy_s("filtering.filter_captions"),
        "filtering.normalize.calls_per_clip":
            _ratio(counts.get("filtering.normalize", 0), clips),
        "filtering.accept_ratio": _ratio(totals.get("accepted", 0), totals.get("parsed", 0)),
        "corpus.normalize.calls_per_clip":
            _ratio(counts.get("corpus.normalize", 0), clips),
        "corpus.read_manifest.s": tracer.busy_s("corpus.read_manifest"),
        "corpus.merge_augmented_captions.busy_s":
            tracer.busy_s("corpus.merge_augmented_captions"),
        "corpus.write_manifest.s": tracer.busy_s("corpus.write_manifest"),
        "corpus.attach_skip_ratio":
            _ratio(totals.get("attach_skipped", 0), totals.get("accepted", 0)),
        "harness.run_augmentation.self_s": tracer.self_s("harness.run_augmentation"),
        "harness.run_evaluation.self_s": tracer.self_s("harness.run_evaluation"),
        "audio.mix.busy_s": tracer.busy_s("audio.mix"),
        "audio.stft.calls": len(tracer.durations("audio.stft")),
        "audio.stft.busy_s": tracer.busy_s("audio.stft"),
        "audio.istft.busy_s": tracer.busy_s("audio.istft"),
        "audio.read_wav.busy_s": tracer.busy_s("audio.read_wav"),
        "audio.write_wav.busy_s": tracer.busy_s("audio.write_wav"),
        "audio.write_wav.bytes": tracer.write_bytes,
        "separation.irm_mask.busy_s": tracer.busy_s("separation.irm_mask"),
        "separation.ensemble.busy_s": tracer.busy_s("separation.ensemble"),
        "metrics.compute_triple.calls": len(tracer.durations("metrics.compute_triple")),
        "metrics.compute_triple.busy_s": tracer.busy_s("metrics.compute_triple"),
        "reporting.render_report.busy_s": tracer.busy_s("reporting.render_report"),
    }
    for kind in ("identity", "oracle_irm", "external"):
        values[f"separation.separate.busy_s.{kind}"] = \
            tracer.busy_s(f"separation.separate.{kind}")
    return values


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
