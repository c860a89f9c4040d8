"""Experiment configuration and the augmentation run.

Evaluation lives in :mod:`capaug.evaluation`; its names are still reachable
here (``harness.run_evaluation``), and load it, and NumPy, on first use.
Runs are deterministic for a fixed config and seed. Per-clip decisions are
seeded from ``(global seed, clip_id)``, reductions happen over clip_id-sorted
results, and every artifact is written in a canonical form, so a rerun, or a
resume from the journal of LLM replies, writes a fresh run's bytes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import math
import os
import random
import threading
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import partial
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from . import corpus
from .corpus import (Manifest, merge_augmented_captions, open_replacing, read_manifest,
                     write_manifest)
from .filtering import FilterRules, filter_captions, parse_numbered
from .llm import LlmClient, LlmConfig, LlmError, MockLlmClient
from .prompts import PromptKind, builtin_template, render
from .separation import SeparatorSpec

logger = logging.getLogger(__name__)

MANIFEST_FILENAME = "manifest.json"
STATS_FILENAME = "augment_stats.json"
FAILURES_FILENAME = "failures.json"
JOURNAL_FILENAME = "responses.jsonl"
ABORT_FAILURE_FRACTION = 0.5
DEFAULT_EVAL_EPSILON = 1e-8
DEFAULT_SNR_RANGE_DB = (-10.0, 10.0)
DEFAULT_CLAMP_DB = 60.0

# evaluation's names that the benchmark reads here; they load NumPy, so they
# resolve on first use and a config or an augmentation run never loads it
_EVALUATION_NAMES = frozenset({"run_evaluation", "make_synthetic_eval_set"})


def __getattr__(name):
    if name in _EVALUATION_NAMES:
        return getattr(importlib.import_module(".evaluation", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class HarnessError(RuntimeError):
    """A run could not be completed (for example, too many failed clips)."""


def _typed(value, kinds) -> bool:
    """``isinstance(value, kinds)``, where a bool is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


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
        for names, kinds, what in ((("requested_count", "mock_seed", "seed"), int, "an integer"),
                                   (("epsilon", "clamp_db"), (int, float), "a number"),
                                   (("manifest_path", "out_dir"), (str, type(None)),
                                    "a string or null"),
                                   (("provenance",), dict, "an object")):
            for name in names:
                if not _typed(getattr(self, name), kinds):
                    raise ConfigError(f"{name} must be {what}, not {getattr(self, name)!r}")
        if not isinstance(self.use_mock_llm, bool):
            raise ConfigError(f"llm mock must be true or false, not {self.use_mock_llm!r}")
        # an integer is stored, and hashed, as the float it stands for
        self.epsilon, self.clamp_db = float(self.epsilon), float(self.clamp_db)
        if not (isinstance(self.snr_range, (tuple, list)) and len(self.snr_range) == 2
                and all(_typed(x, (int, float)) and math.isfinite(x) for x in self.snr_range)
                and self.snr_range[0] <= self.snr_range[1]):
            raise ConfigError("snr_range must be two finite numbers [low, high] with "
                              f"low <= high, not {self.snr_range!r}")
        self.snr_range = tuple(self.snr_range)
        try:
            builtin_template(self.prompt_kind)
        except ValueError as exc:
            raise ConfigError(
                f"prompt kind {self.prompt_kind!r} has no built-in template") from exc
        if self.requested_count < 1:
            raise ConfigError("requested_count must be >= 1")
        names = [name for name, _ in self.separators]
        if not all(isinstance(name, str) and name for name in names):
            raise ConfigError(f"separator names must be non-empty strings, not {names}")
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
            # weights that evaluation.ensemble refuses, or turns to NaN, on every clip
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
        use_mock = llm_doc.pop("mock", False)
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
        for name, d in ensemble_docs.items():
            members, weights = d["members"], d.get("weights")
            if not (isinstance(members, list) and all(isinstance(m, str) for m in members)
                    and (weights is None or isinstance(weights, list)
                         and all(_typed(w, (int, float)) for w in weights))):
                raise ConfigError(f"ensemble {name!r} needs a list of member names "
                                  "and a list of numeric weights or null")
        ensembles = {name: EnsembleDef(tuple(d["members"]),
                                       tuple(d["weights"]) if d.get("weights") else None)
                     for name, d in ensemble_docs.items()}
        return cls(
            manifest_path=doc.get("manifest"),
            prompt_kind=prompt.get("kind", PromptKind.MODIFIED_WAVCAPS.value),
            requested_count=prompt.get("count", 4),
            use_mock_llm=use_mock,
            mock_seed=llm_doc.get("seed", 0) if use_mock else 0,
            llm=None if use_mock else LlmConfig.from_dict(llm_doc),
            filter_rules=FilterRules.from_dict(doc.get("filter_rules", {})),
            separators=separators,
            ensembles=ensembles,
            snr_range=doc.get("snr_range", DEFAULT_SNR_RANGE_DB),
            epsilon=doc.get("epsilon", DEFAULT_EVAL_EPSILON),
            clamp_db=doc.get("clamp_db", DEFAULT_CLAMP_DB),
            out_dir=doc.get("out_dir"),
            seed=doc.get("seed", 0),
            provenance=doc.get("provenance", {}),
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


@dataclass
class AugmentationStats:
    per_clip: dict[str, ClipAugmentation] = field(default_factory=dict)

    def gateway_failures(self) -> list[str]:
        return sorted(c for c, s in self.per_clip.items() if s.gateway_failed)

    def totals(self) -> dict:
        rejected = Counter()
        for s in self.per_clip.values():
            rejected.update(s.rejected)
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
    writes it ``indent`` deep, without its pure-Python encoder, for the types
    augmentation stats hold: str, int, bool, None and str-keyed dicts of them."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is not dict:
        raise TypeError(f"no stats value is a {kind.__name__}")
    if not value:
        return "{}"
    inner = indent + "  "
    items = ",\n".join([f"{inner}{encode_basestring(k)}: {_json_value(value[k], inner)}"
                         for k in sorted(value)])
    return f"{{\n{items}\n{indent}}}"


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


class _ResponseJournal:
    """A run's backend (``complete_fn``, else ``config``'s client) and, with an
    ``out_dir``, its journal: a line per reply, holding a BLAKE2b key of the
    backend fields that shape a reply, the clip id and the prompt, a tab, and
    the reply as an ASCII JSON string. A journalled prompt is not sent again."""

    def __init__(self, config: ExperimentConfig, complete_fn, out_dir: Path | None,
                 resume: bool):
        self._client = build_client(config) if complete_fn is None else None
        self._complete_fn = complete_fn or self._client.complete
        llm = config.llm
        backend = (["mock", config.mock_seed] if config.use_mock_llm
                   else [llm.endpoint_url, llm.model_id, llm.temperature, llm.max_tokens])
        self._prefix = json.dumps(backend)  # self-delimiting, as is the quoted clip id
        self._replies, self._lock, self._fh = {}, threading.Lock(), None
        if out_dir is None:
            return
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / JOURNAL_FILENAME
        if resume and path.exists():
            data = path.read_bytes()
            whole = data.rfind(b"\n") + 1
            os.truncate(path, whole)  # a torn last line: the next append starts a line
            for line in data[:whole].decode("ascii", "replace").splitlines():
                key, _, reply = line.partition("\t")
                with suppress(ValueError):  # a damaged line's prompt is requested again
                    self._replies[key] = json.loads(reply)
            logger.info("resume: %d journalled replies in %s", len(self._replies), path)
        self._fh = open(path, "a" if resume else "w", encoding="ascii", newline="\n")

    def reply(self, clip_id: str, prompt: str) -> str:
        if self._fh is None:
            return self._complete_fn(prompt).text
        key = hashlib.blake2b(f"{self._prefix}{encode_basestring_ascii(clip_id)}{prompt}"
                              .encode("utf-8", "surrogatepass"), digest_size=16).hexdigest()
        text = self._replies.get(key)
        if text is None:
            text = self._complete_fn(prompt).text
            with self._lock:  # HTTP clips finish on worker threads
                self._fh.write(f"{key}\t{encode_basestring_ascii(text)}\n")
        return text

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
        if self._client is not None:
            self._client.close()


def _map_in_order(fn, items, workers: int) -> list:
    """``fn`` over ``items``, results in item order, on ``workers`` threads if > 0.

    Callers pass workers only where the work waits outside the interpreter.
    Augmentation gets them for the HTTP client, whose calls wait on the
    gateway; mock augmentation is pure Python under the GIL, where threads
    add overhead and no parallelism, and runs on the calling thread.
    Evaluation always gets them: its NumPy work releases the GIL, and an
    external separator's clips wait on its processes. On a 2-core machine,
    evaluating 100 4 s clips with identity, ``oracle_irm`` and an ensemble
    took 1.12-1.66 s on the calling thread and 0.75-0.81 s on 2 threads; an
    ``oracle_irm`` call holds about 1.2 MB of block buffers while it runs.
    At most ``workers + 1`` items are drawn and unfinished: one per worker and
    one queued, so a worker that finishes has its next item at once, and a
    lazy ``items`` is read as fast as it is processed (``Executor.map`` draws
    it all). An evaluation item is a clip, so three are in flight on two
    workers. An item that is slow to finish holds back no other. The first
    exception, in item order, propagates once the items running have
    finished, and the items not yet started are dropped.
    """
    if not workers:
        return list(map(fn, items))
    results, pending, unfinished = [], deque(), set()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for item in items:
            future = pool.submit(fn, item)
            pending.append(future)
            unfinished.add(future)
            if len(unfinished) > workers:
                done, unfinished = wait(unfinished, return_when=FIRST_COMPLETED)
                if any(f.exception() is not None for f in done):
                    break  # the loop below raises the first exception in item order
                while pending and pending[0].done():
                    results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _augment_one(config: ExperimentConfig, template, journal: _ResponseJournal,
                 clip: corpus.ClipEntry) -> tuple[corpus.ClipEntry, ClipAugmentation]:
    """One clip's new entry and stats.

    The seed caption is ``random.Random(f"{seed}:{clip_id}").randrange(n)`` of
    the clip's ``n`` originals. With one original that is always 0, so the
    generator, a SHA-512 hash and an MT19937 seeding, is built only where
    there is a choice. A journalled reply counts as a fresh one. A gateway
    failure or a blank source caption leaves the entry as it was and sets the
    clip's ``error``; only the former, never journalled, sets ``gateway_failed``.
    """
    n = len(clip.original_captions)
    index = random.Random(f"{config.seed}:{clip.clip_id}").randrange(n) if n > 1 else 0
    failed = dict(clip_id=clip.clip_id, seed_caption_index=index,
                  requested=config.requested_count, parsed=0, accepted=0)
    try:
        prompt = render(template, clip.original_captions[index], config.requested_count)
    except ValueError as exc:  # a blank source caption
        logger.warning("clip %s: %s", clip.clip_id, exc)
        return clip, ClipAugmentation(**failed, error=str(exc))
    try:
        text = journal.reply(clip.clip_id, prompt)
    except LlmError as exc:
        logger.warning("clip %s: gateway failure: %s", clip.clip_id, exc)
        return clip, ClipAugmentation(**failed, gateway_failed=True, error=str(exc))
    candidates = parse_numbered(text)
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
    more than half of the clips fail. With an ``out_dir``, each reply is
    journalled as it arrives, and with ``resume`` a journalled reply stands in
    for the request, so a resume with any config writes a fresh run's bytes.
    ``resume=False`` empties the journal first.
    """
    if manifest is None:
        if not config.manifest_path:
            raise ConfigError("no manifest given and no manifest path configured")
        manifest = read_manifest(config.manifest_path)
    template = builtin_template(config.prompt_kind)
    out_dir = Path(config.out_dir) if config.out_dir else None
    clips = sorted(manifest.entries, key=lambda e: e.clip_id)
    workers = 0 if config.use_mock_llm else config.llm.max_concurrent_requests
    journal = _ResponseJournal(config, complete_fn, out_dir, resume)
    try:
        outcomes = _map_in_order(partial(_augment_one, config, template, journal), clips, workers)
    finally:
        journal.close()
    stats = AugmentationStats(per_clip={s.clip_id: s for _, s in outcomes})

    failures = stats.gateway_failures()
    if clips and len(failures) / len(clips) > ABORT_FAILURE_FRACTION:
        raise HarnessError(
            f"aborting: {len(failures)} of {len(clips)} clips failed at the gateway")

    merged = {entry.clip_id: entry for entry, _ in outcomes}
    metadata = dict(manifest.metadata)
    # the input's own value, or null: a stamp of the current time would make
    # every rerun of the same input write different bytes
    metadata["created_at"] = manifest.metadata.get("created_at")
    metadata["tool_version"] = corpus.TOOL_VERSION
    metadata["prompt_kind"] = config.prompt_kind
    metadata["seed"] = config.seed
    result = Manifest(entries=[merged[entry.clip_id] for entry in manifest.entries],
                      metadata=metadata)

    if out_dir is not None:
        write_manifest(result, out_dir / MANIFEST_FILENAME)
        _write_stats(stats, out_dir / STATS_FILENAME)
        failures_path = out_dir / FAILURES_FILENAME
        if failures:
            with open_replacing(failures_path) as fh:
                fh.write(json.dumps({"failed_clips": failures}, indent=2) + "\n")
        else:
            failures_path.unlink(missing_ok=True)
    return result, stats
