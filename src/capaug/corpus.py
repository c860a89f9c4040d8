"""Manifest ingestion, augmentation bookkeeping, and dataset statistics.

A manifest is one canonical JSON document: UTF-8, LF line endings, entries
sorted by clip_id, stable field order. That makes written manifests safe to
commit and diff, and lets a re-serialized round-trip reproduce the file
byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path

from .filtering import normalize

TOOL_VERSION = "0.1.0"

WAVCAPS_SUBSETS = {"BBC", "SoundBible", "AudioSet"}
CLOTHO_CAPTION_COLUMNS = ["caption_1", "caption_2", "caption_3", "caption_4", "caption_5"]


class FreeSoundExcludedError(ValueError):
    """Raised when the FreeSound subset is requested; it is not ingestible."""


class SourceDataset(str, Enum):
    FSD50K = "FSD50K"
    CLOTHO_V2 = "ClothoV2"
    WAVCAPS_BBC = "WavCapsBBC"
    WAVCAPS_SOUNDBIBLE = "WavCapsSoundBible"
    WAVCAPS_AUDIOSET = "WavCapsAudioSet"
    SYNTHETIC = "Synthetic"


_WAVCAPS_SUBSET_TO_SOURCE = {
    "BBC": SourceDataset.WAVCAPS_BBC,
    "SoundBible": SourceDataset.WAVCAPS_SOUNDBIBLE,
    "AudioSet": SourceDataset.WAVCAPS_AUDIOSET,
}


@dataclass
class ClipEntry:
    clip_id: str
    source_dataset: SourceDataset
    original_captions: list[str]
    augmented_captions: list[str] = field(default_factory=list)
    audio_path: str | None = None

    def __post_init__(self):
        if not self.clip_id:
            raise ValueError("clip_id must be non-empty")
        if not self.original_captions:
            raise ValueError(f"clip {self.clip_id!r} has no original captions")
        keys = [normalize(c) for c in self.augmented_captions]
        if len(keys) != len(set(keys)):
            raise ValueError(f"clip {self.clip_id!r} has duplicate augmented captions")

    @classmethod
    def from_dict(cls, doc: dict) -> "ClipEntry":
        """The entry a manifest document describes.

        A missing or wrongly typed field raises ``ValueError`` naming the clip
        and the field: a ``clip_id`` that is not a string, an ``audio_path``
        that is neither a string nor null, or captions that are not a list of
        strings. So does an entry that is not an object.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"manifest entry {doc!r} is not an object")
        try:
            clip_id, original, source = (doc["clip_id"], doc["original_captions"],
                                         doc["source_dataset"])
        except KeyError as exc:
            raise ValueError(f"clip {doc.get('clip_id')!r}: missing field {exc}") from exc
        audio_path, augmented = doc.get("audio_path"), doc.get("augmented_captions", [])
        if not isinstance(clip_id, str):
            raise ValueError(f"clip {clip_id!r}: clip_id must be a string")
        if not (audio_path is None or isinstance(audio_path, str)):
            raise ValueError(f"clip {clip_id!r}: audio_path must be a string or null")
        for name, value in (("original_captions", original), ("augmented_captions", augmented)):
            if not (isinstance(value, list) and all(isinstance(c, str) for c in value)):
                raise ValueError(f"clip {clip_id!r}: {name} must be a list of strings")
        return cls(
            clip_id=clip_id,
            audio_path=audio_path,
            source_dataset=SourceDataset(source),
            original_captions=list(original),
            augmented_captions=list(augmented),
        )


@dataclass
class Manifest:
    """Immutable value: updates produce new manifests, entries are not mutated."""

    entries: list[ClipEntry]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_id = {}
        for entry in self.entries:
            if entry.clip_id in self._by_id:
                raise ValueError(f"duplicate clip_id in manifest: {entry.clip_id!r}")
            self._by_id[entry.clip_id] = entry

    def get(self, clip_id: str) -> ClipEntry:
        try:
            return self._by_id[clip_id]
        except KeyError:
            raise KeyError(f"unknown clip_id {clip_id!r}") from None


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_manifest(entries: list[ClipEntry], created_at: str | None = None,
                 prompt_kind: str | None = None, seed: int | None = None) -> Manifest:
    metadata = {
        "created_at": created_at or utc_now_iso(),
        "tool_version": TOOL_VERSION,
        "prompt_kind": prompt_kind,
        "seed": seed,
    }
    return Manifest(entries=entries, metadata=metadata)


def _string_list(items: list[str]) -> str:
    """A caption list as ``json.dumps(indent=2)`` writes it inside an entry."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(encode_basestring, items)) + "\n      ]"


def _entry_json(entry: ClipEntry) -> str:
    audio_path = "null" if entry.audio_path is None else encode_basestring(entry.audio_path)
    return (f'    {{\n      "clip_id": {encode_basestring(entry.clip_id)},\n'
            f'      "audio_path": {audio_path},\n'
            f'      "source_dataset": {encode_basestring(entry.source_dataset.value)},\n'
            f'      "original_captions": {_string_list(entry.original_captions)},\n'
            f'      "augmented_captions": {_string_list(entry.augmented_captions)}\n'
            '    }')


@contextmanager
def open_replacing(path):
    """A temp text file beside ``path`` that replaces it (``os.replace``) when
    the block ends; if the block raises, ``path`` keeps its old bytes."""
    tmp = Path(f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_manifest(manifest: Manifest, path) -> None:
    """Write the canonical form: ``json.dumps(doc, indent=2, ensure_ascii=False)``.

    The document is streamed entry by entry, in clip_id order, with
    ``encode_basestring`` (the string encoder ``json.dumps`` uses), rather
    than built whole: an indent sends ``json.dumps`` to its pure-Python
    encoder. Metadata may hold any JSON value, so it goes through ``json.dumps``.
    """
    meta = {
        "created_at": manifest.metadata.get("created_at"),
        "tool_version": manifest.metadata.get("tool_version", TOOL_VERSION),
        "prompt_kind": manifest.metadata.get("prompt_kind"),
        "seed": manifest.metadata.get("seed"),
    }
    # json escapes every newline inside a string, so each one here is structural
    meta_json = json.dumps(meta, indent=2, ensure_ascii=False).replace("\n", "\n  ")
    with open_replacing(path) as fh:
        fh.write(f'{{\n  "metadata": {meta_json},\n  "entries": [')
        separator = "\n"
        for entry in sorted(manifest.entries, key=attrgetter("clip_id")):
            fh.write(separator + _entry_json(entry))
            separator = ",\n"
        fh.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def read_manifest(path) -> Manifest:
    """The manifest at ``path``. A document that is not one (no ``entries``
    list, a ``metadata`` that is not an object, a malformed entry) raises
    ``ValueError`` naming ``path``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(doc, dict) and "entries" in doc):
        raise ValueError(f"{path}: not a manifest: missing field 'entries'")
    if not isinstance(doc["entries"], list):
        raise ValueError(f"{path}: 'entries' must be a list")
    if not isinstance(doc.get("metadata", {}), dict):
        raise ValueError(f"{path}: 'metadata' must be an object")
    try:
        return Manifest(entries=[ClipEntry.from_dict(e) for e in doc["entries"]],
                        metadata=dict(doc.get("metadata", {})))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def ingest_clotho(csv_path) -> list[ClipEntry]:
    """Read a Clotho-style CSV (file_name, caption_1..caption_5)."""
    entries: list[ClipEntry] = []
    seen: set[str] = set()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ["file_name", *CLOTHO_CAPTION_COLUMNS] if c not in header]
        if missing:
            raise ValueError(f"{csv_path}: missing columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            name = row["file_name"]
            if name in seen:
                raise ValueError(f"{csv_path}: duplicate file_name {name!r}")
            seen.add(name)
            captions = [row[c].strip() for c in CLOTHO_CAPTION_COLUMNS]
            if any(not c for c in captions):
                raise ValueError(f"{csv_path}: empty caption cell in row {row_no}")
            entries.append(ClipEntry(
                clip_id=name,
                audio_path=None,
                source_dataset=SourceDataset.CLOTHO_V2,
                original_captions=captions,
            ))
    return entries


def ingest_fsd50k(labels_csv_path) -> list[ClipEntry]:
    """Read an FSD50K-style labels CSV (fname, labels).

    The comma-separated class list, joined with ", ", becomes the single
    label-as-caption for the clip.
    """
    entries: list[ClipEntry] = []
    with open(labels_csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("fname", "labels") if c not in header]
        if missing:
            raise ValueError(f"{labels_csv_path}: missing columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            labels = [part.strip() for part in row["labels"].split(",") if part.strip()]
            if not labels:
                raise ValueError(f"{labels_csv_path}: empty labels cell in row {row_no}")
            entries.append(ClipEntry(
                clip_id=str(row["fname"]),
                audio_path=None,
                source_dataset=SourceDataset.FSD50K,
                original_captions=[", ".join(labels)],
            ))
    return entries


def ingest_wavcaps(json_path, subset: str) -> list[ClipEntry]:
    """Read a WavCaps-style JSON array of {id, caption} for one subset.

    The FreeSound subset is refused outright: those clips overlap the
    evaluation material and may not enter a training manifest.
    """
    if subset == "FreeSound":
        raise FreeSoundExcludedError(
            "the FreeSound subset is excluded from ingestion and cannot be loaded"
        )
    if subset not in WAVCAPS_SUBSETS:
        raise ValueError(f"unknown WavCaps subset {subset!r}; "
                         f"expected one of {sorted(WAVCAPS_SUBSETS)}")
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "data" in doc:
        doc = doc["data"]
    if not isinstance(doc, list):
        raise ValueError(f"{json_path}: expected a JSON array of clip records")
    source = _WAVCAPS_SUBSET_TO_SOURCE[subset]
    entries = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "id" not in item or \
                not isinstance(item.get("caption"), str):
            raise ValueError(f"{json_path}: element {i} is not an {{id, caption}} record "
                             "with a string caption")
        entries.append(ClipEntry(
            clip_id=str(item["id"]),
            audio_path=None,
            source_dataset=source,
            original_captions=[item["caption"]],
        ))
    return entries


def merge_augmented_captions(entry: ClipEntry, captions: list[str],
                             keys: list[str] | None = None) -> tuple[ClipEntry, int]:
    """New entry with captions appended, normalize-duplicates skipped.

    Duplicates are checked against both the originals and the already
    attached augmentations; the skip count is returned alongside. ``keys``,
    when given, holds ``normalize(c)`` for each of ``captions`` (as
    ``FilterReport.accepted_keys`` does), so they are not normalized again.
    """
    existing = {normalize(c) for c in entry.original_captions}
    existing.update(normalize(c) for c in entry.augmented_captions)
    if keys is None:
        keys = [normalize(c) for c in captions]

    added = list(entry.augmented_captions)
    skipped = 0
    for caption, key in zip(captions, keys, strict=True):
        if key in existing:
            skipped += 1
            continue
        existing.add(key)
        added.append(caption)
    merged = ClipEntry(
        clip_id=entry.clip_id,
        audio_path=entry.audio_path,
        source_dataset=entry.source_dataset,
        original_captions=list(entry.original_captions),
        augmented_captions=added,
    )
    return merged, skipped


@dataclass(frozen=True)
class SummaryRow:
    source_dataset: str
    num_clips: int
    num_original_captions: int
    num_augmented_captions: int


def summarize(manifest: Manifest) -> list[SummaryRow]:
    """Per-dataset clip/caption counts plus a final total row."""
    buckets: dict[str, list[int]] = {}
    for entry in manifest.entries:
        counts = buckets.setdefault(entry.source_dataset.value, [0, 0, 0])
        counts[0] += 1
        counts[1] += len(entry.original_captions)
        counts[2] += len(entry.augmented_captions)
    rows = [SummaryRow(name, *buckets[name]) for name in sorted(buckets)]
    rows.append(SummaryRow(
        "Total",
        sum(r.num_clips for r in rows),
        sum(r.num_original_captions for r in rows),
        sum(r.num_augmented_captions for r in rows),
    ))
    return rows


def sample_training_pair(manifest: Manifest, include_augmented: bool = False,
                         rng: random.Random | int = 0) -> tuple[str, str]:
    """Draw (clip_id, caption): uniform over clips, then uniform over captions."""
    if not manifest.entries:
        raise ValueError("cannot sample from an empty manifest")
    if isinstance(rng, int):
        rng = random.Random(rng)
    entry = manifest.entries[rng.randrange(len(manifest.entries))]
    captions = list(entry.original_captions)
    if include_augmented:
        captions.extend(entry.augmented_captions)
    return entry.clip_id, captions[rng.randrange(len(captions))]
