"""Manifest ingestion, augmentation bookkeeping, and dataset statistics.

A manifest is one canonical JSON document: UTF-8, LF line endings, entries
sorted by clip_id, stable field order. That makes written manifests safe to
commit and diff, and lets a re-serialized round-trip reproduce the file
byte for byte.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
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

    def to_dict(self) -> dict:
        return {
            "clip_id": self.clip_id,
            "audio_path": self.audio_path,
            "source_dataset": self.source_dataset.value,
            "original_captions": list(self.original_captions),
            "augmented_captions": list(self.augmented_captions),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ClipEntry":
        return cls(
            clip_id=doc["clip_id"],
            audio_path=doc.get("audio_path"),
            source_dataset=SourceDataset(doc["source_dataset"]),
            original_captions=list(doc["original_captions"]),
            augmented_captions=list(doc.get("augmented_captions", [])),
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

    def to_dict(self) -> dict:
        meta = {
            "created_at": self.metadata.get("created_at"),
            "tool_version": self.metadata.get("tool_version", TOOL_VERSION),
            "prompt_kind": self.metadata.get("prompt_kind"),
            "seed": self.metadata.get("seed"),
        }
        entries = sorted(self.entries, key=lambda e: e.clip_id)
        return {"metadata": meta, "entries": [e.to_dict() for e in entries]}


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


def write_manifest(manifest: Manifest, path) -> None:
    text = json.dumps(manifest.to_dict(), indent=2, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_manifest(path) -> Manifest:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = [ClipEntry.from_dict(e) for e in doc["entries"]]
    return Manifest(entries=entries, metadata=dict(doc.get("metadata", {})))


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
        if not isinstance(item, dict) or "id" not in item or "caption" not in item:
            raise ValueError(f"{json_path}: element {i} is not an {{id, caption}} record")
        entries.append(ClipEntry(
            clip_id=str(item["id"]),
            audio_path=None,
            source_dataset=source,
            original_captions=[item["caption"]],
        ))
    return entries


def merge_augmented_captions(entry: ClipEntry,
                             captions: list[str]) -> tuple[ClipEntry, int]:
    """New entry with captions appended, normalize-duplicates skipped.

    Duplicates are checked against both the originals and the already
    attached augmentations; the skip count is returned alongside.
    """
    existing = {normalize(c) for c in entry.original_captions}
    existing.update(normalize(c) for c in entry.augmented_captions)

    added = list(entry.augmented_captions)
    skipped = 0
    for caption in captions:
        key = normalize(caption)
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
