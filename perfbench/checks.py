"""Output correctness checks, written independently of capaug's own code.

A pass whose outputs fail a check is reported as failed, not as a number.
For the default seed the output files must also match the digests recorded
in ``digests.json``; for any seed they must satisfy the invariants below.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# capaug's default FilterRules, restated so the check does not trust the code it checks.
MIN_WORDS, MAX_WORDS, MAX_ACCEPTED = 3, 20, 4
BANNED = ("heard",)
FAILURE_TOKEN = "failure"
EXTERNAL_TOLERANCE_DB = 1e-6


class CheckError(AssertionError):
    """An output broke a correctness invariant."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _key(caption: str) -> str:
    text = "".join(ch for ch in caption.lower()
                   if not unicodedata.category(ch).startswith("P"))
    return " ".join(text.split())


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every pinned output file that exists, by relative path."""
    names = ["manifest.json", "augment_stats.json", "failures.json", "report.md"]
    files = [out_dir / n for n in names] + sorted((out_dir / "metrics").glob("*.csv"))
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.is_file()}


def check_recorded_digests(workload: str, digests: dict[str, str]) -> None:
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload]
    for name in sorted(set(recorded) | set(digests)):
        require(recorded.get(name) == digests.get(name),
                f"{workload}: {name} digest {digests.get(name)} != recorded "
                f"{recorded.get(name)}")


def check_augmentation(input_doc: dict, out_dir: Path,
                       refused: int | None = None,
                       reference: dict[str, list[str]] | None = None) -> None:
    """Invariants of an augmentation out-dir.

    ``refused`` is the number of requests the stub refused: exactly those clips
    must be gateway failures. ``reference`` maps clip id to the augmented
    captions a mock run produced; every clip that was not refused must match.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    stats = json.loads((out_dir / "augment_stats.json").read_text(encoding="utf-8"))
    failures_path = out_dir / "failures.json"
    failed = (json.loads(failures_path.read_text(encoding="utf-8"))["failed_clips"]
              if failures_path.exists() else [])

    inputs = {e["clip_id"]: e for e in input_doc["entries"]}
    outputs = {e["clip_id"]: e for e in manifest["entries"]}
    require(sorted(inputs) == sorted(outputs), "output clip ids differ from the input")
    per_clip = stats["per_clip"]
    require(sorted(per_clip) == sorted(inputs), "stats do not cover every input clip")

    for clip_id, entry in outputs.items():
        source = inputs[clip_id]
        require(entry["original_captions"] == source["original_captions"]
                and entry["source_dataset"] == source["source_dataset"],
                f"{clip_id}: original captions or source changed")
        augmented = entry["augmented_captions"]
        keys = [_key(c) for c in source["original_captions"]]
        require(len(augmented) <= MAX_ACCEPTED, f"{clip_id}: too many captions")
        for caption in augmented:
            key = _key(caption)
            words = caption.split()
            require(MIN_WORDS <= len(words) <= MAX_WORDS, f"{clip_id}: length {caption!r}")
            require(bool(key) and not key.startswith(FAILURE_TOKEN),
                    f"{clip_id}: failure or empty caption {caption!r}")
            require(not any(_key(w) in BANNED for w in words),
                    f"{clip_id}: banned word in {caption!r}")
            require(key not in keys, f"{clip_id}: duplicate caption {caption!r}")
            keys.append(key)
        clip_stats = per_clip[clip_id]
        require(clip_stats["accepted"] - clip_stats["attach_skipped"] == len(augmented),
                f"{clip_id}: accepted minus skipped != attached captions")
        require(clip_stats["parsed"] == clip_stats["accepted"]
                + sum(clip_stats["rejected"].values()),
                f"{clip_id}: parsed != accepted + rejected")
        if reference is not None and not clip_stats["gateway_failed"]:
            require(augmented == reference[clip_id],
                    f"{clip_id}: captions differ from the mock backend's")

    totals = stats["totals"]
    rejected: dict[str, int] = {}
    for clip_stats in per_clip.values():
        for reason, count in clip_stats["rejected"].items():
            rejected[reason] = rejected.get(reason, 0) + count
    for field in ("parsed", "accepted", "attach_skipped"):
        require(totals[field] == sum(s[field] for s in per_clip.values()),
                f"stats total {field} != sum of per-clip entries")
    require(totals["rejected"] == rejected, "stats reject histogram != per-clip sum")
    require(totals["clips"] == len(per_clip), "stats clip count != per-clip entries")
    gateway_failed = sorted(c for c, s in per_clip.items() if s["gateway_failed"])
    require(totals["gateway_failures"] == len(gateway_failed) and failed == gateway_failed,
            "failures.json and stats disagree on gateway failures")
    for clip_id in failed:
        require(not outputs[clip_id]["augmented_captions"],
                f"{clip_id}: failed clip has captions")
    require(len(failed) == (refused or 0),
            f"{len(failed)} gateway failures, stub refused {refused or 0}")


def check_evaluation(items, result, out_dir: Path) -> None:
    """Invariants of an evaluation: every clip scored, identity SDRi is 0,
    oracle_irm beats identity, and the external identity matches identity."""
    clip_ids = sorted(item.clip_id for item in items)
    scores = {}
    for name, sep in result.separators.items():
        require(not sep.failed, f"{name} failed on {sep.failed}")
        require([s.clip_id for s in sep.per_clip] == clip_ids, f"{name}: clips missing")
        scores[name] = {s.clip_id: s.metrics for s in sep.per_clip}
        require(len(list((out_dir / "estimates" / name).glob("*.wav"))) == len(clip_ids),
                f"{name}: estimate WAVs missing")
        require((out_dir / "metrics" / f"{name}.csv").is_file(), f"{name}: metrics CSV missing")
    require((out_dir / "report.md").is_file(), "report.md missing")
    identity = scores["identity"]
    require(all(t.sdri_db == 0.0 for t in identity.values()), "identity SDRi is not 0")
    oracle = scores["oracle_irm"]
    require(all(oracle[c].sdr_db > identity[c].sdr_db for c in clip_ids),
            "oracle_irm does not beat identity on every clip")
    ens = scores["ens_identity_oracle"]
    require(all(min(identity[c].sdr_db, oracle[c].sdr_db) <= ens[c].sdr_db
                for c in clip_ids), "ensemble SDR below both members")
    external = scores["external_identity"]
    for c in clip_ids:
        for field in ("sdr_db", "sdri_db", "si_sdr_db"):
            diff = abs(getattr(external[c], field) - getattr(identity[c], field))
            require(diff <= EXTERNAL_TOLERANCE_DB,
                    f"{c}: external {field} differs from identity by {diff:g} dB")
