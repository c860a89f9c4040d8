"""Parsing and rule-based filtering of raw LLM caption responses.

Responses arrive as free text with one candidate caption per line, usually
carrying an enumeration marker. Candidates then pass through a fixed rule
order so that reject reasons are deterministic: failure marker, banned word,
too long, too short, empty after normalization, duplicate of an earlier
accepted caption, overflow past the accepted budget.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field, fields
from enum import Enum

DEFAULT_MAX_WORDS = 20
DEFAULT_MIN_WORDS = 3
DEFAULT_BANNED_WORDS = ("heard",)
DEFAULT_FAILURE_TOKEN = "Failure"
DEFAULT_MAX_ACCEPTED = 4

# circled digits 1-20, "1.", "1)", "(1)", bullets and dashes
_MARKER_RE = re.compile(r"^\s*(?:[①-⑳]|\(\d{1,3}\)|\d{1,3}[.)]|[-•–—])\s*")


class RejectReason(str, Enum):
    DUPLICATE = "Duplicate"
    FAILURE = "Failure"
    BANNED_WORD = "BannedWord"
    TOO_LONG = "TooLong"
    TOO_SHORT = "TooShort"
    EMPTY = "Empty"
    OVERFLOW = "Overflow"


@dataclass(frozen=True)
class FilterRules:
    max_words: int = DEFAULT_MAX_WORDS
    min_words: int = DEFAULT_MIN_WORDS
    banned_words: tuple[str, ...] = DEFAULT_BANNED_WORDS
    failure_token: str = DEFAULT_FAILURE_TOKEN
    max_accepted: int = DEFAULT_MAX_ACCEPTED

    def __post_init__(self):
        if self.min_words < 1 or self.max_words < 1:
            raise ValueError("word limits must be positive")
        if self.min_words > self.max_words:
            raise ValueError("min_words must not exceed max_words")
        if self.max_accepted < 1:
            raise ValueError("max_accepted must be >= 1")
        object.__setattr__(self, "banned_words", tuple(self.banned_words))

    def to_dict(self) -> dict:
        return vars(self).copy()

    @classmethod
    def from_dict(cls, doc: dict) -> "FilterRules":
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


@dataclass
class FilterReport:
    accepted: list[str] = field(default_factory=list)
    rejected: list[tuple[str, RejectReason]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accepted": list(self.accepted),
            "rejected": [{"caption": c, "reason": r.value} for c, r in self.rejected],
        }

    def reject_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for _, reason in self.rejected:
            hist[reason.value] = hist.get(reason.value, 0) + 1
        return hist


def parse_numbered(text: str) -> list[str]:
    """Split a raw response into candidate captions, stripping list markers.

    Lines without a recognized marker are kept as-is (a plain-prose fallback);
    lines that are empty after stripping are dropped.
    """
    candidates = []
    for line in text.splitlines():
        stripped = _MARKER_RE.sub("", line, count=1).strip()
        if stripped:
            candidates.append(stripped)
    return candidates


class _PunctuationTable(dict):
    """``str.translate`` table that drops Unicode punctuation (categories P*).

    Entries are filled in on first lookup, one code point at a time, so
    importing the module does not scan all of Unicode. Threads racing on a
    first lookup store the same value, so one table serves them all.
    """

    def __missing__(self, code_point: int) -> int | None:
        kept = None if unicodedata.category(chr(code_point)).startswith("P") else code_point
        self[code_point] = kept
        return kept


_DROP_PUNCTUATION = _PunctuationTable()


def normalize(caption: str) -> str:
    """Dedup key: lowercase, drop punctuation, collapse whitespace."""
    return " ".join(caption.lower().translate(_DROP_PUNCTUATION).split())


def _has_banned_token(caption: str, key: str, banned: set[str]) -> bool:
    """Whether any whitespace token of ``caption`` normalizes to a banned word.

    ``key`` is ``normalize(caption)``, whose words are exactly the non-empty
    normalized tokens. A punctuation-only token normalizes to "" and has no
    word in ``key``, so that case is checked token by token.
    """
    if not banned.isdisjoint(key.split()):
        return True
    return "" in banned and any(not normalize(token) for token in caption.split())


def filter_captions(candidates: list[str], rules: FilterRules | None = None) -> FilterReport:
    """Apply the filtering rules to candidates in input order.

    Every candidate lands in exactly one of ``accepted`` or ``rejected``.
    """
    rules = rules or FilterRules()
    banned = {normalize(w) for w in rules.banned_words}
    failure_key = normalize(rules.failure_token)
    report = FilterReport()
    accepted_keys: set[str] = set()

    for caption in candidates:
        key = normalize(caption)
        words = len(caption.split())
        if failure_key and (key == failure_key or key.startswith(failure_key)):
            report.rejected.append((caption, RejectReason.FAILURE))
        elif _has_banned_token(caption, key, banned):
            report.rejected.append((caption, RejectReason.BANNED_WORD))
        elif words > rules.max_words:
            report.rejected.append((caption, RejectReason.TOO_LONG))
        elif words < rules.min_words:
            report.rejected.append((caption, RejectReason.TOO_SHORT))
        elif not key:
            report.rejected.append((caption, RejectReason.EMPTY))
        elif key in accepted_keys:
            report.rejected.append((caption, RejectReason.DUPLICATE))
        elif len(report.accepted) >= rules.max_accepted:
            report.rejected.append((caption, RejectReason.OVERFLOW))
        else:
            report.accepted.append(caption)
            accepted_keys.add(key)
    return report
