"""Parsing and rule-based filtering of raw LLM caption responses.

Responses arrive as free text with one candidate caption per line, usually
carrying an enumeration marker. Candidates then pass through a fixed rule
order so that reject reasons are deterministic: text UTF-8 cannot encode (a
lone surrogate, which no output file can hold), failure marker, banned word,
too long, too short, empty after normalization, duplicate of an earlier
accepted caption, overflow past the accepted budget.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

DEFAULT_MAX_WORDS = 20
DEFAULT_MIN_WORDS = 3
DEFAULT_BANNED_WORDS = ("heard",)
DEFAULT_FAILURE_TOKEN = "Failure"
DEFAULT_MAX_ACCEPTED = 4

# circled digits 1-20, "1.", "1)", "(1)", bullets and dashes
_MARKER_RE = re.compile(r"^\s*(?:[①-⑳]|\(\d{1,3}\)|\d{1,3}[.)]|[-•–—])\s*")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


class RejectReason(str, Enum):
    DUPLICATE = "Duplicate"
    FAILURE = "Failure"
    BANNED_WORD = "BannedWord"
    TOO_LONG = "TooLong"
    TOO_SHORT = "TooShort"
    EMPTY = "Empty"
    OVERFLOW = "Overflow"
    UNENCODABLE = "Unencodable"


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
        if isinstance(self.banned_words, str) or not all(
                isinstance(w, str) for w in (*self.banned_words, self.failure_token)):
            raise ValueError("banned_words must be a list of words, failure_token a word")
        object.__setattr__(self, "banned_words", tuple(self.banned_words))

    def to_dict(self) -> dict:
        return vars(self).copy()

    @classmethod
    def from_dict(cls, doc: dict) -> "FilterRules":
        unknown = sorted(set(doc) - set(vars(cls())))
        if unknown:
            raise ValueError(f"unknown filter rule keys {unknown}")
        return cls(**doc)


@dataclass
class FilterReport:
    accepted: list[str] = field(default_factory=list)
    rejected: list[tuple[str, RejectReason]] = field(default_factory=list)
    # normalize(c) for each accepted caption c, in order; not part of to_dict
    accepted_keys: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accepted": list(self.accepted),
            "rejected": [{"caption": c, "reason": r.value} for c, r in self.rejected],
        }

    def reject_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for _, reason in self.rejected:
            value = reason.value  # an enum property: read once
            hist[value] = hist.get(value, 0) + 1
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
# the same categories for ASCII text, as the bytes ``bytes.translate`` deletes
_ASCII_PUNCTUATION = bytes(c for c in range(128)
                           if unicodedata.category(chr(c)).startswith("P"))


def encodes_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: whether it holds no surrogate code
    point, which a JSON ``"\\ud83d"`` escape without its pair parses to."""
    return text.isascii() or _SURROGATE_RE.search(text) is None


def normalize(caption: str) -> str:
    """Dedup key: lowercase, drop punctuation, collapse whitespace."""
    lowered = caption.lower()
    if lowered.isascii():  # bytes.translate deletes in C, without a lookup per character
        lowered = lowered.encode("ascii").translate(None, _ASCII_PUNCTUATION).decode("ascii")
    else:
        lowered = lowered.translate(_DROP_PUNCTUATION)
    return " ".join(lowered.split())


@lru_cache(maxsize=8)
def _rule_keys(rules: FilterRules) -> tuple[frozenset[str], str]:
    """The normalized banned words and failure token of ``rules``."""
    return frozenset(normalize(w) for w in rules.banned_words), normalize(rules.failure_token)


def _has_banned_token(caption: str, key: str, banned: frozenset[str]) -> bool:
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

    Every candidate lands in exactly one of ``accepted`` or ``rejected``,
    and each is normalized once.
    """
    rules = rules or FilterRules()
    banned, failure_key = _rule_keys(rules)
    report = FilterReport()
    accepted_keys: set[str] = set()

    for caption in candidates:
        key = normalize(caption)
        words = len(caption.split())
        if not encodes_utf8(caption):
            report.rejected.append((caption, RejectReason.UNENCODABLE))
        elif failure_key and (key == failure_key or key.startswith(failure_key)):
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
            report.accepted_keys.append(key)
            accepted_keys.add(key)
    return report
