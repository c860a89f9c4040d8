"""Prompt templates for LLM caption generation.

Three built-in instruction families are provided, plus a custom kind for
experiments. Stored instructions use two placeholder tokens: ``{N}`` for the
requested caption count and ``{CAPTION}`` for an inline source caption slot.
Templates without an inline slot get the caption appended on a new line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum


class PromptKind(str, Enum):
    SIMPLE = "simple"
    MODIFIED_CLOTHO = "modified_clotho"
    MODIFIED_WAVCAPS = "modified_wavcaps"
    CUSTOM = "custom"


_BUILTIN_INSTRUCTIONS = {
    PromptKind.SIMPLE: (
        "Generate unique {N} captions for the following sounds, ensuring each "
        "description varies distinctly from the others: {CAPTION}"
    ),
    PromptKind.MODIFIED_CLOTHO: (
        "Generate {N} captions for the following sounds. Use a subject-verb-object "
        "grammatical structure, do not use the word 'heard,' do not describe the "
        "temporal order of the sounds, and ensure that each caption is less than "
        "20 words."
    ),
    PromptKind.MODIFIED_WAVCAPS: (
        "Generate {N} captions for each sound. Use a subject-verb-object structure. "
        "Remove all references to specific times, locations, devices, and named "
        "entities—replace people names with 'someone.' Summarize sound events in no "
        "more than 20 words per caption. Avoid using 'heard' or recording' "
        "specifics. Start each caption with its index and output 'Failure' if the "
        "description is not directly about the sound."
    ),
}

DEFAULT_REQUESTED_COUNT = 4

_TOKEN_RE = re.compile(r"\{N\}|\{CAPTION\}")


@dataclass(frozen=True)
class PromptTemplate:
    kind: PromptKind
    instruction_text: str
    requested_count: int = DEFAULT_REQUESTED_COUNT

    def __post_init__(self):
        if self.requested_count < 1:
            raise ValueError("requested_count must be >= 1")
        if self.kind != PromptKind.CUSTOM:
            if self.instruction_text.count("{N}") != 1:
                raise ValueError(
                    f"built-in template {self.kind.value!r} must contain {{N}} exactly once"
                )

    def to_json(self) -> str:
        doc = {
            "kind": self.kind.value,
            "instruction_text": self.instruction_text,
            "requested_count": self.requested_count,
        }
        return json.dumps(doc, indent=2, ensure_ascii=False)


def builtin_template(kind: PromptKind | str) -> PromptTemplate:
    """Return one of the three built-in templates with its default count."""
    kind = PromptKind(kind)
    if kind not in _BUILTIN_INSTRUCTIONS:
        raise ValueError(f"no built-in instruction for kind {kind.value!r}")
    return PromptTemplate(kind=kind, instruction_text=_BUILTIN_INSTRUCTIONS[kind])


def render(
    template: PromptTemplate,
    source_caption: str,
    count_override: int | None = None,
) -> str:
    """Render a concrete LLM instruction from a template and a source caption.

    ``{N}`` becomes the effective count and ``{CAPTION}`` the caption; when the
    instruction has no caption slot the caption is appended after a newline.
    Substitution is single-pass, so caption text is never re-scanned for tokens.
    """
    caption = source_caption.strip()
    if not caption:
        raise ValueError("source caption is empty")
    if count_override is not None and count_override < 1:
        raise ValueError("count_override must be >= 1")
    count = count_override if count_override is not None else template.requested_count

    replacements = {"{N}": str(count), "{CAPTION}": caption}
    rendered = _TOKEN_RE.sub(lambda m: replacements[m.group(0)], template.instruction_text)
    if "{CAPTION}" not in template.instruction_text:
        rendered = rendered + "\n" + caption
    return rendered
