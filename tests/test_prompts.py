import json
import random

import pytest

from capaug.prompts import PromptKind, PromptTemplate, builtin_template, render
from oracles import render_concat_brute

BUILTIN_KINDS = [PromptKind.SIMPLE, PromptKind.MODIFIED_CLOTHO, PromptKind.MODIFIED_WAVCAPS]


def test_builtin_simple_instruction():
    t = builtin_template(PromptKind.SIMPLE)
    assert t.instruction_text.startswith("Generate unique {N} captions for the following sounds")
    assert "{CAPTION}" in t.instruction_text
    assert t.requested_count == 4


def test_builtin_modified_clotho_instruction():
    t = builtin_template(PromptKind.MODIFIED_CLOTHO)
    assert "do not use the word 'heard,'" in t.instruction_text
    assert "{CAPTION}" not in t.instruction_text


def test_builtin_modified_wavcaps_instruction():
    t = builtin_template(PromptKind.MODIFIED_WAVCAPS)
    assert "output 'Failure' if the description" in t.instruction_text
    assert "no more than 20 words per caption" in t.instruction_text


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_builtin_has_count_placeholder_exactly_once(kind):
    t = builtin_template(kind)
    assert t.instruction_text.count("{N}") == 1
    assert t.requested_count == 4


def test_builtin_accepts_string_kind():
    assert builtin_template("simple").kind == PromptKind.SIMPLE


def test_builtin_rejects_custom_and_unknown():
    with pytest.raises(ValueError):
        builtin_template(PromptKind.CUSTOM)
    with pytest.raises(ValueError):
        builtin_template("nonsense")


def test_render_simple_inline_caption():
    t = builtin_template(PromptKind.SIMPLE)
    out = render(t, "Television channel static")
    assert out == ("Generate unique 4 captions for the following sounds, ensuring each "
                   "description varies distinctly from the others: Television channel static")


def test_render_count_override_substitutes_one():
    for kind in BUILTIN_KINDS:
        out = render(builtin_template(kind), "a dog barks", count_override=1)
        assert "Generate unique 1 captions" in out or "Generate 1 captions" in out


def test_render_appends_caption_when_no_inline_slot():
    t = builtin_template(PromptKind.MODIFIED_WAVCAPS)
    expected = render_concat_brute(t.instruction_text, 4, "a dog barks")
    assert render(t, "a dog barks") == expected
    assert render(t, "a dog barks").endswith("\na dog barks")


def test_render_is_deterministic():
    t = builtin_template(PromptKind.MODIFIED_CLOTHO)
    assert render(t, "water drips") == render(t, "water drips")


def test_render_contains_caption_exactly_once():
    rng = random.Random(0)
    words = ["rain", "thunder", "engine", "bell", "crowd", "wind", "hum", "clatter"]
    for _ in range(50):
        caption = " ".join(rng.sample(words, rng.randint(2, 5)))
        for kind in BUILTIN_KINDS:
            out = render(builtin_template(kind), caption)
            assert out.count(caption) == 1


def test_render_never_emits_placeholder_tokens():
    for kind in BUILTIN_KINDS:
        out = render(builtin_template(kind), "a cat meows", count_override=2)
        assert "{N}" not in out
        assert "{CAPTION}" not in out


def test_render_does_not_rescan_caption_for_tokens():
    # single-pass substitution: a caption containing "{N}" is left alone
    t = builtin_template(PromptKind.SIMPLE)
    out = render(t, "weird {N} caption")
    assert "weird {N} caption" in out
    assert out.startswith("Generate unique 4 captions")


def test_render_rejects_empty_caption():
    t = builtin_template(PromptKind.SIMPLE)
    with pytest.raises(ValueError):
        render(t, "")
    with pytest.raises(ValueError):
        render(t, "   \t ")


def test_render_rejects_zero_count():
    t = builtin_template(PromptKind.SIMPLE)
    with pytest.raises(ValueError):
        render(t, "a dog barks", count_override=0)


def test_template_validation():
    with pytest.raises(ValueError):
        PromptTemplate(kind=PromptKind.SIMPLE, instruction_text="no placeholder")
    with pytest.raises(ValueError):
        PromptTemplate(kind=PromptKind.SIMPLE, instruction_text="{N} and {N}")
    with pytest.raises(ValueError):
        PromptTemplate(kind=PromptKind.CUSTOM, instruction_text="x", requested_count=0)


def test_custom_template_free_form():
    t = PromptTemplate(kind=PromptKind.CUSTOM,
                       instruction_text="Describe this sound in {N} ways: {CAPTION}",
                       requested_count=2)
    assert render(t, "glass breaking") == "Describe this sound in 2 ways: glass breaking"
    plain = PromptTemplate(kind=PromptKind.CUSTOM, instruction_text="Rewrite the caption.")
    assert render(plain, "glass breaking") == "Rewrite the caption.\nglass breaking"


def test_json_round_trip():
    t = builtin_template(PromptKind.MODIFIED_WAVCAPS)
    doc = json.loads(t.to_json())
    assert set(doc) == {"kind", "instruction_text", "requested_count"}
    assert PromptTemplate(PromptKind(doc["kind"]), doc["instruction_text"],
                          doc["requested_count"]) == t
