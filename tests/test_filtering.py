import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaug import filtering
from capaug.filtering import (FilterRules, RejectReason, filter_captions, normalize,
                              parse_numbered)
from capaug.llm import mock_complete
from oracles import normalize_brute


def test_parse_circled_markers():
    assert parse_numbered("① A dog barks.\n② A cat meows.") == \
        ["A dog barks.", "A cat meows."]


def test_parse_empty_input():
    assert parse_numbered("") == []


def test_parse_marker_grammar():
    assert parse_numbered("1. a\n2) b\n(3) c\n- d") == ["a", "b", "c", "d"]


def test_parse_bullet_and_high_circled_digits():
    assert parse_numbered("• first\n⑳ twentieth") == ["first", "twentieth"]


def test_parse_keeps_unmarked_lines_verbatim():
    assert parse_numbered("plain caption line\n\n  another one  ") == \
        ["plain caption line", "another one"]


def test_parse_drops_marker_only_lines():
    assert parse_numbered("1.\n2)   \n①") == []


def test_normalize_examples():
    assert normalize("The TV's sound is garbled.") == "the tvs sound is garbled"
    assert normalize("abc") == "abc"
    assert normalize("  A,  B  ") == "a b"


def test_normalize_strips_unicode_punctuation():
    assert normalize("a — dash…") == "a dash"


@settings(max_examples=500, deadline=None)
@given(st.text())  # the full Unicode range, astral planes included
def test_normalize_matches_brute_force_oracle(caption):
    assert normalize(caption) == normalize_brute(caption)


def test_normalize_matches_oracle_on_every_code_point():
    try:
        for cp in range(sys.maxunicode + 1):
            caption = "A" + chr(cp) + "b"
            assert normalize(caption) == normalize_brute(caption), hex(cp)
    finally:
        # the lazily filled table now spans all of Unicode; release it
        filtering._DROP_PUNCTUATION.clear()


def test_normalize_table_shared_across_threads():
    # the lazily filled table is shared by the HTTP backend's worker threads;
    # racing first lookups of the same code points must still agree
    filtering._DROP_PUNCTUATION.clear()
    # astral scripts with scattered punctuation (Aegean, Ugaritic, Brahmi, ...)
    captions = ["x " + "".join(chr(cp) for cp in range(start, start + 4096))
                for start in range(0x10000, 0x18000, 4096)]
    expected = [normalize_brute(c) for c in captions]
    results: dict[int, list[str]] = {}

    def work(worker: int) -> None:
        results[worker] = [normalize(c) for c in captions]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: expected for i in range(8)}


def test_filter_spec_example():
    candidates = [
        "The TV is malfunctioning.",
        "The TV is malfunctioning.",
        "Failure",
        "A loud bark from a dog is heard",
    ]
    report = filter_captions(candidates)
    assert report.accepted == ["The TV is malfunctioning."]
    assert [reason for _, reason in report.rejected] == [
        RejectReason.DUPLICATE, RejectReason.FAILURE, RejectReason.BANNED_WORD]


def test_filter_empty_input():
    report = filter_captions([])
    assert report.accepted == [] and report.rejected == []


def test_filter_word_count_boundaries():
    twenty = " ".join(["word"] * 19) + " end"
    twenty_one = " ".join(["word"] * 20) + " end"
    report = filter_captions([twenty, twenty_one])
    assert report.accepted == [twenty]
    assert report.rejected == [(twenty_one, RejectReason.TOO_LONG)]

    report = filter_captions(["two words", "three short words"])
    assert report.accepted == ["three short words"]
    assert report.rejected == [("two words", RejectReason.TOO_SHORT)]


def test_banned_word_is_whole_token_only():
    report = filter_captions(["A german shepherd runs by", "A bark is heard, nearby"])
    assert report.accepted == ["A german shepherd runs by"]
    assert report.rejected == [("A bark is heard, nearby", RejectReason.BANNED_WORD)]


def test_banned_word_case_and_punctuation():
    report = filter_captions(["Loud music Heard everywhere tonight"])
    assert report.rejected[0][1] == RejectReason.BANNED_WORD


def test_punctuation_only_token_matches_empty_banned_word():
    # "..." normalizes to "", so a caption with a punctuation-only token is
    # banned even though that token leaves no word in the caption's key
    rules = FilterRules(banned_words=("...",))
    report = filter_captions(["a dog barks - twice", "a dog barks twice"], rules)
    assert report.rejected == [("a dog barks - twice", RejectReason.BANNED_WORD)]
    assert report.accepted == ["a dog barks twice"]


def test_failure_prefix_match():
    report = filter_captions(["Failure: description is not about sound"])
    assert report.rejected == [("Failure: description is not about sound",
                                RejectReason.FAILURE)]


def test_text_utf8_cannot_encode_is_rejected_first():
    # a lone surrogate, as a JSON "\ud83d" escape parses to: no output file can hold it
    captions = ["a dog barks near the door \ud83d", "Failure \udc00", "a dog barks near the door"]
    report = filter_captions(captions)
    assert report.rejected == [(c, RejectReason.UNENCODABLE) for c in captions[:2]]
    assert report.accepted == captions[2:]
    assert report.reject_histogram() == {"Unencodable": 2}
    assert filtering.encodes_utf8("a café ① 🐕")
    assert not filtering.encodes_utf8("\ud83d\udc15")  # a pair, but of lone code points


def test_empty_reason_for_punctuation_only():
    report = filter_captions(["!! ?? ... ---"])
    assert report.rejected == [("!! ?? ... ---", RejectReason.EMPTY)]


def test_overflow_past_max_accepted():
    captions = [f"sound number {i} plays now" for i in range(6)]
    report = filter_captions(captions)
    assert report.accepted == captions[:4]
    assert [r for _, r in report.rejected] == [RejectReason.OVERFLOW] * 2


def test_duplicate_compares_normalized_keys():
    report = filter_captions(["A Dog Barks Loudly!", "a dog barks loudly"])
    assert report.accepted == ["A Dog Barks Loudly!"]
    assert report.rejected == [("a dog barks loudly", RejectReason.DUPLICATE)]


def test_rules_validation():
    with pytest.raises(ValueError):
        FilterRules(min_words=5, max_words=4)
    with pytest.raises(ValueError):
        FilterRules(max_accepted=0)
    with pytest.raises(ValueError):
        FilterRules(min_words=0)


def test_rules_round_trip():
    rules = FilterRules(max_words=10, min_words=2, banned_words=("heard", "audible"),
                        failure_token="REJECT", max_accepted=3)
    assert FilterRules.from_dict(rules.to_dict()) == rules


def test_custom_rules_applied():
    rules = FilterRules(max_words=5, min_words=1, banned_words=("noise",),
                        failure_token="SKIP", max_accepted=2)
    report = filter_captions(
        ["SKIP", "a noise happens", "short one", "ok too", "one more"], rules)
    assert report.accepted == ["short one", "ok too"]
    assert [r for _, r in report.rejected] == [
        RejectReason.FAILURE, RejectReason.BANNED_WORD, RejectReason.OVERFLOW]


def _mock_candidates(n, seed=0):
    for i in range(n):
        response = mock_complete(f"prompt number {i}", seed)
        yield parse_numbered(response.text)


def test_filter_properties_over_mock_corpus():
    rules = FilterRules()
    for candidates in _mock_candidates(500):
        report = filter_captions(candidates, rules)
        # multiset conservation
        recombined = sorted(report.accepted + [c for c, _ in report.rejected])
        assert recombined == sorted(candidates)
        assert len(report.accepted) <= rules.max_accepted
        # no banned tokens, no duplicate keys among accepted
        keys = [normalize(c) for c in report.accepted]
        assert len(keys) == len(set(keys))
        for caption in report.accepted:
            assert all(normalize(tok) != "heard" for tok in caption.split())
        # idempotence
        again = filter_captions(report.accepted, rules)
        assert again.accepted == report.accepted
        assert again.rejected == []


def test_mock_corpus_exercises_all_main_reasons():
    seen = set()
    for candidates in _mock_candidates(500):
        for _, reason in filter_captions(candidates).rejected:
            seen.add(reason)
    assert {RejectReason.FAILURE, RejectReason.BANNED_WORD, RejectReason.DUPLICATE,
            RejectReason.TOO_LONG, RejectReason.TOO_SHORT, RejectReason.OVERFLOW} <= seen


def test_report_to_dict():
    report = filter_captions(["Failure", "a dog barks now"])
    doc = report.to_dict()
    assert doc["accepted"] == ["a dog barks now"]
    assert doc["rejected"] == [{"caption": "Failure", "reason": "Failure"}]
    assert report.reject_histogram() == {"Failure": 1}
