import json
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capaug.corpus import (ClipEntry, FreeSoundExcludedError, Manifest, SourceDataset,
                           ingest_clotho, ingest_fsd50k, ingest_wavcaps,
                           merge_augmented_captions, new_manifest, read_manifest,
                           summarize, write_manifest)
from capaug.filtering import filter_captions, normalize
from oracles import manifest_bytes_reference

# any text UTF-8 can encode (no lone surrogates), drawing often the characters
# JSON escapes (quotes, backslashes, control characters) and U+2028, which it does not
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028 é'),
                         st.characters(exclude_categories=["Cs"])),
               max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8)


@st.composite
def manifests(draw):
    entries = [ClipEntry(clip_id=clip_id,
                         source_dataset=draw(st.sampled_from(SourceDataset)),
                         original_captions=draw(st.lists(TEXT, min_size=1, max_size=3)),
                         augmented_captions=draw(st.lists(TEXT, max_size=3,
                                                          unique_by=normalize)),
                         audio_path=draw(st.none() | TEXT))
               for clip_id in draw(st.lists(st.text(min_size=1, max_size=8), unique=True,
                                            max_size=4))]
    keys = st.sampled_from(["created_at", "tool_version", "prompt_kind", "seed", "other"])
    return Manifest(entries=entries,
                    metadata=draw(st.dictionaries(keys, JSON_VALUES, max_size=5)))


def _entry(clip_id="c1", captions=("a sound plays",), dataset=SourceDataset.SYNTHETIC):
    return ClipEntry(clip_id=clip_id, source_dataset=dataset,
                     original_captions=list(captions))


class TestIngestClotho:
    def test_fixture_counts(self, data_dir):
        entries = ingest_clotho(data_dir / "clotho_fixture.csv")
        assert len(entries) == 2
        assert all(len(e.original_captions) == 5 for e in entries)
        assert all(e.source_dataset == SourceDataset.CLOTHO_V2 for e in entries)
        assert entries[0].clip_id == "harbor_morning.wav"
        assert entries[0].original_captions[0] == "Boats knock against a wooden dock"

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n")
        assert ingest_clotho(path) == []

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file_name,caption_1\nx.wav,one\n")
        with pytest.raises(ValueError, match="missing columns"):
            ingest_clotho(path)

    def test_empty_caption_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
                        "x.wav,a,b,,d,e\n")
        with pytest.raises(ValueError, match="empty caption"):
            ingest_clotho(path)

    def test_duplicate_file_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
                        "x.wav,a,b,c,d,e\nx.wav,a,b,c,d,e\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest_clotho(path)


class TestIngestFsd50k:
    def test_fixture_counts_and_join_rule(self, data_dir):
        entries = ingest_fsd50k(data_dir / "fsd50k_fixture.csv")
        assert len(entries) == 3
        assert entries[0].original_captions == ["Bark, Dog, Animal"]
        assert all(len(e.original_captions) == 1 for e in entries)
        assert all(e.source_dataset == SourceDataset.FSD50K for e in entries)

    def test_single_row_join(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text('fname,labels\ndog.wav,"Bark,Dog"\n')
        entries = ingest_fsd50k(path)
        assert entries[0].original_captions == ["Bark, Dog"]

    def test_empty_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fname,labels\ndog.wav,\n")
        with pytest.raises(ValueError, match="empty labels"):
            ingest_fsd50k(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fname\ndog.wav\n")
        with pytest.raises(ValueError, match="missing columns"):
            ingest_fsd50k(path)


class TestIngestWavcaps:
    def test_fixture_counts(self, data_dir):
        entries = ingest_wavcaps(data_dir / "wavcaps_soundbible_fixture.json", "SoundBible")
        assert len(entries) == 3
        assert entries[0].clip_id == "sb_0001"
        assert entries[0].source_dataset == SourceDataset.WAVCAPS_SOUNDBIBLE

    def test_subset_to_source_mapping(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('[{"id": "a", "caption": "a sound"}]')
        assert ingest_wavcaps(path, "BBC")[0].source_dataset == SourceDataset.WAVCAPS_BBC
        assert ingest_wavcaps(path, "AudioSet")[0].source_dataset == \
            SourceDataset.WAVCAPS_AUDIOSET

    def test_data_wrapper_accepted(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"data": [{"id": "a", "caption": "a sound"}]}')
        assert len(ingest_wavcaps(path, "BBC")) == 1

    def test_freesound_refused(self, data_dir):
        with pytest.raises(FreeSoundExcludedError, match="excluded"):
            ingest_wavcaps(data_dir / "wavcaps_soundbible_fixture.json", "FreeSound")

    def test_unknown_subset(self, data_dir):
        with pytest.raises(ValueError, match="unknown WavCaps subset"):
            ingest_wavcaps(data_dir / "wavcaps_soundbible_fixture.json", "Vimeo")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            ingest_wavcaps(path, "BBC")

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"id": "a"}]')
        with pytest.raises(ValueError, match="record"):
            ingest_wavcaps(path, "BBC")

    @pytest.mark.parametrize("caption", [7, None, ["a dog barks"]])
    def test_caption_that_is_not_a_string_rejected(self, tmp_path, caption):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "a", "caption": caption}]))
        with pytest.raises(ValueError, match="string caption"):
            ingest_wavcaps(path, "BBC")


class TestEntryAndManifestInvariants:
    def test_entry_needs_original_caption(self):
        with pytest.raises(ValueError, match="no original captions"):
            ClipEntry(clip_id="x", source_dataset=SourceDataset.SYNTHETIC,
                      original_captions=[])

    def test_entry_rejects_duplicate_augmentations(self):
        with pytest.raises(ValueError, match="duplicate augmented"):
            ClipEntry(clip_id="x", source_dataset=SourceDataset.SYNTHETIC,
                      original_captions=["a"],
                      augmented_captions=["A dog barks!", "a dog barks"])

    def test_manifest_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate clip_id"):
            Manifest(entries=[_entry("a"), _entry("a")])


class TestAttach:
    def test_attach_fresh_captions(self):
        entry = _entry("c1")
        merged, skipped = merge_augmented_captions(
            entry, ["one new sound", "two new sounds", "three new sounds", "four new sounds"])
        assert skipped == 0
        assert len(merged.augmented_captions) == 4
        # original entry untouched
        assert entry.augmented_captions == []

    def test_attach_skips_normalize_duplicates_of_originals(self):
        merged, skipped = merge_augmented_captions(
            _entry("c1", captions=("A dog barks loudly",)),
            ["a dog barks loudly!", "a cat meows softly"])
        assert skipped == 1
        assert merged.augmented_captions == ["a cat meows softly"]

    def test_keys_from_the_filter_give_the_same_entry(self):
        entry = _entry("c1", captions=("A dog barks loudly",))
        report = filter_captions(["a dog barks loudly!", "a cat meows softly",
                                  "A cat meows, softly"])
        with_keys = merge_augmented_captions(entry, report.accepted, report.accepted_keys)
        assert with_keys == merge_augmented_captions(entry, report.accepted)
        assert with_keys[0].augmented_captions == ["a cat meows softly"]

    def test_attach_skips_duplicates_of_existing_augmentations(self):
        entry, _ = merge_augmented_captions(_entry("c1"), ["new caption here"])
        merged, skipped = merge_augmented_captions(
            entry, ["New caption here.", "another caption here"])
        assert skipped == 1
        assert merged.augmented_captions == ["new caption here", "another caption here"]

    @settings(max_examples=100, deadline=None)
    @given(entry=st.builds(ClipEntry, clip_id=st.text(min_size=1, max_size=8),
                           source_dataset=st.sampled_from(SourceDataset),
                           original_captions=st.lists(TEXT, min_size=1, max_size=3),
                           augmented_captions=st.lists(TEXT, max_size=3, unique_by=normalize),
                           audio_path=st.none() | TEXT),
           captions=st.lists(TEXT, max_size=6), with_keys=st.booleans())
    def test_merged_entry_is_the_one_clip_entry_builds(self, entry, captions, with_keys):
        # the merge skips ClipEntry's own duplicate check; the checked build of
        # its fields must accept them and give the same entry
        keys = [normalize(c) for c in captions] if with_keys else None
        merged, _ = merge_augmented_captions(entry, captions, keys)
        checked = ClipEntry(**vars(merged))
        assert type(merged) is ClipEntry
        assert vars(checked) == vars(merged)
        assert checked == merged
        # and as small: its dict shares its keys with other entries, as one
        # that __init__ fills does
        assert sys.getsizeof(vars(merged)) == sys.getsizeof(vars(checked))

    def test_attach_unknown_clip(self):
        manifest = new_manifest([_entry("c1")])
        with pytest.raises(KeyError):
            manifest.get("nope")

    def test_counts_never_decrease(self):
        entry = _entry("c1")
        merged, _ = merge_augmented_captions(entry, [])
        assert len(merged.augmented_captions) >= len(entry.augmented_captions)


class TestSummarize:
    def test_empty_manifest_single_zero_total(self):
        rows = summarize(new_manifest([]))
        assert len(rows) == 1
        assert rows[0].source_dataset == "Total"
        assert (rows[0].num_clips, rows[0].num_original_captions,
                rows[0].num_augmented_captions) == (0, 0, 0)

    def test_synthetic_manifest_with_augmentations(self, synthetic_manifest):
        # attach 23 augmentations across the 10 clips
        per_clip = [3, 2, 3, 2, 3, 2, 3, 2, 2, 1]
        assert sum(per_clip) == 23
        entries = []
        for entry, count in zip(sorted(synthetic_manifest.entries, key=lambda e: e.clip_id),
                                per_clip):
            fresh = [f"generated caption {i} for {entry.clip_id}" for i in range(count)]
            merged, skipped = merge_augmented_captions(entry, fresh)
            assert skipped == 0
            entries.append(merged)
        rows = summarize(Manifest(entries=entries, metadata=synthetic_manifest.metadata))
        synth = [r for r in rows if r.source_dataset == "Synthetic"][0]
        total = rows[-1]
        assert synth.num_clips == 10
        assert synth.num_augmented_captions == 23
        assert total.num_clips == synth.num_clips
        assert total.num_original_captions == synth.num_original_captions
        assert total.num_augmented_captions == 23

    def test_totals_equal_sum_of_rows(self, data_dir):
        entries = (ingest_clotho(data_dir / "clotho_fixture.csv")
                   + ingest_fsd50k(data_dir / "fsd50k_fixture.csv")
                   + ingest_wavcaps(data_dir / "wavcaps_soundbible_fixture.json",
                                    "SoundBible"))
        rows = summarize(new_manifest(entries))
        body, total = rows[:-1], rows[-1]
        assert total.num_clips == sum(r.num_clips for r in body) == 8
        assert total.num_original_captions == sum(r.num_original_captions
                                                  for r in body) == 16


class TestManifestRoundTrip:
    def test_byte_identical_reserialization(self, tmp_path, synthetic_manifest):
        path1 = tmp_path / "m1.json"
        path2 = tmp_path / "m2.json"
        write_manifest(synthetic_manifest, path1)
        write_manifest(read_manifest(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, synthetic_manifest):
        path = tmp_path / "m.json"
        write_manifest(synthetic_manifest, path)
        before = path.read_bytes()
        # a caption that is not a string stops the stream part-way through
        bad = ClipEntry(clip_id="zzz", source_dataset=SourceDataset.SYNTHETIC,
                        original_captions=[5])
        broken = Manifest(entries=[*synthetic_manifest.entries, bad],
                          metadata=synthetic_manifest.metadata)
        with pytest.raises(TypeError):
            write_manifest(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_entries_sorted_by_clip_id(self, tmp_path):
        manifest = new_manifest([_entry("zzz"), _entry("aaa")],
                                created_at="2025-01-01T00:00:00Z")
        path = tmp_path / "m.json"
        write_manifest(manifest, path)
        doc = json.loads(path.read_text())
        assert [e["clip_id"] for e in doc["entries"]] == ["aaa", "zzz"]

    def test_metadata_preserved(self, tmp_path):
        manifest = new_manifest([_entry("a")], created_at="2024-12-31T00:00:00Z",
                                prompt_kind="modified_wavcaps", seed=7)
        path = tmp_path / "m.json"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back.metadata["created_at"] == "2024-12-31T00:00:00Z"
        assert back.metadata["prompt_kind"] == "modified_wavcaps"
        assert back.metadata["seed"] == 7

    def test_randomized_manifests_entry_order_canonicalized(self, tmp_path):
        # same entries in any order serialize to the same bytes
        rng = random.Random(11)
        words = ["rain", "falls", "a", "bell", "tolls", "wind", "hörbar",
                 "あめ", "crowd", "murmurs"]
        for trial in range(10):
            entries = []
            for i in range(rng.randint(1, 12)):
                captions = [" ".join(rng.sample(words, rng.randint(2, 5)))
                            for _ in range(rng.randint(1, 3))]
                entries.append(_entry(f"clip_{trial}_{i}", captions=captions))
            manifest = new_manifest(entries, created_at="2025-01-01T00:00:00Z")
            shuffled = list(entries)
            rng.shuffle(shuffled)
            other = new_manifest(shuffled, created_at="2025-01-01T00:00:00Z")
            p1, p2 = tmp_path / f"a{trial}.json", tmp_path / f"b{trial}.json"
            write_manifest(manifest, p1)
            write_manifest(other, p2)
            assert p1.read_bytes() == p2.read_bytes()


    @settings(max_examples=100, deadline=None)
    @given(manifest=manifests())
    @example(manifest=new_manifest([], created_at="2025-01-01T00:00:00Z"))
    def test_bytes_match_the_dict_and_json_dumps_reference(self, manifest):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            write_manifest(manifest, path)
            assert path.read_bytes() == manifest_bytes_reference(manifest)


def _manifest_doc(**fields):
    entry = {"clip_id": "c1", "audio_path": None, "source_dataset": "Synthetic",
             "original_captions": ["a sound plays"], "augmented_captions": []}
    entry.update(fields)
    return {"metadata": {}, "entries": [entry]}


class TestReadManifestTypes:
    @pytest.mark.parametrize("field, value", [
        ("clip_id", 7),
        ("clip_id", None),
        ("audio_path", 3),
        ("audio_path", ["a.wav"]),
        ("original_captions", "a cat meows"),
        ("original_captions", ["a cat meows", 5]),
        ("original_captions", {"a": "b"}),
        ("augmented_captions", "a dog barks"),
        ("augmented_captions", [None]),
        # a JSON "\ud83d" escape parses to a lone surrogate, which no output file can hold
        ("original_captions", ["a cat meows", "a cat \ud83d"]),
        ("augmented_captions", ["\udc15 a dog barks"]),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_manifest_doc(**{field: value})))
        clip_id = value if field == "clip_id" else "c1"
        with pytest.raises(ValueError, match=re.escape(f"clip {clip_id!r}: {field} must")):
            read_manifest(path)

    def test_well_typed_fields_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_manifest_doc(audio_path="a.wav",
                                                 augmented_captions=["a dog barks"])))
        entry = read_manifest(path).entries[0]
        assert entry.audio_path == "a.wav"
        assert entry.augmented_captions == ["a dog barks"]

