import hashlib
import json
import math
import os
import random
import re
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capaug.harness as harness
from capaug import corpus, evaluation, filtering
from capaug.audio import Waveform, read_wav
from capaug.corpus import Manifest, new_manifest, read_manifest
from capaug.harness import (ConfigError, EnsembleDef, ExperimentConfig, HarnessError,
                            load_config, make_synthetic_eval_set, run_augmentation,
                            run_evaluation)
from capaug.llm import LlmConfig, LlmError, RawResponse, mock_complete
from capaug.prompts import builtin_template
from capaug.evaluation import EXTERNAL_PROCESS_BOUND, ensemble
from capaug.separation import SeparatorSpec
from oracles import stats_bytes_reference, synthetic_eval_set_reference


# sha256 of every output file of the run in test_output_bytes_are_pinned: a change to
# evaluation order or concurrency must reproduce them byte for byte
EVAL_DIGESTS = {
    "estimates/ens/clip_000.wav":
        "edeeaf5293e0b6df84f449d028c214ab346eee752db40c74d331c5720198f2e3",
    "estimates/ens/clip_001.wav":
        "11303678093cd8638cde9de7638f2d613a9aec5054e9e332ed3d738c869b445e",
    "estimates/ens/clip_002.wav":
        "d2e7dcfe2d06ac4c26f1880b8b90d6626806d105ac1cafc579e3ab76e1f64e44",
    "estimates/ens/clip_003.wav":
        "c05d821a577ac3e6de4dbde839f076e74626b215cbadf2ef81f18ccb13505d78",
    "estimates/external_identity/clip_000.wav":
        "655b1f23816b64be6ce718aac372cd4353f578baf54d2500ebb312001389c184",
    "estimates/external_identity/clip_001.wav":
        "8fee1078bf0c5fe986e1beb21bb86ca13ee2b2ff954063bc9d9f05b6cbc5c75a",
    "estimates/external_identity/clip_002.wav":
        "21c23391be9e425928de70c483c1fcfd4d83521a37fb26083024eadc03186b58",
    "estimates/external_identity/clip_003.wav":
        "6b985c01910f109e3bbda224bbd7d2661dd90eaf453f25556774dea53a58c86d",
    "estimates/identity/clip_000.wav":
        "655b1f23816b64be6ce718aac372cd4353f578baf54d2500ebb312001389c184",
    "estimates/identity/clip_001.wav":
        "8fee1078bf0c5fe986e1beb21bb86ca13ee2b2ff954063bc9d9f05b6cbc5c75a",
    "estimates/identity/clip_002.wav":
        "21c23391be9e425928de70c483c1fcfd4d83521a37fb26083024eadc03186b58",
    "estimates/identity/clip_003.wav":
        "6b985c01910f109e3bbda224bbd7d2661dd90eaf453f25556774dea53a58c86d",
    "estimates/oracle_irm/clip_000.wav":
        "4f4f0829107b26864d0d71d64e3727bdb51d444d91de229dc0fbf7b67901c251",
    "estimates/oracle_irm/clip_001.wav":
        "6e273d5307e6f0854e221b5ee8b83fbe6310fff2a8d1485804ad1e2b205bff8f",
    "estimates/oracle_irm/clip_002.wav":
        "3f376eb18f870702a15df72761dabad3d7b0ee3861cc45c82145b5beba88ba82",
    "estimates/oracle_irm/clip_003.wav":
        "81263a0b4df54c70998a9ddd605a8bf5ae450abb80209743cae288b2b08eb1f5",
    "metrics/ens.csv":
        "220ad39004b296daf6f9649d921a2a0fc05257bb947dd8d522ddc11af2458405",
    "metrics/external_identity.csv":
        "99623c0b2416db9739a1d4539896988d755fc257868c073cb1ba309a066c18b0",
    "metrics/identity.csv":
        "609c0818f9e7210746a3e2511fd8b4bf923e6d18f0f06f95068a844a2f62781f",
    "metrics/oracle_irm.csv":
        "3491330f8e593ed320e5c2c1036ec7a98c2851e1595b20e5879b70d88418f99d",
    "report.md":
        "efdf95e0983b973bf62590ffbfdf1f1fa8d8c4128ac727cc952f1666893b8b5a",
}


def _mock_config(tmp_path=None, **kwargs):
    defaults = dict(use_mock_llm=True, mock_seed=0, seed=0)
    if tmp_path is not None:
        defaults["out_dir"] = str(tmp_path / "run")
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _stub_response(text):
    return RawResponse(text=text, model_id="stub", latency_s=0.0, attempt=1)


def _counting(calls, complete_fn=lambda prompt: mock_complete(prompt, 0)):
    """``complete_fn``, appending each prompt it is sent to ``calls``."""
    def counted(prompt):
        calls.append(prompt)
        return complete_fn(prompt)
    return counted


def _outputs(out_dir):
    """Each file of an augmentation out-dir by name, the journal's lines as a set:
    its order is the order in which requests finished."""
    files = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
    if harness.JOURNAL_FILENAME in files:
        files[harness.JOURNAL_FILENAME] = set(files[harness.JOURNAL_FILENAME].splitlines())
    return files


class TestConfig:
    def test_round_trip_and_hash_stability(self):
        config = ExperimentConfig(
            manifest_path="m.json",
            prompt_kind="modified_clotho",
            requested_count=3,
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle", SeparatorSpec(kind="oracle_irm"))],
            ensembles={"both": EnsembleDef(members=("identity", "oracle"),
                                           weights=(0.5, 0.5))},
            provenance={"optimizer": "Adam", "learning_rate": 1e-3,
                        "batch_size": 64, "epochs": 100},
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.hash() == config.hash()
        assert len(config.hash()) == 64

    def test_document_hash_is_pinned(self):
        # an integer epsilon or clamp_db hashes as a float; integer snr_range and weights as ints
        config = ExperimentConfig.from_dict({
            "prompt": {"count": 3}, "epsilon": 0, "clamp_db": 60, "snr_range": [-5, 5],
            "seed": 7, "llm": {"mock": True, "seed": 2},
            "separators": [{"name": "a", "kind": "identity"}, {"name": "b", "kind": "identity"}],
            "ensembles": {"e": {"members": ["a", "b"], "weights": [1, 3]}}})
        assert config.hash() == \
            "73803aa52f23ddd6559ce27be0191971794334f589e210d358a47596d79081e2"

    def test_duplicate_separator_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            ExperimentConfig(separators=[("a", SeparatorSpec(kind="identity")),
                                         ("a", SeparatorSpec(kind="identity"))])

    def test_unknown_ensemble_member_rejected(self):
        with pytest.raises(ConfigError, match="unknown separators"):
            ExperimentConfig(separators=[("a", SeparatorSpec(kind="identity"))],
                             ensembles={"e": EnsembleDef(members=("a", "ghost"))})

    def test_mismatched_ensemble_weights_rejected(self):
        with pytest.raises(ConfigError, match="one weight per member"):
            ExperimentConfig(separators=[("a", SeparatorSpec(kind="identity"))],
                             ensembles={"e": EnsembleDef(members=("a",),
                                                         weights=(0.5, 0.5))})

    def test_ensemble_named_like_a_separator_rejected(self):
        # it would replace that separator's result, CSV and estimates
        with pytest.raises(ConfigError, match="also separator names"):
            ExperimentConfig(separators=[("a", SeparatorSpec(kind="identity")),
                                         ("b", SeparatorSpec(kind="identity"))],
                             ensembles={"a": EnsembleDef(members=("a", "b"))})

    @pytest.mark.parametrize("weights", [(-1.0, 2.0), (0.0, 0.0), (math.nan, 1.0),
                                         (math.inf, 1.0)])
    def test_ensemble_weights_that_fail_every_clip_rejected(self, weights):
        with pytest.raises(ConfigError, match="needs finite weights >= 0, one > 0"):
            ExperimentConfig(
                separators=[("a", SeparatorSpec(kind="identity")),
                            ("b", SeparatorSpec(kind="identity"))],
                ensembles={"e": EnsembleDef(members=("a", "b"), weights=weights)})

    def test_unknown_prompt_kind_rejected(self):
        with pytest.raises(ConfigError, match="prompt kind"):
            ExperimentConfig(prompt_kind="fancy")

    def test_backend_required(self):
        with pytest.raises(ConfigError, match="mock"):
            ExperimentConfig(use_mock_llm=False, llm=None)

    def test_mock_and_llm_config_together_rejected(self):
        # the run would keep the HTTP client's thread pool while its config
        # and hash record only the mock
        with pytest.raises(ConfigError, match="exactly one backend"):
            ExperimentConfig(use_mock_llm=True,
                             llm=LlmConfig(endpoint_url="http://127.0.0.1:9/complete"))

    def test_prompt_kind_without_builtin_template_rejected(self):
        # "custom" is a PromptKind, but a run cannot render it
        with pytest.raises(ConfigError, match="'custom' has no built-in template"):
            ExperimentConfig(prompt_kind="custom")

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            load_config(tmp_path / "missing.json", ExperimentConfig.from_dict)
        path = tmp_path / "bad.json"
        for text in ("{broken",                                  # malformed
                     "[]",                                       # not an object
                     '{"separators": [{"kind": "identity"}]}',   # no separator name
                     '{"filter_rules": {"max_words": "20"}}',    # wrong-typed
                     '{"filter_rules": {"banned_words": "heard"}}',
                     '{"filter_rules": {"banned_words": ["heard", 3]}}',
                     '{"filter_rules": {"failure_token": 0}}',
                     '{"prompt": {"count": 0}}'):                # out of range
            path.write_text(text)
            with pytest.raises(ConfigError, match="bad.json"):
                load_config(path, ExperimentConfig.from_dict)


    @pytest.mark.parametrize("doc, unknown", [
        ({"prompt": {"count": 2}, "sed": 3}, "config keys ['sed']"),
        ({"prompt": {"cout": 2}}, "prompt keys ['cout']"),
        ({"llm": {"mock": True, "seed": 0, "sed": 1}}, "llm keys ['sed']"),
        ({"llm": {"mock": False, "endpoint_url": "http://127.0.0.1:9/complete",
                  "modle_id": "m", "retries": 1}}, "llm keys ['modle_id', 'retries']"),
        ({"filter_rules": {"max_word": 5}}, "filter rule keys ['max_word']"),
        ({"separators": [{"name": "a", "kind": "identity", "knd": 1}]},
         "separator keys ['knd']"),
        ({"separators": [{"name": "a", "kind": "identity"}],
          "ensembles": {"e": {"members": ["a"], "weight": [1.0]}}},
         "ensemble keys ['weight']"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, doc, unknown):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(f"unknown {unknown}")):
            load_config(path, ExperimentConfig.from_dict)

    def test_readme_example_config_loads(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        config = ExperimentConfig.from_dict(json.loads(example))
        assert config.ensembles["pair"] == EnsembleDef(("identity", "oracle"), (0.5, 0.5))
        assert config.provenance["optimizer"] == "Adam"

    @pytest.mark.parametrize("changes", [
        {"clamp_db": -5.0}, {"clamp_db": 0.0}, {"clamp_db": math.nan},
        {"epsilon": -1.0}, {"epsilon": math.nan},
    ])
    def test_clamp_or_epsilon_that_corrupts_the_report_rejected(self, changes):
        # a negative clamp turns every aggregate into that clamp
        with pytest.raises(ConfigError, match="clamp_db must be > 0 and epsilon >= 0"):
            ExperimentConfig(**changes)


class TestRunAugmentation:
    def test_deterministic_outputs(self, tmp_path, synthetic_manifest):
        results = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = _mock_config(manifest_path=None, out_dir=str(out))
            run_augmentation(config, manifest=synthetic_manifest)
            results.append((out / "manifest.json").read_bytes()
                           + (out / "augment_stats.json").read_bytes())
        assert results[0] == results[1]

    def test_accepted_counts_within_budget(self, synthetic_manifest):
        manifest, stats = run_augmentation(_mock_config(), manifest=synthetic_manifest)
        assert len(stats.per_clip) == 10
        for clip_stats in stats.per_clip.values():
            assert 0 <= clip_stats.accepted <= 4
        augmented_total = sum(len(e.augmented_captions) for e in manifest.entries)
        totals = stats.totals()
        assert augmented_total == totals["accepted"] - totals["attach_skipped"]

    def test_per_clip_conservation(self, synthetic_manifest):
        _, stats = run_augmentation(_mock_config(), manifest=synthetic_manifest)
        for clip_stats in stats.per_clip.values():
            assert clip_stats.parsed == clip_stats.accepted + \
                sum(clip_stats.rejected.values())
            assert not clip_stats.gateway_failed

    def test_metadata_updated(self, synthetic_manifest):
        config = _mock_config(prompt_kind="modified_wavcaps", seed=5, mock_seed=5)
        manifest, _ = run_augmentation(config, manifest=synthetic_manifest)
        assert manifest.metadata["prompt_kind"] == "modified_wavcaps"
        assert manifest.metadata["seed"] == 5
        assert manifest.metadata["created_at"] == \
            synthetic_manifest.metadata["created_at"]

    def test_manifest_without_created_at_reruns_to_the_same_bytes(self, tmp_path, monkeypatch,
                                                                   synthetic_manifest):
        # the input's created_at is carried, and null when it has none: a stamp
        # of the current time would make each rerun write different bytes
        del synthetic_manifest.metadata["created_at"]
        written = []
        for now in ("2030-01-01T00:00:00Z", "2031-06-15T12:30:00Z"):
            monkeypatch.setattr(corpus, "utc_now_iso", lambda now=now: now)
            manifest, _ = run_augmentation(_mock_config(tmp_path), manifest=synthetic_manifest)
            written.append((tmp_path / "run" / "manifest.json").read_bytes())
        assert manifest.metadata["created_at"] is None
        assert b'"created_at": null' in written[0]
        assert written[0] == written[1]

    def test_empty_manifest(self):
        manifest, stats = run_augmentation(_mock_config(), manifest=new_manifest([]))
        assert manifest.entries == []
        assert stats.per_clip == {}

    def test_all_failure_responses(self, synthetic_manifest):
        stub = lambda prompt: _stub_response("① Failure\n② Failure\n③ Failure")
        manifest, stats = run_augmentation(_mock_config(), manifest=synthetic_manifest,
                                           complete_fn=stub)
        totals = stats.totals()
        assert totals["accepted"] == 0
        assert totals["rejected"] == {"Failure": 30}
        assert all(not e.augmented_captions for e in manifest.entries)

    def test_partial_gateway_failures_recorded(self, synthetic_manifest):
        def flaky(prompt):
            if "dog" in prompt or "kettle" in prompt.lower():
                raise LlmError("boom")
            return mock_complete(prompt, 0)

        manifest, stats = run_augmentation(_mock_config(), manifest=synthetic_manifest,
                                           complete_fn=flaky)
        failed = stats.gateway_failures()
        assert failed
        assert len(failed) / len(stats.per_clip) <= 0.5
        for clip_id in failed:
            assert stats.per_clip[clip_id].parsed == 0
            assert stats.per_clip[clip_id].error == "boom"
            assert manifest.get(clip_id).augmented_captions == []

    def test_blank_source_caption_fails_only_its_clip(self, tmp_path, synthetic_manifest):
        entries = [replace(e, original_captions=["   "]) if e.clip_id == "clip_003" else e
                   for e in synthetic_manifest.entries]
        manifest, stats = run_augmentation(
            _mock_config(tmp_path), manifest=Manifest(entries, synthetic_manifest.metadata))
        clip_stats = stats.per_clip["clip_003"]
        assert clip_stats.error == "source caption is empty"
        assert not clip_stats.gateway_failed
        assert (clip_stats.parsed, clip_stats.accepted) == (0, 0)
        assert manifest.get("clip_003").augmented_captions == []
        reference, _ = run_augmentation(_mock_config(), manifest=synthetic_manifest)
        others = [e for e in manifest.entries if e.clip_id != "clip_003"]
        assert len(others) == 9
        assert others == [e for e in reference.entries if e.clip_id != "clip_003"]
        written = read_manifest(tmp_path / "run" / "manifest.json")
        assert written.entries == manifest.entries

    def test_abort_when_most_clips_fail(self, synthetic_manifest):
        def broken(prompt):
            raise LlmError("down")

        with pytest.raises(HarnessError, match="aborting"):
            run_augmentation(_mock_config(), manifest=synthetic_manifest,
                             complete_fn=broken)

    def test_failure_manifest_written(self, tmp_path, synthetic_manifest):
        def flaky(prompt):
            if "kettle" in prompt.lower():
                raise LlmError("boom")
            return mock_complete(prompt, 0)

        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=flaky)
        failures = json.loads((Path(config.out_dir) / "failures.json").read_text())
        assert failures["failed_clips"] == ["clip_000"]

    def test_resume_skips_completed_clips(self, tmp_path, synthetic_manifest):
        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest)
        out = Path(config.out_dir)
        first = {p.name: p.read_bytes() for p in out.iterdir()}

        calls = []

        def counting(prompt):
            calls.append(prompt)
            return mock_complete(prompt, 0)

        run_augmentation(config, manifest=synthetic_manifest, complete_fn=counting)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert calls == []
        assert first == second

    def test_resume_retries_failed_clips(self, tmp_path, synthetic_manifest):
        def flaky(prompt):
            if "kettle" in prompt.lower():
                raise LlmError("boom")
            return mock_complete(prompt, 0)

        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=flaky)

        calls = []

        def healthy(prompt):
            calls.append(prompt)
            return mock_complete(prompt, 0)

        manifest, stats = run_augmentation(config, manifest=synthetic_manifest,
                                           complete_fn=healthy)
        assert len(calls) == 1  # only the failed clip is reprocessed
        assert stats.gateway_failures() == []

    def test_resume_clearing_every_failure_removes_failures_json(
            self, tmp_path, synthetic_manifest):
        def flaky(prompt):
            if "kettle" in prompt.lower():
                raise LlmError("boom")
            return mock_complete(prompt, 0)

        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=flaky)
        failures_path = Path(config.out_dir) / "failures.json"
        assert failures_path.exists()

        run_augmentation(config, manifest=synthetic_manifest,
                         complete_fn=lambda prompt: mock_complete(prompt, 0))
        assert not failures_path.exists()

    def test_mock_backend_runs_on_calling_thread(self, synthetic_manifest):
        threads = []

        def recording(prompt):
            threads.append(threading.get_ident())
            return mock_complete(prompt, 0)

        run_augmentation(_mock_config(), manifest=synthetic_manifest,
                         complete_fn=recording)
        assert threads == [threading.get_ident()] * 10

    def test_http_backend_bounds_requests_in_flight(self, synthetic_manifest):
        lock = threading.Lock()
        in_flight = 0
        peak = 0

        def slow(prompt):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.05)
            with lock:
                in_flight -= 1
            return mock_complete(prompt, 0)

        config = ExperimentConfig(
            use_mock_llm=False, seed=0,
            llm=LlmConfig(endpoint_url="http://127.0.0.1:9/complete",
                          max_concurrent_requests=2))
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=slow)
        assert peak == 2

    def test_journal_keeps_every_reply_of_concurrent_workers(self, tmp_path):
        entries = [corpus.ClipEntry(f"clip_{i:04d}", corpus.SourceDataset.SYNTHETIC,
                                    [f"a dog barks {i} times"]) for i in range(400)]
        manifest = new_manifest(entries, created_at="2024-01-01T00:00:00Z")
        config = ExperimentConfig(
            use_mock_llm=False, out_dir=str(tmp_path / "run"),
            llm=LlmConfig(endpoint_url="http://127.0.0.1:9/complete",
                          max_concurrent_requests=8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_augmentation(config, manifest, lambda prompt: mock_complete(prompt, 0))
        finally:
            sys.setswitchinterval(interval)
        lines = (tmp_path / "run" / harness.JOURNAL_FILENAME).read_text().splitlines()
        assert len({line.split("\t")[0] for line in lines}) == len(lines) == 400
        calls = []
        run_augmentation(config, manifest, _counting(calls))
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(failing=st.sets(st.integers(0, 9), max_size=5))
    def test_resume_after_any_minority_of_gateway_failures_matches_uninterrupted_run(
            self, tmp_path_factory, failing):
        manifest = read_manifest(Path(__file__).parent / "data" / "synthetic_manifest.json")
        # every caption is unique to its clip, so a prompt names its clip
        doomed = [caption for entry in manifest.entries
                  if int(entry.clip_id[-3:]) in failing
                  for caption in entry.original_captions]

        def flaky(prompt):
            if any(caption in prompt for caption in doomed):
                raise LlmError("boom")
            return mock_complete(prompt, 0)

        outputs = []
        for backends in ([None], [flaky, None]):
            config = _mock_config(out_dir=str(tmp_path_factory.mktemp("run")))
            for complete_fn in backends:
                run_augmentation(config, manifest=manifest, complete_fn=complete_fn)
            outputs.append(_outputs(config.out_dir))
        assert outputs[0] == outputs[1]

    def test_no_resume_reprocesses_everything(self, tmp_path, synthetic_manifest):
        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest)
        calls = []

        def counting(prompt):
            calls.append(prompt)
            return mock_complete(prompt, 0)

        run_augmentation(config, manifest=synthetic_manifest, complete_fn=counting,
                         resume=False)
        assert len(calls) == 10

    def test_no_resume_empties_the_journal(self, tmp_path, synthetic_manifest):
        config = _mock_config(tmp_path)
        journal = Path(config.out_dir) / harness.JOURNAL_FILENAME
        run_augmentation(config, manifest=synthetic_manifest)
        fresh = journal.read_bytes()
        run_augmentation(replace(config, mock_seed=1), manifest=synthetic_manifest)
        assert len(journal.read_bytes().splitlines()) == 20
        run_augmentation(config, manifest=synthetic_manifest, resume=False)
        assert journal.read_bytes() == fresh

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(0, 9))
    def test_resume_after_a_crash_requests_only_the_unanswered_clips(
            self, tmp_path_factory, k):
        manifest = read_manifest(Path(__file__).parent / "data" / "synthetic_manifest.json")
        fresh = _mock_config(out_dir=str(tmp_path_factory.mktemp("fresh")))
        run_augmentation(fresh, manifest=manifest)
        answered = []

        def crashing(prompt):
            if len(answered) == k:
                raise RuntimeError("killed")
            answered.append(prompt)
            return mock_complete(prompt, 0)

        config = _mock_config(out_dir=str(tmp_path_factory.mktemp("run")))
        with pytest.raises(RuntimeError, match="killed"):
            run_augmentation(config, manifest=manifest, complete_fn=crashing)
        calls = []
        run_augmentation(config, manifest=manifest, complete_fn=_counting(calls))
        assert len(calls) == 10 - k
        assert not set(calls) & set(answered)
        assert _outputs(config.out_dir) == _outputs(fresh.out_dir)

    def test_resume_with_other_filter_rules_requests_nothing(self, tmp_path,
                                                              synthetic_manifest):
        run_augmentation(_mock_config(tmp_path), manifest=synthetic_manifest)
        strict = _mock_config(tmp_path, filter_rules=filtering.FilterRules(max_accepted=1))
        calls = []
        run_augmentation(strict, manifest=synthetic_manifest, complete_fn=_counting(calls))
        fresh = replace(strict, out_dir=str(tmp_path / "fresh"))
        run_augmentation(fresh, manifest=synthetic_manifest)
        assert calls == []
        assert _outputs(strict.out_dir) == _outputs(fresh.out_dir)

    def test_resume_after_the_abort_requests_only_the_failed_clips(
            self, tmp_path, synthetic_manifest):
        # every caption is unique to its clip, so a prompt names its clip
        doomed = [caption for entry in synthetic_manifest.entries[:6]
                  for caption in entry.original_captions]

        def flaky(prompt):
            if any(caption in prompt for caption in doomed):
                raise LlmError("down")
            return mock_complete(prompt, 0)

        config = _mock_config(tmp_path)
        with pytest.raises(HarnessError, match="aborting: 6 of 10"):
            run_augmentation(config, manifest=synthetic_manifest, complete_fn=flaky)
        calls = []
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=_counting(calls))
        assert len(calls) == 6
        assert all(any(caption in prompt for caption in doomed) for prompt in calls)
        fresh = replace(config, out_dir=str(tmp_path / "fresh"))
        run_augmentation(fresh, manifest=synthetic_manifest)
        assert _outputs(config.out_dir) == _outputs(fresh.out_dir)

    def test_torn_last_journal_line_is_requested_again(self, tmp_path, synthetic_manifest):
        config = _mock_config(tmp_path)
        run_augmentation(config, manifest=synthetic_manifest)
        journal = Path(config.out_dir) / harness.JOURNAL_FILENAME
        whole = journal.read_bytes()
        last_line = whole.splitlines(keepends=True)[-1]
        journal.write_bytes(whole[:-len(last_line) // 2])
        calls = []
        run_augmentation(config, manifest=synthetic_manifest, complete_fn=_counting(calls))
        assert len(calls) == 1
        assert journal.read_bytes() == whole  # the torn half is cut, not glued to

    def test_journal_holds_every_reply_before_the_next_request(self, tmp_path,
                                                                synthetic_manifest):
        # what a process killed during its (k+1)-th request leaves: k whole lines
        config = _mock_config(tmp_path)
        journal = Path(config.out_dir) / harness.JOURNAL_FILENAME
        seen = []

        def reading(prompt):
            data = journal.read_bytes()
            seen.append((data.count(b"\n"), data[-1:] in (b"", b"\n")))
            return mock_complete(prompt, 0)

        run_augmentation(config, manifest=synthetic_manifest, complete_fn=reading)
        assert seen == [(k, True) for k in range(10)]

    def test_reply_utf8_cannot_encode_costs_only_its_caption(self, tmp_path,
                                                              synthetic_manifest):
        # a JSON "\ud83d" escape in a reply parses to a lone surrogate, which no
        # output file can hold
        reply = json.loads('"1. A dog barks near an open window \\ud83d\\n'
                           '2. A kettle whistles on the stove"')
        config = _mock_config(tmp_path)
        _, stats = run_augmentation(config, synthetic_manifest,
                                    lambda prompt: _stub_response(reply))
        assert {s.rejected["Unencodable"] for s in stats.per_clip.values()} == {1}
        assert read_manifest(Path(config.out_dir) / harness.MANIFEST_FILENAME)
        written, calls = _outputs(config.out_dir), []
        run_augmentation(config, synthetic_manifest, _counting(calls))  # a resume
        assert calls == [] and _outputs(config.out_dir) == written

    def test_each_caption_is_normalized_once(self, tmp_path, data_dir, monkeypatch):
        config = _mock_config(tmp_path, manifest_path=str(data_dir / "synthetic_manifest.json"))
        calls = 0

        def counting(normalize):
            def counted(text):
                nonlocal calls
                calls += 1
                return normalize(text)
            return counted

        monkeypatch.setattr(filtering, "normalize", counting(filtering.normalize))
        monkeypatch.setattr(corpus, "normalize", counting(corpus.normalize))
        filtering._rule_keys.cache_clear()  # so this run makes the rules' keys
        manifest, stats = run_augmentation(config)
        # each parsed candidate in the filter, each original caption in the
        # merge's duplicate check, and the banned words and failure token once;
        # the merge reuses the filter's keys, and reading, building the merged
        # entry and writing normalise nothing more
        rule_keys = len(config.filter_rules.banned_words) + 1
        parsed = stats.totals()["parsed"]
        originals = sum(len(e.original_captions) for e in manifest.entries)
        assert stats.totals()["accepted"] > 0
        assert calls == parsed + originals + rule_keys

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(), clip_id=st.text(min_size=1, max_size=12),
           captions=st.lists(st.text(max_size=12), min_size=1, max_size=5))
    def test_seed_caption_index_is_drawn_from_the_clip_seed(self, seed, clip_id, captions):
        clip = corpus.ClipEntry(clip_id=clip_id, source_dataset=corpus.SourceDataset.SYNTHETIC,
                                original_captions=captions)
        config = _mock_config(seed=seed)
        _, clip_stats = harness._augment_one(
            config, builtin_template(config.prompt_kind),
            harness._ResponseJournal(
                config, lambda prompt: _stub_response("1. a dog barks twice nearby"), None,
                resume=False), clip)
        expected = random.Random(f"{seed}:{clip_id}").randrange(len(captions))
        assert clip_stats.seed_caption_index == expected

    def test_manifest_path_loading(self, tmp_path, data_dir):
        config = _mock_config(manifest_path=str(data_dir / "synthetic_manifest.json"))
        manifest, stats = run_augmentation(config)
        assert len(stats.per_clip) == 10

    def test_missing_manifest_config_error(self):
        with pytest.raises(ConfigError):
            run_augmentation(_mock_config(manifest_path=None))


# a stats count is an int: _augment_one makes each one
COUNTS = st.integers()
# as in test_corpus: text UTF-8 can encode, often with characters JSON escapes
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028 é'),
                         st.characters(exclude_categories=["Cs"])),
               max_size=12)


@st.composite
def augmentation_stats(draw):
    per_clip = {}
    for clip_id in draw(st.lists(TEXT, unique=True, max_size=4)):
        per_clip[clip_id] = harness.ClipAugmentation(
            clip_id=clip_id, requested=draw(COUNTS), parsed=draw(COUNTS),
            accepted=draw(COUNTS), seed_caption_index=draw(st.none() | COUNTS),
            attach_skipped=draw(COUNTS),
            rejected=draw(st.dictionaries(TEXT, COUNTS, max_size=3)),
            gateway_failed=draw(st.booleans()), error=draw(st.none() | TEXT))
    return harness.AugmentationStats(per_clip=per_clip)


class TestStatsFile:
    @settings(max_examples=100, deadline=None)
    @given(stats=augmentation_stats())
    @example(stats=harness.AugmentationStats())
    def test_bytes_match_the_dict_and_json_dumps_reference(self, tmp_path_factory, stats):
        path = tmp_path_factory.mktemp("stats") / "augment_stats.json"
        harness._write_stats(stats, path)
        assert path.read_bytes() == stats_bytes_reference(stats)

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, synthetic_manifest):
        _, stats = run_augmentation(_mock_config(), synthetic_manifest)
        path = tmp_path / "augment_stats.json"
        harness._write_stats(stats, path)
        before = path.read_bytes()
        # a NumPy integer is not JSON: the stream stops at the last clip
        last = max(stats.per_clip)
        stats.per_clip[last] = replace(stats.per_clip[last], parsed=np.int64(3))
        with pytest.raises(TypeError):
            harness._write_stats(stats, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["augment_stats.json"]


def _eval_config(tmp_path=None, epsilon=1e-8, **kwargs):
    separators = kwargs.pop("separators", [
        ("identity", SeparatorSpec(kind="identity")),
        ("oracle", SeparatorSpec(kind="oracle_irm")),
    ])
    out_dir = str(tmp_path / "eval") if tmp_path is not None else None
    return ExperimentConfig(separators=separators, epsilon=epsilon,
                            out_dir=out_dir, **kwargs)


def _with_silent_reference(items):
    """Make clip_001 all interference: a zero-energy reference."""
    items = list(items)
    item = items[1]
    item.mixture = item.interference
    item.reference = Waveform(np.zeros_like(item.reference.samples),
                              item.reference.sample_rate)
    return items


class TestRunEvaluation:
    def test_identity_aggregate_sdri_is_zero(self):
        items = make_synthetic_eval_set(5, seed=0, duration_s=0.5)
        result = run_evaluation(_eval_config(epsilon=0.0), items)
        assert result.separators["identity"].aggregate.sdri_db == 0.0
        # the aggregate is formed in clip_id order, whatever order the clips come in
        result_eps = run_evaluation(_eval_config(epsilon=1e-8), iter(items[::-1]))
        assert abs(result_eps.separators["identity"].aggregate.sdri_db) <= 1e-7

    def test_oracle_strictly_beats_identity(self):
        items = make_synthetic_eval_set(5, seed=1, duration_s=0.5)
        result = run_evaluation(_eval_config(), items)
        assert result.separators["oracle"].aggregate.sdr_db > \
            result.separators["identity"].aggregate.sdr_db

    def test_ensemble_of_identity_twins_equals_identity(self, tmp_path):
        config = ExperimentConfig(
            separators=[("id1", SeparatorSpec(kind="identity")),
                        ("id2", SeparatorSpec(kind="identity"))],
            ensembles={"both": EnsembleDef(members=("id1", "id2"))},
        )
        items = make_synthetic_eval_set(4, seed=2, duration_s=0.5)
        result = run_evaluation(config, items)
        assert result.separators["both"].aggregate == \
            result.separators["id1"].aggregate

    def test_artifacts_and_referential_integrity(self, tmp_path):
        config = ExperimentConfig(
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle", SeparatorSpec(kind="oracle_irm"))],
            ensembles={"pair": EnsembleDef(members=("identity", "oracle"),
                                           weights=(0.4, 0.6))},
            out_dir=str(tmp_path / "eval"),
        )
        items = make_synthetic_eval_set(3, seed=3, duration_s=0.5)
        result = run_evaluation(config, items)
        out = Path(config.out_dir)
        for name, sep_result in result.separators.items():
            for score in sep_result.per_clip:
                assert (out / "estimates" / name / f"{score.clip_id}.wav").exists()
            csv_path = out / "metrics" / f"{name}.csv"
            lines = csv_path.read_text().splitlines()
            assert lines[0] == "clip_id,sdr,sdri,si_sdr"
            assert len(lines) == 1 + len(sep_result.per_clip)
        report = (out / "report.md").read_text()
        assert result.config_hash in report
        assert "| pair |" in report
        assert "eval epsilon: 1e-08" in report
        assert "clamp: +/-60 dB" in report

    def test_oracle_without_interference_marks_clip_failed(self):
        items = list(make_synthetic_eval_set(3, seed=4, duration_s=0.5))
        items[1].interference = None
        result = run_evaluation(_eval_config(), items)
        oracle = result.separators["oracle"]
        assert oracle.failed == ["clip_001"]
        assert len(oracle.per_clip) == 2
        # identity unaffected
        assert result.separators["identity"].failed == []

    def test_ensemble_skips_clips_with_missing_members(self):
        config = ExperimentConfig(
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle", SeparatorSpec(kind="oracle_irm"))],
            ensembles={"pair": EnsembleDef(members=("identity", "oracle"))},
        )
        items = list(make_synthetic_eval_set(3, seed=5, duration_s=0.5))
        items[0].interference = None
        result = run_evaluation(config, items)
        assert result.separators["pair"].failed == ["clip_000"]
        assert len(result.separators["pair"].per_clip) == 2

    def test_silent_reference_scores_finite_with_epsilon(self):
        items = _with_silent_reference(make_synthetic_eval_set(3, seed=6, duration_s=0.5))
        result = run_evaluation(_eval_config(
            ensembles={"pair": EnsembleDef(members=("identity", "oracle"))}), items)
        for name, sep_result in result.separators.items():
            assert sep_result.failed == [], name
            assert len(sep_result.per_clip) == 3, name
            silent = sep_result.per_clip[1]
            assert silent.clip_id == "clip_001"
            assert all(math.isfinite(v) for v in
                       (silent.metrics.sdr_db, silent.metrics.sdri_db,
                        silent.metrics.si_sdr_db)), name

    def test_silent_reference_with_zero_epsilon_fails_only_that_clip(self, tmp_path):
        items = _with_silent_reference(make_synthetic_eval_set(3, seed=6, duration_s=0.5))
        result = run_evaluation(_eval_config(
            tmp_path, epsilon=0.0,
            ensembles={"pair": EnsembleDef(members=("identity", "oracle"))}), items)
        for name, sep_result in result.separators.items():
            assert sep_result.failed == ["clip_001"], name
            assert [s.clip_id for s in sep_result.per_clip] == ["clip_000", "clip_002"]
            assert sep_result.aggregate is not None
        assert not (tmp_path / "eval" / "estimates" / "identity" / "clip_001.wav").exists()
        assert (tmp_path / "eval" / "report.md").exists()

    def test_no_estimate_outlives_its_clip(self, tmp_path, monkeypatch):
        # "oracle" is an ensemble member, yet its estimate goes once its clip is done
        alive_max = 0
        oracle_estimates = []
        real_separate = evaluation.separate

        def recording_separate(spec, *args):
            nonlocal alive_max
            estimate = real_separate(spec, *args)
            if spec.kind == "oracle_irm":
                oracle_estimates.append(weakref.ref(estimate))
                alive_max = max(alive_max,
                                sum(ref() is not None for ref in oracle_estimates))
            return estimate

        monkeypatch.setattr(evaluation, "separate", recording_separate)
        # on the calling thread, so that one clip is in flight at a time
        monkeypatch.setattr(evaluation, "EXTERNAL_PROCESS_BOUND", 0)
        items = make_synthetic_eval_set(4, seed=7, duration_s=0.25)
        result = run_evaluation(_eval_config(
            tmp_path, ensembles={"pair": EnsembleDef(members=("identity", "oracle"))}), items)
        assert len(oracle_estimates) == 4
        assert alive_max == 1
        assert len(result.separators["pair"].per_clip) == 4

    def test_an_estimate_no_ensemble_reads_is_dropped_once_written(self, tmp_path,
                                                                   monkeypatch):
        # "oracle" is no ensemble's member, so its estimate is gone before the
        # clip's next separator runs
        oracle_alive_at_identity = []
        last_oracle = None
        real_separate = evaluation.separate

        def recording_separate(spec, *args):
            nonlocal last_oracle
            if spec.kind == "identity":
                oracle_alive_at_identity.append(last_oracle() is not None)
            estimate = real_separate(spec, *args)
            if spec.kind == "oracle_irm":
                last_oracle = weakref.ref(estimate)
            return estimate

        monkeypatch.setattr(evaluation, "separate", recording_separate)
        monkeypatch.setattr(evaluation, "EXTERNAL_PROCESS_BOUND", 0)
        result = run_evaluation(_eval_config(tmp_path, separators=[
            ("oracle", SeparatorSpec(kind="oracle_irm")),
            ("identity", SeparatorSpec(kind="identity"))]),
            make_synthetic_eval_set(3, seed=7, duration_s=0.25))
        assert oracle_alive_at_identity == [False] * 3
        assert len(list((tmp_path / "eval" / "estimates" / "oracle").glob("*.wav"))) == 3
        assert len(result.separators["oracle"].per_clip) == 3

    def test_ensemble_wav_is_ensemble_of_member_wavs(self, tmp_path):
        items = list(make_synthetic_eval_set(3, seed=8, duration_s=0.25))
        items[1].interference = None  # the oracle member fails on clip_001
        run_evaluation(_eval_config(tmp_path, ensembles={
            "pair": EnsembleDef(members=("identity", "oracle"), weights=(0.4, 0.6))}), items)
        estimates = tmp_path / "eval" / "estimates"
        assert not (estimates / "pair" / "clip_001.wav").exists()
        for clip_id in ("clip_000", "clip_002"):
            members = [read_wav(estimates / m / f"{clip_id}.wav") for m in ("identity", "oracle")]
            expected = ensemble(members, (0.4, 0.6))
            written = read_wav(estimates / "pair" / f"{clip_id}.wav")
            assert np.allclose(written.samples, expected.samples, rtol=0.0, atol=1e-7)

    def test_estimate_dir_exists_for_separator_failing_every_clip(self, tmp_path):
        items = list(make_synthetic_eval_set(2, seed=9, duration_s=0.25))
        for item in items:
            item.interference = None
        result = run_evaluation(_eval_config(tmp_path), items)
        assert result.separators["oracle"].failed == ["clip_000", "clip_001"]
        oracle_dir = tmp_path / "eval" / "estimates" / "oracle"
        assert oracle_dir.is_dir()
        assert list(oracle_dir.iterdir()) == []

    def test_external_clips_run_on_bounded_pool_in_clip_order(self, tmp_path):
        # each process writes its start and end time; captions pick the sleep
        # (slow clips first, so completion order differs from clip order) or
        # a failure
        marks = tmp_path / "marks"
        marks.mkdir()
        script = tmp_path / "sep.sh"
        script.write_text(
            'id=$(basename "$(dirname "$1")")\n'
            f'date +%s.%N > "{marks}/$id.start"\n'
            'case "$2" in *slow*) sleep 0.6;; *fail*) sleep 0.2; exit 3;; *) sleep 0.2;; esac\n'
            'cp "$1" "$3"\n'
            f'date +%s.%N > "{marks}/$id.end"\n')
        items = list(make_synthetic_eval_set(7, seed=10, duration_s=0.25))
        for item, caption in zip(items, ["slow", "slow", "quick", "fail", "quick",
                                         "slow", "quick"]):
            item.caption = caption
        spec = SeparatorSpec(kind="external",
                             command_template=f"sh {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        result = run_evaluation(_eval_config(
            tmp_path, separators=[("ext", spec), ("identity", SeparatorSpec(kind="identity"))]),
            items)

        ext = result.separators["ext"]
        assert ext.failed == ["clip_003"]
        scored = ["clip_000", "clip_001", "clip_002", "clip_004", "clip_005", "clip_006"]
        assert [s.clip_id for s in ext.per_clip] == scored
        csv_rows = (tmp_path / "eval" / "metrics" / "ext.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in csv_rows[1:]] == scored
        # each score belongs to its own clip: the external identity matches
        # the in-process one up to the float32 round trip through the WAV
        identity = {s.clip_id: s.metrics.si_sdr_db
                    for s in result.separators["identity"].per_clip}
        assert [s.metrics.si_sdr_db for s in ext.per_clip] == pytest.approx(
            [identity[c] for c in scored], abs=1e-6)

        starts = sorted(float(p.read_text()) for p in marks.glob("*.start"))
        intervals = [(float(p.read_text()), float(p.with_suffix(".end").read_text()))
                     for p in marks.glob("*.start") if p.with_suffix(".end").exists()]
        assert len(starts) == 7 and len(intervals) == 6
        running_at = [sum(s <= t < e for s, e in intervals) for t in starts]
        assert max(running_at) == EXTERNAL_PROCESS_BOUND == 2
        assert sum(e - s for s, e in intervals) > max(e for _, e in intervals) - starts[0]

    def test_output_bytes_are_pinned(self, tmp_path, monkeypatch):
        # relative paths keep the config hash in report.md independent of tmp_path
        monkeypatch.chdir(tmp_path)
        Path("ext_identity.sh").write_text('exec cp -- "$1" "$3"\n')
        external = SeparatorSpec(
            kind="external", command_template="sh ext_identity.sh {MIXTURE} {CAPTION} {OUT}")
        config = ExperimentConfig(
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle_irm", SeparatorSpec(kind="oracle_irm")),
                        ("external_identity", external)],
            ensembles={"ens": EnsembleDef(members=("oracle_irm", "external_identity"),
                                          weights=(0.5, 0.5))},
            out_dir="eval")
        run_evaluation(config, make_synthetic_eval_set(4, seed=12, duration_s=0.5,
                                                       snr_db=None))
        digests = {path.relative_to("eval").as_posix():
                   hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in Path("eval").rglob("*") if path.is_file()}
        assert digests == EVAL_DIGESTS

    def test_in_process_separators_give_the_same_bytes_on_worker_threads(self, tmp_path,
                                                                         monkeypatch):
        config = ExperimentConfig(
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle_irm", SeparatorSpec(kind="oracle_irm"))],
            ensembles={"ens": EnsembleDef(members=("identity", "oracle_irm"),
                                          weights=(0.5, 0.5))},
            out_dir="eval")
        workers_used, real_map = [], evaluation._map_in_order

        def recording_map(fn, items, workers):
            workers_used.append(workers)
            return real_map(fn, items, workers)

        monkeypatch.setattr(evaluation, "_map_in_order", recording_map)
        runs = []
        for workers in (0, 2):
            monkeypatch.setattr(evaluation, "EXTERNAL_PROCESS_BOUND", workers)
            # the same relative out_dir, so that report.md's config hash matches
            (tmp_path / str(workers)).mkdir()
            monkeypatch.chdir(tmp_path / str(workers))
            run_evaluation(config, make_synthetic_eval_set(6, seed=16, duration_s=0.5,
                                                           snr_db=None))
            runs.append({path.relative_to("eval").as_posix(): path.read_bytes()
                         for path in Path("eval").rglob("*") if path.is_file()})
        assert workers_used == [0, 2]
        assert len(runs[0]) == 3 * 6 + 3 + 1  # WAVs, CSVs and report.md
        assert runs[0] == runs[1]

    def test_outputs_do_not_depend_on_input_order(self, tmp_path, monkeypatch):
        # the external identity refuses the "beep" captions (clip_001, clip_005), so
        # failures are sorted too; a failing member fails the ensemble on those clips
        script = tmp_path / "ext_identity.sh"
        script.write_text('case "$2" in *beep*) exit 3;; esac\nexec cp -- "$1" "$3"\n')
        external = SeparatorSpec(kind="external",
                                 command_template=f"sh {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        config = ExperimentConfig(
            separators=[("identity", SeparatorSpec(kind="identity")),
                        ("oracle_irm", SeparatorSpec(kind="oracle_irm")),
                        ("external_identity", external)],
            ensembles={"ens": EnsembleDef(members=("oracle_irm", "external_identity"),
                                          weights=(0.5, 0.5))},
            out_dir="eval")
        items = make_synthetic_eval_set(6, seed=13, duration_s=0.5, snr_db=None)
        runs = []
        for name, eval_set in (("given", items), ("reversed", list(items)[::-1])):
            # the same relative out_dir, so that report.md's config hash matches
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            result = run_evaluation(config, eval_set)
            digests = {path.relative_to("eval").as_posix():
                       hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in Path("eval").rglob("*") if path.is_file()}
            runs.append((result.separators, digests))
        (given, given_digests), (backwards, backwards_digests) = runs
        assert given == backwards
        assert given_digests == backwards_digests
        assert len(given_digests) == 2 * 6 + 2 * 4 + 4 + 1  # WAVs, CSVs and report.md
        assert given["ens"].failed == ["clip_001", "clip_005"]
        assert [s.clip_id for s in given["ens"].per_clip] == \
            ["clip_000", "clip_002", "clip_003", "clip_004"]

    def test_clips_in_memory_stay_bounded_with_external_separator(self, tmp_path):
        # at each draw from the eval set, the clips drawn and not yet freed,
        # the new one included: one per worker and one queued
        live, alive_at_draw = [], []

        def recording(items):
            for item in items:
                live.append(weakref.ref(item.mixture))
                alive_at_draw.append(sum(ref() is not None for ref in live))
                yield item

        script = tmp_path / "ext_identity.sh"
        script.write_text('exec cp -- "$1" "$3"\n')
        external = SeparatorSpec(kind="external",
                                 command_template=f"sh {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        result = run_evaluation(
            _eval_config(tmp_path, separators=[("ext", external),
                                               ("identity", SeparatorSpec(kind="identity"))]),
            recording(make_synthetic_eval_set(12, seed=14, duration_s=0.25)))
        assert len(live) == 12
        assert len(result.separators["ext"].per_clip) == 12
        assert max(alive_at_draw) <= EXTERNAL_PROCESS_BOUND + 1, alive_at_draw

    def test_worker_threads_intern_no_strings(self, tmp_path, monkeypatch):
        # pathlib interns each component of a path; a new name interned per
        # clip on a worker thread makes the interpreter rebuild its table of
        # interned strings there now and then, which pins that thread's heap
        interned_on_workers = []
        real_intern = sys.intern

        def recording_intern(text):
            if threading.current_thread() is not threading.main_thread():
                interned_on_workers.append(text)
            return real_intern(text)

        script = tmp_path / "ext_identity.sh"
        script.write_text('exec cp -- "$1" "$3"\n')
        external = SeparatorSpec(kind="external",
                                 command_template=f"sh {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        config = _eval_config(tmp_path, separators=[("ext", external),
                                                    ("identity", SeparatorSpec(kind="identity"))])
        monkeypatch.setattr(sys, "intern", recording_intern)
        result = run_evaluation(config, make_synthetic_eval_set(4, seed=15, duration_s=0.25))
        assert len(result.separators["ext"].per_clip) == 4
        assert len(list((tmp_path / "eval" / "estimates" / "ext").glob("*.wav"))) == 4
        assert interned_on_workers == []

    def test_no_separators_rejected(self):
        with pytest.raises(ConfigError):
            run_evaluation(ExperimentConfig(separators=[]),
                           make_synthetic_eval_set(1, duration_s=0.5))

    def test_report_rows_preserve_order(self):
        items = make_synthetic_eval_set(2, seed=6, duration_s=0.5)
        result = run_evaluation(_eval_config(), items)
        rows = result.report_rows()
        assert [r.model for r in rows] == ["identity", "oracle"]

    @pytest.mark.parametrize("target", ["metrics/oracle.csv", "report.md"])
    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch, target):
        config = _eval_config(tmp_path)
        run_evaluation(config, make_synthetic_eval_set(3, seed=7, duration_s=0.25))
        path = tmp_path / "eval" / target
        before = path.read_bytes()
        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst) == path:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            run_evaluation(config, make_synthetic_eval_set(2, seed=8, duration_s=0.25))
        assert path.read_bytes() == before
        assert not list((tmp_path / "eval").rglob("*.tmp"))


class TestScoreClips:
    def test_scores_an_iterator_once_in_the_order_given(self):
        items = make_synthetic_eval_set(3, seed=11, duration_s=0.25)[::-1]
        seen = []

        def read(items):
            # clips are scored on worker threads, so the order they are read in
            # is the order that can be checked
            for item in items:
                seen.append(item.clip_id)
                yield item

        def later(item, estimates):
            # the earlier estimator's estimate of this same clip, and nothing else
            assert list(estimates) == ["identity"]
            assert estimates["identity"] is item.mixture
            return estimates["identity"]

        results = evaluation.score_clips(
            read(items), {"identity": lambda item, _: item.mixture, "later": later}, 1e-8,
            kept={"identity"})
        order = ["clip_002", "clip_001", "clip_000"]
        assert seen == order
        assert list(results) == ["identity", "later"]
        for result in results.values():
            assert [s.clip_id for s in result.per_clip] == order
            assert result.failed == []
            assert all(abs(s.metrics.sdri_db) <= 1e-7 for s in result.per_clip)
            assert result.aggregate is None


    def test_unscorable_clip_fails_every_estimator_without_estimating(self):
        items = _with_silent_reference(make_synthetic_eval_set(3, seed=6, duration_s=0.25))
        calls = []

        def estimator(name):
            def estimate_of(item, _estimates):
                calls.append((name, item.clip_id))
                return item.mixture
            return estimate_of

        results = evaluation.score_clips(items, {n: estimator(n) for n in ("a", "b", "c")}, 0.0,
                                         kept=())
        for result in results.values():
            assert result.failed == ["clip_001"]
            assert [s.clip_id for s in result.per_clip] == ["clip_000", "clip_002"]
        assert [c for _, c in calls].count("clip_001") == 0
        assert len(calls) == 6


class TestMapInOrder:
    def test_draws_at_most_one_item_more_than_workers(self):
        # ahead of the items finished: at every draw, items drawn minus items
        # finished is at most workers + 1, one per worker and one queued
        lock = threading.Lock()
        drawn = finished = 0
        ahead = []

        def items():
            nonlocal drawn
            for i in range(50):
                with lock:
                    drawn += 1
                    ahead.append(drawn - finished)
                yield i

        def square(i):
            nonlocal finished
            time.sleep(0.03 if i % 7 == 0 else 0.002)
            with lock:
                finished += 1
            return i * i

        assert harness._map_in_order(square, items(), workers=2) == \
            [i * i for i in range(50)]
        assert len(ahead) == 50
        assert max(ahead) <= 3

    def test_a_slow_item_holds_back_no_other(self):
        # item 0 can finish only once item 9 has run, so the pool has to keep
        # drawing past it while it waits
        ninth_ran = threading.Event()

        def wait_for_ninth(i):
            if i == 0:
                return ninth_ran.wait(timeout=2.0)
            if i == 9:
                ninth_ran.set()
            return True

        assert harness._map_in_order(wait_for_ninth, range(10), workers=2) == [True] * 10

    def test_first_exception_propagates_and_stops_the_rest(self):
        drawn, started = [], []

        def items():
            for i in range(40):
                drawn.append(i)
                yield i

        def fail_on_one(i):
            started.append(i)
            time.sleep(0.01)
            if i == 1:
                raise RuntimeError("item 1")
            return i

        with pytest.raises(RuntimeError, match="item 1"):
            harness._map_in_order(fail_on_one, items(), workers=2)
        assert len(drawn) < 40
        assert len(started) < 40


class TestSyntheticEvalSet:
    def test_deterministic(self):
        a = make_synthetic_eval_set(3, seed=0, duration_s=0.25)
        b = make_synthetic_eval_set(3, seed=0, duration_s=0.25)
        for x, y in zip(a, b):
            assert x.clip_id == y.clip_id
            assert x.mixture == y.mixture

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("snr_db", [None, 0.0])
    def test_clips_are_bit_identical_to_the_eager_reference(self, seed, snr_db):
        lazy = make_synthetic_eval_set(6, seed=seed, duration_s=0.5, snr_db=snr_db)
        reference = synthetic_eval_set_reference(6, seed=seed, duration_s=0.5, snr_db=snr_db)
        assert len(lazy) == len(reference)
        for item, expected in zip(lazy, reference):
            assert (item.clip_id, item.caption) == (expected.clip_id, expected.caption)
            for stem in ("mixture", "reference", "interference"):
                got, want = getattr(item, stem), getattr(expected, stem)
                assert got.sample_rate == want.sample_rate
                assert got.samples.dtype == want.samples.dtype
                assert got.samples.tobytes() == want.samples.tobytes(), stem

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           snr_db=st.one_of(st.none(), st.floats(-30.0, 30.0)),
           duration_s=st.floats(0.01, 0.5))
    @example(seed=0, snr_db=-30.0, duration_s=0.25)  # the peak is rescaled
    @example(seed=0, snr_db=30.0, duration_s=0.25)  # it is not
    @example(seed=1, snr_db=None, duration_s=0.5)
    def test_clips_equal_mix_of_the_same_stems(self, seed, snr_db, duration_s):
        # mixing in place on the clip's own stems keeps mix()'s bits
        lazy = make_synthetic_eval_set(3, seed=seed, duration_s=duration_s, snr_db=snr_db)
        reference = synthetic_eval_set_reference(3, seed=seed, duration_s=duration_s,
                                                 snr_db=snr_db)
        for item, expected in zip(lazy, reference):
            for stem in ("mixture", "reference", "interference"):
                got, want = getattr(item, stem).samples, getattr(expected, stem).samples
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), stem

    def test_sequence_builds_each_clip_when_read(self):
        items = make_synthetic_eval_set(5, seed=3, duration_s=0.25)
        backwards = [f"clip_{i:03d}" for i in range(4, -1, -1)]
        assert len(items) == 5
        assert items[-1].clip_id == "clip_004"
        assert items[-1].mixture == items[4].mixture
        assert [item.clip_id for item in items[::-1]] == backwards
        assert [item.clip_id for item in reversed(items)] == backwards
        with pytest.raises(IndexError):
            items[5]
        with pytest.raises(IndexError):
            items[-6]
        assert items[1] is not items[1]

    @pytest.mark.parametrize("kwargs", [
        {"n_clips": -2},
        {"duration_s": 0.0},
        {"duration_s": -1.0},
        {"duration_s": 1e-5},  # rounds to no sample at 16 kHz
        {"duration_s": float("nan")},
        {"sample_rate": 0},
        {"snr_db": float("nan")},
        {"snr_db": float("inf")},
        {"snr_db": None, "snr_range": (10.0, -10.0)},
        {"snr_db": None, "snr_range": (float("nan"), 10.0)},
    ])
    def test_bad_arguments_fail_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            make_synthetic_eval_set(**{"n_clips": 2, **kwargs})

    def test_snr_zero_gives_equal_energies(self):
        items = make_synthetic_eval_set(2, seed=1, duration_s=0.5, snr_db=0.0)
        for item in items:
            ratio = 10 * math.log10(item.reference.energy()
                                    / item.interference.energy())
            assert ratio == pytest.approx(0.0, abs=1e-9)

    def test_snr_drawn_from_range(self):
        items = make_synthetic_eval_set(8, seed=2, duration_s=0.25, snr_db=None,
                                        snr_range=(-10.0, 10.0))
        snrs = [10 * math.log10(i.reference.energy() / i.interference.energy())
                for i in items]
        assert all(-10.0 - 1e-6 <= s <= 10.0 + 1e-6 for s in snrs)
        assert len({round(s, 3) for s in snrs}) > 1

    def test_mixture_is_sum_of_stems(self):
        for item in make_synthetic_eval_set(2, seed=3, duration_s=0.25):
            assert np.allclose(item.mixture.samples,
                               item.reference.samples + item.interference.samples,
                               atol=1e-12)
