import json
import os
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from capaug import evaluation
from capaug.audio import Waveform, read_wav, write_wav
from capaug.cli import _experiment_config, build_parser, main
from capaug.harness import make_synthetic_eval_set


LOOPBACK = "http://127.0.0.1:9/complete"
HTTP_CONFIG = {"llm": {"mock": False, "endpoint_url": LOOPBACK,
                       "max_concurrent_requests": 2}}


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def wav_pair(tmp_path):
    rng = np.random.default_rng(0)
    target = Waveform(0.3 * rng.standard_normal(4096), 16000)
    interference = Waveform(0.3 * rng.standard_normal(4096), 16000)
    t_path, i_path = tmp_path / "t.wav", tmp_path / "i.wav"
    write_wav(t_path, target)
    write_wav(i_path, interference)
    return t_path, i_path


class TestPrompt:
    def test_show_outputs_template_json(self, capsys):
        assert run_cli("prompt", "show", "wavcaps") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "modified_wavcaps"
        assert "output 'Failure' if the description" in doc["instruction_text"]
        assert doc["requested_count"] == 4

    def test_show_aliases(self, capsys):
        for alias, kind in (("simple", "simple"), ("clotho", "modified_clotho"),
                            ("wavcaps", "modified_wavcaps")):
            assert run_cli("prompt", "show", alias) == 0
            assert json.loads(capsys.readouterr().out)["kind"] == kind


class TestIngest:
    def test_clotho(self, tmp_path, data_dir, capsys):
        out = tmp_path / "m.json"
        assert run_cli("ingest", "clotho", "--csv", data_dir / "clotho_fixture.csv",
                       "--out", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 2

    def test_fsd50k(self, tmp_path, data_dir):
        out = tmp_path / "m.json"
        assert run_cli("ingest", "fsd50k", "--csv", data_dir / "fsd50k_fixture.csv",
                       "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["entries"][0]["original_captions"] == ["Bark, Dog, Animal"]

    def test_wavcaps(self, tmp_path, data_dir):
        out = tmp_path / "m.json"
        assert run_cli("ingest", "wavcaps", "--json",
                       data_dir / "wavcaps_soundbible_fixture.json",
                       "--subset", "SoundBible", "--out", out) == 0
        assert len(json.loads(out.read_text())["entries"]) == 3

    def test_wavcaps_freesound_refused(self, tmp_path, data_dir, capsys):
        code = run_cli("ingest", "wavcaps", "--json",
                       data_dir / "wavcaps_soundbible_fixture.json",
                       "--subset", "FreeSound", "--out", tmp_path / "m.json")
        assert code == 2
        assert "excluded" in capsys.readouterr().err


class TestAugment:
    def test_mock_run_writes_outputs(self, tmp_path, data_dir, capsys):
        out_dir = tmp_path / "run"
        code = run_cli("augment", "--manifest", data_dir / "synthetic_manifest.json",
                       "--prompt", "wavcaps", "--count", 4, "--mock-llm",
                       "--seed", 0, "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "augment_stats.json").exists()
        assert "augmented 10 clips" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--seed", 7], ["--prompt", "simple"], ["--count", 2]],
                             ids=["seed", "prompt", "count"])
    def test_resume_from_another_config_gives_fresh_bytes(
            self, tmp_path, data_dir, flags):
        first = ["augment", "--manifest", data_dir / "synthetic_manifest.json", "--mock-llm",
                 "--seed", 0, "--out-dir", tmp_path / "run"]
        assert run_cli(*first) == 0
        assert run_cli(*first, *flags) == 0
        assert run_cli(*first, *flags, "--out-dir", tmp_path / "fresh") == 0
        resumed, fresh = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                          for name in ("run", "fresh"))
        # the resumed journal also keeps the first run's replies
        journal = "responses.jsonl"
        assert set(resumed.pop(journal).splitlines()) > set(fresh.pop(journal).splitlines())
        assert resumed == fresh

    def test_global_flag_position_also_works(self, tmp_path, data_dir):
        out_dir = tmp_path / "run"
        code = run_cli("--seed", 0, "--out-dir", out_dir, "augment",
                       "--manifest", data_dir / "synthetic_manifest.json",
                       "--mock-llm")
        assert code == 0
        assert (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--config", "bad.json", "stats", "--manifest", "m.json"],
        ["--seed", 3, "stats", "--manifest", "m.json"],
        ["--out-dir", "out", "prompt", "show", "simple"],
        ["--config", "bad.json", "--out-dir", "out", "report", "--rows", "rows.json"],
    ])
    def test_global_flags_refused_on_other_commands(self, tmp_path, data_dir, capsys,
                                                    monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_bytes((data_dir / "synthetic_manifest.json").read_bytes())
        (tmp_path / "rows.json").write_text('[{"model": "m", "sdr": 1, "sdri": 1, "si_sdr": 1}]')
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_is_config_error(self, tmp_path):
        assert run_cli("augment", "--mock-llm", "--out-dir", tmp_path / "x") == 2

    def test_config_file_drives_run(self, tmp_path, data_dir):
        out_dir = tmp_path / "run"
        config = {
            "manifest": str(data_dir / "synthetic_manifest.json"),
            "prompt": {"kind": "modified_wavcaps", "count": 4},
            "llm": {"mock": True, "seed": 0},
            "out_dir": str(out_dir),
            "seed": 0,
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("augment", "--config", config_path) == 0
        assert (out_dir / "manifest.json").exists()

    def test_broken_config_exit_2(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text("{broken json")
        assert run_cli("augment", "--config", config_path) == 2

    @pytest.mark.parametrize("flags", [
        ["--count", 0],
        ["--count", -1],
        ["--llm-model", "phi-3"],  # the default backend is the mock
        ["--mock-llm", "--llm-model", "phi-3"],
        ["--mock-llm", "--llm-endpoint", LOOPBACK],
    ])
    def test_bad_flag_combination_exit_2(self, tmp_path, data_dir, capsys, flags):
        out_dir = tmp_path / "run"
        assert run_cli("augment", "--manifest", data_dir / "synthetic_manifest.json",
                       "--out-dir", out_dir, *flags) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc, flags, expected", [
        (HTTP_CONFIG, ["--llm-model", "phi-3"],
         {"llm.model_id": "phi-3", "llm.endpoint_url": LOOPBACK,
          "llm.max_concurrent_requests": 2}),
        (None, ["--llm-endpoint", LOOPBACK, "--llm-model", "phi-3"],
         {"llm.model_id": "phi-3", "llm.endpoint_url": LOOPBACK}),
        (HTTP_CONFIG, ["--llm-endpoint", "http://127.0.0.1:10/complete"],
         {"llm.model_id": "phi-2", "llm.endpoint_url": "http://127.0.0.1:10/complete",
          "llm.max_concurrent_requests": 2}),
        (None, ["--seed", 5], {"use_mock_llm": True, "seed": 5, "mock_seed": 5}),
        (HTTP_CONFIG, ["--mock-llm", "--seed", 5],
         {"use_mock_llm": True, "llm": None, "seed": 5, "mock_seed": 5}),
        (HTTP_CONFIG, ["--seed", 5], {"use_mock_llm": False, "seed": 5}),
        (None, ["--count", 2], {"requested_count": 2}),
    ])
    def test_flags_override_config(self, tmp_path, doc, flags, expected):
        argv = ["augment", *map(str, flags)]
        if doc is not None:
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps(doc))
            argv += ["--config", str(config_path)]
        config = _experiment_config(build_parser().parse_args(argv))
        assert {name: attrgetter(name)(config) for name in expected} == expected


class TestFilter:
    def test_filter_responses_jsonl(self, tmp_path, capsys):
        responses = tmp_path / "responses.jsonl"
        lines = [
            {"clip_id": "a", "response_text": "① A dog barks outside.\n② Failure"},
            {"clip_id": "b", "response_text": "① Rain falls on the roof."},
        ]
        responses.write_text("\n".join(json.dumps(l) for l in lines))
        out = tmp_path / "reports.jsonl"
        assert run_cli("filter", "--responses", responses, "--out", out) == 0
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs[0]["clip_id"] == "a"
        assert docs[0]["accepted"] == ["A dog barks outside."]
        assert docs[0]["rejected"] == [{"caption": "Failure", "reason": "Failure"}]
        assert docs[1]["accepted"] == ["Rain falls on the roof."]

    def test_custom_rules_file(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"max_words": 3, "min_words": 1}))
        responses = tmp_path / "responses.jsonl"
        responses.write_text(json.dumps(
            {"clip_id": "a", "response_text": "① one two three four"}))
        out = tmp_path / "reports.jsonl"
        assert run_cli("filter", "--responses", responses, "--rules", rules,
                       "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["rejected"][0]["reason"] == "TooLong"

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        responses = tmp_path / "responses.jsonl"
        good = json.dumps({"clip_id": "a", "response_text": "① A dog barks outside."})
        # json.dumps escapes the lone surrogate, which no output file can hold
        for bad in ({"clip_id": "a"}, {"clip_id": "a", "response_text": 3}, ["a"],
                    {"clip_id": "a", "response_text": "① A dog barks outside \ud83d"}):
            responses.write_text(good + "\n" + json.dumps(bad))
            assert run_cli("filter", "--responses", responses,
                           "--out", tmp_path / "o.jsonl") == 2
            assert capsys.readouterr().err.startswith(f"config error: {responses}:2:")

    def test_undecodable_line_names_its_file_and_line(self, tmp_path, capsys):
        responses = tmp_path / "responses.jsonl"
        good = json.dumps({"clip_id": "a", "response_text": "① A dog barks outside."})
        responses.write_text(good + "\n\n" + good + "\n{bad\n")
        assert run_cli("filter", "--responses", responses,
                       "--out", tmp_path / "o.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {responses}:4: Expecting property name")
        assert not (tmp_path / "o.jsonl").exists()


class TestConfigFiles:
    @pytest.mark.parametrize("option, doc", [
        ("--rules", {"max_words": "20"}),
        ("--spec", {"kind": "oracle_irm", "stft": {"win": 1}}),
        ("--spec", {"stft": {"window_size": 512}}),
        ("--config", {"prompt": {"count": 0}}),
        ("--config", {"separators": [{"kind": "identity"}]}),
        ("--rows", [{"sdr": 0.0, "sdri": 0.0, "si_sdr": 0.0}]),
        ("--rows", [{"model": "m", "sdr": "high", "sdri": 0.0, "si_sdr": 0.0}]),
        ("--rules", {"banned_words": "heard"}),
        ("--rules", {"banned_words": ["heard", 3]}),
        ("--rules", {"failure_token": 0}),
        ("--rules", {"max_word": 20}),
        ("--spec", {"kind": "identity", "knd": 1}),
        ("--config", {"sed": 3}),
        ("--spec", {"kind": "identity", "timeout_s": "fast"}),
        ("--spec", {"kind": "external", "command": "sep {MIXTURE} {CAPTION} {OUT}",
                    "timeout_s": -1}),
        ("--config", {"separators": [{"name": "x", "kind": "identity", "timeout_s": "fast"}]}),
        ("--config", {"separators": [{"name": "x", "kind": "identity",
                                      "timeout_s": float("nan")}]}),
        ("--config", {"separators": [{"name": "x", "kind": "identity"}],
                      "ensembles": {"e": {"members": ["x"], "weights": [-1]}}}),
        ("--config", {"separators": [{"name": "x", "kind": "identity"},
                                     {"name": "y", "kind": "identity"}],
                      "ensembles": {"e": {"members": ["x", "y"], "weights": [-1, 2]}}}),
        ("--config", {"separators": [{"name": "x", "kind": "identity"}],
                      "ensembles": {"e": {"members": ["x"], "weights": [0]}}}),
        ("--config", {"prompt": {"count": 2.9}}),
        ("--config", {"seed": True}),
        ("--config", {"epsilon": "1e-8"}),
        ("--config", {"manifest": 5}),
        ("--config", {"snr_range": "ab"}),
        ("--config", {"snr_range": [1, 2, 3]}),
        ("--config", {"snr_range": [10, -10]}),
        ("--config", {"separators": [{"name": "a", "kind": "identity"},
                                     {"name": "b", "kind": "identity"}],
                      "ensembles": {"e": {"members": "ab"}}}),
        ("--config", {"llm": {**HTTP_CONFIG["llm"], "api_key_env": 5}}),
        ("--config", {"llm": {"mock": "no"}}),
        ("--config", {"provenance": [["a", 1]]}),
        ("--config", {"separators": [{"name": 5, "kind": "identity"}]}),
    ])
    def test_bad_document_exit_2(self, tmp_path, wav_pair, capsys, option, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        responses = tmp_path / "responses.jsonl"
        responses.write_text(json.dumps({"clip_id": "a", "response_text": "① A dog barks."}))
        argv = {
            "--rules": ["filter", "--responses", responses, "--out", tmp_path / "o.jsonl"],
            "--spec": ["separate", "--mixture", wav_pair[0], "--caption", "x",
                       "--out", tmp_path / "est.wav"],
            "--config": ["augment", "--mock-llm"],
            "--rows": ["report"],
        }[option]
        assert run_cli(*argv, option, path) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")


class TestStats:
    def test_stats_table(self, data_dir, capsys):
        assert run_cli("stats", "--manifest", data_dir / "synthetic_manifest.json") == 0
        out = capsys.readouterr().out
        assert "Synthetic" in out and "Total" in out
        synthetic_line = [l for l in out.splitlines() if l.startswith("Synthetic")][0]
        assert synthetic_line.split() == ["Synthetic", "10", "16", "0"]

    @pytest.mark.parametrize("command", [["stats"], ["augment", "--mock-llm", "--out-dir", "out"]])
    @pytest.mark.parametrize("doc, field", [
        ({"metadata": {}}, "entries"),
        ([1, 2], "entries"),
        ({"entries": "x"}, "entries"),
        ({"entries": [{"clip_id": "a"}]}, "original_captions"),
        ({"entries": [{"clip_id": "a", "original_captions": ["x"],
                       "source_dataset": [1]}]}, "source_dataset"),
        ({"entries": [{"clip_id": "a", "original_captions": ["x"],
                       "source_dataset": "Nope"}]}, "source_dataset"),
    ])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, monkeypatch, command, doc,
                                       field):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run_cli(*command, "--manifest", path) == 2
        err = capsys.readouterr().err
        # a missing field is named as a key; a bad value by its clip and field
        named = {"source_dataset": "clip 'a': source_dataset must be one of "
                                   "['FSD50K', 'ClothoV2', 'WavCapsBBC', 'WavCapsSoundBible', "
                                   "'WavCapsAudioSet', 'Synthetic']\n"}
        assert err.startswith(f"error: {path}:") and named.get(field, f"'{field}'") in err
        assert not (tmp_path / "out").exists()


class TestSignalCommands:
    def test_mix_writes_outputs(self, tmp_path, wav_pair, capsys):
        t_path, i_path = wav_pair
        out = tmp_path / "mix.wav"
        out_t = tmp_path / "scaled_t.wav"
        out_i = tmp_path / "scaled_i.wav"
        assert run_cli("mix", "--target", t_path, "--interference", i_path,
                       "--snr", 0, "--out", out, "--out-target", out_t,
                       "--out-interference", out_i) == 0
        mixture = read_wav(out)
        target = read_wav(out_t)
        interference = read_wav(out_i)
        assert np.allclose(mixture.samples,
                           target.samples + interference.samples, atol=1e-6)

    def test_separate_identity(self, tmp_path, wav_pair):
        t_path, _ = wav_pair
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "identity"}))
        out = tmp_path / "est.wav"
        assert run_cli("separate", "--spec", spec, "--mixture", t_path,
                       "--caption", "a dog barks", "--out", out) == 0
        assert read_wav(out) == read_wav(t_path)

    def test_separate_oracle_with_stems(self, tmp_path, wav_pair):
        t_path, i_path = wav_pair
        mix_out = tmp_path / "mix.wav"
        st, si_ = tmp_path / "st.wav", tmp_path / "si.wav"
        run_cli("mix", "--target", t_path, "--interference", i_path, "--snr", 0,
                "--out", mix_out, "--out-target", st, "--out-interference", si_)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "oracle_irm"}))
        out = tmp_path / "est.wav"
        assert run_cli("separate", "--spec", spec, "--mixture", mix_out,
                       "--caption", "x", "--target", st, "--interference", si_,
                       "--out", out) == 0
        assert out.exists()

    def test_ensemble_command(self, tmp_path, wav_pair):
        t_path, i_path = wav_pair
        out = tmp_path / "ens.wav"
        assert run_cli("ensemble", "--inputs", t_path, i_path,
                       "--weights", 0.5, 0.5, "--out", out) == 0
        combined = read_wav(out)
        expected = 0.5 * read_wav(t_path).samples + 0.5 * read_wav(i_path).samples
        assert np.allclose(combined.samples, expected, atol=1e-7)

    def test_eval_directories(self, tmp_path, monkeypatch):
        # scored on the evaluation worker threads, the rows in clip order
        est_dir, ref_dir, mix_dir = (tmp_path / "est", tmp_path / "ref", tmp_path / "mix")
        for d in (est_dir, ref_dir, mix_dir):
            d.mkdir()
        for item in make_synthetic_eval_set(6, seed=0, duration_s=0.5):
            write_wav(ref_dir / f"{item.clip_id}.wav", item.reference)
            write_wav(mix_dir / f"{item.clip_id}.wav", item.mixture)
            write_wav(est_dir / f"{item.clip_id}.wav", item.mixture)  # identity
        out = tmp_path / "metrics.csv"
        workers_used, real_map = [], evaluation._map_in_order

        def recording_map(fn, items, workers):
            workers_used.append(workers)
            return real_map(fn, items, workers)

        monkeypatch.setattr(evaluation, "_map_in_order", recording_map)
        assert run_cli("eval", "--estimates", est_dir, "--references", ref_dir,
                       "--mixtures", mix_dir, "--out", out) == 0
        assert workers_used == [evaluation.EXTERNAL_PROCESS_BOUND]
        lines = out.read_text().splitlines()
        assert lines[0] == "clip_id,sdr,sdri,si_sdr"
        assert [line.split(",")[0] for line in lines[1:]] == [f"clip_{i:03d}" for i in range(6)]
        for line in lines[1:]:
            clip_id, sdr_v, sdri_v, si_v = line.split(",")
            assert abs(float(sdri_v)) <= 1e-7  # identity estimates

    def test_eval_silent_reference_with_zero_epsilon_fails_only_that_clip(self, tmp_path,
                                                                           capsys):
        est_dir, ref_dir, mix_dir = (tmp_path / "est", tmp_path / "ref", tmp_path / "mix")
        for d in (est_dir, ref_dir, mix_dir):
            d.mkdir()
        for item in make_synthetic_eval_set(3, seed=0, duration_s=0.25):
            reference = item.reference
            if item.clip_id == "clip_001":
                reference = Waveform(np.zeros(len(reference)), reference.sample_rate)
            write_wav(ref_dir / f"{item.clip_id}.wav", reference)
            write_wav(mix_dir / f"{item.clip_id}.wav", item.mixture)
            write_wav(est_dir / f"{item.clip_id}.wav", item.mixture)
        out = tmp_path / "metrics.csv"
        assert run_cli("eval", "--estimates", est_dir, "--references", ref_dir,
                       "--mixtures", mix_dir, "--out", out, "--epsilon", 0) == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "clip_id,sdr,sdri,si_sdr"
        assert [line.split(",")[0] for line in lines[1:]] == ["clip_000", "clip_002"]
        assert "clip_001" in capsys.readouterr().err

    def test_eval_unreadable_estimate_fails_only_that_clip(self, tmp_path, capsys):
        est_dir, ref_dir, mix_dir = (tmp_path / "est", tmp_path / "ref", tmp_path / "mix")
        for d in (est_dir, ref_dir, mix_dir):
            d.mkdir()
        for item in make_synthetic_eval_set(3, seed=0, duration_s=0.25):
            write_wav(ref_dir / f"{item.clip_id}.wav", item.reference)
            write_wav(mix_dir / f"{item.clip_id}.wav", item.mixture)
            write_wav(est_dir / f"{item.clip_id}.wav", item.mixture)
        (est_dir / "clip_001.wav").write_bytes(b"not a wav file")
        out = tmp_path / "metrics.csv"
        assert run_cli("eval", "--estimates", est_dir, "--references", ref_dir,
                       "--mixtures", mix_dir, "--out", out) == 1
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["clip_000", "clip_002"]
        assert "clip_001" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "-1"])
    def test_eval_refuses_nan_or_negative_epsilon(self, tmp_path, epsilon, capsys):
        dirs = [tmp_path / name for name in ("est", "ref", "mix")]
        item = make_synthetic_eval_set(1, seed=0, duration_s=0.25)[0]
        for d, wave in zip(dirs, (item.mixture, item.reference, item.mixture)):
            d.mkdir()
            write_wav(d / "c.wav", wave)
        out = tmp_path / "m.csv"
        assert run_cli("eval", "--estimates", dirs[0], "--references", dirs[1],
                       "--mixtures", dirs[2], "--out", out, "--epsilon", epsilon) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_missing_reference_is_error(self, tmp_path):
        est_dir, ref_dir, mix_dir = (tmp_path / "est", tmp_path / "ref", tmp_path / "mix")
        for d in (est_dir, ref_dir, mix_dir):
            d.mkdir()
        item = make_synthetic_eval_set(1, seed=0, duration_s=0.25)[0]
        write_wav(est_dir / "c.wav", item.mixture)
        assert run_cli("eval", "--estimates", est_dir, "--references", ref_dir,
                       "--mixtures", mix_dir, "--out", tmp_path / "m.csv") == 2


class TestReport:
    def test_markdown_report(self, tmp_path, capsys):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([
            {"model": "Baseline", "training_dataset": "d", "caption_augmentation": "-",
             "sdr": 3.320, "sdri": 3.285, "si_sdr": 1.505}]))
        assert run_cli("report", "--rows", rows) == 0
        assert "3.320 3.285 1.505" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["filter", "report"])
    def test_failed_rewrite_of_out_keeps_the_old_file(self, tmp_path, monkeypatch, capsys,
                                                      command):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([{"model": "m", "sdr": 0.0, "sdri": 0.0, "si_sdr": 0.0}]))
        responses = tmp_path / "responses.jsonl"
        responses.write_text(json.dumps({"clip_id": "a", "response_text": "① A dog barks."}))
        argv = {"filter": ["filter", "--responses", responses],
                "report": ["report", "--rows", rows]}[command]
        out = tmp_path / "out.txt"
        out.write_text("old bytes\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run_cli(*argv, "--out", out) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == "old bytes\n"
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_csv_report_to_file(self, tmp_path):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([
            {"model": "m", "sdr": 0.0, "sdri": 0.0, "si_sdr": 0.0}]))
        out = tmp_path / "report.csv"
        assert run_cli("report", "--rows", rows, "--format", "csv", "--out", out) == 0
        assert "0.000,0.000,0.000" in out.read_text()

    def test_unknown_row_key_is_config_error(self, tmp_path, capsys):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([
            {"model": "m", "trainng_dataset": "Clotho", "sdr": 0.0, "sdri": 0.0,
             "si_sdr": 0.0}]))
        out = tmp_path / "report.md"
        assert run_cli("report", "--rows", rows, "--out", out) == 2
        assert "trainng_dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["report", "--rows", "rows.json", "--config", "bad.json"],  # not --config-hash
        ["report", "--rows", "rows.json", "--form", "csv"],
        ["stats", "--mani", "m.json"],
    ])
    def test_abbreviated_option_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("rows.json").write_text(json.dumps([
            {"model": "m", "sdr": 0.0, "sdri": 0.0, "si_sdr": 0.0}]))
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
