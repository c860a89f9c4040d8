import json
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from capaug import audio
from capaug.audio import (StftParams, Waveform, _irm_in_place, mix, read_wav, stft, tone_burst,
                          white_noise, write_wav)
from capaug.evaluation import ExternalSeparatorError, ensemble, separate
from capaug.harness import load_config
from capaug.metrics import sdr
from capaug.separation import SeparatorSpec
from oracles import irm_mask_reference, oracle_irm_reference

# first run of the seeded tone+noise fixture below observed 21.3 dB oracle SDR
# (identity: 0 dB); asserted with headroom so numeric drift cannot flake it
ORACLE_IRM_FIXTURE_MIN_SDR_DB = 18.0


def _tone_noise_mixture(seed=0, snr_db=0.0, duration_s=2.0, rate=16000):
    rng = np.random.default_rng(seed)
    target = tone_burst(float(rng.uniform(400, 2000)), duration_s, rate)
    noise = white_noise(duration_s, rate, rng)
    return mix(target, noise, snr_db)


def _irm(target, interference, params=StftParams()):
    """The mask oracle_irm applies: ``_irm_in_place`` on the stems' power spectra."""
    return _irm_in_place(np.abs(stft(target, params)) ** 2,
                         np.abs(stft(interference, params)) ** 2)


class TestSpec:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            SeparatorSpec(kind="magic")

    def test_external_requires_all_placeholders(self):
        with pytest.raises(ValueError, match="missing"):
            SeparatorSpec(kind="external", command_template="run {MIXTURE} {OUT}")

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be positive and finite"):
            SeparatorSpec(kind="external", command_template="sep {MIXTURE} {CAPTION} {OUT}",
                          timeout_s=timeout_s)

    def test_round_trip(self):
        for spec in (
            SeparatorSpec(kind="identity"),
            SeparatorSpec(kind="oracle_irm", stft_params=StftParams(512, 128)),
            SeparatorSpec(kind="external",
                          command_template="sep {MIXTURE} {CAPTION} {OUT}", timeout_s=5),
        ):
            assert SeparatorSpec.from_dict(spec.to_dict()) == spec

    def test_load_config(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "identity"}))
        assert load_config(path, SeparatorSpec.from_dict).kind == "identity"


class TestIdentity:
    def test_returns_mixture_bit_identical(self):
        mixed = _tone_noise_mixture()
        out = separate(SeparatorSpec(kind="identity"), mixed.mixture, "a tone")
        assert out == mixed.mixture


class TestOracleIrm:
    def test_mask_values_in_unit_interval(self):
        mixed = _tone_noise_mixture(seed=1)
        mask = _irm(mixed.target, mixed.interference)
        assert float(mask.min()) >= 0.0
        assert float(mask.max()) <= 1.0

    def test_oracle_beats_identity_on_fixture(self):
        mixed = _tone_noise_mixture(seed=2, snr_db=0.0)
        spec = SeparatorSpec(kind="oracle_irm")
        estimate = separate(spec, mixed.mixture, "a tone",
                            oracle_sources=(mixed.target, mixed.interference))
        oracle_sdr = sdr(estimate, mixed.target, epsilon=1e-8)
        identity_sdr = sdr(mixed.mixture, mixed.target, epsilon=1e-8)
        assert oracle_sdr >= ORACLE_IRM_FIXTURE_MIN_SDR_DB
        assert identity_sdr == pytest.approx(0.0, abs=0.1)

    def test_missing_oracle_sources(self):
        mixed = _tone_noise_mixture()
        with pytest.raises(ValueError, match="oracle_sources"):
            separate(SeparatorSpec(kind="oracle_irm"), mixed.mixture, "a tone")

    def test_misaligned_oracle_sources(self):
        mixed = _tone_noise_mixture()
        short = Waveform(mixed.target.samples[:100], mixed.target.sample_rate)
        with pytest.raises(ValueError, match="align"):
            separate(SeparatorSpec(kind="oracle_irm"), mixed.mixture, "a tone",
                     oracle_sources=(short, mixed.interference))

    @pytest.mark.parametrize("window, hop", [(1024, 256), (512, 100), (256, 256)])
    def test_bits_unchanged(self, window, hop):
        spec = SeparatorSpec(kind="oracle_irm", stft_params=StftParams(window, hop))
        for seed, n in enumerate((window * 3 + 7, 16000, window * 5, 16000)):
            rng = np.random.default_rng(seed)
            mixture, target, interference = (Waveform(rng.standard_normal(n), 16000)
                                             for _ in range(3))
            estimate = separate(spec, mixture, "", (target, interference))
            assert np.array_equal(estimate.samples, oracle_irm_reference(
                mixture.samples, target.samples, interference.samples, window, hop))

    def test_irm_mask_bits_match_the_formula(self):
        mixed = _tone_noise_mixture(seed=4)
        assert np.array_equal(_irm(mixed.target, mixed.interference), irm_mask_reference(
            mixed.target.samples, mixed.interference.samples, 1024, 256))

    def test_bits_unchanged_when_no_scratch_is_kept(self, monkeypatch):
        # with a size limit of 0 every intermediate is a fresh array, freed with its call
        monkeypatch.setattr(audio, "_SCRATCH_MAX_BYTES", 0)
        mixed = _tone_noise_mixture(seed=5)

        def run():
            estimate = separate(SeparatorSpec(kind="oracle_irm"), mixed.mixture, "",
                                (mixed.target, mixed.interference))
            return estimate, dict(vars(audio._scratch_arrays))

        with ThreadPoolExecutor(max_workers=1) as pool:
            estimate, kept = pool.submit(run).result()
        assert kept == {}
        assert np.array_equal(estimate.samples, oracle_irm_reference(
            mixed.mixture.samples, mixed.target.samples, mixed.interference.samples, 1024, 256))

    def test_two_threads_give_the_serial_bits(self):
        # each thread has its own scratch arrays; shared ones would mix clips
        spec = SeparatorSpec(kind="oracle_irm")
        clips = [_tone_noise_mixture(seed=seed, duration_s=duration)
                 for seed, duration in enumerate([1.0, 0.5, 1.0, 0.75] * 3)]

        def run(mixed):
            return separate(spec, mixed.mixture, "", (mixed.target, mixed.interference))

        serial = [run(mixed).samples for mixed in clips]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(run, clips * 2))
        finally:
            sys.setswitchinterval(old_interval)
        for expected, got in zip(serial * 2, threaded):
            assert np.array_equal(got.samples, expected)

    def test_output_matches_mixture_length_and_rate(self):
        mixed = _tone_noise_mixture(seed=3)
        out = separate(SeparatorSpec(kind="oracle_irm"), mixed.mixture, "x",
                       oracle_sources=(mixed.target, mixed.interference))
        assert len(out) == len(mixed.mixture)
        assert out.sample_rate == mixed.mixture.sample_rate


def _write_stub(tmp_path, body):
    script = tmp_path / "stub_sep.py"
    script.write_text(textwrap.dedent(body))
    return script


def _copy_stub(tmp_path):
    return _write_stub(tmp_path, """\
        import shutil, sys
        # argv: mixture caption out
        shutil.copyfile(sys.argv[1], sys.argv[3])
        """)


class TestExternal:
    def test_copy_stub_equals_identity(self, tmp_path):
        mixed = _tone_noise_mixture(seed=4)
        script = _copy_stub(tmp_path)
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        out = separate(spec, mixed.mixture, "a tone hums along")
        # float32 write/read round-trip of the mixture
        expected = Waveform(mixed.mixture.samples.astype(np.float32).astype(np.float64),
                            mixed.mixture.sample_rate)
        assert out == expected
        assert sdr(out, mixed.target, epsilon=1e-8) == pytest.approx(
            sdr(expected, mixed.target, epsilon=1e-8), abs=1e-12)

    def test_caption_with_spaces_stays_single_argument(self, tmp_path):
        capture = tmp_path / "caption.txt"
        script = _write_stub(tmp_path, f"""\
            import shutil, sys
            open({str(capture)!r}, "w").write(sys.argv[2])
            shutil.copyfile(sys.argv[1], sys.argv[3])
            """)
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture(seed=5)
        separate(spec, mixed.mixture, "a dog barks in the rain")
        assert capture.read_text() == "a dog barks in the rain"

    def test_caption_placeholders_stay_literal(self, tmp_path):
        capture = tmp_path / "argv.json"
        script = _write_stub(tmp_path, f"""\
            import json, shutil, sys
            open({str(capture)!r}, "w").write(json.dumps(sys.argv[1:]))
            shutil.copyfile(sys.argv[1], sys.argv[3])
            """)
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        caption = "a {OUT} hum {MIXTURE}{CAPTION}"
        separate(spec, _tone_noise_mixture(seed=5).mixture, caption)
        mixture_path, seen, out_path = json.loads(capture.read_text())
        assert seen == caption
        assert Path(mixture_path).name == "mixture.wav"
        assert Path(out_path).name == "estimate.wav"

    def test_nonzero_exit_raises(self, tmp_path):
        script = _write_stub(tmp_path, "import sys; sys.exit(3)")
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture()
        with pytest.raises(ExternalSeparatorError, match="exited with 3"):
            separate(spec, mixed.mixture, "x")

    def test_timeout_raises(self, tmp_path):
        script = _write_stub(tmp_path, "import time; time.sleep(30)")
        spec = SeparatorSpec(
            kind="external", timeout_s=0.5,
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture()
        with pytest.raises(ExternalSeparatorError, match="timed out"):
            separate(spec, mixed.mixture, "x")

    def test_missing_output_raises(self, tmp_path):
        script = _write_stub(tmp_path, "pass")
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture()
        with pytest.raises(ExternalSeparatorError, match="output"):
            separate(spec, mixed.mixture, "x")

    def test_subprocess_bound_limits_overlap(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        timing = tmp_path / "timing"
        timing.mkdir()
        script = _write_stub(tmp_path, f"""\
            import os, shutil, sys, time
            start = time.monotonic()
            time.sleep(0.2)
            end = time.monotonic()
            with open(os.path.join({str(timing)!r}, str(os.getpid())), "w") as fh:
                fh.write(f"{{start}} {{end}}")
            shutil.copyfile(sys.argv[1], sys.argv[3])
            """)
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture(seed=7, duration_s=0.25)
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(lambda _: separate(spec, mixed.mixture, "x"), range(6)))
        intervals = [tuple(map(float, p.read_text().split()))
                     for p in timing.iterdir()]
        assert len(intervals) == 6
        max_overlap = max(
            sum(1 for other in intervals if other[0] <= edge < other[1])
            for start, end in intervals for edge in (start,))
        assert max_overlap <= 2

    def test_length_mismatch_resolved(self, tmp_path, caplog):
        script = _write_stub(tmp_path, """\
            import sys
            import numpy as np
            from scipy.io import wavfile
            rate, data = wavfile.read(sys.argv[1])
            wavfile.write(sys.argv[3], rate, data[:len(data) // 2])
            """)
        spec = SeparatorSpec(
            kind="external",
            command_template=f"{sys.executable} {script} {{MIXTURE}} {{CAPTION}} {{OUT}}")
        mixed = _tone_noise_mixture(seed=6)
        with caplog.at_level("WARNING"):
            out = separate(spec, mixed.mixture, "x")
        assert len(out) == len(mixed.mixture)
        assert np.all(out.samples[len(mixed.mixture) // 2:] == 0.0)
        assert any("length" in r.message for r in caplog.records)


class TestEnsemble:
    def test_single_estimate_weight_one(self):
        wave = _tone_noise_mixture().mixture
        out = ensemble([wave], [1.0])
        assert out == wave

    def test_identical_estimates_fixed_point(self):
        wave = _tone_noise_mixture().mixture
        out = ensemble([wave, wave, wave], [0.2, 0.5, 0.3])
        assert np.allclose(out.samples, wave.samples, atol=1e-15)

    def test_hand_case(self):
        a = Waveform(np.array([1.0, 0.0]), 16000)
        b = Waveform(np.array([0.0, 1.0]), 16000)
        out = ensemble([a, b], [0.5, 0.5])
        assert np.array_equal(out.samples, [0.5, 0.5])

    def test_weight_rescaling_invariance(self):
        a = Waveform(np.array([1.0, 0.0, 2.0]), 16000)
        b = Waveform(np.array([0.0, 1.0, -2.0]), 16000)
        out1 = ensemble([a, b], [1.0, 3.0])
        out2 = ensemble([a, b], [0.25, 0.75])
        assert np.allclose(out1.samples, out2.samples, atol=1e-15)

    def test_default_weights_uniform(self):
        a = Waveform(np.array([1.0, 0.0]), 16000)
        b = Waveform(np.array([0.0, 1.0]), 16000)
        assert np.array_equal(ensemble([a, b]).samples, [0.5, 0.5])

    def test_errors(self):
        a = Waveform(np.array([1.0, 0.0]), 16000)
        with pytest.raises(ValueError):
            ensemble([], [1.0])
        with pytest.raises(ValueError):
            ensemble([a], [0.0])
        with pytest.raises(ValueError):
            ensemble([a], [-1.0, 2.0])
        with pytest.raises(ValueError):
            ensemble([a, Waveform(np.array([1.0]), 16000)], [0.5, 0.5])
        with pytest.raises(ValueError):
            ensemble([a, Waveform(np.array([1.0, 0.0]), 8000)], [0.5, 0.5])
        with pytest.raises(ValueError):
            ensemble([a], [0.5, 0.5])
        with pytest.raises(ValueError):
            ensemble([a], [])
        with pytest.raises(ValueError, match="non-negative"):
            ensemble([a, a], [-1.0, 2.0])
