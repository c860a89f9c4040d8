import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from capaug import audio
from capaug.audio import (StftParams, Waveform, WavFormatError, istft, mix, oracle_irm,
                          read_wav, stft, tone_burst, white_noise, write_wav)
from oracles import (istft_brute, mix_gain_brute, oracle_irm_reference, stft_reference,
                     tone_burst_reference)

# (window, hop) pairs: hops dividing the window, hops equal to it, and a hop
# that does not divide it
ISTFT_GRID = [(1024, 256), (512, 128), (1024, 512), (256, 256), (1024, 1024),
              (512, 100), (64, 16)]


def _masked_spectrum(x, params, seed):
    """An STFT scaled by a random mask in [0, 1], as oracle_irm makes."""
    matrix = stft(x, params)
    return matrix * np.random.default_rng(seed).uniform(0.0, 1.0, matrix.shape)


def _rand_wave(n, seed, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(0.1 * rng.standard_normal(n), rate)


def _kept_after(call):
    """Bytes that ``call()`` leaves allocated once it returns, as tracemalloc
    counts them (NumPy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _length_for_frames(n_frames, window, hop, offset):
    """A signal length whose STFT has ``n_frames`` frames, for any ``offset`` in
    ``[0, hop)``: the frames cover the signal and a window of padding on each
    side, so ``ceil((n + window) / hop) == n_frames - 1``."""
    return (n_frames - 1) * hop - window - offset


_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_PCM16 = np.array([-32768, 0, 16384, 32767, -3], np.int16)
_FLOAT32 = np.array([-1.0, 0.25, 1.5e-7, 0.75], np.float32)


def _chunk(chunk_id: bytes, payload: bytes) -> bytes:
    """A RIFF chunk, with the pad byte an odd-sized payload takes."""
    return chunk_id + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2)


def _riff(*chunks: bytes, container: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return container + struct.pack("<I", len(body)) + body


def _fmt(tag: int, bits: int, tail: bytes = b"", channels: int = 1) -> bytes:
    block = channels * bits // 8
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, 16000, 16000 * block,
                                       block, bits) + tail)


def _fmt_extensible(subformat: int, bits: int) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE fmt chunk: cbSize 22, valid bits, channel mask, GUID."""
    guid = struct.pack("<H", subformat) + bytes.fromhex("000000001000800000aa00389b71")
    return _fmt(_EXTENSIBLE, bits, struct.pack("<HHI", 22, bits, 4) + guid)


def _data(samples: np.ndarray) -> bytes:
    return _chunk(b"data", samples.astype(samples.dtype.newbyteorder("<")).tobytes())


class TestWaveform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 4)), 16000)
        with pytest.raises(ValueError):
            Waveform(np.array([]), 16000)
        with pytest.raises(ValueError):
            Waveform(np.array([np.nan]), 16000)
        with pytest.raises(ValueError):
            Waveform(np.array([0.0]), 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 7, -1])
    def test_non_finite_sample_anywhere_rejected(self, value, where):
        samples = np.linspace(-0.5, 0.5, 16)
        samples[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            Waveform(samples, 16000)

    def test_equality(self):
        a = Waveform(np.array([0.5, -0.5]), 16000)
        assert a == Waveform(np.array([0.5, -0.5]), 16000)
        assert a != Waveform(np.array([0.5, -0.5]), 8000)
        assert a != Waveform(np.array([0.5, 0.5]), 16000)


class TestWavIO:
    def test_float32_round_trip_is_lossless(self, tmp_path):
        original = _rand_wave(4096, 0)
        original = Waveform(original.samples.astype(np.float32).astype(np.float64), 16000)
        path = tmp_path / "x.wav"
        write_wav(path, original)
        assert read_wav(path) == original

    def test_pcm16_scaling_definition(self, tmp_path):
        path = tmp_path / "pcm.wav"
        wavfile.write(path, 16000, np.array([-32768, 0, 16384, 32767], dtype=np.int16))
        wave = read_wav(path)
        assert wave.samples[0] == -1.0
        assert wave.samples[1] == 0.0
        assert wave.samples[2] == 0.5
        assert wave.samples[3] == pytest.approx(32767 / 32768)

    def test_pcm16_write_read(self, tmp_path):
        original = Waveform(np.array([-1.0, -0.5, 0.0, 0.5, 0.25]), 22050)
        path = tmp_path / "p.wav"
        pcm = np.clip(np.round(original.samples * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(path, 22050, pcm)
        back = read_wav(path)
        assert back.sample_rate == 22050
        assert np.allclose(back.samples, original.samples, atol=1.0 / 32768)
        assert back.samples[0] == -1.0

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 16000, np.zeros((64, 2), dtype=np.int16))
        with pytest.raises(WavFormatError, match="non-mono"):
            read_wav(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(64, dtype=np.int32))
        with pytest.raises(WavFormatError, match="unsupported"):
            read_wav(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a RIFF file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=257),
           rate=st.sampled_from([1, 8000, 16000, 22050, 44100, 48000, 96000]),
           encoding=st.sampled_from(["float32", "pcm16"]))
    def test_write_matches_scipy_bytes(self, samples, rate, encoding):
        # float32 is written; PCM16 is only read, from scipy's file
        wave = Waveform(np.array(samples), rate)
        if encoding == "float32":
            data = wave.samples.astype(np.float32)
        else:
            data = np.clip(np.round(wave.samples * 32768.0), -32768, 32767).astype(np.int16)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.wav", Path(tmp) / "scipy.wav"
            wavfile.write(theirs, rate, data)
            if encoding == "float32":
                write_wav(ours, wave)
                assert ours.read_bytes() == theirs.read_bytes()
            back = read_wav(theirs)
        expected = data / 32768.0 if encoding == "pcm16" else data.astype(np.float64)
        assert back == Waveform(expected, rate)

    @pytest.mark.parametrize("n", [1, audio._WRITE_CHUNK - 1, audio._WRITE_CHUNK,
                                   audio._WRITE_CHUNK + 1, 70001])
    def test_chunked_write_matches_scipy_bytes(self, tmp_path, n):
        # converted to float32 a chunk at a time: scipy's bytes either side of
        # a chunk's edge, and no clip-length copy
        wave = Waveform(np.random.default_rng(n).uniform(-1.5, 1.5, n), 16000)
        wavfile.write(tmp_path / "scipy.wav", 16000, wave.samples.astype(np.float32))
        tracemalloc.start()
        try:
            write_wav(tmp_path / "ours.wav", wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
        assert peak < 4 * min(n, audio._WRITE_CHUNK) + 32768

    @pytest.mark.parametrize("chunks, expected", [
        ([_fmt_extensible(_PCM, 16), _data(_PCM16)], _PCM16 / 32768.0),
        ([_fmt_extensible(_FLOAT, 32), _data(_FLOAT32)], _FLOAT32),
        ([_fmt(_PCM, 16), _chunk(b"LIST", b"INFOISFT\x04\x00\x00\x00capa"), _data(_PCM16)],
         _PCM16 / 32768.0),
        ([_chunk(b"junk", b"odd"), _fmt(_FLOAT, 32, b"\x00\x00"),
          _chunk(b"fact", struct.pack("<I", 4)), _data(_FLOAT32)], _FLOAT32),
    ], ids=["extensible_pcm16", "extensible_float32", "list_chunk", "odd_chunk_padded"])
    def test_reader_accepts(self, tmp_path, chunks, expected):
        path = tmp_path / "in.wav"
        path.write_bytes(_riff(*chunks))
        assert read_wav(path) == Waveform(expected.astype(np.float64), 16000)

    @pytest.mark.parametrize("content", [
        _riff(_fmt(_PCM, 16), _data(_PCM16), container=b"RIFX"),
        _riff(_chunk(b"ds64", bytes(28)), _fmt(_PCM, 16), _data(_PCM16), container=b"RF64"),
        _riff(_fmt(_PCM, 8), _data(np.array([0, 128, 255], np.uint8))),
        _riff(_fmt(_PCM, 24), _chunk(b"data", bytes(6))),
        _riff(_fmt(_PCM, 16, channels=2), _data(_PCM16)),
        _riff(_fmt(_PCM, 16), _chunk(b"LIST", b"INFO")),
        _riff(_fmt(_PCM, 16)) + b"data" + struct.pack("<I", 64) + bytes(10),
        _riff(_data(_PCM16)),
    ], ids=["rifx", "rf64", "pcm8", "pcm24", "stereo", "no_data_chunk", "short_data_chunk",
            "no_fmt_chunk"])
    def test_reader_rejects(self, tmp_path, content):
        path = tmp_path / "bad.wav"
        path.write_bytes(content)
        with pytest.raises(WavFormatError):
            read_wav(path)


class TestMix:
    def test_equal_energy_zero_snr_gain_is_one(self):
        t = Waveform(np.array([0.5, 0.0, 0.0, 0.0]), 16000)
        i = Waveform(np.array([0.0, 0.5, 0.0, 0.0]), 16000)
        result = mix(t, i, 0.0)
        assert result.gain == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(result.mixture.samples, [0.5, 0.5, 0.0, 0.0])

    def test_gain_formula_hand_case(self):
        t = Waveform(np.array([1.0, 0.0]), 16000)
        i = Waveform(np.array([0.0, 1.0]), 16000)
        result = mix(t, i, 20.0)
        assert result.gain == pytest.approx(0.1, abs=1e-15)
        assert result.gain == pytest.approx(mix_gain_brute([1.0, 0.0], [0.0, 1.0], 20.0))

    def test_zero_energy_rejected(self):
        t = Waveform(np.array([1.0, 0.0]), 16000)
        silent = Waveform(np.zeros(2), 16000)
        with pytest.raises(ValueError, match="zero-energy"):
            mix(t, silent, 0.0)
        with pytest.raises(ValueError, match="zero-energy"):
            mix(silent, t, 0.0)

    def test_mismatch_rejected(self):
        t = Waveform(np.ones(8), 16000)
        with pytest.raises(ValueError):
            mix(t, Waveform(np.ones(4), 16000), 0.0)
        with pytest.raises(ValueError):
            mix(t, Waveform(np.ones(8), 8000), 0.0)

    def test_inputs_are_left_as_they_are(self):
        for snr_db, rescaled in ((20.0, False), (-20.0, True)):
            target, interference = _rand_wave(256, 3), _rand_wave(256, 4)
            before = (target.samples.copy(), interference.samples.copy())
            result = mix(target, interference, snr_db)
            assert (result.rescale < 1.0) == rescaled
            assert target.samples.tobytes() == before[0].tobytes()
            assert interference.samples.tobytes() == before[1].tobytes()

    def test_snr_is_exact_across_grid(self):
        target = _rand_wave(2048, 1)
        interference = _rand_wave(2048, 2)
        for snr_db in range(-10, 11):
            result = mix(target, interference, float(snr_db))
            achieved = 10.0 * math.log10(result.target.energy()
                                         / result.interference.energy())
            assert achieved == pytest.approx(snr_db, abs=1e-9)

    def test_peak_rescue_preserves_ratios(self):
        t = Waveform(np.array([0.9, 0.0, 0.0, 0.0]), 16000)
        i = Waveform(np.array([0.0, 0.9, 0.9, 0.0]), 16000)
        result = mix(t, i, -6.0)
        peak = float(np.max(np.abs(result.mixture.samples)))
        assert peak == pytest.approx(0.99, abs=1e-12)
        assert result.rescale < 1.0
        achieved = 10.0 * math.log10(result.target.energy()
                                     / result.interference.energy())
        assert achieved == pytest.approx(-6.0, abs=1e-9)
        # mixture stays the sum of the scaled stems
        assert np.allclose(result.mixture.samples,
                           result.target.samples + result.interference.samples,
                           atol=1e-15)


class TestStft:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            StftParams(window_size=1000, hop=256)
        with pytest.raises(ValueError):
            StftParams(window_size=1024, hop=2048)
        with pytest.raises(ValueError):
            StftParams(window_size=1024, hop=0)

    def test_reconstruction_error_tiny(self):
        params = StftParams()
        for seed in range(10):
            x = _rand_wave(8192, seed)
            y = istft(stft(x, params), params, length=len(x), sample_rate=x.sample_rate)
            rms = math.sqrt(float(np.mean((y.samples - x.samples) ** 2)))
            assert rms <= 1e-6

    def test_reconstruction_non_multiple_length(self):
        x = _rand_wave(5000, 3)
        y = istft(stft(x), length=len(x), sample_rate=x.sample_rate)
        assert len(y) == 5000
        assert np.max(np.abs(y.samples - x.samples)) < 1e-9

    def test_all_zero_input_gives_all_zero_frames(self):
        x = Waveform(np.zeros(4096), 16000)
        assert np.all(stft(x) == 0.0)

    def test_tone_lands_in_expected_bin(self):
        n = 8192
        t = np.arange(n) / 16000.0
        x = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)
        power = np.mean(np.abs(stft(x)) ** 2, axis=1)
        assert int(np.argmax(power)) == 64  # round(1000 * 1024 / 16000)

    def test_parseval_per_frame_normalization(self):
        params = StftParams()
        x = _rand_wave(8192, 7)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(params.window_size)
                                    / params.window_size)
        total = len(x) + 2 * params.window_size
        rem = (total - params.window_size) % params.hop
        if rem:
            total += params.hop - rem
        padded = np.zeros(total)
        padded[params.window_size:params.window_size + len(x)] = x.samples
        n_frames = (total - params.window_size) // params.hop + 1
        time_energy = 0.0
        for m in range(n_frames):
            frame = padded[m * params.hop:m * params.hop + params.window_size] * window
            time_energy += float(np.sum(frame ** 2))
        matrix = stft(x, params)
        w = params.window_size
        spec = np.abs(matrix) ** 2
        freq_energy = float(np.sum(spec[0]) + np.sum(spec[-1])
                            + 2.0 * np.sum(spec[1:-1])) / w
        assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_signal_shorter_than_window_rejected(self):
        with pytest.raises(ValueError):
            stft(_rand_wave(512, 0), StftParams(window_size=1024, hop=256))

    def test_istft_rejects_wrong_bin_count(self):
        matrix = stft(_rand_wave(4096, 1), StftParams(window_size=1024, hop=256))
        with pytest.raises(ValueError, match="bin count"):
            istft(matrix, StftParams(window_size=512, hop=128))

    def test_deterministic(self):
        x = _rand_wave(4096, 9)
        assert np.array_equal(stft(x), stft(x))

    @pytest.mark.parametrize("window, hop", ISTFT_GRID)
    def test_istft_is_bit_identical_to_frame_loop(self, window, hop):
        params = StftParams(window_size=window, hop=hop)
        for seed, n in enumerate((window, window + 1, 3 * window + 7, 16000)):
            x = _rand_wave(n, seed)
            for matrix in (stft(x, params), _masked_spectrum(x, params, seed)):
                y = istft(matrix, params, length=n, sample_rate=x.sample_rate)
                assert np.array_equal(y.samples, istft_brute(matrix, window, hop, n))
            untrimmed = istft(stft(x, params), params)
            assert np.array_equal(untrimmed.samples,
                                  istft_brute(stft(x, params), window, hop))

    @settings(max_examples=60, deadline=None)
    @given(grid=st.sampled_from(ISTFT_GRID), extra=st.integers(0, 5000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_istft_matches_frame_loop_for_any_length(self, grid, extra, seed):
        window, hop = grid
        params = StftParams(window_size=window, hop=hop)
        x = _rand_wave(window + extra, seed)
        matrix = _masked_spectrum(x, params, seed)
        y = istft(matrix, params, length=len(x), sample_rate=x.sample_rate)
        assert np.array_equal(y.samples, istft_brute(matrix, window, hop, len(x)))

    @pytest.mark.parametrize("window, hop", ISTFT_GRID)
    def test_stft_and_istft_bits_unchanged_as_shapes_change(self, window, hop):
        # consecutive calls change the frame count, so a buffer sized for an
        # earlier call would show here
        params = StftParams(window_size=window, hop=hop)
        for seed, n in enumerate((window * 3 + 7, 16000, window * 5, window, 16000)):
            x = _rand_wave(n, seed)
            matrix = stft(x, params)
            assert np.array_equal(matrix, stft_reference(x.samples, window, hop))
            assert np.array_equal(istft(matrix, params, length=n).samples,
                                  istft_brute(matrix, window, hop, n))

    def test_working_memory_does_not_grow_with_the_clip(self):
        # block-sized buffers, allocated once per call: beyond the result, which
        # grows with the clip, a 60 s clip takes what a 4 s clip does
        def working_memory(call):
            tracemalloc.start()
            try:
                result = call()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return result, peak - kept

        for n in (64000, 960000):
            mixture, target, interference = (_rand_wave(n, n + seed) for seed in range(3))
            matrix, used = working_memory(lambda: stft(mixture))
            assert used < 3e6
            assert np.array_equal(matrix, stft_reference(mixture.samples, 1024, 256))
            estimate, used = working_memory(lambda: istft(matrix, length=n))
            assert used < 3e6
            assert np.array_equal(estimate.samples, istft_brute(matrix, 1024, 256, n))
            estimate, used = working_memory(
                lambda: oracle_irm(mixture, target, interference, StftParams()))
            assert used < 3e6
            assert np.array_equal(estimate.samples, oracle_irm_reference(
                mixture.samples, target.samples, interference.samples, 1024, 256))

    def test_stft_and_istft_kept_scratch_does_not_grow_with_the_clip(self):
        # nothing outlives a call, so a 60 s clip leaves behind what a 4 s clip
        # does: less than a page, where one block of frames is 512 kB
        def run(*lengths):
            for n in lengths:
                x = _rand_wave(n, n)
                matrix = stft(x)
                assert np.array_equal(matrix, stft_reference(x.samples, 1024, 256))
                assert np.array_equal(istft(matrix, length=n).samples,
                                      istft_brute(matrix, 1024, 256, n))

        assert _kept_after(lambda: run(64000)) < 4096
        assert _kept_after(lambda: run(64000, 960000)) < 4096

    def test_oracle_irm_kept_scratch_is_within_1_5_mb_whatever_the_clip_length(self):
        # well within: its block buffers (about 1.7 MB) are freed with the call
        def run(*lengths):
            for n in lengths:
                target, interference, mixture = (_rand_wave(n, n + seed) for seed in range(3))
                estimate = oracle_irm(mixture, target, interference, StftParams())
                assert np.array_equal(estimate.samples, oracle_irm_reference(
                    mixture.samples, target.samples, interference.samples, 1024, 256))

        assert _kept_after(lambda: run(64000)) < 4096
        assert _kept_after(lambda: run(64000, 960000)) < 4096

    def test_istft_refuses_a_length_it_cannot_honour(self):
        matrix = stft(_rand_wave(4096, 1))  # 21 frames, so 5,120 samples at most
        for length in (100000, 5121, 0, -5):
            with pytest.raises(ValueError, match="length must be in"):
                istft(matrix, length=length)
        assert len(istft(matrix, length=5120)) == len(istft(matrix)) == 5120
        assert len(istft(matrix, length=1)) == 1

    @pytest.mark.parametrize("window, hop", ISTFT_GRID)
    @settings(max_examples=5, deadline=None)
    @given(draw=st.integers(0, 2 ** 32 - 1))
    def test_block_kernels_match_the_references(self, window, hop, draw):
        # frame counts under one block, of exactly one, one plus one, and
        # several blocks plus a remainder
        rng = np.random.default_rng(draw)
        block = audio._BLOCK_FRAMES
        fewest = -(-2 * window // hop) + 2  # the fewest frames of a signal >= a window
        params = StftParams(window_size=window, hop=hop)
        for n_frames in (int(rng.integers(fewest, block)), block, block + 1,
                         int(rng.integers(2, 5)) * block + int(rng.integers(1, block))):
            n = _length_for_frames(n_frames, window, hop, int(rng.integers(0, hop)))
            mixture, target, interference = (Waveform(0.1 * rng.standard_normal(n), 16000)
                                             for _ in range(3))
            matrix = stft(mixture, params)
            assert matrix.shape[1] == n_frames
            assert np.array_equal(matrix, stft_reference(mixture.samples, window, hop))
            masked = _masked_spectrum(mixture, params, draw)
            assert np.array_equal(istft(masked, params, length=n).samples,
                                  istft_brute(masked, window, hop, n))
            assert np.array_equal(istft(masked, params).samples,
                                  istft_brute(masked, window, hop))
            assert np.array_equal(
                oracle_irm(mixture, target, interference, params).samples,
                oracle_irm_reference(mixture.samples, target.samples, interference.samples,
                                     window, hop))

    def test_oracle_irm_refuses_stems_that_do_not_align(self):
        mixture = _rand_wave(16000, 0)
        for stem in (_rand_wave(12000, 1), _rand_wave(20000, 1), _rand_wave(16000, 1, 8000)):
            for target, interference in ((stem, _rand_wave(16000, 2)),
                                         (_rand_wave(16000, 2), stem)):
                with pytest.raises(ValueError, match="oracle sources must align"):
                    oracle_irm(mixture, target, interference, StftParams())

    def test_stft_results_do_not_share_memory(self):
        a = stft(_rand_wave(4096, 3))
        b = stft(_rand_wave(4096, 4))
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, stft_reference(_rand_wave(4096, 3).samples, 1024, 256))

    def test_stft_is_a_transposed_view(self):
        matrix = stft(_rand_wave(4096, 2))
        assert not matrix.flags.c_contiguous
        assert matrix.T.flags.c_contiguous


class TestGenerators:
    def test_tone_burst_shape(self):
        wave = tone_burst(1000.0, 1.0, 16000)
        assert len(wave) == 16000
        assert wave.sample_rate == 16000
        assert wave.energy() > 0

    def test_tone_burst_bits_match_the_formula(self):
        # sign bits included: a gated-off sample is the carrier times 0.0
        rng = np.random.default_rng(5)
        for _ in range(50):
            args = (float(rng.uniform(50, 5000)), float(rng.uniform(0.1, 1.0)), 16000,
                    float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.01, 1.0)),
                    float(rng.uniform(0.05, 1.0)))
            expected = tone_burst_reference(*args)
            assert tone_burst(*args).samples.tobytes() == expected.tobytes()
        assert np.signbit(tone_burst(440.0, 1.0, 16000).samples).any()

    @pytest.mark.parametrize("bad", [{"burst_period_s": 0.0}, {"burst_period_s": -0.5},
                                     {"burst_period_s": math.nan}, {"duty": 0.0},
                                     {"duty": -0.2}, {"duty": 1.5}, {"duty": math.nan}])
    def test_tone_burst_rejects_bad_gate(self, bad):
        with pytest.raises(ValueError):
            tone_burst(440.0, 0.5, 16000, **bad)

    def test_tone_burst_full_duty_is_ungated(self):
        wave = tone_burst(440.0, 0.5, 16000, duty=1.0)
        t = np.arange(8000) / 16000
        assert np.array_equal(wave.samples, 0.5 * np.sin(2.0 * np.pi * 440.0 * t))

    def test_white_noise_deterministic_per_rng(self):
        a = white_noise(0.5, 16000, np.random.default_rng(0))
        b = white_noise(0.5, 16000, np.random.default_rng(0))
        assert a == b
