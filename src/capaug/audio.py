"""Mono WAV I/O, SNR-controlled mixing, STFT/ISTFT and the oracle ideal-ratio mask.

All operations are deterministic and work on float64 sample buffers in
[-1, 1)-ish range. Only mono WAV files are supported: PCM16 and IEEE float32
are read, float32 is written. PCM16 is decoded by dividing by 32768 so that
-32768 maps to exactly -1.0.
"""

from __future__ import annotations

import math
import mmap
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .separation import StftParams

PEAK_LIMIT = 0.99
MASK_EPS = 1e-12


class WavFormatError(ValueError):
    """Unreadable or unsupported WAV content."""


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be mono (1-D)")
        if self.samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return (self.sample_rate == other.sample_rate
                and np.array_equal(self.samples, other.samples))

    def energy(self) -> float:
        return float(np.sum(self.samples ** 2))


_FORMAT_PCM = 0x0001
_FORMAT_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2-15 of the KSDATAFORMAT_SUBTYPE GUID; bytes 0-1 hold the format tag
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_DTYPES = {(_FORMAT_PCM, 16): np.dtype("<i2"), (_FORMAT_FLOAT, 32): np.dtype("<f4")}


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV file, plain or WAVE_FORMAT_EXTENSIBLE.

    Chunks other than ``fmt `` and ``data`` are skipped, with their pad byte
    when odd-sized. Anything else (RIFX, RF64, other sample widths, several
    channels, no ``data`` chunk, a ``data`` chunk shorter than it declares)
    raises :class:`WavFormatError`.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise WavFormatError(f"cannot read WAV file {path}: {exc}") from exc
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file (starts {raw[:4]!r})")
    fmt, pos = None, 12
    while True:
        if pos + 8 > len(raw):
            raise WavFormatError(f"{path}: no data chunk")
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        pos += 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = raw[pos:pos + size]
        pos += size + (size & 1)
    if fmt is None or len(fmt) < 16:
        raise WavFormatError(f"{path}: missing or short fmt chunk before the data chunk")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or fmt[26:40] != _SUBFORMAT_TAIL:
            raise WavFormatError(f"{path}: unknown WAVE_FORMAT_EXTENSIBLE subformat")
        tag = struct.unpack_from("<H", fmt, 24)[0]
    if channels != 1:
        raise WavFormatError(f"{path}: non-mono file ({channels} channels)")
    dtype = _SAMPLE_DTYPES.get((tag, bits))
    if dtype is None:
        raise WavFormatError(f"{path}: unsupported sample encoding "
                             f"(format tag {tag:#06x}, {bits} bits)")
    if pos + size > len(raw):
        raise WavFormatError(f"{path}: data chunk declares {size} bytes, "
                             f"holds {len(raw) - pos}")
    samples = np.frombuffer(raw, dtype, count=size // dtype.itemsize,
                            offset=pos).astype(np.float64)
    if tag == _FORMAT_PCM:
        samples /= 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def write_wav(path, waveform: Waveform) -> None:
    """Write a waveform as float32, which round-trips losslessly.

    The bytes are those ``scipy.io.wavfile.write`` writes: a 58-byte header
    whose ``fmt `` chunk carries a zero cbSize and is followed by a ``fact``
    chunk. An odd-sized ``data`` chunk gets no pad byte.
    """
    rate = waveform.sample_rate
    data = waveform.samples.astype("<f4")
    fmt = struct.pack("<HHIIHHH", _FORMAT_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
    fact = struct.pack("<4sII", b"fact", 4, data.size)
    riff_size = 4 + 8 + len(fmt) + len(fact) + 8 + data.nbytes  # struct refuses > 4 GiB
    header = (struct.pack("<4sI4s4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", len(fmt))
              + fmt + fact + struct.pack("<4sI", b"data", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)


@dataclass
class MixResult:
    """Mixture plus the co-scaled stems, so dB ratios stay meaningful."""
    mixture: Waveform
    target: Waveform
    interference: Waveform
    gain: float
    rescale: float = 1.0


def mix(target: Waveform, interference: Waveform, snr_db: float) -> MixResult:
    """Mix interference into target at an exact SNR.

    The interference is scaled by g = sqrt(E_t / (E_i * 10^(snr/10))). If the
    mixture peak exceeds 0.99, mixture and both stems are rescaled by the same
    factor, which preserves every energy ratio and therefore every dB metric.
    """
    if target.sample_rate != interference.sample_rate:
        raise ValueError("sample rate mismatch")
    if len(target) != len(interference):
        raise ValueError("length mismatch")
    e_t = target.energy()
    e_i = interference.energy()
    if e_t == 0.0 or e_i == 0.0:
        raise ValueError("zero-energy input")
    gain = math.sqrt(e_t / (e_i * 10.0 ** (snr_db / 10.0)))
    scaled_interference = interference.samples * gain
    mixture = target.samples + scaled_interference
    target_samples = target.samples

    rescale = 1.0
    peak = max(float(mixture.max()), -float(mixture.min()))  # max |x|, without a copy
    if peak > PEAK_LIMIT:
        rescale = PEAK_LIMIT / peak
        mixture *= rescale
        scaled_interference *= rescale
        target_samples = target_samples * rescale

    rate = target.sample_rate
    return MixResult(
        mixture=Waveform(mixture, rate),
        target=Waveform(target_samples, rate),
        interference=Waveform(scaled_interference, rate),
        gain=gain,
        rescale=rescale,
    )


# Per-thread scratch arrays, one per name, each of the last shape asked for.
# A fresh multi-megabyte temporary is handed back to the kernel when freed and
# faulted in again by the next call; reusing these avoids that. One set per
# thread, so concurrent separator threads never share an array. Only arrays of
# at most _SCRATCH_MAX_BYTES are kept (at the default STFT, the frames of a
# clip up to about 30 s at 16 kHz): a larger one is freed with its call, so a
# long-lived thread does not hold several times a long clip's size after it.
_scratch_arrays = threading.local()
_SCRATCH_MAX_BYTES = 1 << 24


def _mapped(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A new array on an anonymous mmap, not malloc, so its pages go back to the
    kernel when it is freed, and a scratch set when its thread ends. From
    malloc, an ended thread's set (about 8 MB for a 4 s clip) stayed free and
    resident in its malloc arena, which glibc hands on to a later thread; peak
    RSS stepped by that much whenever clips ran on an arena not used before."""
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(nbytes, 1)), dtype, count).reshape(shape)


def _scratch(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's reusable array ``name``, reallocated when the shape or dtype changes.

    Its contents are whatever the last user left; it must not escape the call
    that asked for it.
    """
    array = getattr(_scratch_arrays, name, None)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = _mapped(shape, dtype)
        if array.nbytes <= _SCRATCH_MAX_BYTES:
            setattr(_scratch_arrays, name, array)
    return array


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _spectrum_shape(n_samples: int, params: StftParams) -> tuple[int, int]:
    """(n_frames, bins) of the frame-major spectrum of ``n_samples`` samples."""
    w, h = params.window_size, params.hop
    if n_samples < w:
        raise ValueError(f"signal shorter than the analysis window ({n_samples} < {w})")
    # frames cover the signal padded by at least one window on each side
    return -(-(n_samples + w) // h) + 1, w // 2 + 1


def _stft_into(samples: np.ndarray, params: StftParams, out: np.ndarray) -> np.ndarray:
    """Write the frame-major spectrum of ``samples`` into ``out`` and return it.

    ``out`` has the shape :func:`_spectrum_shape` gives. The padded signal and
    the windowed frames live in this thread's scratch arrays.
    """
    w, h = params.window_size, params.hop
    n_frames = out.shape[0]
    padded = _scratch("padded", (w + (n_frames - 1) * h,))
    padded[:w] = 0.0
    padded[w:w + samples.size] = samples
    padded[w + samples.size:] = 0.0
    frames = _scratch("frames", (n_frames, w))
    # a contiguous copy multiplies faster than the strided view it is taken from
    np.copyto(frames, np.lib.stride_tricks.sliding_window_view(padded, w)[::h])
    frames *= _periodic_hann(w)
    return np.fft.rfft(frames, axis=1, out=out)


def stft(waveform: Waveform, params: StftParams | None = None) -> np.ndarray:
    """Complex STFT, shape (window_size // 2 + 1, n_frames).

    The signal is zero-padded by one window on each side so that every
    original sample sits in the constant-overlap region of the Hann window;
    :func:`istft` undoes the padding. The result is a transposed view of the
    frame-major spectrum, so it is not C-contiguous; :func:`istft` transposes
    it back without a copy.
    """
    params = params or StftParams()
    spectrum = np.empty(_spectrum_shape(waveform.samples.size, params), np.complex128)
    return _stft_into(waveform.samples, params, spectrum).T


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum frames placed ``hop`` apart: (n_frames, w) -> (w + (n_frames-1)*hop,).

    Column k*hop + r of frame m is sample (m+k)*hop + r, which is row m+k of a
    (rows, hop) view of the output, so one slice-add per chunk k places every
    frame's chunk k at once. Chunks go in descending k, so each sample gets its
    frames in ascending frame order: the same additions in the same order as a
    per-frame loop, hence the same bits. The result is a view of this thread's
    scratch array ``"overlap"``.
    """
    n_frames, w = frames.shape
    n_chunks = -(-w // hop)
    out = _scratch("overlap", (n_frames + n_chunks - 1, hop))
    out.fill(0.0)
    for k in reversed(range(n_chunks)):
        width = min(hop, w - k * hop)
        out[k:k + n_frames, :width] += frames[:, k * hop:k * hop + width]
    return out.reshape(-1)[:w + (n_frames - 1) * hop]


def _synthesis_norm(window: np.ndarray, hop: int,
                    n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """``(norm > 1e-12, max(norm, 1e-12))`` of the overlap-added squared window,
    padding dropped, in mapped arrays; kept per thread for the last
    ``(window, hop, n_frames)``, within the scratch size limit."""
    key = (window.size, hop, n_frames)
    cached = getattr(_scratch_arrays, "norm", None)
    if cached is None or cached[0] != key:
        norm = _overlap_add(np.broadcast_to(window ** 2, (n_frames, window.size)),
                            hop)[window.size:]
        cached = (key, np.greater(norm, 1e-12, out=_mapped(norm.shape, np.bool_)),
                  np.maximum(norm, 1e-12, out=_mapped(norm.shape)))
        if cached[2].nbytes <= _SCRATCH_MAX_BYTES:
            _scratch_arrays.norm = cached
    return cached[1], cached[2]


def istft(matrix: np.ndarray, params: StftParams | None = None,
          length: int | None = None, sample_rate: int = 16000) -> Waveform:
    """Overlap-add inverse with synthesis-window normalization."""
    params = params or StftParams()
    w, h = params.window_size, params.hop
    if matrix.shape[0] != w // 2 + 1:
        raise ValueError("matrix bin count does not match window_size")
    n_frames = matrix.shape[1]
    window = _periodic_hann(w)
    # before the overlap-add below: a new norm is overlap-added in the same scratch array
    valid, divisor = _synthesis_norm(window, h, n_frames)
    frames = np.fft.irfft(matrix.T, n=w, axis=1, out=_scratch("frames", (n_frames, w)))
    frames *= window

    out = _overlap_add(frames, h)[w:]
    if length is not None:
        out, valid, divisor = out[:length], valid[:length], divisor[:length]
    return Waveform(np.where(valid, np.divide(out, divisor, out=out), 0.0), sample_rate)


def _irm_in_place(p_t: np.ndarray, p_i: np.ndarray) -> np.ndarray:
    """|S_t|^2 / (|S_t|^2 + |S_i|^2 + eps) from the two power spectra, written
    over ``p_t`` (``p_i`` is overwritten too)."""
    p_i += p_t
    p_i += MASK_EPS
    p_t /= p_i
    return p_t


def oracle_irm(mixture: Waveform, target: Waveform, interference: Waveform,
               params: StftParams) -> Waveform:
    """``istft(mask * stft(mixture))`` with the ideal ratio mask of the two stems.

    The three spectra pass through one of this thread's scratch arrays and the
    stems' power spectra live in two more, so nothing here is allocated per call.
    """
    shape = _spectrum_shape(len(mixture), params)
    spectrum = _scratch("spectrum", shape, np.complex128)
    powers = _scratch("power_0", shape), _scratch("power_1", shape)
    for source, power in zip((target, interference), powers):
        np.abs(_stft_into(source.samples, params, spectrum), out=power)
        np.square(power, out=power)
    mask = _irm_in_place(*powers)
    masked = np.multiply(mask, _stft_into(mixture.samples, params, spectrum), out=spectrum)
    return istft(masked.T, params, length=len(mixture), sample_rate=mixture.sample_rate)


def tone_burst(freq_hz: float, duration_s: float, sample_rate: int,
               amplitude: float = 0.5, burst_period_s: float = 0.5,
               duty: float = 0.5) -> Waveform:
    """Sine tone gated on/off with a rectangular burst envelope.

    The tone is on for the first ``duty`` of every ``burst_period_s``.
    """
    if not burst_period_s > 0:
        raise ValueError("burst_period_s must be positive")
    if not 0 < duty <= 1:
        raise ValueError("duty must be in (0, 1]")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n, dtype=np.float64)  # the integers, exactly, without an int64 copy
    t /= sample_rate
    samples = np.multiply(2.0 * np.pi * freq_hz, t)
    np.sin(samples, out=samples)
    samples *= amplitude
    # fmod equals % for t >= 0 and a positive period, at half the cost; multiplying
    # by the boolean gate keeps the sign bit of each gated-off sample's zero
    samples *= np.fmod(t, burst_period_s, out=t) < burst_period_s * duty
    return Waveform(samples, sample_rate)


def white_noise(duration_s: float, sample_rate: int, rng: np.random.Generator,
                amplitude: float = 0.1) -> Waveform:
    n = int(round(duration_s * sample_rate))
    samples = rng.standard_normal(n)
    samples *= amplitude
    return Waveform(samples, sample_rate)
