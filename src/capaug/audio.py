"""Mono WAV I/O, SNR-controlled mixing, STFT/ISTFT and the oracle ideal-ratio mask.

Samples are float64. Mono PCM16 and IEEE float32 WAVs are read, PCM16 divided
by 32768 so that -32768 is exactly -1.0; float32 is written. The STFT kernels
work a block of frames at a time, through buffers that each call allocates
once, so their working memory does not grow with the clip.
"""

from __future__ import annotations

import math
import struct
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
        # NaN propagates through min and max, and an infinity is one of them,
        # so no clip-length mask is needed
        if not (np.isfinite(self.samples.min()) and np.isfinite(self.samples.max())):
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


# samples converted to float32 at a time by write_wav (64 KB)
_WRITE_CHUNK = 16384


def write_wav(path, waveform: Waveform) -> None:
    """Write a waveform as float32, which round-trips losslessly.

    The bytes are those ``scipy.io.wavfile.write`` writes: a 58-byte header
    whose ``fmt `` chunk carries a zero cbSize and is followed by a ``fact``
    chunk. An odd-sized ``data`` chunk gets no pad byte. The samples are
    converted ``_WRITE_CHUNK`` at a time, so no clip-length copy is made.
    """
    rate, samples = waveform.sample_rate, waveform.samples
    n_bytes = 4 * samples.size
    fmt = struct.pack("<HHIIHHH", _FORMAT_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
    fact = struct.pack("<4sII", b"fact", 4, samples.size)
    riff_size = 4 + 8 + len(fmt) + len(fact) + 8 + n_bytes  # struct refuses > 4 GiB
    header = (struct.pack("<4sI4s4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", len(fmt))
              + fmt + fact + struct.pack("<4sI", b"data", n_bytes))
    chunk = np.empty(min(samples.size, _WRITE_CHUNK), "<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, samples.size, _WRITE_CHUNK):
            part = chunk[:samples.size - start]
            np.copyto(part, samples[start:start + _WRITE_CHUNK])
            fh.write(part.data)


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
    The inputs are left as they are.
    """
    return _mix(Waveform(target.samples.copy(), target.sample_rate),
                Waveform(interference.samples.copy(), interference.sample_rate), snr_db)


def _mix(target: Waveform, interference: Waveform, snr_db: float) -> MixResult:
    """:func:`mix`, which scales the stems in place: the result holds ``target``
    and ``interference``, over their own samples."""
    if target.sample_rate != interference.sample_rate:
        raise ValueError("sample rate mismatch")
    if len(target) != len(interference):
        raise ValueError("length mismatch")
    e_t = target.energy()
    e_i = interference.energy()
    if e_t == 0.0 or e_i == 0.0:
        raise ValueError("zero-energy input")
    gain = math.sqrt(e_t / (e_i * 10.0 ** (snr_db / 10.0)))
    interference.samples *= gain
    mixture = target.samples + interference.samples

    rescale = 1.0
    peak = max(float(mixture.max()), -float(mixture.min()))  # max |x|, without a copy
    if peak > PEAK_LIMIT:
        rescale = PEAK_LIMIT / peak
        mixture *= rescale
        interference.samples *= rescale
        target.samples *= rescale
    return MixResult(mixture=Waveform(mixture, target.sample_rate), target=target,
                     interference=interference, gain=gain, rescale=rescale)


# The STFT runs in blocks of this many frames, through buffers of one block
# that each call allocates once (about 1.2 MB for oracle_irm at the default
# STFT, whatever the clip's length), so concurrent calls share none. Blocks of
# 32 frames took about 20% longer per clip on two threads: twice the NumPy
# calls, each a hand-off of the interpreter lock.
_BLOCK_FRAMES = 64


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _spectrum_shape(n_samples: int, params: StftParams) -> tuple[int, int]:
    """(n_frames, bins) of the frame-major spectrum of ``n_samples`` samples."""
    w, h = params.window_size, params.hop
    if n_samples < w:
        raise ValueError(f"signal shorter than the analysis window ({n_samples} < {w})")
    # frames cover the signal padded by at least one window on each side
    return -(-(n_samples + w) // h) + 1, w // 2 + 1


def _block_buffers(params: StftParams) -> tuple[np.ndarray, np.ndarray]:
    """The padded samples and the frames of one block, for :func:`_stft_block`."""
    w = params.window_size
    return np.empty((_BLOCK_FRAMES - 1) * params.hop + w), np.empty((_BLOCK_FRAMES, w))


def _stft_block(samples: np.ndarray, m0: int, window: np.ndarray, hop: int,
                segment: np.ndarray, frames: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the spectra of frames ``m0, m0 + 1, ...`` of ``samples``, padded by
    a window of zeros in front and zeros behind, into ``out`` (one row per
    frame, at most a block) through the :func:`_block_buffers`, and return it."""
    k, w = out.shape[0], window.size
    segment = segment[:(k - 1) * hop + w]
    start = m0 * hop - w  # the sample segment[0] holds
    j0, j1 = (min(max(j, 0), segment.size) for j in (-start, samples.size - start))
    segment[:j0] = 0.0
    segment[j0:j1] = samples[start + j0:start + j1]
    segment[j1:] = 0.0
    frames = frames[:k]
    # the frames as a view of the segment (sliding_window_view takes longer to
    # build it than a block takes to copy); a contiguous copy multiplies faster
    step = segment.itemsize
    np.copyto(frames, np.ndarray((k, w), segment.dtype, segment, strides=(hop * step, step)))
    frames *= window
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
    window = _periodic_hann(params.window_size)
    segment, frames = _block_buffers(params)
    for m0 in range(0, spectrum.shape[0], _BLOCK_FRAMES):
        _stft_block(waveform.samples, m0, window, params.hop, segment, frames,
                    spectrum[m0:m0 + _BLOCK_FRAMES])
    return spectrum.T


def _synthesis_norm(window: np.ndarray, hop: int, rows: range,
                    n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """``(norm <= 1e-12, max(norm, 1e-12))`` over hop-long output ``rows`` of the
    squared window overlap-added over ``n_frames`` frames: row r takes chunk k
    of frame r - k, in ascending frame order, as the signal does."""
    w2 = window ** 2
    norm = np.zeros((len(rows), hop))
    for k in reversed(range(-(-window.size // hop))):
        lo, hi = max(rows.start, k), min(rows.stop, n_frames + k)
        if lo < hi:
            width = min(hop, window.size - k * hop)
            norm[lo - rows.start:hi - rows.start, :width] += w2[k * hop:k * hop + width]
    return norm <= 1e-12, np.maximum(norm, 1e-12)


def _istft_blocks(spectrum_of, n_frames: int, params: StftParams, length: int | None,
                  sample_rate: int, frames: np.ndarray) -> Waveform:
    """Overlap-add inverse of the frame-major spectrum ``spectrum_of(m0, m1)``
    gives block by block, in ascending frame order, through the block ``frames``.

    Each sample gets its frames in ascending order, starting from 0.0, so the
    bits are those of one overlap-add over all frames. A block's finished rows
    are normalised at once. Every row before the last frame's start takes all
    ``ceil(w / hop)`` frames, or lies in the padding that is dropped, so one
    norm row serves them; the last block's rows get their own norm.
    """
    w, h = params.window_size, params.hop
    length = (n_frames - 1) * h if length is None else length
    if not 1 <= length <= (n_frames - 1) * h:
        raise ValueError(f"length must be in [1, {(n_frames - 1) * h}] for {n_frames} "
                         f"frames, got {length}")
    window = _periodic_hann(w)
    n_chunks = -(-w // h)
    out = np.zeros((n_frames + n_chunks - 1, h))
    period = _synthesis_norm(window, h, range(n_chunks - 1, n_chunks), n_frames)
    for m0 in range(0, n_frames, _BLOCK_FRAMES):
        m1 = min(m0 + _BLOCK_FRAMES, n_frames)
        block = np.fft.irfft(spectrum_of(m0, m1), n=w, axis=1, out=frames[:m1 - m0])
        block *= window
        # chunk k of frame m is row m + k; descending chunks give each row this
        # block's frames in ascending order
        for k in reversed(range(n_chunks)):
            width = min(h, w - k * h)
            out[m0 + k:m1 + k, :width] += block[:, k * h:k * h + width]
        rows = slice(m0, m1 if m1 < n_frames else len(out))
        invalid, divisor = period if m1 < n_frames else _synthesis_norm(
            window, h, range(rows.start, rows.stop), n_frames)
        out[rows] /= divisor
        np.copyto(out[rows], 0.0, where=invalid)
    return Waveform(out.reshape(-1)[w:w + length], sample_rate)


def istft(matrix: np.ndarray, params: StftParams | None = None,
          length: int | None = None, sample_rate: int = 16000) -> Waveform:
    """Overlap-add inverse with synthesis-window normalization, of ``length``
    samples (all by default), which must lie in ``[1, (n_frames - 1) * hop]``."""
    params = params or StftParams()
    if matrix.shape[0] != params.window_size // 2 + 1:
        raise ValueError("matrix bin count does not match window_size")
    return _istft_blocks(lambda m0, m1: matrix.T[m0:m1], matrix.shape[1], params,
                         length, sample_rate, np.empty((_BLOCK_FRAMES, params.window_size)))


def _irm_in_place(p_t: np.ndarray, p_i: np.ndarray) -> np.ndarray:
    """|S_t|^2 / (|S_t|^2 + |S_i|^2 + eps) from the two power spectra, written
    over ``p_t`` (``p_i`` is overwritten too)."""
    p_i += p_t
    p_i += MASK_EPS
    p_t /= p_i
    return p_t


def oracle_irm(mixture: Waveform, target: Waveform, interference: Waveform,
               params: StftParams) -> Waveform:
    """``istft(mask * stft(mixture))`` with the ideal ratio mask of the two stems,
    which must match the mixture's length and sample rate.

    The mask is elementwise per frame, so each block of frames goes from the
    three stems' samples to the output in block-sized buffers. The
    interference's power is kept in the block ``frames``, which its ``rfft``
    has finished reading, until the mask is formed.
    """
    for stem in (target, interference):
        if len(stem) != len(mixture) or stem.sample_rate != mixture.sample_rate:
            raise ValueError("oracle sources must align with the mixture")
    n_frames, bins = _spectrum_shape(len(mixture), params)
    window, hop = _periodic_hann(params.window_size), params.hop
    segment, frames = _block_buffers(params)
    spectrum = np.empty((_BLOCK_FRAMES, bins), np.complex128)
    target_power = np.empty((_BLOCK_FRAMES, bins))

    def masked(m0: int, m1: int) -> np.ndarray:
        k = m1 - m0
        spec, p_t, p_i = spectrum[:k], target_power[:k], frames[:k, :bins]
        for stem, p in ((target, p_t), (interference, p_i)):
            np.abs(_stft_block(stem.samples, m0, window, hop, segment, frames, spec), out=p)
            np.square(p, out=p)
        mask = _irm_in_place(p_t, p_i)
        mixture_spec = _stft_block(mixture.samples, m0, window, hop, segment, frames, spec)
        return np.multiply(mask, mixture_spec, out=spec)

    return _istft_blocks(masked, n_frames, params, len(mixture), mixture.sample_rate,
                         frames)


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
