"""Separation-quality metrics: SDR, SDRi, and SI-SDR, plus batch aggregation.

SDR here is the plain energy-ratio definition
``10*log10((sum s^2 + eps) / (sum (s - s_hat)^2 + eps))``, not the
projection-based BSSEval variant; the two differ and the choice matters when
comparing numbers across toolkits. SI-SDR first projects the estimate onto
the reference, which makes it invariant to positive rescaling of the
estimate. The library default is ``eps=0`` (exact, may yield infinities);
the evaluation harness passes ``eps=1e-8`` to keep aggregates finite.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .audio import Waveform
from .harness import DEFAULT_CLAMP_DB
from .reporting import MetricsTriple

Signal = Union[Waveform, np.ndarray, list]


def _samples(signal: Signal) -> np.ndarray:
    if isinstance(signal, Waveform):
        return signal.samples
    return np.asarray(signal, dtype=np.float64)


def _check_aligned(*signals: Signal) -> list[np.ndarray]:
    arrays = [_samples(s) for s in signals]
    lengths = {a.size for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"length mismatch: {sorted(lengths)}")
    rates = {s.sample_rate for s in signals if isinstance(s, Waveform)}
    if len(rates) > 1:
        raise ValueError(f"sample rate mismatch: {sorted(rates)}")
    return arrays


def _energy(signal: np.ndarray) -> float:
    return float(np.sum(signal ** 2))


# ``buf``, where given, is a clip-length array that _sdr and _si_sdr work in
# instead of allocating their own; its contents are overwritten
def _sdr(est: np.ndarray, ref: np.ndarray, ref_energy: float, epsilon: float,
         buf: np.ndarray | None = None) -> float:
    # squared in place: np.square is the operation ``** 2`` runs, without a
    # second clip-length temporary
    err = np.subtract(ref, est, out=buf)
    err_energy = float(np.sum(np.square(err, out=err)))
    if epsilon == 0.0:
        if ref_energy == 0.0:
            raise ValueError("zero-energy reference with epsilon=0")
        if err_energy == 0.0:
            return math.inf
    return 10.0 * math.log10((ref_energy + epsilon) / (err_energy + epsilon))


def _si_sdr(est: np.ndarray, ref: np.ndarray, ref_energy: float, epsilon: float,
            buf: np.ndarray | None = None) -> float:
    if ref_energy == 0.0:
        if epsilon == 0.0:
            raise ValueError("zero-energy reference with epsilon=0")
        est_energy = float(np.sum(np.square(est, out=buf)))
        return 10.0 * math.log10(epsilon / (est_energy + epsilon))
    # einsum, not np.dot: np.dot goes to BLAS, whose worker thread keeps
    # spinning on a second core after each call returns
    alpha = float(np.einsum("i,i->", est, ref)) / ref_energy
    # the projection alpha * ref is made twice, once squared for its energy and
    # once subtracted for the error's, so that one array holds each in turn
    work = np.multiply(alpha, ref, out=buf)
    target_energy = float(np.sum(np.square(work, out=work)))
    err = np.subtract(est, np.multiply(alpha, ref, out=work), out=work)
    err_energy = float(np.sum(np.square(err, out=err)))
    if epsilon == 0.0:
        if target_energy == 0.0:
            return -math.inf
        if err_energy == 0.0:
            return math.inf
    return 10.0 * math.log10((target_energy + epsilon) / (err_energy + epsilon))


def sdr(estimate: Signal, reference: Signal, epsilon: float = 0.0) -> float:
    """Energy-ratio signal-to-distortion ratio in dB."""
    est, ref = _check_aligned(estimate, reference)
    return _sdr(est, ref, _energy(ref), epsilon)


def sdri(estimate: Signal, mixture: Signal, reference: Signal,
         epsilon: float = 0.0) -> float:
    """SDR improvement of the estimate over the unprocessed mixture."""
    est, mix, ref = _check_aligned(estimate, mixture, reference)
    ref_energy = _energy(ref)
    return _sdr(est, ref, ref_energy, epsilon) - _sdr(mix, ref, ref_energy, epsilon)


def si_sdr(estimate: Signal, reference: Signal, epsilon: float = 0.0) -> float:
    """Scale-invariant SDR in dB.

    The reference is rescaled by ``<s_hat, s> / <s, s>`` before the energy
    ratio is formed, so any positive gain applied to the estimate cancels.
    An estimate orthogonal to the reference evaluates to -inf when eps=0.
    A zero-energy reference is an error when eps=0; with eps > 0 its
    projection is zero, so the whole estimate counts as error.
    """
    est, ref = _check_aligned(estimate, reference)
    return _si_sdr(est, ref, _energy(ref), epsilon)


def scorer(mixture: Signal, reference: Signal,
           epsilon: float = 0.0) -> Callable[[Signal], MetricsTriple]:
    """``score(estimate)``: the SDR, SDRi and SI-SDR of an estimate of one clip,
    equal to the three separate calls.

    The reference energy and the unprocessed mixture's SDR depend only on the
    clip, so they are computed here, once; each ``score`` call adds the
    estimate's SDR and SI-SDR, working in one clip-length array of its own.
    Raises ``ValueError`` here when the mixture cannot be scored (misaligned,
    or a silent reference with ``epsilon=0``).
    """
    mix, ref = _check_aligned(mixture, reference)
    ref_energy = _energy(ref)
    mixture_sdr = _sdr(mix, ref, ref_energy, epsilon)

    def score(estimate: Signal) -> MetricsTriple:
        est = _check_aligned(estimate, mixture, reference)[0]
        buf = np.empty_like(ref)
        sdr_db = _sdr(est, ref, ref_energy, epsilon, buf)
        return MetricsTriple(sdr_db=sdr_db, sdri_db=sdr_db - mixture_sdr,
                             si_sdr_db=_si_sdr(est, ref, ref_energy, epsilon, buf))
    return score


def aggregate(triples: list[MetricsTriple],
              clamp_db: float = DEFAULT_CLAMP_DB) -> MetricsTriple:
    """Clamp per-clip values to [-clamp_db, clamp_db], then average.

    Clamping keeps a single perfect (infinite-dB) clip from dominating the
    mean; the clamp value is part of every report.
    """
    if not triples:
        raise ValueError("cannot aggregate an empty list")
    clamped = [t.clamped(clamp_db) for t in triples]
    n = len(clamped)
    return MetricsTriple(
        sdr_db=sum(t.sdr_db for t in clamped) / n,
        sdri_db=sum(t.sdri_db for t in clamped) / n,
        si_sdr_db=sum(t.si_sdr_db for t in clamped) / n,
    )
