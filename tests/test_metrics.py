import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capaug.audio import Waveform
from capaug.metrics import MetricsTriple, aggregate, scorer, sdr, sdri, si_sdr
from oracles import (clamp_mean_brute, scores_squared_reference, sdr_brute, sdri_brute,
                     si_sdr_brute)

# samples in [-1, 1], with signed zeros and subnormals drawn often
_SAMPLES = st.one_of(st.floats(-1.0, 1.0),
                     st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]))


@st.composite
def _clips(draw):
    """``(estimate, mixture, reference)`` of one length; the estimate is
    sometimes the reference, the mixture or the reference negated."""
    signal = st.lists(_SAMPLES, min_size=(n := draw(st.integers(1, 40))), max_size=n)
    reference, mixture = draw(signal), draw(signal)
    estimate = draw(st.one_of(signal, st.sampled_from(
        [reference, mixture, [-x for x in reference]])))
    return estimate, mixture, reference


def test_sdr_hand_value():
    assert sdr([1.0, 0.1], [1.0, 0.0]) == pytest.approx(20.0, abs=1e-12)


def test_sdr_perfect_estimate_is_infinite():
    assert sdr([1.0, 0.0], [1.0, 0.0]) == math.inf


def test_sdr_zero_estimate_is_zero_db():
    assert sdr([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_sdr_errors():
    with pytest.raises(ValueError):
        sdr([1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        sdr([1.0, 0.0], [0.0, 0.0])


def test_sdr_epsilon_keeps_value_finite():
    value = sdr([1.0, 0.0], [1.0, 0.0], epsilon=1e-8)
    assert math.isfinite(value)
    assert value == pytest.approx(sdr_brute([1.0, 0.0], [1.0, 0.0], 1e-8), abs=1e-9)


def test_sdri_identity_estimate_is_exactly_zero():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(256)
    mixture = ref + 0.3 * rng.standard_normal(256)
    assert sdri(mixture, mixture, ref) == 0.0
    assert sdri(mixture, mixture, ref, epsilon=1e-8) == 0.0


def test_sdri_perfect_estimate_is_infinite():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(64)
    mixture = ref + rng.standard_normal(64)
    assert sdri(ref, mixture, ref) == math.inf


def test_sdri_orthogonal_equal_energy_mixture():
    # frozen from the brute-force oracle: the unprocessed mixture scores 0 dB,
    # so a 10 dB estimate improves by exactly 10 dB
    s = [1.0, 0.0, 0.0, 0.0]
    n = [0.0, 1.0, 0.0, 0.0]
    mixture = [a + b for a, b in zip(s, n)]
    estimate = [1.0, 0.0, math.sqrt(0.1), 0.0]
    assert sdr_brute(mixture, s) == pytest.approx(0.0, abs=1e-12)
    assert sdr_brute(estimate, s) == pytest.approx(10.0, abs=1e-12)
    assert sdri(estimate, mixture, s) == pytest.approx(10.0, abs=1e-12)


def test_si_sdr_hand_value():
    assert si_sdr([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_si_sdr_scaled_estimate_is_infinite():
    assert si_sdr([2.0, 0.0], [1.0, 0.0]) == math.inf


def test_si_sdr_orthogonal_is_negative_infinity():
    assert si_sdr([0.0, 1.0], [1.0, 0.0]) == -math.inf


def test_si_sdr_zero_reference_rejected():
    with pytest.raises(ValueError):
        si_sdr([1.0, 0.0], [0.0, 0.0])


def test_si_sdr_zero_reference_with_epsilon_is_finite():
    est = [1.0, -2.0, 0.5]
    eps = 1e-8
    expected = 10.0 * math.log10(eps / (5.25 + eps))
    assert si_sdr(est, [0.0, 0.0, 0.0], eps) == pytest.approx(expected, abs=1e-12)
    assert si_sdr_brute(est, [0.0, 0.0, 0.0], eps) == pytest.approx(expected, abs=1e-12)
    assert si_sdr([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], eps) == 0.0


def test_compute_triple_zero_reference():
    est = [0.25, 0.5, -1.0, 0.0]
    mixture = [0.5, 0.5, -0.5, 1.0]
    silent = [0.0] * 4
    triple = scorer(mixture, silent, 1e-8)(est)
    assert triple.sdr_db == pytest.approx(sdr_brute(est, silent, 1e-8), abs=1e-9)
    assert triple.sdri_db == pytest.approx(sdri_brute(est, mixture, silent, 1e-8), abs=1e-9)
    assert triple.si_sdr_db == pytest.approx(si_sdr_brute(est, silent, 1e-8), abs=1e-9)
    with pytest.raises(ValueError, match="zero-energy"):
        scorer(mixture, silent, 0.0)(est)


def test_sdr_is_not_scale_invariant_but_si_sdr_is():
    # dyadic values keep the projection arithmetic exact
    ref = np.array([1.0, 0.0, -0.5, 0.25])
    assert sdr(2.0 * ref, ref) == pytest.approx(0.0, abs=1e-9)
    assert si_sdr(2.0 * ref, ref) == math.inf
    assert sdr(2.0 * ref, ref) != si_sdr(2.0 * ref, ref)


def test_si_sdr_scale_invariance_grid():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ref = rng.standard_normal(512)
        est = ref + 0.25 * rng.standard_normal(512)
        base = si_sdr(est, ref)
        for c in (1e-3, 0.5, 2.0, 1e3):
            assert abs(si_sdr(c * est, ref) - base) <= 1e-9


def test_oracle_agreement_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        ref = rng.standard_normal(256)
        est = ref + rng.uniform(0.05, 2.0) * rng.standard_normal(256)
        mix = ref + rng.uniform(0.05, 2.0) * rng.standard_normal(256)
        assert sdr(est, ref) == pytest.approx(sdr_brute(est, ref), abs=1e-9)
        assert sdri(est, mix, ref) == pytest.approx(sdri_brute(est, mix, ref), abs=1e-9)
        assert si_sdr(est, ref) == pytest.approx(si_sdr_brute(est, ref), abs=1e-9)
        eps = 1e-8
        assert sdr(est, ref, eps) == pytest.approx(sdr_brute(est, ref, eps), abs=1e-9)
        assert si_sdr(est, ref, eps) == pytest.approx(si_sdr_brute(est, ref, eps), abs=1e-9)


def test_sdr_monotone_in_error_energy():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(256)
    noise = rng.standard_normal(256)
    values = [sdr(ref + g * noise, ref) for g in (1.0, 0.5, 0.25, 0.1)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_waveform_inputs_check_rates():
    a = Waveform(np.ones(16), 16000)
    b = Waveform(np.ones(16), 8000)
    with pytest.raises(ValueError):
        sdr(a, b)
    assert sdr(a, Waveform(np.ones(16), 16000)) == math.inf


def test_aggregate_single_triple_is_identity():
    t = MetricsTriple(5.0, 4.0, 3.0)
    assert aggregate([t]) == t


def test_aggregate_clamps_infinities():
    t1 = MetricsTriple(math.inf, math.inf, math.inf)
    t2 = MetricsTriple(0.0, 0.0, 0.0)
    agg = aggregate([t1, t2], clamp_db=60.0)
    assert agg == MetricsTriple(30.0, 30.0, 30.0)
    assert clamp_mean_brute([math.inf, 0.0], 60.0) == 30.0


def test_aggregate_clamps_negative_infinity():
    agg = aggregate([MetricsTriple(-math.inf, 0.0, 0.0)], clamp_db=60.0)
    assert agg.sdr_db == -60.0


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_matches_brute_means():
    rng = random.Random(5)
    triples = [MetricsTriple(rng.uniform(-90, 90), rng.uniform(-90, 90),
                             rng.uniform(-90, 90)) for _ in range(50)]
    agg = aggregate(triples, clamp_db=60.0)
    assert agg.sdr_db == pytest.approx(
        clamp_mean_brute([t.sdr_db for t in triples], 60.0), abs=1e-12)
    assert agg.sdri_db == pytest.approx(
        clamp_mean_brute([t.sdri_db for t in triples], 60.0), abs=1e-12)


def test_compute_triple_bundles_all_three():
    rng = np.random.default_rng(6)
    ref = rng.standard_normal(128)
    noise = rng.standard_normal(128)
    mixture = ref + noise
    est = ref + 0.5 * noise
    triple = scorer(mixture, ref)(est)
    assert triple.sdr_db == pytest.approx(sdr_brute(est, ref), abs=1e-9)
    assert triple.sdri_db == pytest.approx(sdri_brute(est, mixture, ref), abs=1e-9)
    assert triple.si_sdr_db == pytest.approx(si_sdr_brute(est, ref), abs=1e-9)


def test_compute_triple_equals_separate_calls_exactly():
    rng = np.random.default_rng(11)
    for n, eps in ((64, 0.0), (4096, 0.0), (64000, 1e-8)):
        ref = rng.standard_normal(n)
        mixture = ref + rng.standard_normal(n)
        est = ref + 0.3 * (mixture - ref) + 0.01 * rng.standard_normal(n)
        for estimate in (est, mixture, Waveform(est, 16000)):
            triple = scorer(mixture, ref, eps)(estimate)
            assert triple.sdr_db == sdr(estimate, ref, eps)
            assert triple.sdri_db == sdri(estimate, mixture, ref, eps)
            assert triple.si_sdr_db == si_sdr(estimate, ref, eps)


def test_scorer_scores_many_estimates_of_one_clip_exactly():
    rng = np.random.default_rng(13)
    ref = rng.standard_normal(4096)
    mixture = ref + rng.standard_normal(4096)
    score = scorer(mixture, ref, 1e-8)
    for estimate in (mixture, ref + 0.2 * rng.standard_normal(4096), ref, -mixture):
        assert score(estimate) == MetricsTriple(sdr(estimate, ref, 1e-8),
                                                sdri(estimate, mixture, ref, 1e-8),
                                                si_sdr(estimate, ref, 1e-8))
    with pytest.raises(ValueError, match="length mismatch"):
        score(ref[:100])


@settings(max_examples=400, deadline=None)
@given(clip=_clips(), eps=st.sampled_from([0.0, 1e-8]))
@example(clip=([-0.0, 5e-324], [0.5, -0.0], [-0.0, 1e-310]), eps=0.0)
@example(clip=([-0.0, 5e-324], [0.5, -0.0], [-0.0, 1e-310]), eps=1e-8)
@example(clip=([0.5, -0.25], [0.5, -0.25], [0.5, -0.25]), eps=0.0)
def test_scorer_bits_match_the_squared_formulas(clip, eps):
    # squaring in place is the same IEEE operation as ``** 2``, summed over
    # the same contiguous values: every score keeps its bits, infinities,
    # NaNs and the refusal of a silent reference included
    estimate, mixture, reference = clip
    try:
        expected = scores_squared_reference(estimate, mixture, reference, eps)
    except ValueError:
        with pytest.raises(ValueError, match="zero-energy"):
            scorer(mixture, reference, eps)
        return
    got = scorer(mixture, reference, eps)(estimate)
    assert struct.pack("<3d", got.sdr_db, got.sdri_db, got.si_sdr_db) == \
        struct.pack("<3d", *expected)


def test_scorer_refuses_an_unscorable_clip_up_front():
    with pytest.raises(ValueError, match="zero-energy"):
        scorer([0.5, 0.5, -0.5], [0.0, 0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="length mismatch"):
        scorer([0.5, 0.5], [0.1, 0.2, 0.3])


def test_scoring_never_calls_blas_dot(monkeypatch):
    # np.dot goes to BLAS, whose worker thread spins on a second core
    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", no_dot)
    rng = np.random.default_rng(12)
    ref = rng.standard_normal(1000)
    est = ref + 0.1 * rng.standard_normal(1000)
    assert si_sdr(est, ref) == pytest.approx(si_sdr_brute(est, ref), abs=1e-9)
    triple = scorer(ref + rng.standard_normal(1000), ref, 1e-8)(est)
    assert triple.si_sdr_db == pytest.approx(si_sdr_brute(est, ref, 1e-8), abs=1e-9)
