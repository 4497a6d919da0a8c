"""Distribution layer: oracles first, then structural properties.

Expected values come from three independent routes: scipy quadrature of
the survival function built from the matrix exponential, closed-form
mixture survival, and exact Fraction arithmetic for the partial-fraction
weights.  Library results must match those, never each other.
"""

import hashlib
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import linalg

import coxfield as cf
from coxfield.cli import SchemaError, distribution_from_dict, distribution_to_dict

from samplers import normalize_to_unit_mean, random_coxian_decreasing, random_hyperexp


def quad_moment(dist, k):
    """k-th moment as k * integral of t^(k-1) S(t), S from expm."""
    alpha = np.zeros(len(dist.rates))
    if isinstance(dist, cf.CoxianDistribution):
        alpha[0] = 1.0
        gen = dist.generator()
    else:
        alpha[:] = dist.weights
        gen = -np.diag(dist.rates)

    def tail(t):
        return alpha @ linalg.expm(gen * t) @ np.ones(len(alpha))

    val, err = sci_integrate.quad(
        lambda t: k * t ** (k - 1) * tail(t), 0, np.inf, limit=200
    )
    return val


def lst(dist, s):
    """Laplace transform at s, by linear solve or branch sum."""
    if isinstance(dist, cf.HyperExponential):
        return sum(
            w * mu / (s + mu) for w, mu in zip(dist.weights, dist.rates)
        )
    gen = dist.generator()
    n = len(dist.rates)
    exit_rates = -gen @ np.ones(n)
    alpha = np.zeros(n)
    alpha[0] = 1.0
    return float(alpha @ np.linalg.solve(s * np.eye(n) - gen, exit_rates))


def exact_mixture_weights(rates, conts):
    """Partial fractions of the Coxian transform in exact rationals.

    The transform is sum_j c_j prod_{i<=j} mu_i/(s+mu_i) with c_j the
    probability of completing in phase j; expanding each product over
    simple poles gives the weight of rate mu_k as
    sum_{j>=k} c_j prod_{i<=j, i!=k} mu_i/(mu_i - mu_k).
    """
    rates = [Fraction(r) for r in rates]
    conts = [Fraction(c) for c in conts]
    n = len(rates)
    weights = []
    for k in range(n):
        total = Fraction(0)
        prefix = Fraction(1)
        for j in range(n):
            if j >= k:
                prod = Fraction(1)
                for i in range(j + 1):
                    if i != k:
                        prod *= rates[i] / (rates[i] - rates[k])
                total += prefix * (1 - conts[j]) * prod
            prefix *= conts[j]
        weights.append(total)
    return weights


# ---------------------------------------------------------------------------
# frozen hand values


def test_frozen_balanced_coxian_moments(balanced_service):
    assert balanced_service.rates == pytest.approx((2.0, 2.0 / 3.0))
    assert balanced_service.continuations[0] == pytest.approx(1.0 / 3.0)
    assert cf.moments(balanced_service, 1) == pytest.approx(1.0, abs=1e-12)
    assert cf.moments(balanced_service, 2) == pytest.approx(2.5, abs=1e-12)
    assert cf.moments(balanced_service, 3) == pytest.approx(10.5, abs=1e-11)
    tri = cf.normalized_moments(balanced_service)
    assert (tri.m1, tri.n2, tri.n3) == pytest.approx((1.0, 2.5, 4.2), abs=1e-12)


def test_frozen_remaining_service_times(balanced_service):
    rem = cf.remaining_service_times(balanced_service)
    assert rem == pytest.approx([1.0, 1.5], abs=1e-12)


def test_counterexample_weights_exact_fractions():
    exact = exact_mixture_weights(
        [1, 2, Fraction(1, 10)], [Fraction(1, 10), Fraction(4, 5), 0]
    )
    assert exact == [Fraction(83, 90), Fraction(-3, 190), Fraction(16, 171)]
    assert sum(exact) == 1

    cox = cf.CoxianDistribution((1.0, 2.0, 0.1), (0.1, 0.8, 0.0))
    mix = cf.coxian_to_mixture(cox)
    got = dict(zip(mix.rates, mix.weights))
    assert abs(got[1.0] - 83 / 90) < 1e-12
    assert abs(got[2.0] - (-3 / 190)) < 1e-12
    assert abs(got[0.1] - 16 / 171) < 1e-12
    assert not mix.is_hyperexponential
    check = cf.has_decreasing_completion_rates(cox)
    assert check.is_member
    assert cox.completion_rates == pytest.approx([0.9, 0.4, 0.1])


# ---------------------------------------------------------------------------
# conversion fidelity


def test_conversion_preserves_moments_and_lst(rng):
    for _ in range(25):
        hyper = random_hyperexp(rng, max_branches=4)
        cox = cf.hyperexp_to_coxian(hyper)
        for k in (1, 2, 3):
            assert cf.moments(cox, k) == pytest.approx(
                cf.moments(hyper, k), rel=1e-9
            )
        for s in (0.1, 1.0, 7.3):
            assert lst(cox, s) == pytest.approx(lst(hyper, s), rel=1e-11)


def test_conversion_is_strictly_in_class(rng):
    for _ in range(50):
        hyper = random_hyperexp(rng)
        check = cf.has_decreasing_completion_rates(cf.hyperexp_to_coxian(hyper))
        assert check.is_member and check.margin > 0


def test_conversion_rejects_duplicate_rates():
    with pytest.raises(ValueError, match="distinct"):
        cf.hyperexp_to_coxian(cf.HyperExponential((0.5, 0.5), (1.0, 1.0)))


def test_mixture_round_trip(rng):
    for _ in range(25):
        hyper = random_hyperexp(rng, max_branches=5)
        mix = cf.coxian_to_mixture(cf.hyperexp_to_coxian(hyper))
        assert mix.is_hyperexponential
        got = dict(zip(mix.rates, mix.weights))
        for w, mu in zip(hyper.weights, hyper.rates):
            assert got[mu] == pytest.approx(w, rel=1e-9)


def test_moments_match_quadrature(rng):
    for _ in range(5):
        hyper = random_hyperexp(rng, max_branches=3, rate_range=(0.2, 5.0))
        cox = random_coxian_decreasing(rng, max_phases=3)
        for dist in (hyper, cox):
            for k in (1, 2):
                assert cf.moments(dist, k) == pytest.approx(
                    quad_moment(dist, k), rel=1e-7
                )


def test_cdf_matches_closed_forms():
    expo = cf.CoxianDistribution((1.3,), (0.0,))
    ts = np.linspace(0.05, 4.0, 23)
    assert cf.cdf(expo, ts) == pytest.approx(1 - np.exp(-1.3 * ts), abs=1e-12)
    hyper = cf.HyperExponential((0.3, 0.7), (3.0, 0.5))
    want = 1 - 0.3 * np.exp(-3.0 * ts) - 0.7 * np.exp(-0.5 * ts)
    assert cf.cdf(hyper, ts) == pytest.approx(want, abs=1e-12)

    # unsorted times with duplicates and t = 0
    ts = np.random.default_rng(7).permutation(
        np.concatenate([[0.0, 0.0, 1e-3, 0.5, 0.5], np.linspace(0.01, 6.0, 17)])
    )
    stiff = cf.HyperExponential((0.5, 0.5), (100.0, 0.5))
    want = 1 - 0.5 * np.exp(-100.0 * ts) - 0.5 * np.exp(-0.5 * ts)
    for dist in (stiff, cf.hyperexp_to_coxian(stiff)):
        assert cf.cdf(dist, ts) == pytest.approx(want, abs=1e-12)

    # a Coxian outside the hyperexponential class, against its exact
    # signed mixture 83/90 e^{-t} - 3/190 e^{-2t} + 16/171 e^{-t/10}
    cox = cf.CoxianDistribution((1.0, 2.0, 0.1), (0.1, 0.8, 0.0))
    weights, rates = (83 / 90, -3 / 190, 16 / 171), (1.0, 2.0, 0.1)
    surv = sum(w * np.exp(-mu * ts) for w, mu in zip(weights, rates))
    dens = sum(w * mu * np.exp(-mu * ts) for w, mu in zip(weights, rates))
    assert cf.cdf(cox, ts) == pytest.approx(1 - surv, abs=1e-12)
    assert cf.pdf(cox, ts) == pytest.approx(dens, abs=1e-12)


def test_pdf_is_cdf_derivative():
    cox = cf.CoxianDistribution((2.0, 2.0 / 3.0), (1.0 / 3.0, 0.0))
    eps = 1e-5
    for t in (0.2, 0.9, 2.7):
        fd = (cf.cdf(cox, t + eps) - cf.cdf(cox, t - eps)) / (2 * eps)
        assert cf.pdf(cox, t) == pytest.approx(fd, rel=1e-7)


def test_fast_phases_and_huge_times_stay_finite():
    # expm alone fails once a phase's mu * gap passes about 1e37; capped at
    # 1e30, a phase of rate 1e40 or more passes half its mass on at once
    ts = np.array([1e-3, 1.0, 10.0])
    for mu in (1e40, 1e100, 1e200):
        cox = cf.CoxianDistribution((mu, 1.0), (0.5, 0.0))
        assert 1 - cf.cdf(cox, ts) == pytest.approx(0.5 * np.exp(-ts), rel=1e-12)
    cox = cf.CoxianDistribution((1e40, 1.0), (0.5, 0.0))
    assert cf.cdf(cox, 1.0) == pytest.approx(1 - 0.5 * math.exp(-1), rel=1e-15)
    # huge and infinite times, repeated, after an ordinary one
    h2 = cf.hyperexp_to_coxian(cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)))
    fast = cf.HyperExponential((0.5, 0.5), (1e40, 1.0))
    ts = np.array([1.0, 1e40, 1e300, np.inf, np.inf])
    for dist in (h2, fast, cox):
        assert np.isfinite(cf.cdf(dist, ts[0]))
        assert (cf.cdf(dist, ts)[1:] == 1.0).all()
        assert (cf.pdf(dist, ts)[1:] == 0.0).all()
        assert np.isnan(cf.hazard(dist, ts)[1:]).all()
        assert cf.cdf(dist, np.inf) == 1.0


def test_tiny_rate_evaluates_without_warnings():
    # 1e30 / 1e-300 overflows to inf: the slow branch gets no cap
    hyper = cf.HyperExponential((0.5, 0.5), (1e300, 1e-300))
    ts = np.linspace(0.1, 5.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cf.cdf(hyper, ts), cf.pdf(hyper, ts), cf.hazard(hyper, ts)
    assert (got[0] == 0.5).all()
    assert got[1] == pytest.approx(np.full(50, 5e-301), rel=1e-12)
    assert got[2] == pytest.approx(np.full(50, 1e-300), rel=1e-12)
    # at t = inf the slow branch's span was inf, and inf times the zeros of
    # the generator made the last value NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf.cdf(hyper, [0.0, 1e-40, 1e40, math.inf]).tolist() == [0, 0.5, 0.5, 1]
        assert cf.pdf(hyper, math.inf) == 0.0


@pytest.mark.parametrize("mu", [1e35, 1e40, 1e100])
def test_capped_phase_fed_by_a_slower_one_keeps_its_density(mu):
    # phase 2 passes on at once what phase 1 sends it, so pdf(t) = e^-t;
    # its capped mass must be counted at mu, not at the stand-in rate
    cox = cf.CoxianDistribution((1.0, mu), (0.5, 0.0))
    assert cf.pdf(cox, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert cf.hazard(cox, 1.0) == pytest.approx(1.0, rel=1e-12)
    ts = np.array([1e-3, 1.0, 1.0, 1.0 + 2**-52, 3.0, 10.0])
    assert cf.pdf(cox, ts) == pytest.approx(np.exp(-ts), rel=1e-12)
    assert cf.hazard(cox, ts) == pytest.approx(np.ones_like(ts), rel=1e-12)
    # a fast middle phase: the law of Coxian((1, 2), (0.25, 0))
    mid = cf.CoxianDistribution((1.0, mu, 2.0), (0.5, 0.5, 0.0))
    ref = cf.CoxianDistribution((1.0, 2.0), (0.25, 0.0))
    for f in (cf.cdf, cf.pdf, cf.hazard):
        assert f(mid, ts) == pytest.approx(f(ref, ts), rel=1e-12)


@pytest.mark.parametrize("t", [math.nan, [1.0, math.nan], [[1.0, 2.0]]])
def test_nan_and_multidimensional_times_are_rejected(t):
    with pytest.raises(ValueError, match="times"):
        cf.cdf(cf.CoxianDistribution((1.0,), (0.0,)), t)


# ---------------------------------------------------------------------------
# class membership and its consequences


def test_membership_boundary_and_rejection():
    tie = cf.CoxianDistribution((1.0, 2.0), (0.5, 0.0))  # nu = (0.5, 2.0)
    check = cf.has_decreasing_completion_rates(tie)
    assert not check.is_member and check.margin < 0
    flat = cf.CoxianDistribution((1.0, 0.5), (0.5, 0.0))  # nu = (0.5, 0.5)
    check = cf.has_decreasing_completion_rates(flat)
    assert check.is_member and check.boundary and check.margin == 0.0
    single = cf.CoxianDistribution((1.0,), (0.0,))
    assert cf.has_decreasing_completion_rates(single) == cf.CompletionRateCheck(
        True, math.inf, False
    )


def test_remaining_times_increase(rng):
    for _ in range(200):
        cox = random_coxian_decreasing(rng)
        rem = cf.remaining_service_times(cox)
        assert np.all(np.diff(rem) > 0) or len(rem) == 1


def telescoping_rate_sum(k, l, rates):
    """Telescoping product-ratio sum over rates; equals -1 identically.

    For 1-based indices l > k >= 1 and rates with mu_j != mu_k for j > k,

        sum_{i=k+1}^{l} prod_{v=k}^{i-1} (mu_v - mu_l)
                        / prod_{j=k+1}^{i} (mu_j - mu_k)

    collapses to -1 for every choice of rates.  Cross-checks the
    partial-fraction algebra behind the mixture conversion.
    """
    mu = [float(r) for r in rates]
    total, numer, denom = 0.0, 1.0, 1.0
    for i in range(k + 1, l + 1):
        numer *= mu[i - 2] - mu[l - 1]
        denom *= mu[i - 1] - mu[k - 1]
        total += numer / denom
    return total


def test_telescoping_rate_sum_identity(rng):
    assert telescoping_rate_sum(1, 3, (1.0, 2.0, 0.1)) == pytest.approx(-1.0)
    for _ in range(100):
        k = len(random_hyperexp(rng).rates)
        if k < 2:
            continue
        rates = np.sort(rng.uniform(0.1, 9.0, size=k))
        if np.min(np.diff(rates)) < 1e-3:
            continue
        val = telescoping_rate_sum(1, k, tuple(rates))
        assert val == pytest.approx(-1.0, abs=1e-10)


def test_hazard_constant_for_exponential():
    expo = cf.CoxianDistribution((0.7,), (0.0,))
    ts = np.linspace(0.1, 6.0, 40)
    assert cf.hazard(expo, ts) == pytest.approx(np.full(40, 0.7), abs=1e-12)


def test_hazard_nonincreasing_for_class_members(rng):
    ts = np.linspace(0.05, 5.0, 60)
    for _ in range(20):
        cox = random_coxian_decreasing(rng, max_phases=4)
        hz = cf.hazard(cox, ts)
        good = np.isfinite(hz)
        assert np.all(np.diff(hz[good]) <= 1e-9)


def test_hazard_limits(rng):
    # starts at nu_1 and tends to nu_n for strictly decreasing rates
    cox = cf.CoxianDistribution((2.0, 2.0 / 3.0), (1.0 / 3.0, 0.0))
    nu = cox.completion_rates
    assert cf.hazard(cox, 1e-8) == pytest.approx(nu[0], rel=1e-6)
    assert cf.hazard(cox, 40.0) == pytest.approx(nu[-1], rel=1e-3)


# ---------------------------------------------------------------------------
# moment fitting


def test_fit_frozen_target():
    hyper = cf.fit_hyperexp2(cf.MomentTriple(1.0, 2.5, 4.2))
    pairs = sorted(zip(hyper.rates, hyper.weights))
    assert pairs[0][0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert pairs[1][0] == pytest.approx(2.0, rel=1e-12)
    assert pairs[0][1] == pytest.approx(0.5, rel=1e-12)


def test_fit_exponential_point():
    hyper = cf.fit_hyperexp2(cf.MomentTriple(2.0, 2.0, 3.0))
    assert hyper.k == 1
    assert hyper.rates[0] == pytest.approx(0.5, rel=1e-12)


def test_fit_round_trip(rng):
    for _ in range(100):
        hyper = random_hyperexp(rng, max_branches=2)
        if hyper.k != 2:
            continue
        tri = cf.normalized_moments(hyper)
        back = cf.fit_hyperexp2(tri)
        got = cf.normalized_moments(back)
        assert got.m1 == pytest.approx(tri.m1, rel=1e-10)
        assert got.n2 == pytest.approx(tri.n2, rel=1e-10)
        assert got.n3 == pytest.approx(tri.n3, rel=1e-10)


def test_fit_near_rate_ties():
    """Round trip at 1e-12 where n2 - 2 and n3 - 3 are tiny (close rates)."""
    cases = [cf.HyperExponential((0.12861542884654742, 0.8713845711534526),
                                 (0.17836018563024567, 0.1777355292623396))]
    for gap in (1e-2, 1e-3, 1e-4, 1e-5):
        for w, mu in ((0.1, 0.3), (0.5, 1.0), (0.9, 40.0)):
            cases.append(cf.HyperExponential((w, 1.0 - w), (mu * (1.0 + gap), mu)))
    for hyper in cases:
        tri = cf.normalized_moments(hyper)
        got = cf.normalized_moments(cf.fit_hyperexp2(tri))
        assert got.m1 == pytest.approx(tri.m1, rel=1e-12)
        assert got.n2 == pytest.approx(tri.n2, rel=1e-12)
        assert got.n3 == pytest.approx(tri.n3, rel=1e-12)


def test_fit_rejects_the_region_boundary(rng):
    # on n3 = 1.5 n2 one branch mean collapses to zero, and fit_hyperexp2
    # takes no slack that could let such a target through
    assert list(inspect.signature(cf.fit_hyperexp2).parameters) == ["target"]
    for n2 in rng.uniform(2.0, 50.0, 200):
        with pytest.raises(ValueError, match="1.5"):
            cf.fit_hyperexp2(cf.MomentTriple(1.0, n2, 1.5 * n2))


def test_fit_rejects_outside_region():
    for n2, n3 in ((2.5, 3.6), (1.9, 6.0), (3.0, 4.5), (2.5, 3.75)):
        with pytest.raises(ValueError):
            cf.fit_hyperexp2(cf.MomentTriple(1.0, n2, n3))


def test_sampled_members_lie_in_moment_region(rng):
    for _ in range(200):
        cox = random_coxian_decreasing(rng)
        tri = cf.normalized_moments(cox)
        at_expo = abs(tri.n2 - 2.0) < 1e-7 and abs(tri.n3 - 3.0) < 1e-7
        assert at_expo or (tri.n2 > 2 - 1e-9 and tri.n3 > 1.5 * tri.n2 - 1e-9)


@given(
    w=st.floats(0.05, 0.95),
    lo=st.floats(0.05, 0.9),
    hi=st.floats(1.2, 30.0),
)
def test_fit_round_trip_hypothesis(w, lo, hi):
    hyper = cf.HyperExponential((w, 1.0 - w), (lo, hi))
    tri = cf.normalized_moments(hyper)
    back = cf.fit_hyperexp2(tri)
    got = cf.normalized_moments(back)
    assert got.n2 == pytest.approx(tri.n2, rel=1e-9)
    assert got.n3 == pytest.approx(tri.n3, rel=1e-9)


# ---------------------------------------------------------------------------
# plumbing


def test_normalize_to_unit_mean(rng):
    cox = random_coxian_decreasing(rng, unit_mean=False)
    unit = normalize_to_unit_mean(cox)
    assert cf.moments(unit, 1) == pytest.approx(1.0, abs=1e-12)


def test_dict_round_trip(balanced_service):
    again = distribution_from_dict(distribution_to_dict(balanced_service))
    assert again == balanced_service
    hyper = cf.HyperExponential((0.25, 0.75), (4.0, 0.4))
    assert distribution_from_dict(distribution_to_dict(hyper)) == hyper


def test_dict_schema_errors():
    with pytest.raises(SchemaError):
        distribution_from_dict({"rates": [1.0]})
    with pytest.raises(SchemaError):
        distribution_from_dict({"kind": "weibull"})
    with pytest.raises(SchemaError):
        distribution_from_dict({"kind": "coxian", "rates": [1.0]})


def test_sampler_determinism():
    a = random_hyperexp(np.random.default_rng(5))
    b = random_hyperexp(np.random.default_rng(5))
    assert a == b
    c = random_coxian_decreasing(np.random.default_rng(6))
    d = random_coxian_decreasing(np.random.default_rng(6))
    assert c == d


def test_validation_messages():
    with pytest.raises(ValueError):
        cf.CoxianDistribution((1.0, 2.0), (0.5, 0.5))  # last continuation
    with pytest.raises(ValueError):
        cf.CoxianDistribution((1.0, -2.0), (0.5, 0.0))
    with pytest.raises(ValueError):
        cf.HyperExponential((0.6, 0.6), (1.0, 2.0))  # weights sum
    with pytest.raises(ValueError):
        cf.MomentTriple(-1.0, 2.5, 4.0)
    with pytest.raises(ValueError):
        cf.moments(cf.CoxianDistribution((1.0,), (0.0,)), 0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, message", [
    (lambda: cf.CoxianDistribution((), ()), "got 0 continuations for 0 rates"),
    (lambda: cf.CoxianDistribution((1.0, 2.0), (0.0,)), "got 1 continuations for 2 rates"),
    (lambda: cf.HyperExponential((0.5, 0.5), (1.0,)), "got 2 weights for 1 rates"),
    (lambda: cf.HyperExponential((), ()), "got 0 weights for 0 rates"),
    (lambda: cf.SignedMixture((1.0,), (1.0, 2.0)), "got 1 weights for 2 rates"),
    (lambda: cf.CoxianDistribution((INF,), (0.0,)), "rates must be positive and finite"),
    (lambda: cf.HyperExponential((1.0,), (0.0,)), "rates must be positive and finite"),
    (lambda: cf.SignedMixture((1.0,), (NAN,)), "rates must be positive and finite"),
    (lambda: cf.SignedMixture((2.0, -1.0), (1.0, INF)), "rates must be positive and finite"),
    (lambda: cf.MomentTriple(1.0, 0.5, 2.0), "must be >= 1"),
    (lambda: cf.MomentTriple(1.0, 2.0, 0.5), "must be >= 1"),
])
def test_shape_and_rate_rejections(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_fields_are_stored_as_float_tuples():
    cox = cf.CoxianDistribution([2, 1], np.array([0.5, 0]))
    hyper = cf.HyperExponential(np.array([0.25, 0.75]), [4, 1])
    mix = cf.SignedMixture([2, -1], (1, 2))
    for fields in ((cox.rates, cox.continuations), (hyper.weights, hyper.rates),
                   (mix.weights, mix.rates)):
        for values in fields:
            assert type(values) is tuple and all(type(v) is float for v in values)
    assert (cox.rates, cox.continuations) == ((2.0, 1.0), (0.5, 0.0))


@pytest.mark.parametrize("make", [
    lambda: cf.HyperExponential((NAN,), (1.0,)),
    lambda: cf.HyperExponential((0.5, NAN), (1.0, 2.0)),
    lambda: cf.HyperExponential((INF, 0.5), (1.0, 2.0)),
    lambda: cf.HyperExponential((0.5, 0.5), (1.0, NAN)),
    lambda: cf.CoxianDistribution((2.0, 1.0), (NAN, 0.0)),
    lambda: cf.CoxianDistribution((2.0, 1.0), (0.5, NAN)),
    lambda: cf.CoxianDistribution((NAN, 1.0), (0.5, 0.0)),
    lambda: cf.MomentTriple(1.0, NAN, 5.0),
    lambda: cf.MomentTriple(INF, 3.0, 5.0),
    lambda: cf.MomentTriple(1.0, 3.0, INF),
    lambda: cf.MomentTriple(NAN, 3.0, 5.0),
])
def test_non_finite_parameters_are_rejected(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# golden outputs


def plain(value):
    """Python scalars, tuples and lists in place of numpy ones."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return type(value)(plain(v) for v in value)
    return value


def digest(records):
    """SHA-256 over the exact reprs of the records' plain values."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(plain(record)).encode())
        h.update(b";")
    return h.hexdigest()


def test_golden_conversion_class_and_moments():
    """Conversions, class checks and moments hash to a pinned SHA-256."""
    rng = np.random.default_rng(1010)
    records, dists = [], []
    for _ in range(300):
        hyper = random_hyperexp(rng)
        cox = cf.hyperexp_to_coxian(hyper)
        records.append((cox.rates, cox.continuations))
        dists += [hyper, cox]
    for _ in range(200):  # any continuations, so members and non-members
        n = int(rng.integers(1, 7))
        conts = rng.uniform(0.0, 0.95, size=n)
        conts[-1] = 0.0
        rates = np.exp(rng.uniform(-3.0, 3.0, size=n))
        dists.append(cf.CoxianDistribution(tuple(rates), tuple(conts)))
    dists += [random_coxian_decreasing(rng) for _ in range(100)]
    dists += [  # a tie, a tie within BOUNDARY_TOL, and one beyond it
        cf.CoxianDistribution((1.0, 0.5), (0.5, 0.0)),
        cf.CoxianDistribution((1.0, 0.5 + 5e-13), (0.5, 0.0)),
        cf.CoxianDistribution((1.0, 0.5 + 5e-12), (0.5, 0.0)),
    ]
    for dist in dists:
        if isinstance(dist, cf.CoxianDistribution):
            for tol in (0.0, 1e-9):
                check = cf.has_decreasing_completion_rates(dist, tol)
                records.append((check.is_member, check.margin, check.boundary))
            records.append(cf.remaining_service_times(dist))
        records.append(tuple(cf.moments(dist, k) for k in (1, 2, 3)))
        tri = cf.normalized_moments(dist)
        records.append((tri.m1, tri.n2, tri.n3))
    assert digest(records) == (
        "17bac2e571c66122d4de25677db7d34e97f7021a33226e93377e3f0c97cd6bd6"
    )


def test_golden_survival_density_hazard():
    """cdf, pdf and hazard bytes hash to a pinned SHA-256.

    Seeded Coxians and hyperexponentials of 1 to 4 phases, capped fast
    phases, a tiny rate and equal rates, each on a grid, unsorted times, a
    scalar, repeated times with 0, and the extreme times 0, 1e-40, 1e40
    and inf (the tiny rate on the finite sets only).
    """
    rng = np.random.default_rng(2121)
    dists = []
    for _ in range(20):
        dists.append(random_coxian_decreasing(rng, max_phases=4))
        dists.append(random_hyperexp(rng, max_branches=4))
    dists += [
        cf.CoxianDistribution((1e35, 1.0), (0.5, 0.0)),
        cf.CoxianDistribution((1.0, 1e300, 2.0), (0.5, 0.5, 0.0)),
        cf.HyperExponential((0.5, 0.5), (1e300, 1.0)),
        cf.CoxianDistribution((1.5, 1.5, 1.5), (0.4, 0.6, 0.0)),
    ]
    finite = [
        np.linspace(0.0, 10.0, 101),
        rng.uniform(0.0, 8.0, size=37),
        2.5,
        np.array([1.0, 0.0, 0.5, 1.0, 0.0, 3.0, 0.5]),
    ]
    extreme = np.array([0.0, 1e-40, 1e40, np.inf])
    tiny = cf.HyperExponential((0.5, 0.5), (1e300, 1e-300))
    cases = [(d, ts) for d in dists for ts in finite + [extreme]]
    cases += [(tiny, ts) for ts in finite]
    h = hashlib.sha256()
    for dist, ts in cases:
        for f in (cf.cdf, cf.pdf, cf.hazard):
            h.update(np.asarray(f(dist, ts), dtype=float).tobytes())
    assert h.hexdigest() == (
        "9317dafc722502ae07d4db48921245bc255f9c4c89eadcb2b42f8b16fa35df89"
    )
