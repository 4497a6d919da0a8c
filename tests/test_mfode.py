"""Mean-field ODE layer.

The main oracle is a scalar-loop transcription of the drift equations,
independent of the vectorized implementation (including a naive divided
difference where the library uses quadrature).  Integration is checked
by Richardson order estimates, the fixed point by its defining property
plus closed-form anchors.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import coxfield as cf
from coxfield.cli import SchemaError, model_from_dict, model_to_dict
from coxfield import mfode
from coxfield.mfode import (
    LYAPUNOV_SAMPLES, _gl_terms, _overflow_terms, _poly, _prime_terms, _slope, drift,
)
from coxfield.order import _as_h, _margins

from samplers import random_coxian_decreasing
from test_acceptance import mcox1_tail, rk4_reference


def naive_phi(x, K, d):
    return sum(
        (K - s) * math.comb(d, s) * x ** (d - s) * (1 - x) ** s for s in range(K)
    )


def naive_phi_prime(x, K, d):
    return sum(
        d * math.comb(d - 1, s) * x ** (d - 1 - s) * (1 - x) ** s for s in range(K)
    )


def naive_slope(a, b, K, d):
    if abs(a - b) < 1e-9:
        return naive_phi_prime(0.5 * (a + b), K, d)
    return (naive_phi(a, K, d) - naive_phi(b, K, d)) / (a - b)


def naive_drift(model, h):
    """Direct triple-loop transcription of the drift equations."""
    B, n = h.shape
    lam = model.lam
    mu = model.service.rates
    p = model.service.continuations
    nu = [mu[i] * (1 - p[i]) for i in range(n)]

    def H(l, i):
        # boundary conventions: full at level 0, empty past B or phase n
        if i > n:
            return 0.0
        if l == 0:
            return 1.0 if i == 1 else None
        if l > B:
            return 0.0
        return h[l - 1, i - 1]

    def f(l, i):
        if model.kind == "jsq":
            d = model.d
            if i == 1:
                return lam * (H(l - 1, 1) ** d - H(l, 1) ** d)
            if l == 1:
                return 0.0
            slope = sum(
                H(l - 1, 1) ** j * H(l, 1) ** (d - 1 - j) for j in range(d)
            )
            return lam * slope * (H(l - 1, i) - H(l, i))
        if model.kind == "batchjsq":
            K, d = model.K, model.d
            if i == 1:
                return lam * (naive_phi(H(l - 1, 1), K, d) - naive_phi(H(l, 1), K, d))
            if l == 1:
                return 0.0
            slope = naive_slope(H(l - 1, 1), H(l, 1), K, d)
            return lam * slope * (H(l - 1, i) - H(l, i))
        pull = model.r * (1.0 - H(1, 1))
        if i == 1:
            base = lam * (H(l - 1, 1) - H(l, 1))
            if l == 1:
                return base + pull * H(2, 1)
            return base - pull * (H(l, 1) - H(l + 1, 1))
        if l == 1:
            return 0.0
        return lam * (H(l - 1, i) - H(l, i)) - pull * (H(l, i) - H(l + 1, i))

    out = np.zeros_like(h)
    for l in range(1, B + 1):
        for i in range(1, n + 1):
            if i == 1:
                svc = -sum(
                    nu[j - 1]
                    * ((H(l, j) - H(l, j + 1)) - (H(l + 1, j) - H(l + 1, j + 1)))
                    for j in range(1, n + 1)
                )
            else:
                svc = p[i - 2] * mu[i - 2] * (H(l, i - 1) - H(l, i)) - sum(
                    nu[j - 1] * (H(l, j) - H(l, j + 1)) for j in range(i, n + 1)
                )
            out[l - 1, i - 1] = f(l, i) + svc
    return out


def models_for(service, B):
    return [
        cf.PolicyModel(kind="jsq", lam=0.7, service=service, B=B, d=2),
        cf.PolicyModel(kind="jsq", lam=0.6, service=service, B=B, d=3),
        cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=service, B=B),
        cf.PolicyModel(kind="pullpush", lam=0.6, r=0.0, service=service, B=B),
        cf.PolicyModel(kind="batchjsq", lam=0.3, service=service, B=B, d=3, K=2),
        cf.PolicyModel(kind="batchjsq", lam=0.2, service=service, B=B, d=4, K=4),
    ]


# ---------------------------------------------------------------------------
# drift


def test_drift_matches_naive_loops(rng, balanced_service):
    for model in models_for(balanced_service, B=6):
        for _ in range(20):
            h = cf.random_state(6, 2, rng).h
            got = drift(model, h)
            want = naive_drift(model, h)
            assert np.abs(got - want).max() < 1e-12, model.kind


def test_drift_matches_naive_loops_more_phases(rng):
    service = random_coxian_decreasing(
        np.random.default_rng(2), max_phases=4, max_unit_rate=30.0
    )
    for model in models_for(service, B=5):
        for _ in range(10):
            h = cf.random_state(5, service.n, rng).h
            assert np.abs(drift(model, h) - naive_drift(model, h)).max() < 1e-12


def test_first_phase_drift_sums_telescope(rng, balanced_service):
    # over the levels the service part of column 1 sums to minus the
    # completions at level 1, nu . (h_{1,j} - h_{1,j+1}), and the arrivals
    # telescope to the closed forms
    nu = np.asarray(balanced_service.completion_rates)
    for model in models_for(balanced_service, B=7):
        h = cf.random_state(7, 2, rng).h
        arrivals = drift(model, h)[:, 0].sum() + nu @ (h[0] - np.append(h[0, 1:], 0.0))
        hB = h[-1, 0]
        if model.kind == "jsq":
            want = model.lam * (1 - hB**model.d)
        elif model.kind == "pullpush":
            want = model.lam * (1 - hB)
        else:
            want = model.lam * (model.K - naive_phi(hB, model.K, model.d))
        assert arrivals == pytest.approx(want, abs=1e-13)


def test_jsq_and_local_arrivals_are_single_job_batches(rng):
    service = random_coxian_decreasing(np.random.default_rng(2), max_phases=3)
    states = np.stack([cf.random_state(6, service.n, rng).h for _ in range(4)])
    for d in (1, 2, 3, 5):
        jsq = cf.PolicyModel(kind="jsq", lam=0.6, service=service, B=6, d=d)
        batch = cf.PolicyModel(kind="batchjsq", lam=0.6, service=service, B=6, d=d, K=1)
        assert np.array_equal(drift(jsq, states), drift(batch, states))
    jsq = cf.PolicyModel(kind="jsq", lam=0.6, service=service, B=6, d=1)
    local = cf.PolicyModel(kind="pullpush", lam=0.6, service=service, B=6, r=0.0)
    assert np.array_equal(drift(jsq, states), drift(local, states))


def test_drift_vanishes_on_empty_and_conserves_mass(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=5, d=2)
    empty = np.zeros((5, 2))
    f = drift(model, empty)
    assert f[0, 0] == pytest.approx(model.lam)
    assert np.abs(f[1:, :]).max() == 0.0 and f[0, 1] == 0.0


def test_batch_overflow_calculus(rng):
    # the kernels the drift runs: F and F' by their terms, and the divided
    # difference of F by the Gauss-Legendre rule (lam = 1)
    for d in (1, 2, 3, 5, 8):
        for K in range(1, d + 1):
            phi, prime = _overflow_terms(K, d), _prime_terms(K, d)
            rule = _gl_terms(K, d, 1.0)
            assert _poly(1.0, phi) == pytest.approx(K)
            assert _poly(1.0, prime) == pytest.approx(d)
            xs = rng.uniform(0, 1, size=7)
            if K == 1:
                assert np.array_equal(_poly(xs, phi), xs**d)
            if K == d:
                assert _poly(xs, phi) == pytest.approx(d * xs)
            # derivative by central differences
            eps = 1e-6
            fd = (
                _poly(xs * (1 - eps) + eps * 0.5 + eps, phi)
                - _poly(xs * (1 - eps) + eps * 0.5 - eps, phi)
            ) / (2 * eps)
            mid = xs * (1 - eps) + eps * 0.5
            assert _poly(mid, prime) == pytest.approx(fd, abs=1e-6)
            # slope: exact quadrature equals the naive quotient
            a, b = rng.uniform(0, 1, size=2)
            assert _slope(a, b - a, rule) == pytest.approx(
                naive_slope(a, b, K, d), abs=1e-12
            )
            assert _slope(a, 0.0, rule) == pytest.approx(_poly(a, prime))


# ---------------------------------------------------------------------------
# model construction


def test_model_validation(balanced_service):
    with pytest.raises(ValueError, match="kind"):
        cf.PolicyModel(kind="lwl", lam=0.5, service=balanced_service, d=2)
    with pytest.raises(ValueError):
        cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service)  # no d
    with pytest.raises(ValueError):
        cf.PolicyModel(
            kind="batchjsq", lam=0.2, service=balanced_service, d=2, K=3
        )
    with pytest.raises(ValueError, match="unit mean"):
        bad = cf.CoxianDistribution((2.0,), (0.0,))
        cf.PolicyModel(kind="jsq", lam=0.5, service=bad, d=2)
    with pytest.raises(ValueError, match="completion rates"):
        # unit mean but nu = (0.2, 1.8) increasing
        increasing = cf.CoxianDistribution((2.0, 1.8), (0.9, 0.0))
        cf.PolicyModel(kind="jsq", lam=0.5, service=increasing, d=2)
    for r in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="probe rate"):
            cf.PolicyModel(kind="pullpush", lam=0.5, service=balanced_service, r=r)


@pytest.mark.parametrize("field, value", [
    ("B", math.inf), ("B", math.nan), ("B", 2.5), ("B", 0), ("B", "3"),
    ("d", math.inf), ("d", math.nan), ("d", 1.5), ("K", math.inf), ("K", math.nan),
    ("K", 0),
])
def test_model_integer_fields_are_checked(field, value, balanced_service):
    fields = dict(kind="batchjsq", lam=0.3, service=balanced_service, B=5, d=3, K=2)
    with pytest.raises(ValueError, match=f"integer {field} "):
        cf.PolicyModel(**dict(fields, **{field: value}))


def test_model_integer_fields_are_stored_as_ints(balanced_service):
    model = cf.PolicyModel(kind="batchjsq", lam=0.3, service=balanced_service,
                           B=5.0, d=np.int64(3), K=2.0)
    assert (model.B, model.d, model.K) == (5, 3, 2)
    assert all(type(v) is int for v in (model.B, model.d, model.K))
    assert cf.fixed_point(model).pi.B == 5


def test_model_converts_a_hyperexponential_service(balanced_service):
    hyper = cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=hyper, B=3, d=2)
    assert model.service == balanced_service
    assert model == cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service, B=3, d=2)
    assert cf.fixed_point(model).residual <= 1e-12
    mixture = cf.coxian_to_mixture(balanced_service)
    for service in (mixture, (1.0,), None):
        with pytest.raises(TypeError, match="CoxianDistribution or a HyperExponential, "
                           f"got {type(service).__name__}"):
            cf.PolicyModel(kind="jsq", lam=0.5, service=service, B=3, d=2)


def test_model_from_dict_numbers(balanced_service):
    base = model_to_dict(
        cf.PolicyModel(kind="batchjsq", lam=0.3, service=balanced_service, B=9, d=3, K=2)
    )
    model = model_from_dict(dict(base, B=9.0, d=3.0, K=2.0))
    assert (model.B, model.d, model.K) == (9, 3, 2)
    assert all(type(v) is int for v in (model.B, model.d, model.K))
    for key, value in (("B", 2.5), ("d", 2.5), ("K", 1.5), ("d", "3"), ("K", True),
                       ("B", math.inf), ("d", math.nan), ("lambda", "0.3"),
                       ("lambda", None), ("r", "1")):
        with pytest.raises(SchemaError):
            model_from_dict(dict(base, **{key: value}))


def test_model_warns_when_unstable(balanced_service):
    with pytest.warns(UserWarning, match="unstable"):
        cf.PolicyModel(kind="jsq", lam=1.1, service=balanced_service, B=4, d=2)
    with pytest.warns(UserWarning, match="unstable"):
        cf.PolicyModel(
            kind="batchjsq", lam=0.6, service=balanced_service, B=4, d=2, K=2
        )
    with pytest.warns(UserWarning, match="unstable"):
        cf.PolicyModel(kind="pullpush", lam=1.0, service=balanced_service, B=4, r=1.0)


def test_instability_warns_once_at_the_caller(balanced_service):
    # the warning used to point at the dataclass __init__, and with_buffer
    # re-ran every check of the model, warning a second time
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = cf.PolicyModel(kind="jsq", lam=1.2, service=balanced_service, d=2)
        assert model.with_buffer(12)._terms is model._terms
    assert [(w.filename, str(w.message)) for w in caught] == [
        (__file__, "jsq with load 1.2 is unstable")
    ]
    assert model.with_buffer(12.0).B == 12 and model.B is None
    with pytest.raises(ValueError, match="integer B >= 1"):
        model.with_buffer(2.5)


def test_model_dict_round_trip(balanced_service):
    model = cf.PolicyModel(
        kind="batchjsq", lam=0.3, service=balanced_service, B=9, d=3, K=2
    )
    again = model_from_dict(model_to_dict(model))
    assert again == model
    # hyperexp service converts on load
    data = model_to_dict(model)
    data["service"] = {
        "kind": "hyperexp",
        "weights": [0.5, 0.5],
        "rates": [2.0, 2.0 / 3.0],
    }
    assert model_from_dict(data).service == balanced_service
    with pytest.raises(SchemaError):
        model_from_dict({"policy": "jsq", "lambda": 0.5})


# ---------------------------------------------------------------------------
# integration


def test_integration_is_fourth_order(balanced_service):
    # the RK4 reference the other integration tests compare against
    model = cf.PolicyModel(kind="jsq", lam=0.8, service=balanced_service, B=6, d=2)
    h0 = np.zeros((6, 2))
    base = cf.step_bound(model) / 2
    ref = rk4_reference(model, h0, (0.0, 2.0), base / 8)[-1]
    errs = []
    for dt in (base, base / 2):
        end = rk4_reference(model, h0, (0.0, 2.0), dt)[-1]
        errs.append(np.abs(end - ref).max())
    rate = errs[0] / errs[1]
    assert 11 < rate < 21  # fourth order: factor 16


def test_trajectory_shape_and_t0(balanced_service, rng):
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=balanced_service, B=5)
    h0 = cf.random_state(5, 2, rng)
    traj = cf.integrate(model, h0, 3.0, samples=6)
    assert traj.times.shape == (7,)
    assert traj.states.shape == (7, 5, 2)
    assert np.array_equal(traj.states[0], h0.h)
    single = cf.integrate(model, h0, 0.0)
    assert single.times.shape == (1,) and np.array_equal(single.final, h0.h)


def test_integrate_rejects_invalid_stack_member(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    stack = np.stack([cf.random_state(4, 2, rng).h for _ in range(6)]).reshape(2, 3, 4, 2)
    cf.integrate(model, stack, 0.5, samples=1)
    stack[1, 2, 3, 0] = 0.9  # above level 3
    with pytest.raises(cf.IntegrationError, match="level monotonicity at \\(3, 1\\)"):
        cf.integrate(model, stack, 0.5, samples=1)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_state_is_invalid(balanced_service, entry):
    # a NaN used to pass every check: the report said ok, and integrate
    # failed only once its step shrank
    h = cf.random_state(4, 2, np.random.default_rng(0)).h
    h[1, 0] = entry
    report = cf.state_space_report(h)
    assert not report.ok and report.violations[0] == "non-finite at (2, 1)"
    assert not cf.state_space_report(h, tol=1.0).ok
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    with pytest.raises(cf.IntegrationError, match="start 1 .*non-finite at \\(2, 1\\)"):
        cf.integrate(model, np.stack([np.zeros((4, 2)), h]), 1.0, samples=1)


def test_integrate_rejects_bad_horizon_and_samples(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    for T in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            cf.integrate(model, np.zeros((4, 2)), T)
    for T in (1e300, 1.01 * mfode.MAX_HORIZON / model.rate_bound):
        with pytest.raises(ValueError, match="horizon .* event-rate units, above 1e\\+07"):
            cf.integrate(model, np.zeros((4, 2)), T)
    for samples in (0, -2):
        with pytest.raises(ValueError, match="at least one sample"):
            cf.integrate(model, np.zeros((4, 2)), 1.0, samples=samples)
    for samples in (1.5, math.nan, math.inf, None, "3"):
        with pytest.raises(ValueError, match="integer samples >= 1"):
            cf.integrate(model, np.zeros((4, 2)), 1.0, samples=samples)
    assert len(cf.integrate(model, np.zeros((4, 2)), 1.0, samples=2.0).times) == 3
    # linspace(0, 5e-324, 4) is (0, 0, 5e-324, 5e-324)
    with pytest.raises(ValueError, match="no 3 distinct sample times"):
        cf.integrate(model, np.zeros((4, 2)), 5e-324, samples=3)
    assert cf.integrate(model, np.zeros((4, 2)), 5e-324, samples=1).times[1] > 0


def test_integrate_caps_samples_before_allocating(balanced_service):
    # every sample ends a step, so samples are capped beside the horizon;
    # 10**12 samples would be 8 TB of sample times
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    lo = cf.zero_state(25, 2).h
    tracemalloc.start()
    try:
        for samples in (10**12, mfode.MAX_SAMPLES + 1):
            with pytest.raises(ValueError, match="at most 1000000 samples"):
                cf.integrate(model, lo, 1.0, samples=samples)
        with pytest.raises(ValueError, match="at most 1000000 samples"):
            cf.monotonicity_report(model, lo, lo, 1.0, samples=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_compiled_drift_gets_checked_c_contiguous_states(balanced_service, monkeypatch):
    # integrate checks a stack once and its trials call the compiled drift
    # directly: every state reaching it is C-contiguous float64 of the
    # model's (B, n), and each call is one counted drift call
    seen = []
    call = mfode._DriftTerms.__call__
    monkeypatch.setattr(
        mfode._DriftTerms, "__call__",
        lambda terms, h: seen.append((h.flags.c_contiguous, h.dtype, h.shape[-2:]))
        or call(terms, h),
    )
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    rng = np.random.default_rng(21)
    hi = np.stack([cf.random_state(25, 2, rng).h for _ in range(8)])
    wide = np.zeros((8, 25, 4))
    wide[:, :, 1:3] = hi
    starts = (cf.zero_state(25, 2), np.stack([0.5 * hi, hi]),
              np.asfortranarray(hi), wide[:, :, 1:3], hi.tolist())
    for h0 in starts:
        seen.clear()
        stats = cf.integrate(model, h0, 20.0, samples=10).stats
        assert len(seen) == stats.drift_calls
        assert set(seen) == {(True, np.dtype(float), (25, 2))}
        rounds = (stats.drift_calls - 1) // 12
        members = math.prod(np.shape(h0)[:-2])
        steps = stats.accepted_steps + stats.rejected_steps
        # with several members some rounds stepped only part of the stack
        assert steps == rounds if members == 1 else rounds < steps < members * rounds


def test_trajectory_derivative_matches_drift(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    h = cf.random_state(5, 2, rng).h
    dt = 1e-4
    fwd = rk4_reference(model, h, (0.0, dt), dt)[-1]
    bwd = rk4_reference(model, h, (0.0, -dt), dt)[-1]
    fd = (fwd - bwd) / (2 * dt)
    assert np.abs(fd - drift(model, h)).max() < 1e-7


def test_states_stay_valid_along_flow(balanced_service, rng):
    model = cf.PolicyModel(kind="batchjsq", lam=0.3, service=balanced_service, B=6, d=3, K=2)
    traj = cf.integrate(model, cf.random_state(6, 2, rng), 10.0, samples=20)
    for state in traj.states:
        assert cf.state_space_report(state, tol=1e-8).ok


def test_adaptive_matches_fine_rk4(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=8, d=2)
    h0 = cf.zero_state(8, 2)
    traj = cf.integrate(model, h0, 30.0, samples=30)
    assert np.array_equal(traj.times, np.linspace(0.0, 30.0, 31))
    ref = rk4_reference(model, h0, traj.times, cf.step_bound(model) / 16)
    assert np.abs(traj.states - ref).max() <= 1e-10
    # fewer than a third of the drift calls of RK4 at its old default step
    rk4_calls = 4 * math.ceil(30.0 / (cf.step_bound(model) / 2))
    assert traj.stats.drift_calls < rk4_calls / 3


def test_integrate_stats_count_steps(balanced_service, rng):
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=balanced_service, B=5)
    traj = cf.integrate(model, cf.random_state(5, 2, rng), 8.0, samples=4)
    stats = traj.stats
    assert stats.accepted_steps >= 4 and stats.invalid_steps <= stats.rejected_steps
    assert stats.drift_calls == 1 + 12 * (stats.accepted_steps + stats.rejected_steps)
    # the samples are accepted states; the steps between them count too
    assert -1e-8 <= stats.min_margin <= min(float(_margins(s)) for s in traj.states)
    assert stats.wall_s > 0


def test_transient_from_empty_takes_few_steps(balanced_service):
    # the meanfield benchmark's trajectory; a fifth-order pair took 594
    # accepted steps and 3,583 drift calls at the same tolerance
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    stats = cf.integrate(model, cf.zero_state(25, 2), 100.0, samples=50).stats
    assert stats.accepted_steps <= 250
    assert stats.drift_calls <= 2600


def test_dop853_tableau_order_conditions():
    # pinned in pure Python on the tableau the integrator uses, against the
    # nodes of Hairer's dop853, so that a change of the source is noticed
    nodes = (0.0, 0.526001519587677318785587544488e-1,
             0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
             0.281649658092772603273242802490, 1 / 3, 0.25, 4 / 13,
             0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
             1.0)
    rows = mfode._DOP_A
    assert len(rows) == 11 and [len(row) for row in rows] == list(range(1, 12))
    for row, c in zip(rows, nodes[1:]):
        assert math.fsum(row) == pytest.approx(c, abs=1e-14)
    b = mfode._DOP_B
    assert len(b) == 12
    for k in range(8):
        assert math.fsum(w * c**k for w, c in zip(b, nodes)) == pytest.approx(
            1 / (k + 1), abs=1e-14)
    for e in (mfode._DOP_E5, mfode._DOP_E3):
        assert len(e) == 13 and e[-1] == 0.0
        assert abs(math.fsum(e)) <= 1e-14


def test_dop853_tableau_is_scipys_bit_for_bit():
    # the literals are scipy's doubles, so the flow keeps its bytes
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    rows = dop.A[1 : dop.N_STAGES]
    assert len(mfode._DOP_A) == len(rows)
    assert all(np.array_equal(mine, row[:i])
               for i, (mine, row) in enumerate(zip(mfode._DOP_A, rows), 1))
    for mine, theirs in ((mfode._DOP_B, dop.B), (mfode._DOP_E5, dop.E5),
                         (mfode._DOP_E3, dop.E3)):
        assert np.array_equal(mine, theirs)


POLICY_SPECS = {
    "jsq": dict(kind="jsq", lam=0.9, d=2),
    "pullpush": dict(kind="pullpush", lam=0.5, r=1.0),
    "batchjsq": dict(kind="batchjsq", lam=0.3, d=3, K=2),
}


@pytest.mark.parametrize("policy", sorted(POLICY_SPECS))
def test_stack_member_matches_its_solo_run(policy, balanced_service, rng):
    # a member's steps are its own: far-away partners and the stack size
    # leave its bytes unchanged
    model = cf.PolicyModel(service=balanced_service, B=6, **POLICY_SPECS[policy])
    empty, full = np.zeros((6, 2)), np.ones((6, 2))
    solo = cf.integrate(model, empty, 20.0, samples=10)
    pair = cf.integrate(model, np.stack([empty, full]), 20.0, samples=10)
    trio = cf.integrate(model, np.stack([full, cf.random_state(6, 2, rng).h, empty]),
                        20.0, samples=10)
    assert solo.states.tobytes() == pair.states[:, 0].tobytes()
    assert solo.states.tobytes() == trio.states[:, 2].tobytes()
    assert pair.states[:, 1].tobytes() == trio.states[:, 0].tobytes()
    assert pair.stats.accepted_steps > solo.stats.accepted_steps


def test_one_float_state_matches_its_stack():
    # with B = n = 1 a stage sum of one start has a single entry, and it
    # must still be added up as in a stack
    exp = cf.CoxianDistribution((1.0,), (0.0,))
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=exp, B=1, d=2)
    starts = np.array([[[0.0]], [[1.0]], [[0.3]]])
    stack = cf.integrate(model, starts, 5.0, samples=5).states
    for k, start in enumerate(starts):
        solo = cf.integrate(model, start, 5.0, samples=5).states
        assert solo.tobytes() == stack[:, k].tobytes()


@pytest.mark.parametrize("policy", sorted(POLICY_SPECS))
def test_drift_of_stack_member_matches_its_solo_drift(policy):
    service = random_coxian_decreasing(np.random.default_rng(2), max_phases=3)
    model = cf.PolicyModel(service=service, B=9, **POLICY_SPECS[policy])
    rng = np.random.default_rng(8)
    states = np.stack([cf.random_state(9, service.n, rng).h for _ in range(50)])
    solo = [drift(model, h).tobytes() for h in states]
    for M in (1, 2, 3, 16, 50):
        stack = drift(model, states[:M])
        assert [f.tobytes() for f in stack] == solo[:M], M
    # every other state of a wider array, in Fortran order, and as lists
    wide = np.zeros((100, 9, service.n + 2))
    wide[::2, :, 1:-1] = states
    view = wide[::2, :, 1:-1]
    assert not view.flags.c_contiguous
    contiguous = drift(model, states).tobytes()
    assert drift(model, view).tobytes() == contiguous
    assert drift(model, np.asfortranarray(states)).tobytes() == contiguous
    assert drift(model, states.tolist()).tobytes() == contiguous


def test_integration_from_fixed_point_takes_few_steps(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=10, d=2)
    pi = cf.fixed_point(model).pi
    traj = cf.integrate(model, pi, 5.0, samples=1)
    assert np.abs(traj.final - pi.h).max() <= 1e-11
    # the first step is step_bound and each accepted step may grow it 5x
    assert traj.stats.accepted_steps + traj.stats.rejected_steps <= 8


@pytest.mark.parametrize("T", [1e-200, 1e-300])
def test_integrate_tiny_horizon(T, balanced_service):
    # on so short a step both error estimates square to 0; the norm is 0
    # there, not 0 / 0, so the step is taken
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    for start in (cf.zero_state(25, 2), cf.full_state(25, 2)):
        traj = cf.integrate(model, start, T, samples=1)
        assert np.abs(traj.final - start.h).max() <= 1e-199


def test_integrate_fails_loudly_when_no_step_stays_valid(balanced_service, monkeypatch):
    # with every trial result reported outside the state space the step
    # shrinks to its floor and the integration fails instead of clipping;
    # only the empty start is reported valid, so that it passes the start
    # check, and every trial result from it has arrivals in it
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    monkeypatch.setattr(
        mfode, "_margins", lambda h: np.where((h == 0).all(axis=(-2, -1)), 0.0, -1.0)
    )
    with pytest.raises(cf.IntegrationError, match="step fell below"):
        cf.integrate(model, np.zeros((4, 2)), 1.0, samples=1)


def _near_full(h):
    """The stack members near the full state, the full state itself excluded."""
    return (h[..., -1, 0] > 0.9) & (h != 1.0).any(axis=(-2, -1))


def test_step_floor_names_the_failing_member(balanced_service, monkeypatch):
    # only member 1, from the full state, has its trial results reported
    # outside the state space; its step shrinks to the floor at t = 0 while
    # the empty members beside it step on
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    real = mfode._margins
    monkeypatch.setattr(
        mfode, "_margins", lambda h: np.where(_near_full(h), -1.0, real(h))
    )
    starts = np.stack([np.zeros((4, 2)), np.ones((4, 2)), np.zeros((4, 2))])
    with pytest.raises(cf.IntegrationError, match=r"at t=0 \(start 1\)"):
        cf.integrate(model, starts, 1.0, samples=1)


def test_mixed_outcomes_in_one_round(balanced_service, monkeypatch):
    # the first three trial results near the full state are reported
    # outside the state space, so in the first rounds member 1's trial is
    # invalid while the others' are accepted; each member keeps its solo
    # bytes and the stack's counts add up over its members
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=4, d=2)
    real = mfode._margins
    left = [0]  # invalid trial results still to report

    def margins(h):  # h is a stack, as integrate passes it
        out = real(h)
        for m in np.flatnonzero(_near_full(h)):
            if left[0]:
                left[0] -= 1
                out[m] = -1.0
        return out

    def run(starts):
        left[0] = 3
        return cf.integrate(model, starts, 3.0, samples=1)

    monkeypatch.setattr(mfode, "_margins", margins)
    starts = np.stack([np.zeros((4, 2)), np.ones((4, 2)), 0.5 * np.ones((4, 2))])
    solo = [run(start) for start in starts]
    stack = run(starts)
    for k, run in enumerate(solo):
        assert stack.states[:, k].tobytes() == run.states.tobytes()
    assert solo[1].stats.invalid_steps == 3
    assert all(run.stats.invalid_steps == 0 for run in (solo[0], solo[2]))
    for name in ("accepted_steps", "rejected_steps", "invalid_steps"):
        assert getattr(stack.stats, name) == sum(getattr(r.stats, name) for r in solo)
    # one sample interval: the stack takes as many rounds as its longest member
    steps = [r.stats.accepted_steps + r.stats.rejected_steps for r in solo]
    assert all(r.stats.drift_calls == 1 + 12 * s for r, s in zip(solo, steps))
    assert stack.stats.drift_calls == 1 + 12 * max(steps)
    assert stack.stats.min_margin == min(r.stats.min_margin for r in solo)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_defining_property(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=10, d=2)
    fp = cf.fixed_point(model)
    assert fp.residual <= 1e-12
    assert np.abs(drift(model, fp.pi.h)).max() <= 1e-12
    # constant trajectory
    end = cf.integrate(model, fp.pi, 5.0, samples=1).final
    assert np.abs(end - fp.pi.h).max() < 1e-11
    assert cf.state_space_report(fp.pi).ok


def test_fixed_point_exponential_anchor():
    svc = cf.CoxianDistribution((1.0,), (0.0,))
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=svc, B=14, d=2)
    pi = cf.fixed_point(model).pi.h[:, 0]
    for l in range(1, 11):
        assert pi[l - 1] == pytest.approx(0.9 ** (2**l - 1), abs=1e-11)


def test_fixed_point_auto_buffer(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, d=2)
    fp = cf.fixed_point(model)
    assert fp.pi.h[-1, 0] < 1e-10
    assert fp.residual <= 1e-12


def test_fixed_point_stats_count_drift_calls(balanced_service, monkeypatch):
    # a Jacobian is one batched call of the compiled drift, not of drift()
    calls = []
    call = mfode._DriftTerms.__call__
    monkeypatch.setattr(mfode._DriftTerms, "__call__",
                        lambda terms, h: calls.append(1) or call(terms, h))
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=balanced_service, B=10)
    fp = cf.fixed_point(model)
    stats = fp.stats
    assert stats.drift_calls == len(calls) == 1 + 2 * stats.accepted_steps
    assert stats.accepted_steps == fp.newton_steps == len(fp.history) - 1
    assert stats.rejected_steps == 0 and stats.buffers_tried == 1
    assert stats.wall_s > 0


def test_fixed_point_auto_buffer_doubles(balanced_service):
    # the single-choice queue has a geometric tail: 16 -> 32 -> 64 -> 128
    model = cf.PolicyModel(kind="pullpush", lam=0.7, r=0.0, service=balanced_service)
    fp = cf.fixed_point(model)
    assert fp.B == 128 and fp.stats.buffers_tried == 4
    assert fp.pi.h[-1, 0] < 1e-10
    direct = cf.fixed_point(model.with_buffer(128))
    assert np.abs(fp.pi.h - direct.pi.h).max() <= 1e-12
    assert fp.stats.drift_calls > direct.stats.drift_calls


def test_fixed_point_auto_buffer_runs_out(balanced_service, monkeypatch):
    monkeypatch.setattr(mfode, "_AUTO_BUFFERS", (16, 32))
    model = cf.PolicyModel(kind="pullpush", lam=0.9, r=0.0, service=balanced_service)
    with pytest.raises(cf.FixedPointError, match="tail mass still above 1e-10 at B=32"):
        cf.fixed_point(model)


def test_fixed_point_rejects_invalid_iterates():
    # a stable load with a high-variance service (SCV about 10): from the
    # empty state one continuation step overshoots the state space
    service = cf.hyperexp_to_coxian(cf.HyperExponential((0.95, 0.05), (2.0, 2.0 / 21.0)))
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=service, B=20, d=2)
    fp = cf.fixed_point(model)
    assert fp.stats.rejected_steps >= 1
    assert fp.residual <= 1e-12
    assert np.abs(drift(model, fp.pi.h)).max() <= 1e-12
    assert cf.state_space_report(fp.pi).ok


@pytest.mark.parametrize("lam, B", [(1.2, 20), (3.0, 160)])
def test_fixed_point_overloaded_starts_full(balanced_service, lam, B):
    # from empty the queues would fill like a front, one or two levels a
    # step (B=160 would need about 260); the full state is near the answer
    with pytest.warns(UserWarning, match="unstable"):
        model = cf.PolicyModel(kind="jsq", lam=lam, service=balanced_service, B=B, d=2)
    fp = cf.fixed_point(model)
    assert fp.newton_steps + fp.stats.rejected_steps <= 20
    assert fp.residual <= 1e-12
    assert np.abs(drift(model, fp.pi.h)).max() <= 1e-12
    assert cf.state_space_report(fp.pi).ok


def test_fixed_point_matches_single_queue_ctmc(balanced_service):
    # with r = 0 every server is an independent M/Cox/1/B queue; the
    # polishing Newton step brings pi to rounding level of the direct solve
    model = cf.PolicyModel(kind="pullpush", lam=0.8, r=0.0, service=balanced_service, B=10)
    fp = cf.fixed_point(model)
    queue = mcox1_tail(balanced_service, 0.8, 10)
    assert np.abs(fp.pi.h - queue).max() <= 1e-13


def test_fixed_point_step_limit(balanced_service, monkeypatch):
    monkeypatch.setattr(mfode, "NEWTON_MAX", 1)
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=10, d=2)
    with pytest.raises(cf.FixedPointError, match="no convergence in 1 continuation steps") as info:
        cf.fixed_point(model)
    assert len(info.value.history) >= 1


JACOBIAN_SPECS = [
    dict(kind="jsq", lam=0.9, d=2), dict(kind="jsq", lam=0.6, d=5),
    dict(kind="pullpush", lam=0.5, r=1.0), dict(kind="pullpush", lam=0.8, r=0.0),
    dict(kind="batchjsq", lam=0.3, d=3, K=2), dict(kind="batchjsq", lam=0.2, d=4, K=4),
]


@pytest.mark.parametrize("spec", JACOBIAN_SPECS, ids=lambda spec: str(spec))
def test_jacobian_is_the_dense_complex_step(spec):
    # the coloured probes give, bit for bit, the complex step on every unit
    # move, and both agree with a finite difference to its own error
    rng = np.random.default_rng(19)
    for n in range(1, 5):
        mus = np.array([8.0, 4.0, 2.0, 1.0])[:n]
        weights = np.full(n, 1.0 / n)
        service = cf.HyperExponential(tuple(weights), tuple(mus * (weights / mus).sum()))
        for B in (1, 2, 3, 4, 7, 25):
            model = cf.PolicyModel(service=service, B=B, **spec)
            for _ in range(3):
                h = cf.random_state(B, n, rng).h
                eye = np.eye(B * n).reshape(B * n, B, n)
                dense = model._terms(h + 1e-100j * eye).imag / 1e-100
                dense = dense.reshape(B * n, B * n).T
                jac = mfode._jacobian(model, h)
                assert np.array_equal(jac, dense), (n, B)
                fd = (drift(model, h + 1e-7 * eye) - drift(model, h)) / 1e-7
                assert np.abs(jac - fd.reshape(B * n, B * n).T).max() <= 1e-6, (n, B)


def test_jacobian_takes_at_most_3n_plus_1_probes(balanced_service, monkeypatch):
    sizes = []
    call = mfode._DriftTerms.__call__
    monkeypatch.setattr(mfode._DriftTerms, "__call__",
                        lambda terms, h: sizes.append(h.shape) or call(terms, h))
    for spec, probes in ((JACOBIAN_SPECS[0], 6), (JACOBIAN_SPECS[2], 7)):
        model = cf.PolicyModel(service=balanced_service, B=25, **spec)
        mfode._jacobian(model, cf.zero_state(25, 2).h)
        assert sizes.pop() == (probes, 25, 2)


def test_structure_residual(balanced_service, rng):
    for model in models_for(balanced_service, B=12)[::2]:
        fp = cf.fixed_point(model)
        check = cf.fixed_point_structure_residual(fp.pi, balanced_service)
        assert check.residual <= 1e-11
    # the residual is discriminative: a perturbed state fails
    fp = cf.fixed_point(cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=8, d=2))
    wrong = fp.pi.h.copy()
    wrong[0, 1] += 1e-3
    assert cf.fixed_point_structure_residual(wrong, balanced_service).residual > 1e-4


def hyper_and_pi(balanced_service):
    """The README service as a HyperExponential, and a fixed point it serves."""
    hyper = cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))
    assert cf.hyperexp_to_coxian(hyper) == balanced_service
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=8, d=2)
    return hyper, cf.fixed_point(model).pi


def test_structure_residual_reads_a_hyperexponential(balanced_service):
    # raised AttributeError: a HyperExponential has no n and no generator
    hyper, pi = hyper_and_pi(balanced_service)
    got = cf.fixed_point_structure_residual(pi, hyper)
    assert got == cf.fixed_point_structure_residual(pi, balanced_service)
    assert got.residual <= 1e-11


def test_lyapunov_values_read_a_hyperexponential(balanced_service):
    # raised AttributeError: a HyperExponential has no n
    hyper, pi = hyper_and_pi(balanced_service)
    stack = np.stack([pi.h, cf.zero_state(8, 2).h])
    for h in (pi, stack):
        got = cf.lyapunov_values(h, hyper, L=2)
        want = cf.lyapunov_values(h, balanced_service, L=2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_phase_split_weights_sum_to_mean(rng):
    # beta_j = (prod_{s<j} p_s)/mu_j sums to the mean: 1 after normalizing
    cox = random_coxian_decreasing(rng)
    p = np.asarray(cox.continuations)
    beta = np.concatenate([[1.0], np.cumprod(p[:-1])]) / np.asarray(cox.rates)
    assert beta.sum() == pytest.approx(cf.moments(cox, 1), rel=1e-12)


# ---------------------------------------------------------------------------
# monotonicity / attraction / Lyapunov diagnostics


def test_monotonicity_report_ordered_pair(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=8, d=2)
    lo = cf.random_state(8, 2, rng)
    hi = cf.upper_envelope(lo, cf.random_state(8, 2, rng))
    report = cf.monotonicity_report(model, lo, hi, T=20.0, samples=20)
    assert report.ok and report.min_margin >= -1e-8
    assert report.violation_time is None


def test_monotonicity_report_requires_initial_order(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=6, d=2)
    lo = cf.full_state(6, 2)
    hi = cf.zero_state(6, 2)
    with pytest.raises(ValueError, match="ordered"):
        cf.monotonicity_report(model, lo, hi, T=1.0)


def test_monotonicity_report_rejects_mismatched_shapes(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    with pytest.raises(ValueError, match="shape mismatch"):
        cf.monotonicity_report(model, np.zeros((2, 5, 2)), np.ones((3, 5, 2)), T=1.0)
    for samples in (2.5, math.nan):
        with pytest.raises(ValueError, match="integer samples >= 1"):
            cf.monotonicity_report(model, np.zeros((5, 2)), np.ones((5, 2)), T=1.0,
                                   samples=samples)


def test_states_of_another_shape_are_rejected(balanced_service):
    # each used to run silently on its own shape, or die in matmul
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=10, d=2)
    auto = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, d=2)
    shape = "state shape \\(B, n\\) = \\({}, {}\\) does not match the model's \\({}, 2\\)"
    calls = [
        (lambda: cf.integrate(model, cf.zero_state(4, 2), 1.0), (4, 2, 10)),
        (lambda: cf.integrate(model, cf.zero_state(4, 2), 0.0), (4, 2, 10)),
        (lambda: cf.monotonicity_report(model, np.zeros((2, 3, 2)), np.ones((2, 3, 2)),
                                        1.0), (3, 2, 10)),
        (lambda: cf.lyapunov_report(model, np.zeros((3, 1, 2)), 1.0), (1, 2, 10)),
        (lambda: cf.lyapunov_rates(model, np.zeros((4, 2))), (4, 2, 10)),
        (lambda: drift(model, np.zeros((10, 3))), (10, 3, 10)),
        (lambda: drift(auto, np.zeros((10, 3))), (10, 3, None)),
        (lambda: cf.integrate(auto, np.zeros((6, 1)), 1.0), (6, 1, None)),
    ]
    for call, shapes in calls:
        with pytest.raises(ValueError, match=shape.format(*shapes)):
            call()
    # every other entry that takes a state reads it the same way, against
    # the service's n, the other state's (B, n) or the estimate's
    other = ("shape mismatch: state shape \\(B, n\\) = \\({}, {}\\) "
             "does not match {} \\({}, {}\\)")
    h = np.zeros((10, 2))
    estimate = cf.StationaryEstimate(h, h, 10, 1, h[None], 0.0)
    by_service = ("the service's", (None, 2), (3, 1), (3, 3))
    by_state = ("the other state's", (10, 2), (4, 2), (10, 3))
    calls = [
        (lambda x: cf.fixed_point_structure_residual(x, balanced_service), by_service),
        (lambda x: cf.lyapunov_values(x, balanced_service), by_service),
        (lambda x: cf.lyapunov_values(np.stack([x, x]), balanced_service), by_service),
        (lambda x: cf.leq(h, x), by_state),
        (lambda x: cf.leq_report(h, x), by_state),
        (lambda x: cf.upper_envelope(x, h), by_state),
        (lambda x: cf.upper_envelope(np.stack([x, x]), h), by_state),
        (lambda x: cf.compare_to_fixed_point(estimate, x), ("the estimate's",) + by_state[1:]),
    ]
    for call, (whose, want, *wrong) in calls:
        for B, n in wrong:
            with pytest.raises(ValueError, match=other.format(B, n, whose, *want)):
                call(np.zeros((B, n)))
    # B is free when the model has none
    assert drift(auto, np.zeros((6, 2))).shape == (6, 2)


def test_results_that_hold_arrays_compare_by_identity(balanced_service):
    # == used to compare their arrays and raise, and two equal solves
    # compared unequal through their states, which compare by identity
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    lo, hi = cf.zero_state(5, 2), cf.full_state(5, 2)
    builds = [
        lambda: cf.integrate(model, lo, 1.0),
        lambda: cf.fixed_point(model),
        lambda: cf.lyapunov_report(model, hi.h[None], 1.0),
        lambda: cf.monotonicity_report(model, lo, hi, 1.0),
        lambda: cf.StationaryEstimate(hi.h, lo.h, 10, 1, hi.h[None], 0.0),
    ]
    for build in builds:
        t, t2 = build(), build()
        assert t == t and hash(t) == hash(t)
        assert (t == t2) is False and t != t2


@pytest.mark.parametrize("L", [0, -2, 6, math.nan, math.inf, 2.5, None, "2"])
def test_lyapunov_functionals_reject_levels_out_of_range(L, balanced_service, rng):
    match = "integer L >= 1" if L in (2.5, None, "2") else "need 1 <= L <= B"
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    h = cf.random_state(5, 2, rng)
    with pytest.raises(ValueError, match=match):
        cf.lyapunov_values(h, balanced_service, L=L)
    with pytest.raises(ValueError, match=match):
        cf.lyapunov_rates(model, h, L=L)


@pytest.mark.parametrize("report", ["monotonicity", "lyapunov"])
def test_reports_reject_an_empty_stack(report, balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    none = np.zeros((0, 5, 2))
    calls = {
        "monotonicity": lambda: cf.monotonicity_report(model, none, none, T=1.0),
        "lyapunov": lambda: cf.lyapunov_report(model, none, T=1.0),
    }
    with pytest.raises(ValueError, match="need at least one (pair|start)"):
        calls[report]()


def test_attraction_report(balanced_service, rng):
    # sampled starts, integrated here next to the empty and the full state,
    # end between those two, as pi does, and within the report's gap of pi
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=balanced_service, B=8)
    report = cf.attraction_report(model, T=120.0)
    assert report.ok and report.ordered and 0 < report.gap <= 1e-6
    starts = [cf.random_state(8, 2, rng).h for _ in range(5)]
    extremes = [cf.zero_state(8, 2).h, cf.full_state(8, 2).h]
    *ends, low, high = cf.integrate(model, np.stack(starts + extremes), 120.0,
                                    samples=1).final
    ends, pi = np.stack(ends), cf.fixed_point(model).pi.h
    assert report.gap == (high - low).max()
    for h in (*ends, pi):
        assert (low - 1e-10 <= h).all() and (h <= high + 1e-10).all()
    assert np.abs(ends - pi).max() <= min(report.gap + 1e-10, 1e-6)
    assert np.ptp(ends, axis=0).max() <= 1e-8
    # at a short horizon the two flows are still apart, and still ordered
    short = cf.attraction_report(model, T=5.0)
    assert not short.ok and short.ordered and short.gap > 1e-3
    assert not cf.attraction_report(model, T=120.0, tol=0.5 * report.gap).ok


def test_attraction_report_needs_a_buffer(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, d=2)
    with pytest.raises(ValueError, match="buffer size B"):
        cf.attraction_report(model, T=1.0)


def test_reports_reject_a_nan_tolerance(balanced_service, rng):
    # a NaN tolerance fails every comparison, so each report would fail
    # (or, for monotonicity, call its ordered pair unordered) and name no cause
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    h = cf.random_state(5, 2, rng).h
    for call in (
        lambda tol: cf.monotonicity_report(model, 0.5 * h, h, 1.0, tol=tol),
        lambda tol: cf.lyapunov_report(model, h, 1.0, tol=tol),
        lambda tol: cf.attraction_report(model, 1.0, tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be a number, got nan"):
            call(math.nan)
        call(-1e-3)  # a negative tolerance demands a margin; it is no error


def test_fixed_point_rejects_a_nan_tolerance(balanced_service):
    # a NaN residual_tol is never met, so the solve ran all its steps and
    # then blamed the model; a NaN drift_tol never switched to plain Newton
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=8, d=2)
    for name in ("residual_tol", "drift_tol"):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan"):
            cf.fixed_point(model, **{name: math.nan})


def test_lyapunov_rates_match_finite_differences(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=8, d=2)
    delta = 2e-4
    for _ in range(5):
        h = _as_h(cf.random_state(8, 2, rng))
        _, mid, fwd = rk4_reference(model, h, (0.0, delta, 2 * delta), delta)
        for L in (1, 3):
            z_lo = cf.lyapunov_values(h, balanced_service, L=L)
            z_hi = cf.lyapunov_values(fwd, balanced_service, L=L)
            want = cf.lyapunov_rates(model, mid, L=L)
            got = (np.asarray(z_hi) - np.asarray(z_lo)) / (2 * delta)
            assert got == pytest.approx(want, abs=1e-6)


def test_lyapunov_decreases_above_fixed_point(balanced_service, rng):
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=8, d=2)
    pi = cf.fixed_point(model).pi
    h0 = cf.upper_envelope(cf.random_state(8, 2, rng), pi)
    traj = cf.integrate(model, h0, 15.0, samples=30)
    values = []
    for state in traj.states:
        assert cf.leq(pi, state)
        dz1, dz2 = cf.lyapunov_rates(model, state)
        assert dz1 + dz2 <= 1e-9
        values.append(sum(cf.lyapunov_values(state, balanced_service)))
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_monotonicity_report_per_pair_results():
    # with one phase the order is componentwise; a negative tol demands a
    # gap of at least 0.5, which both pairs lose as they approach pi
    exp = cf.CoxianDistribution((1.0,), (0.0,))
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=exp, B=4, d=2)
    lo = np.stack([np.zeros((4, 1)), np.full((4, 1), 0.45)])
    hi = np.ones((2, 4, 1))
    report = cf.monotonicity_report(model, lo, hi, T=2.0, samples=40, tol=-0.5)
    single = [cf.monotonicity_report(model, a, b, T=2.0, samples=40, tol=-0.5)
              for a, b in zip(lo, hi)]
    assert not report.ok and not any(r.ok for r in single)
    assert report.pair_violation_times.tolist() == [r.violation_time for r in single]
    assert report.pair_margins.tolist() == [r.min_margin for r in single]
    assert single[1].violation_time < single[0].violation_time
    assert report.violation_time == single[1].violation_time
    assert report.violation_pair == 1
    assert report.min_margin == min(r.min_margin for r in single)


def test_monotonicity_report_ordered_stack_has_no_violation_times(balanced_service):
    rng = np.random.default_rng(3)
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    lo = np.stack([cf.random_state(5, 2, rng).h for _ in range(3)])
    hi = np.stack([cf.upper_envelope(a, cf.random_state(5, 2, rng)).h for a in lo])
    report = cf.monotonicity_report(model, lo, hi, T=5.0, samples=5)
    assert report.ok and report.violation_time is None
    assert np.isnan(report.pair_violation_times).all()
    assert report.pair_margins.shape == (3,)
    assert report.min_margin == report.pair_margins.min()


@pytest.mark.parametrize("phases", [1, 2, 4])
def test_lyapunov_functionals_broadcast(phases):
    # a stack gives bit for bit the values of its states taken singly
    mus = np.array([8.0, 4.0, 2.0, 1.0])[:phases]
    weights = np.full(phases, 1.0 / phases)
    service = cf.hyperexp_to_coxian(
        cf.HyperExponential(tuple(weights), tuple(mus * (weights / mus).sum()))
    )
    rng = np.random.default_rng(4)
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=service, B=12, d=2)
    stack = np.stack([cf.random_state(12, phases, rng).h for _ in range(6)])
    stack = stack.reshape(2, 3, 12, phases)
    for L in (1, 4, 12):
        values = cf.lyapunov_values(stack, service, L=L)
        rates = cf.lyapunov_rates(model, stack, L=L)
        for idx in np.ndindex(2, 3):
            one = cf.lyapunov_values(stack[idx], service, L=L)
            assert all(isinstance(v, float) for v in one)
            assert one == tuple(float(v[idx]) for v in values)
            assert cf.lyapunov_rates(model, stack[idx], L=L) == tuple(
                float(r[idx]) for r in rates
            )


def test_lyapunov_report_matches_per_state_check(balanced_service):
    rng = np.random.default_rng(5)
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=6, d=2)
    starts = np.stack([cf.random_state(6, 2, rng).h for _ in range(3)])
    report = cf.lyapunov_report(model, starts, T=3.0)
    assert report.ok and report.passed.all()
    pi = report.fixed_point.pi
    for k, start in enumerate(starts):
        h0 = cf.upper_envelope(start, pi)
        states = cf.integrate(model, h0, 3.0, samples=LYAPUNOV_SAMPLES).states
        # both functionals are linear, so their rate is their value at the drift
        rates = [sum(cf.lyapunov_rates(model, h)) for h in states]
        exact = [sum(cf.lyapunov_values(drift(model, h), balanced_service))
                 for h in states]
        assert report.max_rates[k] == max(rates) <= 1e-9
        gap = max(abs(a - b) for a, b in zip(exact, rates))
        assert report.max_rate_gaps[k] == gap <= 1e-12


@pytest.mark.parametrize("offset", [1e-3, -1e-3])
def test_lyapunov_report_fails_on_offset_rates(offset, balanced_service, monkeypatch):
    # a closed form off by 1e-3 fails the gap check, also where it still
    # says the functionals decrease
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=6, d=2)
    starts = np.stack([cf.random_state(6, 2, np.random.default_rng(5)).h
                       for _ in range(3)])
    rates = cf.lyapunov_rates

    def offset_rates(model, h, L=1):
        dz1, dz2 = rates(model, h, L)
        return dz1 + offset, dz2

    monkeypatch.setattr(mfode, "lyapunov_rates", offset_rates)
    report = cf.lyapunov_report(model, starts, T=3.0)
    assert not report.ok and not report.passed.any()
    assert np.abs(report.max_rate_gaps - 1e-3).max() <= 1e-12
    assert (report.max_rates <= 1e-9).all()


def test_lyapunov_rates_are_the_functionals_of_the_drift(rng):
    # z1 and z2 are linear in h, so their rates are their values at f(h):
    # the closed forms share neither the drift's slope quadrature nor its
    # service operator, and agree with it to rounding for every L
    service = random_coxian_decreasing(
        np.random.default_rng(2), max_phases=4, max_unit_rate=30.0
    )
    for model in models_for(service, B=7):
        states = np.stack([cf.random_state(7, service.n, rng).h for _ in range(200)])
        f = drift(model, states)
        for L in range(1, 8):
            got = np.stack(cf.lyapunov_rates(model, states, L=L))
            want = np.stack(cf.lyapunov_values(f, service, L=L))
            assert np.abs(got - want).max() <= 1e-14, (model.kind, L)


def test_reports_in_chunks_match_one_stack(balanced_service, monkeypatch):
    # a stack too large for STACK_FLOATS runs chunk by chunk, bit for bit;
    # tol=-0.28 demands a gap the pairs lose, the first one in chunk 3
    rng = np.random.default_rng(6)
    model = cf.PolicyModel(kind="jsq", lam=0.75, service=balanced_service, B=5, d=2)
    scales = (0.1, 0.2, 0.05, 0.3, 0.5, 0.0)
    lo = np.stack([s * cf.random_state(5, 2, rng).h for s in scales])
    hi = np.ones_like(lo)
    # both sides, 10 samples + start and the integrator's working states, B n
    pair_floats = 2 * (11 + mfode._WORK_STATES) * 5 * 2
    reports = (
        lambda: cf.monotonicity_report(model, lo.reshape(2, 3, 5, 2),
                                       hi.reshape(2, 3, 5, 2), 2.0, samples=10,
                                       tol=-0.28),
        lambda: cf.lyapunov_report(model, lo, 2.0),
    )
    runs, stacks = [], []
    with monkeypatch.context() as patch:
        patch.setattr(mfode, "integrate", integrate_spy(stacks))
        for floats in (mfode.STACK_FLOATS, 2 * pair_floats):
            patch.setattr(mfode, "STACK_FLOATS", floats)
            for report in reports:
                stacks.append([])
                runs.append(report())
    mono, lyap, mono_chunked, lyap_chunked = runs
    # one stack each, then the 6 pairs (two sides each) in 3 chunks of 2
    # and the 6 Lyapunov starts in chunks of 4 and 2
    assert stacks == [[12], [6], [4] * 3, [4, 2]]
    assert mono.pair_margins.shape == (2, 3)
    assert not mono.ok and mono.violation_pair == 4
    assert np.isfinite(mono.pair_violation_times).sum() == 3
    for field in ("ok", "violation_time", "violation_pair", "min_margin"):
        assert getattr(mono, field) == getattr(mono_chunked, field)
    for field in ("times", "pair_margins", "pair_violation_times"):
        assert getattr(mono, field).tobytes() == getattr(mono_chunked, field).tobytes()
    assert lyap.ok
    for field in ("max_rates", "max_rate_gaps", "passed"):
        assert getattr(lyap, field).tobytes() == getattr(lyap_chunked, field).tobytes()


def integrate_spy(stacks):
    """``integrate`` that appends each call's stack size to stacks[-1]."""
    def integrate(model, h0, *args, **kwargs):
        stacks[-1].append(math.prod(np.shape(h0)[:-2]))
        return cf.integrate(model, h0, *args, **kwargs)
    return integrate


def chunk_peaks(monkeypatch, report, sizes):
    """tracemalloc peak of ``report(size)`` per size, and its integrate stacks."""
    stacks, peaks = [[]], []
    monkeypatch.setattr(mfode, "integrate", integrate_spy(stacks))
    report(1)  # compiles the drift
    for size in sizes:
        stacks.append([])
        tracemalloc.start()
        try:
            report(size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks, stacks[1:]


def test_monotonicity_chunks_do_not_hold_each_other(balanced_service, monkeypatch):
    # a chunk's samples are dropped before the next chunk integrates, so
    # three chunks peak no higher than one
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    pair_floats = 2 * (51 + mfode._WORK_STATES) * 25 * 2
    monkeypatch.setattr(mfode, "STACK_FLOATS", 30 * pair_floats)
    rng = np.random.default_rng(16)
    hi = np.stack([cf.random_state(25, 2, rng).h for _ in range(90)])
    lo = 0.5 * hi
    peaks, stacks = chunk_peaks(
        monkeypatch,
        lambda pairs: cf.monotonicity_report(model, lo[:pairs], hi[:pairs], 0.5),
        (30, 90),
    )
    assert stacks == [[60], [60] * 3]  # both sides of 30 pairs a chunk
    assert peaks[1] <= 1.05 * peaks[0], peaks


# ---------------------------------------------------------------------------
# golden outputs: SHA-256 digests of exact bytes, so that a rewrite of the
# drift, the integrator or the solver keeps every float operation


def test_golden_drift_bytes(balanced_service):
    """Drift on seeded stacks of each policy: one state, M = 1, M = 40 and
    the same 40 in Fortran order, with two- and three-phase services."""
    h = hashlib.sha256()
    three = random_coxian_decreasing(np.random.default_rng(2), max_phases=3)
    for policy in sorted(POLICY_SPECS):
        for service in (balanced_service, three):
            model = cf.PolicyModel(service=service, B=9, **POLICY_SPECS[policy])
            rng = np.random.default_rng(15)
            states = np.stack([cf.random_state(9, service.n, rng).h for _ in range(40)])
            for stack in (states[0], states[:1], states, np.asfortranarray(states)):
                h.update(drift(model, stack).tobytes())
    assert h.hexdigest() == (
        "a0bf6577c3fa96098312471cd53645c40fb9b0976c150784d85b353b4ef08414"
    )


def test_golden_meanfield_trajectory(balanced_service):
    """The meanfield benchmark's transient: jsq, lam = 0.9, B = 25, from empty."""
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    traj = cf.integrate(model, cf.zero_state(25, 2), 100.0, samples=50)
    s = traj.stats
    h = hashlib.sha256(traj.times.tobytes())
    h.update(traj.states.tobytes())
    h.update(repr((s.accepted_steps, s.rejected_steps, s.invalid_steps,
                   s.drift_calls, s.min_margin)).encode())
    assert (s.accepted_steps, s.drift_calls) == (171, 2197)
    assert h.hexdigest() == (
        "489d5e22a43fbdb54e1439874794508e683e3891177c82b4a432d3416f89fbee"
    )


def test_golden_monotonicity_stack(balanced_service):
    """The meanfield benchmark's second transient: 8 ordered pairs as one
    stack, whose members step on their own, and the report's pair margins."""
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=25, d=2)
    rng = np.random.default_rng(20)
    lo = np.stack([cf.random_state(25, 2, rng).h for _ in range(8)])
    hi = np.stack([cf.upper_envelope(a, cf.random_state(25, 2, rng)).h for a in lo])
    traj = cf.integrate(model, np.stack([lo, hi]), 20.0, samples=20)
    s = traj.stats
    # fewer steps than 16 per round: some rounds stepped part of the stack
    rounds = (s.drift_calls - 1) / 12
    assert rounds < s.accepted_steps + s.rejected_steps < 16 * rounds
    report = cf.monotonicity_report(model, lo, hi, 20.0, samples=20)
    assert report.ok
    h = hashlib.sha256(traj.times.tobytes())
    h.update(traj.states.tobytes())
    h.update(repr((s.accepted_steps, s.rejected_steps, s.invalid_steps,
                   s.drift_calls, s.min_margin)).encode())
    h.update(report.pair_margins.tobytes())
    assert h.hexdigest() == (
        "081f261c3c144dbe46ff593e16717c51ccdfbcc29eeff5e9b5b6186ecfefcea8"
    )


#: the benchmark's four models: (spec, exponential service, digest of pi
#: bytes, newton_steps and history)
GOLDEN_FIXED_POINTS = {
    "jsq-0.9": (
        dict(kind="jsq", lam=0.9, B=25, d=2), False,
        "1537c1f47b70ab2c3f8e52d3cef82fde32ba80e465a58b91ee2830b6df4d9437",
    ),
    "pullpush-0.5": (
        dict(kind="pullpush", lam=0.5, B=25, r=1.0), False,
        "2097dcf25f4809cd33ca38191afe5a5f4ed29529c1a09fa40b1cf01c923fe466",
    ),
    "batchjsq-0.3": (
        dict(kind="batchjsq", lam=0.3, B=25, d=3, K=2), False,
        "1a68298a69eaff47a5b4267b87081bdec0b4956e26870f8d95e2f0ba054510d2",
    ),
    "jsq-exp-auto": (
        dict(kind="jsq", lam=0.9, B=None, d=2), True,
        "952653be4827e5762f5828542c9bf11b83af2b542574adc7012dbdea63286b06",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIXED_POINTS))
def test_golden_fixed_point(name, balanced_service):
    spec, exponential, digest = GOLDEN_FIXED_POINTS[name]
    service = cf.CoxianDistribution((1.0,), (0.0,)) if exponential else balanced_service
    fp = cf.fixed_point(cf.PolicyModel(service=service, **spec))
    h = hashlib.sha256(fp.pi.h.tobytes())
    h.update(repr((fp.newton_steps, fp.history)).encode())
    assert h.hexdigest() == digest
