"""State space and comparison order.

The DP decision is checked against exhaustive enumeration of level
sequences evaluated through the definitional functional, which uses a
different summation route than the DP (``cli._leq_enumerate``, the oracle
of ``verify order-oracle``).
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coxfield as cf
from coxfield.cli import SchemaError, _leq_enumerate, state_from_dict, state_to_dict
from coxfield.order import (
    ORDER_TOL, _as_h, _cell_diffs, _leq_arrays, _phase_diffs, _slacks, _tail_sums,
)


def random_pair(rng, B, n, recipe):
    if recipe == 0:
        lo = cf.random_state(B, n, rng)
        return lo, cf.upper_envelope(lo, cf.random_state(B, n, rng))
    if recipe == 1:
        hi = cf.random_state(B, n, rng)
        lo = _as_h(hi) * rng.uniform(0.0, 1.0)
        if rng.random() < 0.5:
            lo = lo.copy()
            lo[rng.integers(B), rng.integers(n)] += rng.uniform(0.0, 0.3)
            lo = np.minimum(lo, 1.0)
        return lo, hi
    return cf.random_state(B, n, rng), cf.random_state(B, n, rng)


# ---------------------------------------------------------------------------
# state space


def test_random_states_are_valid(rng):
    for _ in range(100):
        B, n = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        state = cf.random_state(B, n, rng)
        report = cf.state_space_report(state)
        assert report.ok, report.violations


def test_violations_are_named():
    bad = np.array([[0.9, 0.95], [0.2, 0.1]])  # phase increase at level 1
    report = cf.state_space_report(bad)
    assert not report.ok
    assert any("phase monotonicity at (1, 1)" in v for v in report.violations)

    bad = np.array([[0.5, 0.2], [0.9, 0.3]])  # level increase
    report = cf.state_space_report(bad)
    assert any("level monotonicity" in v for v in report.violations)

    bad = np.array([[1.4, 0.2], [0.2, 0.1]])
    assert any("range" in v for v in cf.state_space_report(bad).violations)

    # h_{1,1}+h_{2,2} < h_{2,1}+h_{1,2}: negative cell mass
    bad = np.array([[0.9, 0.85], [0.8, 0.5]])
    report = cf.state_space_report(bad)
    assert any("supermodularity at (1, 1)" in v for v in report.violations)


@pytest.mark.parametrize("B, n", [(1, 1), (1, 4), (6, 1), (40, 4)])
def test_violations_match_a_per_family_reference(B, n, rng):
    """Violations list each family's failed cells in row-major order.

    The reference takes one ``np.argwhere`` per family mask; the states
    fail several families at once, and most hold a non-finite cell.
    """
    for k in range(30):
        h = cf.random_state(B, n, rng).h
        for _ in range(int(rng.integers(1, 4))):
            h[rng.integers(B), rng.integers(n)] += rng.choice([0.3, -0.2, 0.8])
        if k % 4:
            h[rng.integers(B), rng.integers(n)] = (np.nan, np.inf, -np.inf)[k % 4 - 1]
        for tol in (0.0, 1e-12, 0.1):
            with np.errstate(invalid="ignore"):
                report = cf.state_space_report(h, tol)
                masks = [("non-finite", ~np.isfinite(h))]
                masks += [(name, slack < -tol) for name, slack in _slacks(h)]
            want = tuple(f"{name} at ({l + 1}, {i + 1})"
                         for name, bad in masks for l, i in np.argwhere(bad))
            assert report.violations == want
            assert report.ok == (want == ())


def test_occupancy_round_trip(rng):
    # the cells are the occupancy: nonnegative, summing to h_{1,1}, and
    # their tail sums give the state back
    for _ in range(50):
        B, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        h = cf.random_state(B, n, rng).h
        x = _cell_diffs(_phase_diffs(h))
        assert x.min() >= 0
        assert x.sum() == pytest.approx(h[0, 0], abs=1e-12)
        assert np.abs(_tail_sums(x) - h).max() < 1e-12


def test_extreme_states():
    assert cf.zero_state(3, 2).h.sum() == 0
    assert cf.full_state(3, 2).h.min() == 1.0
    assert cf.state_space_report(cf.zero_state(3, 2)).ok
    assert cf.state_space_report(cf.full_state(3, 2)).ok


# ---------------------------------------------------------------------------
# sequence functional


def test_level_phase_mass_validation():
    h = cf.full_state(4, 3)
    with pytest.raises(ValueError):
        cf.level_phase_mass(h, (2, 2))  # constant: first must exceed last
    with pytest.raises(ValueError):
        cf.level_phase_mass(h, (2, 3, 1))  # not nonincreasing
    with pytest.raises(ValueError):
        cf.level_phase_mass(h, (5, 1, 1))  # level out of range
    with pytest.raises(ValueError):
        cf.level_phase_mass(h, (3, 1))  # wrong length


def test_level_phase_mass_is_linear(rng):
    h = cf.random_state(5, 3, rng)
    for seq in ((5, 3, 1), (4, 4, 2), (2, 1, 1)):
        g = cf.level_phase_mass(h, seq)
        assert cf.level_phase_mass(h.h * 0.25, seq) == pytest.approx(0.25 * g)
        assert g >= -1e-12  # nonnegative on the state space


def test_level_phase_mass_telescopes_on_flat_columns(rng):
    # states whose columns agree give g = h at the last level of the sequence
    col = np.sort(rng.uniform(0, 1, size=6))[::-1]
    h = np.repeat(col[:, None], 3, axis=1)
    assert cf.level_phase_mass(h, (5, 3, 2)) == pytest.approx(col[1])


# ---------------------------------------------------------------------------
# order decision


def test_dp_matches_enumeration(rng):
    agree = ordered = 0
    for k in range(400):
        B, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        lo, hi = random_pair(rng, B, n, k % 3)
        got = cf.leq(lo, hi)
        want = _leq_enumerate(lo, hi)
        agree += got == want
        ordered += want
    assert agree == 400
    assert 0 < ordered < 400


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("call", [
    lambda h: cf.leq(h, h),
    lambda h: cf.leq_report(h, h),
    lambda h: cf.state_space_report(h),
])
def test_empty_raw_states_are_rejected(call, shape):
    with pytest.raises(ValueError, match=r"state must be a \(B, n\) array"):
        call(np.zeros(shape))


@pytest.mark.parametrize("h, message", [
    (np.zeros(3), r"state must be a \(B, n\) array"),
    (np.zeros((2, 3, 1)), r"state must be a \(B, n\) array"),
    (np.array([[0.5, np.nan]]), "finite"),
    (np.array([[np.inf]]), "finite"),
])
def test_mean_field_state_rejects_bad_arrays(h, message):
    with pytest.raises(ValueError, match=message):
        cf.MeanFieldState(h)


@pytest.mark.parametrize("call", [cf.leq, cf.leq_report])
def test_order_rejects_mismatched_shapes(call, rng):
    with pytest.raises(ValueError, match="shape mismatch"):
        call(cf.random_state(3, 2, rng), cf.random_state(3, 3, rng))


@pytest.mark.parametrize("call", [
    lambda h, tol: cf.state_space_report(h, tol=tol),
    lambda h, tol: cf.leq(h, h, tol=tol),
    lambda h, tol: cf.leq_report(h, h, tol=tol),
], ids=["state_space_report", "leq", "leq_report"])
def test_nan_tolerance_is_rejected(call, rng):
    # a NaN tolerance failed every comparison: state_space_report returned
    # ok=False with no violation named, and leq called h <= h false
    h = cf.random_state(4, 2, rng)
    with pytest.raises(ValueError, match="tol must be a number, got nan"):
        call(h, math.nan)
    call(h, -1e-3)  # a negative tolerance demands a margin; it is no error


def test_level_phase_mass_needs_a_drop(rng):
    h = cf.random_state(4, 3, rng)
    assert cf.level_phase_mass(h, (3, 2, 2)) >= 0
    for levels in ((2, 2, 2), (1, 1, 1)):
        with pytest.raises(ValueError, match="first level must exceed the last"):
            cf.level_phase_mass(h, levels)


def test_empty_stack_of_states_is_allowed():
    assert _as_h(np.zeros((0, 3, 2)), batch=True).shape == (0, 3, 2)
    with pytest.raises(ValueError, match="stack"):
        _as_h(np.zeros((2, 0, 3)), batch=True)


def test_two_state_example_is_incomparable():
    h = np.array([[1.0, 0.5], [0.5, 0.0]])
    ht = np.array([[1.0, 0.5], [0.5, 0.5]])
    assert (ht >= h).all()
    assert not cf.leq(h, ht)
    report = cf.leq_report(h, ht)
    assert report.componentwise_ok and not report.ok
    assert report.witness == (2, 1)
    assert cf.level_phase_mass(h, (2, 1)) == pytest.approx(1.0)
    assert cf.level_phase_mass(ht, (2, 1)) == pytest.approx(0.5)
    assert report.nonconstant_min_gap == pytest.approx(-0.5)


def test_order_properties(rng):
    for _ in range(20):
        B, n = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        a = cf.random_state(B, n, rng)
        assert cf.leq(a, a)
        assert cf.leq(cf.zero_state(B, n), a)
        assert cf.leq(a, cf.full_state(B, n))
        # transitivity along an envelope chain
        b = cf.upper_envelope(a, cf.random_state(B, n, rng))
        c = cf.upper_envelope(b, cf.random_state(B, n, rng))
        assert cf.leq(a, b) and cf.leq(b, c) and cf.leq(a, c)


def test_mutual_order_forces_equality(rng):
    a = cf.random_state(4, 3, rng)
    b = cf.MeanFieldState(a.h + 5e-10)
    assert cf.leq(a, b) and cf.leq(b, a)  # within tolerance both ways
    assert np.abs(a.h - b.h).max() < 1e-9


def test_witness_reproduces_gap(rng):
    found = 0
    for _ in range(200):
        a = cf.random_state(4, 3, rng)
        b = cf.random_state(4, 3, rng)
        report = cf.leq_report(a, b)
        if report.witness is None:
            continue
        found += 1
        seq = report.witness
        assert len(seq) == 3 and seq[0] > seq[-1]
        assert all(x >= y for x, y in zip(seq, seq[1:]))
        gap = cf.level_phase_mass(b, seq) - cf.level_phase_mass(a, seq)
        assert gap == pytest.approx(report.nonconstant_min_gap, abs=1e-12)
    assert found > 20


def test_degenerate_shapes_have_no_sequences(rng):
    # B=1 or n=1 admits no sequence with first level above the last
    a, b = cf.random_state(1, 3, rng), cf.random_state(1, 3, rng)
    assert cf.leq(a, b) == bool((b.h >= a.h - 1e-9).all())
    a, b = cf.random_state(5, 1, rng), cf.random_state(5, 1, rng)
    assert cf.leq(a, b) == bool((b.h >= a.h - 1e-9).all())
    assert cf.leq_report(a, b).witness is None


def test_single_phase_order_is_componentwise(rng):
    # with n = 1 every level sequence is constant: leq, and the margins of
    # monotonicity_report, are the componentwise check and its smallest gap
    for shift in (0.0, 0.5e-9, 2e-9, 1e-3):
        for _ in range(20):
            a = cf.random_state(5, 1, rng)
            b = cf.MeanFieldState(np.clip(a.h + rng.uniform(-shift, 1e-3, (5, 1)), 0, 1))
            assert cf.leq(a, b) == bool((b.h >= a.h - ORDER_TOL).all())
    model = cf.PolicyModel(kind="jsq", lam=0.8, d=2, B=5,
                           service=cf.CoxianDistribution((1.0,), (0.0,)))
    hi = np.stack([cf.random_state(5, 1, rng).h for _ in range(8)])
    lo = 0.5 * hi
    report = cf.monotonicity_report(model, lo, hi, 2.0, samples=5)
    states = cf.integrate(model, np.stack([lo, hi]), 2.0, samples=5).states
    gaps = (states[:, 1] - states[:, 0]).min(axis=(-2, -1)).min(axis=0)
    assert report.ok and report.pair_margins.tobytes() == gaps.tobytes()


def test_single_phase_report_is_componentwise(rng):
    # with n = 1 every level sequence is constant: the report's min_gap is
    # the smallest componentwise gap, leq's DP value, and there is no
    # admissible sequence to bear a witness
    pairs = [(np.array([[0.5], [0.2]]), np.array([[0.7], [0.25]]))]
    for k in range(30):
        a = cf.random_state(5, 1, rng).h
        b = np.clip(a + rng.uniform(-1e-3 * (k % 3), 1e-3, a.shape), 0.0, 1.0)
        pairs.append((a, b))
    for a, b in pairs:
        for tol in (ORDER_TOL, 0.0):
            report = cf.leq_report(a, b, tol)
            ok, comp_ok, dp_min = _leq_arrays(a, b, tol)
            assert report.min_gap == dp_min == np.min(b - a)
            want = bool((b >= a - tol).all())
            assert report.ok == report.componentwise_ok == bool(ok) == bool(comp_ok) == want
            assert report.nonconstant_min_gap == math.inf and report.witness is None
    assert cf.leq_report(*pairs[0]).min_gap == pytest.approx(0.05)


def test_upper_envelope_properties(rng):
    for _ in range(30):
        B, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        a = cf.random_state(B, n, rng)
        b = cf.random_state(B, n, rng)
        env = cf.upper_envelope(a, b)
        assert cf.state_space_report(env).ok
        assert cf.leq(a, env) and cf.leq(b, env)
        again = cf.upper_envelope(env, env)
        assert np.array_equal(again.h, env.h)


def test_upper_envelope_of_a_stack(rng):
    pi = cf.random_state(4, 3, rng)
    stack = np.stack([cf.random_state(4, 3, rng).h for _ in range(6)]).reshape(2, 3, 4, 3)
    envs = cf.upper_envelope(stack, pi)
    assert isinstance(envs, np.ndarray) and envs.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(envs[idx], cf.upper_envelope(stack[idx], pi).h)
    with pytest.raises(ValueError, match="shape"):
        cf.upper_envelope(stack, cf.random_state(5, 3, rng))


@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_scaling_preserves_order(u, v):
    rng = np.random.default_rng(1234)
    h = cf.random_state(5, 3, rng).h
    lo, hi = sorted((u, v))
    assert cf.leq(h * lo, h * hi)


# ---------------------------------------------------------------------------
# serialization


def test_state_dict_round_trip(rng):
    state = cf.random_state(4, 2, rng)
    again = state_from_dict(state_to_dict(state))
    assert np.array_equal(again.h, state.h)


def test_state_dict_schema_errors():
    with pytest.raises(SchemaError):
        state_from_dict({"B": 2, "n": 2})
    with pytest.raises(SchemaError):
        state_from_dict({"B": 3, "n": 2, "h": [[0.1, 0.0]]})


# ---------------------------------------------------------------------------
# golden outputs


def dyadic_state(B, n, rng):
    """Valid state with entries in sixteenths, so the DP meets exact ties."""
    raw = rng.multinomial(16, np.full(B * n + 1, 1.0 / (B * n + 1))) / 16.0
    return cf.MeanFieldState(_tail_sums(raw[1:].reshape(B, n)))


def test_golden_order_decisions_and_reports():
    """leq, leq_report and state_space_report hash to a pinned SHA-256."""
    rng = np.random.default_rng(2020)
    pairs = []
    for k in range(600):
        B, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        pairs.append(random_pair(rng, B, n, k % 3))
    for _ in range(200):
        B, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        pairs.append((dyadic_state(B, n, rng), dyadic_state(B, n, rng)))
    for B, n in ((40, 4), (200, 2), (9, 6)):
        pairs += [(cf.random_state(B, n, rng), cf.random_state(B, n, rng)) for _ in range(3)]
    h = hashlib.sha256()
    for k, (lo, hi) in enumerate(pairs):
        tol = (ORDER_TOL, 0.0, 1e-3)[k % 3]
        for a, b in ((lo, hi), (hi, lo)):
            r = cf.leq_report(a, b, tol)
            record = (cf.leq(a, b, tol), r.ok, r.componentwise_ok, float(r.min_gap),
                      float(r.nonconstant_min_gap), r.witness)
            h.update(repr(record).encode())
        probe = np.array(_as_h(hi), copy=True)
        B, n = probe.shape
        if k % 5 == 0:  # a non-finite cell must fail the order, not vanish
            bad = probe.copy()
            bad[rng.integers(B), rng.integers(n)] = (np.nan, np.inf, -np.inf)[k % 3]
            with np.errstate(invalid="ignore"):
                r = cf.leq_report(lo, bad, tol)
                record = (cf.leq(lo, bad, tol), r.ok, r.componentwise_ok,
                          float(r.min_gap), float(r.nonconstant_min_gap), r.witness)
            h.update(repr(record).encode())
        if k % 4 == 1:
            probe[rng.integers(B), rng.integers(n)] += 0.3
        elif k % 4 == 2:
            probe[rng.integers(B), rng.integers(n)] -= 0.2
        elif k % 4 == 3 and k % 3 == 0:
            probe[rng.integers(B), rng.integers(n)] = np.nan
        space = cf.state_space_report(probe)
        h.update(repr((space.ok, space.violations)).encode())
    assert h.hexdigest() == (
        "f0b1eb535b5f666acf29751f39cc98094def7591a6207c08d6c58b39d2dd9dae"
    )
