"""End-to-end acceptance gate.

Twelve numbered criteria, each printing one PASS/FAIL line with runtime
against its budget.  Expected values come from closed forms, exact
rational arithmetic, exhaustive enumeration, or an independent CTMC
solve; nothing is read back from the implementation under test.
"""

import math
import time
from fractions import Fraction

import numpy as np

import coxfield as cf
from coxfield.cli import _leq_enumerate
from coxfield.mfode import drift
from coxfield.order import _as_h

from samplers import random_coxian_decreasing, random_hyperexp
import test_dist
import test_order

BUDGETS = {1: 30, 2: 1, 3: 10, 4: 10, 5: 60, 6: 30, 7: 600, 8: 900,
           9: 60, 10: 120, 11: 1200, 12: 300}

SERVICE = cf.hyperexp_to_coxian(cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)))
EXP = cf.CoxianDistribution((1.0,), (0.0,))


def report(capsys, num, ok, detail, t0):
    elapsed = time.perf_counter() - t0
    budget = BUDGETS[num]
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"[AC-{num:02d}] {verdict} ({elapsed:.1f}s / {budget}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"over budget: {elapsed:.1f}s > {budget}s"


def balanced_models(B):
    return {
        "jsq": cf.PolicyModel(kind="jsq", lam=0.75, service=SERVICE, B=B, d=2),
        "pullpush": cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0,
                                   service=SERVICE, B=B),
        "batchjsq": cf.PolicyModel(kind="batchjsq", lam=0.3, service=SERVICE,
                                   B=B, d=3, K=2),
    }


_SOLVED = {}


def solved(label, model):
    if label not in _SOLVED:
        _SOLVED[label] = (model, cf.fixed_point(model))
    return _SOLVED[label][1]


def all_module_fixed_points():
    """Every fixed point this module relies on, solved once."""
    for name, model in balanced_models(25).items():
        yield name, model, solved(name, model)
    heavy = cf.PolicyModel(kind="jsq", lam=0.9, service=SERVICE, B=25, d=2)
    yield "jsq-heavy", heavy, solved("jsq-heavy", heavy)
    expo = cf.PolicyModel(kind="jsq", lam=0.9, service=EXP, B=30, d=2)
    yield "jsq-exponential", expo, solved("jsq-exponential", expo)
    small = balanced_models(10)["jsq"]
    yield "jsq-small", small, solved("jsq-small", small)
    single = cf.PolicyModel(kind="pullpush", lam=0.6, r=0.0, service=SERVICE, B=15)
    yield "pullpush-r0", single, solved("pullpush-r0", single)
    batch1 = cf.PolicyModel(kind="batchjsq", lam=0.6, service=SERVICE, B=15,
                            d=1, K=1)
    yield "batchjsq-11", batch1, solved("batchjsq-11", batch1)


def ordered_pair(rng, B, n, recipe):
    if recipe == 0:
        lo = cf.random_state(B, n, rng)
        return lo.h, cf.upper_envelope(lo, cf.random_state(B, n, rng)).h
    if recipe == 1:
        hi = cf.random_state(B, n, rng).h
        return hi * rng.uniform(0.0, 1.0), hi
    if recipe == 2:
        return np.zeros((B, n)), cf.random_state(B, n, rng).h
    return cf.random_state(B, n, rng).h, np.ones((B, n))


def test_ac01_conversion_fidelity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    grid = np.linspace(0.1, 5.0, 50)
    hypers = [random_hyperexp(rng) for _ in range(10_000)]
    coxes = [cf.hyperexp_to_coxian(h) for h in hypers]
    margin = min(cf.has_decreasing_completion_rates(c).margin for c in coxes)

    def mixture_cdf(h):  # closed form 1 - sum_k w_k exp(-mu_k t)
        return 1.0 - np.exp(-np.outer(grid, h.rates)) @ h.weights

    # the Coxian through the library's evaluator, against the mixture's
    # closed form, so the comparison checks conversion and evaluator together
    gap = max(float(np.abs(cf.cdf(c, grid) - mixture_cdf(h)).max())
              for h, c in zip(hypers, coxes))
    report(capsys, 1, gap <= 1e-10 and margin > 0,
           f"10000 conversions, max CDF gap {gap:.2e}, min margin {margin:.2e}",
           t0)


def test_ac02_signed_mixture_counterexample(capsys):
    t0 = time.perf_counter()
    want = (Fraction(83, 90), Fraction(-3, 190), Fraction(16, 171))
    exact = test_dist.exact_mixture_weights(
        (Fraction(1), Fraction(2), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(4, 5), Fraction(0)),
    )
    mix = cf.coxian_to_mixture(cf.CoxianDistribution((1.0, 2.0, 0.1), (0.1, 0.8, 0.0)))
    float_gap = max(abs(w - float(e)) for w, e in zip(mix.weights, want))
    ok = tuple(exact) == want and float_gap <= 1e-12 and not mix.is_hyperexponential
    report(capsys, 2, ok,
           f"weights (83/90, -3/190, 16/171), float gap {float_gap:.2e}, "
           f"flagged non-hyperexponential", t0)


def test_ac03_rate_sum_identity_and_increasing_remainder(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    dev = 0.0
    done = 0
    while done < 1000:
        # generic rate tuples from the test sampler; adversarially close
        # rates degrade the conditioning of the identity itself
        rates = random_hyperexp(rng).rates
        n = len(rates)
        if n < 2:
            continue
        k = int(rng.integers(1, n))
        l = int(rng.integers(k + 1, n + 1))
        dev = max(dev, abs(test_dist.telescoping_rate_sum(k, l, rates) + 1.0))
        done += 1
    increasing = all(
        np.all(np.diff(cf.remaining_service_times(random_coxian_decreasing(rng))) > 0)
        for _ in range(10_000)
    )
    report(capsys, 3, dev <= 1e-10 and increasing,
           f"1000 sums, max |sum+1| {dev:.2e}; 10000 remainder vectors increasing",
           t0)


def test_ac04_moment_region_and_fit(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    in_region = True
    for _ in range(1000):
        nm = cf.normalized_moments(random_coxian_decreasing(rng))
        in_region &= nm.n2 > 2 - 1e-9 and nm.n3 > 1.5 * nm.n2 - 1e-9
    worst = 0.0
    for _ in range(1000):
        m1 = 10.0 ** rng.uniform(-1, 1)
        n2 = 2.0 + 10.0 ** rng.uniform(-2, 1.3)
        n3 = 1.5 * n2 + 10.0 ** rng.uniform(-2, 1.5)
        got = cf.normalized_moments(cf.fit_hyperexp2(cf.MomentTriple(m1, n2, n3)))
        worst = max(worst, abs(got.m1 / m1 - 1), abs(got.n2 / n2 - 1),
                    abs(got.n3 / n3 - 1))
    rejected = 0
    for j in range(100):
        n2 = 2.0 - rng.uniform(0.01, 1.0) if j % 2 else 2.0 + rng.uniform(0.1, 5.0)
        n3 = 3.0 if j % 2 else 1.5 * n2 * (1.0 - rng.uniform(0.01, 0.5))
        try:
            cf.fit_hyperexp2(cf.MomentTriple(1.0, n2, n3))
        except ValueError:
            rejected += 1
    ok = in_region and worst <= 1e-10 and rejected == 100
    report(capsys, 4, ok,
           f"1000 members in region; 1000 fits, worst rel err {worst:.2e}; "
           f"{rejected}/100 infeasible rejected", t0)


def test_ac05_hazard_nonincreasing(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    dists = [random_coxian_decreasing(rng) for _ in range(1000)]
    grid = np.linspace(0.02, 6.0, 100)
    # NaN where survival is below SURVIVAL_FLOOR, so such steps drop out
    haz = np.array([cf.hazard(d, grid) for d in dists])
    rise = float(np.nanmax(np.diff(haz, axis=1)))
    report(capsys, 5, rise <= 1e-9,
           f"1000 members, 100-point grid, max hazard increase {rise:.2e}", t0)


def test_ac06_order_decision_vs_enumeration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    agree = ordered = 0
    for case in range(1000):
        B, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        lo, hi = test_order.random_pair(rng, B, n, case % 3)
        got = cf.leq(lo, hi)
        agree += got == _leq_enumerate(lo, hi)
        ordered += got
    h = np.array([[1.0, 0.5], [0.5, 0.0]])
    ht = np.array([[1.0, 0.5], [0.5, 0.5]])
    ex = cf.leq_report(h, ht)
    example_ok = ex.componentwise_ok and not ex.ok and ex.witness == (2, 1)
    report(capsys, 6, agree == 1000 and example_ok,
           f"{agree}/1000 agreements ({ordered} ordered); incomparable pair "
           f"witnessed by level sequence (2, 1)", t0)


def test_ac07_order_preserved_along_flow(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    pairs, checked = 200, 0
    for model in balanced_models(10).values():
        los, his = [], []
        for k in range(pairs):
            lo, hi = ordered_pair(rng, 10, 2, k % 4)
            los.append(lo)
            his.append(hi)
        assert all(cf.leq(lo, hi) for lo, hi in zip(los, his))
        stack = np.concatenate([np.stack(los), np.stack(his)])
        traj = cf.integrate(model, stack, 50.0, samples=50)
        for snap in traj.states:
            for k in range(pairs):
                if not cf.leq(snap[k], snap[pairs + k], tol=1e-8):
                    report(capsys, 7, False,
                           f"{model.kind}: pair {k} broke order", t0)
                checked += 1
    report(capsys, 7, True,
           f"3 models x {pairs} ordered pairs x 51 samples "
           f"({checked} comparisons) stayed ordered", t0)


def test_ac08_global_attraction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_dist = worst_pair = 0.0
    for name, model in balanced_models(25).items():
        starts = np.stack([cf.random_state(25, 2, rng).h for _ in range(50)])
        rep = cf.attraction_report(model, starts, T=200.0)
        worst_dist = max(worst_dist, rep.max_distance)
        worst_pair = max(worst_pair, rep.pairwise_max)
        solved(name, model)
    ok = worst_dist <= 1e-6 and worst_pair <= 1e-8
    report(capsys, 8, ok,
           f"3 models x 50 starts, T=200: sup distance to pi {worst_dist:.2e}, "
           f"pairwise {worst_pair:.2e}", t0)


def test_ac09_fixed_point_anchors_and_structure(capsys):
    t0 = time.perf_counter()
    expo = cf.PolicyModel(kind="jsq", lam=0.9, service=EXP, B=30, d=2)
    pi = solved("jsq-exponential", expo).pi.h[:, 0]
    anchor = max(
        abs(pi[l - 1] - 0.9 ** (2**l - 1)) for l in range(1, 11)
    )
    structure = 0.0
    count = 0
    for _, model, fp in all_module_fixed_points():
        check = cf.fixed_point_structure_residual(fp.pi, model.service)
        structure = max(structure, check.residual)
        count += 1
    ok = anchor <= 1e-9 and structure <= 1e-10
    report(capsys, 9, ok,
           f"doubling-tail anchor gap {anchor:.2e} (levels 1-10); "
           f"{count} fixed points, max structure residual {structure:.2e}", t0)


def test_ac10_lyapunov_drift_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    model = balanced_models(10)["jsq"]
    pi = solved("jsq-small", model).pi
    delta = min(5e-4, cf.step_bound(model) / 4)
    fd_gap, rate_max, above = 0.0, -np.inf, True
    for _ in range(10):
        h0 = cf.upper_envelope(cf.random_state(10, 2, rng), pi)
        traj = cf.integrate(model, h0, 20.0, samples=10)
        for state in traj.states:
            above &= cf.leq(pi, state, tol=1e-7)
            _, mid, fwd = rk4_reference(model, state, (0.0, delta, 2 * delta), delta)
            for L in (1, 2):
                lo = cf.lyapunov_values(state, SERVICE, L=L)
                hi = cf.lyapunov_values(fwd, SERVICE, L=L)
                fd = (np.asarray(hi) - np.asarray(lo)) / (2 * delta)
                want = np.asarray(cf.lyapunov_rates(model, mid, L=L))
                fd_gap = max(fd_gap, float(np.abs(fd - want).max()))
            dz1, dz2 = cf.lyapunov_rates(model, state, L=1)
            rate_max = max(rate_max, dz1 + dz2)
    ok = above and fd_gap <= 1e-6 and rate_max <= 1e-9
    report(capsys, 10, ok,
           f"10 trajectories above pi: FD gap {fd_gap:.2e}, "
           f"max combined drift {rate_max:.2e}", t0)


def test_ac11_finite_system_concentration(capsys):
    t0 = time.perf_counter()
    model = cf.PolicyModel(kind="jsq", lam=0.9, service=SERVICE, B=25, d=2)
    pi = solved("jsq-heavy", model).pi
    dists, excess, total = [], 0, 0
    for N in (10, 100, 1000):
        config = cf.SimConfig(model=model, N=N, horizon=600.0, seed=0,
                              warmup=200.0, replications=20)
        comp = cf.compare_to_fixed_point(cf.replicate(config), pi)
        dists.append(comp.distance)
        excess, total = comp.excess_entries, comp.total_entries
    decreasing = dists[0] > dists[1] > dists[2]
    ok = decreasing and dists[2] <= 0.01 and excess <= 0.05 * total
    report(capsys, 11, ok,
           f"sup|h_bar - pi| = {dists[0]:.3g} > {dists[1]:.3g} > {dists[2]:.3g} "
           f"(N=10,100,1000); {excess}/{total} entries outside 3 half-widths",
           t0)


def mcox1_tail(service, lam, B):
    """Stationary tail of a single M/Cox/1/B queue by direct CTMC solve."""
    mu, p = service.rates, service.continuations
    n = len(mu)
    states = [(0, 0)] + [(l, i) for l in range(1, B + 1) for i in range(1, n + 1)]
    pos = {s: k for k, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))

    def move(a, b, rate):
        Q[pos[a], pos[b]] += rate
        Q[pos[a], pos[a]] -= rate

    move((0, 0), (1, 1), lam)
    for l in range(1, B + 1):
        for i in range(1, n + 1):
            if l < B:
                move((l, i), (l + 1, i), lam)
            if i < n:
                move((l, i), (l, i + 1), p[i - 1] * mu[i - 1])
            move((l, i), (l - 1, 1) if l > 1 else (0, 0), (1 - p[i - 1]) * mu[i - 1])
    A = np.vstack([Q.T, np.ones(len(states))])
    rhs = np.zeros(len(states) + 1)
    rhs[-1] = 1.0
    prob = np.linalg.lstsq(A, rhs, rcond=None)[0]
    h = np.zeros((B, n))
    for (l, i), k in pos.items():
        if l >= 1:
            h[:l, :i] += prob[k]
    return h


def rk4_reference(model, h, times, dt):
    """Fixed-step classic RK4 from h, sampled at ``times``: the reference flow.

    Each segment between consecutive times is cut into the fewest whole
    steps no longer than ``dt``; decreasing times run the flow backwards.
    Returns the stack of samples, the first being h (which may itself be
    a stack of states).
    """
    out = [np.array(_as_h(h, batch=True), dtype=float)]
    for span in np.diff(times):
        steps = max(1, math.ceil(abs(span) / dt - 1e-12))
        step = span / steps
        sixth, half = step / 6.0, step / 2.0
        y = out[-1]
        for _ in range(steps):
            k1 = drift(model, y)
            k2 = drift(model, y + half * k1)
            k3 = drift(model, y + half * k2)
            k4 = drift(model, y + step * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    return np.stack(out)


def test_ac12_policy_special_cases(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    states = np.stack([cf.random_state(8, 2, rng).h for _ in range(1000)])
    jsq = cf.PolicyModel(kind="jsq", lam=0.6, service=SERVICE, B=8, d=3)
    batch1 = cf.PolicyModel(kind="batchjsq", lam=0.6, service=SERVICE, B=8,
                            d=3, K=1)
    gap_k1 = float(np.abs(drift(jsq, states) - drift(batch1, states)).max())
    # a full batch spreads over everything sampled: drift collapses to
    # lam*K times the single-choice differences
    batch_full = cf.PolicyModel(kind="batchjsq", lam=0.3, service=SERVICE,
                                B=8, d=3, K=3)
    single = cf.PolicyModel(kind="pullpush", lam=0.9, r=0.0, service=SERVICE, B=8)
    gap_kd = float(np.abs(drift(batch_full, states) - drift(single, states)).max())

    r0 = cf.PolicyModel(kind="pullpush", lam=0.6, r=0.0, service=SERVICE, B=15)
    pi_r0 = solved("pullpush-r0", r0).pi.h
    pi_b11 = solved("batchjsq-11", cf.PolicyModel(
        kind="batchjsq", lam=0.6, service=SERVICE, B=15, d=1, K=1)).pi.h
    gap_pi = float(np.abs(pi_r0 - pi_b11).max())
    queue = mcox1_tail(SERVICE, 0.6, 15)
    gap_queue = float(np.abs(pi_r0 - queue).max())
    config = cf.SimConfig(model=r0, N=300, horizon=700.0, seed=4,
                          warmup=100.0, replications=8)
    comp = cf.compare_to_fixed_point(cf.replicate(config), queue)
    ok = (gap_k1 <= 1e-14 and gap_kd <= 1e-14 and gap_pi <= 1e-12
          and gap_queue <= 1e-9 and comp.excess_entries <= 0.05 * comp.total_entries)
    report(capsys, 12, ok,
           f"K=1 vs choice-of-3 drift gap {gap_k1:.2e}; full-batch vs "
           f"single-choice gap {gap_kd:.2e}; r=0 pi vs queue solve "
           f"{gap_queue:.2e}; simulation {comp.excess_entries}/"
           f"{comp.total_entries} entries outside 3 half-widths", t0)
