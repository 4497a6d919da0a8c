"""The three benchmark workloads: their inputs, timed items and checks.

A workload is a list of items.  Each item is one timed call sequence into
coxfield's public API, run many times over a measurement window.  The
first run of an item is checked against the independent references in
``reference.py``; every later run must reproduce the first run's outputs
bit for bit.  Inputs come from the workload seed through the benchmark's
own generators; the library receives only the generated inputs.

* ``meanfield``: the fixed points of four models and a transient
  (``integrate`` from empty plus a seeded ``monotonicity_report`` batch).
  Nearly all the time is in ``mfode``.
* ``finite_n``: the ``coxfield simulate`` call sequence (``replicate``,
  ``fixed_point``, ``compare_to_fixed_point``) on three N=1000 models and
  one N=10 configuration with many short replications.  The event loop
  takes about two thirds of the time and the solves the rest; the N=10
  part stresses per-replication dispatch instead of the event loop.
* ``structure``: conversion, class check, moments and fit of random
  hyperexponentials; cdf/pdf/hazard of random decreasing Coxians on a
  shared uniform grid and at scattered times; the order decision and
  state-space check on random state pairs.  Time is in ``dist`` and
  ``order``.
"""

import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

import coxfield as cf
import reference as ref

clock = time.perf_counter

#: model set shared by the meanfield and finite_n workloads (and the trace)
MODEL_SPECS = {
    "jsq-0.9": dict(kind="jsq", lam=0.9, B=25, d=2),
    "pullpush-0.5": dict(kind="pullpush", lam=0.5, B=25, r=1.0),
    "batchjsq-0.3": dict(kind="batchjsq", lam=0.3, B=25, d=3, K=2),
    "jsq-exp-auto": dict(kind="jsq", lam=0.9, B=None, d=2, exponential=True),
}

#: the B=25 models simulated at large N, and the small-N configuration
LARGE_N = ("jsq-0.9", "pullpush-0.5", "batchjsq-0.3")
SMALL_N = "small-n"
SMALL_N_MODEL = "pullpush-0.5"
SIM_CONFIGS = LARGE_N + (SMALL_N,)

#: problem sizes; "tiny" only serves the smoke test
SIZES = {
    "full": dict(
        fixed_point={},
        integrate=dict(model="jsq-0.9", T=100.0, samples=50),
        monotone=dict(model="jsq-0.9", pairs=8, T=20.0, samples=20),
        large_n=dict(N=1000, horizon=150.0, warmup=50.0, replications=20),
        small_n=dict(N=10, horizon=60.0, warmup=20.0, replications=128),
        grid=dict(coxians=3, hypers=1, points=101, t_max=10.0),
        scatter=dict(coxians=3, points=101, scalars=4, t_max=10.0),
        convert=dict(hypers=8000),
        order=dict(pairs=3000),
        micro=dict(hypers=200, coxians=2, points=101, pairs=300, drift_calls=300,
                   batch_states=1000, batch_calls=5),
    ),
    "tiny": dict(
        fixed_point=dict(drift_tol=1e-3),
        integrate=dict(model="jsq-0.9", T=5.0, samples=5),
        monotone=dict(model="jsq-0.9", pairs=2, T=2.0, samples=2),
        large_n=dict(N=40, horizon=30.0, warmup=10.0, replications=2),
        small_n=dict(N=10, horizon=20.0, warmup=5.0, replications=4),
        grid=dict(coxians=1, hypers=1, points=11, t_max=2.0),
        scatter=dict(coxians=1, points=11, scalars=1, t_max=2.0),
        convert=dict(hypers=20),
        order=dict(pairs=20),
        micro=dict(hypers=5, coxians=1, points=11, pairs=5, drift_calls=5,
                   batch_states=10, batch_calls=1),
    ),
}

# tolerances of the correctness gate
FP_RESIDUAL = 1e-12
FP_STRUCTURE = 1e-10
JSQ_ANCHOR = 1e-9
HYPER_CDF = 1e-9
CONVERSION_GAP = 1e-10
COXIAN_EVAL = 1e-8
HAZARD_RISE = 1e-9
MOMENT_RTOL = 1e-9
FIT_RTOL = 1e-8
ORDER_TOL = 1e-9
SIM_EXCESS_SHARE = 0.05


def fingerprint(*parts):
    """Digest of arrays and scalars, used to demand bit-identical reruns."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one run of an item returns.

    ``ops`` counts library calls and ``data`` is whatever the item's check
    needs.  ``identity`` returns the outputs that must repeat bit for bit;
    they are hashed after the timed region.  ``inner`` holds timings of
    sub-steps, and ``pool`` the (start, end) clock readings of the phases
    in which ``replicate``'s worker processes ran.
    """

    ops: int
    data: object
    identity: object
    inner: dict = field(default_factory=dict)
    pool: list = field(default_factory=list)

    @cached_property
    def digest(self):
        return fingerprint(*self.identity())


@dataclass
class Item:
    name: str
    run: object  # tracer -> Outcome
    check: object  # Outcome -> list of failure messages


class NullTracer:
    """Stands in for spans.Tracer when tracing is off."""

    def label(self, text):
        return nullcontext()


def build_models():
    h2 = cf.hyperexp_to_coxian(cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)))
    expo = cf.CoxianDistribution((1.0,), (0.0,))
    out = {}
    for name, spec in MODEL_SPECS.items():
        spec = dict(spec)
        service = expo if spec.pop("exponential", False) else h2
        out[name] = cf.PolicyModel(service=service, **spec)
    return out


# ---------------------------------------------------------------------------
# seeded input generators (benchmark side, no library calls)


def random_hyperexp(rng):
    """1-4 branches, log-uniform rates in [0.05, 20], floored weights.

    Rates keep a relative gap of at least 5 %, away from the near-duplicate
    band where the conversion and the fit are documented to reject input.
    """
    k = int(rng.integers(1, 5))
    while True:
        rates = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=k)))[::-1]
        if k == 1 or np.all(rates[:-1] - rates[1:] > 0.05 * rates[:-1]):
            break
    w = rng.dirichlet(np.ones(k))
    w = (w + 0.02) / (1.0 + 0.02 * k)
    w[-1] = 1.0 - w[:-1].sum()
    return tuple(float(v) for v in w), tuple(float(r) for r in rates)


def random_decreasing_coxian(rng):
    """1-4 phases, strictly decreasing completion rates, unit mean, rates <= 50.

    Up to rate 50 the survival integrator runs at its fixed step cap, so a
    call costs the same number of steps whatever the seed draws.
    """
    while True:
        n = int(rng.integers(1, 5))
        nu = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=n)))[::-1]
        if n > 1 and np.any(nu[:-1] - nu[1:] <= 1e-3 * nu[:-1]):
            continue
        p = rng.uniform(0.05, 0.9, size=n)
        p[-1] = 0.0
        rates = nu / (1.0 - p)
        reach = np.concatenate([[1.0], np.cumprod(p[:-1])])
        rates = rates * float(np.sum(reach / rates))
        if rates.max() <= 50.0:
            return tuple(float(r) for r in rates), tuple(float(v) for v in p)


def random_pair(rng, B, n, recipe):
    """Ordered pairs from three recipes, and an independent pair (recipe 3)."""
    a = ref.random_valid_state(rng, B, n)
    if recipe == 0:
        return a, ref.upper_envelope(a, ref.random_valid_state(rng, B, n))
    if recipe == 1:
        return a * rng.uniform(0.0, 1.0), a
    if recipe == 2:
        return np.zeros((B, n)), a
    return a, ref.random_valid_state(rng, B, n)


# ---------------------------------------------------------------------------
# checks shared by the workloads and the traced run


def check_fixed_point(name, model, result):
    fails = []
    pi = result.pi.h
    solved = model if model.B is not None else model.with_buffer(result.B)
    residual = float(np.max(np.abs(cf.drift(solved, pi))))
    if not (result.residual <= FP_RESIDUAL and residual <= FP_RESIDUAL):
        fails.append(f"{name}: residual {result.residual:.3e} / {residual:.3e}")
    if not cf.state_space_report(pi).ok or ref.state_violation(pi) > 1e-12:
        fails.append(f"{name}: fixed point outside the state space")
    service = model.service
    structure = cf.fixed_point_structure_residual(pi, service).residual
    own = ref.level1_phase_residual(pi, service.rates, service.continuations)
    if not (structure <= FP_STRUCTURE and own <= FP_STRUCTURE):
        fails.append(f"{name}: structure residual {structure:.3e} / {own:.3e}")
    if model.B is None and service.n == 1 and model.kind == "jsq" and model.d == 2:
        levels = min(10, pi.shape[0])
        gap = float(np.max(np.abs(pi[:levels, 0] - ref.jsq_exponential_tail(model.lam, levels))))
        if gap > JSQ_ANCHOR:
            fails.append(f"{name}: pi_l off lam^(2^l-1) by {gap:.3e}")
    return fails


def check_estimate(name, config, est, pi, cmp, large):
    fails = []
    h, hw = est.h_bar, est.half_width
    if ref.state_violation(h) > 1e-9 or not 0.0 <= est.drop_fraction <= 1.0:
        fails.append(f"{name}: estimate outside the state space")
    gap = np.abs(h - pi)
    own_excess = int((gap > 3.0 * hw + 1e-10).sum())
    if (cmp.distance, cmp.excess_entries, cmp.total_entries) != (
        float(gap.max()), own_excess, gap.size
    ):
        fails.append(f"{name}: compare_to_fixed_point disagrees with recomputation")
    if large:
        # Only entries that every replication visited carry variance
        # information; a cell some replication never reached (the deep tail)
        # has a degenerate half-width and is not compared.
        seen = np.all(est.per_replication > 0, axis=0)
        outside = int((seen & (gap > 3.0 * hw + 1e-10)).sum())
        if outside > SIM_EXCESS_SHARE * gap.size:
            fails.append(f"{name}: {outside}/{gap.size} entries outside 3 half-widths")
    return fails


def warm_drift(models):
    """One drift call per model fills lazy caches such as the batch nodes."""
    for model in models.values():
        B = model.B or 16
        cf.drift(model.with_buffer(B), cf.zero_state(B, model.n))


def solve(tr, name, model, kwargs):
    with tr.label(f"fp.{name}"):
        return cf.fixed_point(model, **kwargs)


def sim_config(name, models, size, seed):
    if name == SMALL_N:
        return cf.SimConfig(model=models[SMALL_N_MODEL], seed=seed, **size["small_n"])
    return cf.SimConfig(model=models[name], seed=seed, **size["large_n"])


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed, size="full"):
        self.seed = seed
        self.size = SIZES[size]
        self.rng = np.random.default_rng(seed)

    def warm_up(self):
        pass

    def items(self):
        raise NotImplementedError

    def parts(self, med, inner):
        """The workload's named end-to-end figures from item medians."""
        raise NotImplementedError

    def final_checks(self, outcomes):
        """Checks that need several runs; returns (attempted, failures)."""
        return 0, []


class MeanField(Workload):
    name = "meanfield"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.models = build_models()
        mono = self.size["monotone"]
        m = self.models[mono["model"]]
        los, his = [], []
        for k in range(mono["pairs"]):
            lo, hi = random_pair(self.rng, m.B, m.n, k % 3)
            los.append(lo)
            his.append(hi)
        self.lo, self.hi = np.stack(los), np.stack(his)

    def warm_up(self):
        warm_drift(self.models)

    def items(self):
        out = [self._fp_item(name) for name in self.models]
        out.append(Item("integrate", self._integrate, self._check_integrate))
        out.append(Item("monotonicity", self._monotone, self._check_monotone))
        return out

    def _fp_item(self, name):
        model = self.models[name]
        kwargs = self.size["fixed_point"]

        def run(tr):
            result = solve(tr, name, model, kwargs)
            return Outcome(1, result, lambda: (result.pi.h, result.residual,
                                               result.newton_steps, result.history))

        return Item(f"fp.{name}", run, lambda out: check_fixed_point(name, model, out.data))

    def _integrate(self, tr):
        spec = self.size["integrate"]
        model = self.models[spec["model"]]
        with tr.label("transient.integrate"):
            traj = cf.integrate(model, cf.zero_state(model.B, model.n), spec["T"],
                                samples=spec["samples"])
        return Outcome(1, traj, lambda: (traj.times, traj.states))

    def _check_integrate(self, out):
        traj = out.data
        fails = []
        if max(ref.state_violation(h) for h in traj.states) > 1e-8:
            fails.append("integrate: a sample left the state space")
        # from the minimum state a monotone flow only increases
        if float(np.diff(traj.states, axis=0).min()) < -1e-9:
            fails.append("integrate: trajectory from empty decreased")
        return fails

    def _monotone(self, tr):
        spec = self.size["monotone"]
        model = self.models[spec["model"]]
        with tr.label("transient.monotonicity"):
            rep = cf.monotonicity_report(model, self.lo, self.hi, spec["T"],
                                         samples=spec["samples"])
        return Outcome(1, rep, lambda: (rep.ok, rep.min_margin, rep.times))

    def _check_monotone(self, out):
        fails = []
        if not all(ref.leq_brute(a, b, ORDER_TOL) for a, b in zip(self.lo, self.hi)):
            fails.append("monotonicity: generated pairs are not ordered")
        if not out.data.ok or out.data.min_margin < -1e-8:
            fails.append(f"monotonicity: order broken (margin {out.data.min_margin:.3e})")
        return fails

    def parts(self, med, inner):
        return [
            ("fixed_point_s", sum(med[f"fp.{m}"] for m in self.models), "s"),
            ("transient_s", med["integrate"] + med["monotonicity"], "s"),
        ]


class FiniteN(Workload):
    name = "finite_n"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.models = build_models()
        seeds = self.rng.integers(0, 2**31, size=len(SIM_CONFIGS))
        self.configs = {
            name: sim_config(name, self.models, self.size, int(s))
            for name, s in zip(SIM_CONFIGS, seeds)
        }

    def warm_up(self):
        # lazy caches (Gauss-Legendre nodes, scipy.stats) and the pool path
        warm_drift(self.models)
        tiny = cf.SimConfig(model=self.models[SMALL_N_MODEL], N=2, horizon=2.0,
                            warmup=1.0, replications=2, seed=0)
        cf.replicate(tiny)

    def items(self):
        return [self._sim_item(name) for name in SIM_CONFIGS]

    def _sim_item(self, name):
        config = self.configs[name]
        model_name = SMALL_N_MODEL if name == SMALL_N else name
        kwargs = self.size["fixed_point"]

        def run(tr):
            with tr.label(f"sim.{name}"):
                t0 = clock()
                est = cf.replicate(config)
                t1 = clock()
                result = solve(tr, model_name, config.model, kwargs)
                t2 = clock()
                cmp = cf.compare_to_fixed_point(est, result.pi)
            return Outcome(
                3,
                (est, result, cmp),
                lambda: (est.h_bar, est.half_width, est.drop_fraction, result.pi.h,
                         cmp.distance, cmp.excess_entries),
                {"replicate_s": t1 - t0, "solve_s": t2 - t1},
                [(t0, t1)],
            )

        def check(out):
            est, result, cmp = out.data
            return check_fixed_point(model_name, config.model, result) + check_estimate(
                name, config, est, result.pi.h, cmp, name != SMALL_N
            )

        return Item(f"sim.{name}", run, check)

    def parts(self, med, inner):
        server_tu = sum(
            c.N * c.horizon * c.replications
            for name, c in self.configs.items()
            if name != SMALL_N
        )
        wall = sum(inner[f"sim.{name}"]["replicate_s"] for name in LARGE_N)
        small = self.configs[SMALL_N]
        simulate = sum(med[f"sim.{name}"] for name in SIM_CONFIGS)
        replicate = sum(inner[f"sim.{name}"]["replicate_s"] for name in SIM_CONFIGS)
        return [
            ("simulate_s", simulate, "s"),
            ("replicate_s", replicate, "s"),
            ("solve_s", sum(inner[f"sim.{name}"]["solve_s"] for name in SIM_CONFIGS), "s"),
            ("replicate_share", replicate / simulate, "ratio"),
            ("sim_server_tu_per_s", server_tu / wall, "server*tu/s"),
            ("sim_small_n_reps_per_s",
             small.replications / inner[f"sim.{SMALL_N}"]["replicate_s"], "reps/s"),
        ]

    def final_checks(self, outcomes):
        """The small-N replicate must give the same bytes on one worker."""
        first = outcomes[f"sim.{SMALL_N}"]
        before = os.environ.get("COXFIELD_THREADS")
        os.environ["COXFIELD_THREADS"] = "1"
        try:
            serial = cf.replicate(self.configs[SMALL_N])
        finally:
            if before is None:
                del os.environ["COXFIELD_THREADS"]
            else:
                os.environ["COXFIELD_THREADS"] = before
        if serial.h_bar.tobytes() != first.data[0].h_bar.tobytes():
            return 1, ["determinism: h_bar differs between 1 and 2 workers"]
        return 1, []


class Structure(Workload):
    name = "structure"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        rng = self.rng
        g, s = self.size["grid"], self.size["scatter"]
        self.grid = np.linspace(0.0, g["t_max"], g["points"])
        self.grid_coxians = [cf.CoxianDistribution(*random_decreasing_coxian(rng))
                             for _ in range(g["coxians"])]
        self.grid_hypers = [cf.HyperExponential(*random_hyperexp(rng))
                            for _ in range(g["hypers"])]
        self.scatter_coxians = [cf.CoxianDistribution(*random_decreasing_coxian(rng))
                                for _ in range(s["coxians"])]
        self.scatter_times = [rng.uniform(0.0, s["t_max"], size=s["points"])
                              for _ in self.scatter_coxians]
        # one scalar time per equal stratum, so every seed asks for the
        # same total integration span
        strata = np.arange(s["scalars"])
        self.scalar_times = [
            [float(t) for t in rng.permutation((strata + rng.uniform(size=strata.size))
                                               * s["t_max"] / strata.size)]
            for _ in self.scatter_coxians
        ]
        self.hypers = [cf.HyperExponential(*random_hyperexp(rng))
                       for _ in range(self.size["convert"]["hypers"])]
        self.pairs = []
        for k in range(self.size["order"]["pairs"]):
            B, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            lo, hi = random_pair(rng, B, n, k % 4)
            probe = hi.copy()
            if k % 5 == 0:
                probe[rng.integers(B), rng.integers(n)] += 0.3
            self.pairs.append((lo, hi, probe))

    def warm_up(self):
        cf.cdf(self.grid_coxians[0], self.grid[:2])
        cf.leq(*self.pairs[0][:2])

    def items(self):
        return [
            Item("grid", self._grid, self._check_grid),
            Item("scatter", self._scatter, self._check_scatter),
            Item("convert", self._convert, self._check_convert),
            Item("order", self._order, self._check_order),
        ]

    def _grid(self, tr):
        out = []
        with tr.label("structure.grid"):
            for cox in self.grid_coxians:
                out.append((cf.cdf(cox, self.grid), cf.pdf(cox, self.grid),
                            cf.hazard(cox, self.grid)))
            hyper = [cf.cdf(h, self.grid) for h in self.grid_hypers]
        calls = 3 * len(out) + len(hyper)
        return Outcome(calls, (out, hyper), lambda: (*[a for t in out for a in t], *hyper))

    def _check_grid(self, out):
        fails = []
        evals, hyper = out.data
        for cox, (c, p, hz) in zip(self.grid_coxians, evals):
            fails += _coxian_eval_fails(cox, self.grid, c, p)
            surv = 1.0 - c
            alive = surv >= 1e-14
            both = alive[1:] & alive[:-1]
            rise = np.diff(hz)[both]
            if rise.size and float(rise.max()) > HAZARD_RISE:
                fails.append(f"hazard rises by {float(rise.max()):.3e} for a DCR member")
        for h, c in zip(self.grid_hypers, hyper):
            gap = float(np.max(np.abs(c - ref.hyperexp_cdf(h.weights, h.rates, self.grid))))
            if gap > HYPER_CDF:
                fails.append(f"hyperexponential cdf off the closed form by {gap:.3e}")
        return fails

    def _scatter(self, tr):
        arrays, scalars = [], []
        with tr.label("structure.scatter"):
            for cox, ts, ss in zip(self.scatter_coxians, self.scatter_times, self.scalar_times):
                arrays.append(cf.cdf(cox, ts))
                scalars.append([cf.cdf(cox, t) for t in ss])
        calls = len(arrays) + sum(len(s) for s in scalars)
        return Outcome(calls, (arrays, scalars), lambda: (*arrays, scalars))

    def _check_scatter(self, out):
        fails = []
        arrays, scalars = out.data
        for cox, ts, ss, a, s in zip(self.scatter_coxians, self.scatter_times,
                                     self.scalar_times, arrays, scalars):
            fails += _coxian_eval_fails(cox, np.concatenate([ts, ss]),
                                        np.concatenate([a, s]), None)
        return fails

    def _convert(self, tr):
        out = []
        with tr.label("structure.convert"):
            for h in self.hypers:
                cox = cf.hyperexp_to_coxian(h)
                check = cf.has_decreasing_completion_rates(cox)
                triple = cf.normalized_moments(h)
                fit = cf.fit_hyperexp2(triple)
                out.append((cox, check, triple, fit))
        return Outcome(4 * len(out), out, lambda: [
            (c.rates, c.continuations, k.is_member, k.margin, t.m1, t.n2, t.n3, f.weights, f.rates)
            for c, k, t, f in out
        ])

    def _check_convert(self, out):
        fails = []
        times = np.array([0.1, 1.0, 5.0])
        for h, (cox, check, triple, fit) in zip(self.hypers, out.data):
            gap = float(np.max(np.abs(
                ref.coxian_survival_density(cox.rates, cox.continuations, times)[0]
                - (1.0 - ref.hyperexp_cdf(h.weights, h.rates, times))
            )))
            nu = ref.completion_rates(cox.rates, cox.continuations)
            decreasing = bool(np.all(nu[:-1] > nu[1:]))
            want = ref.hyperexp_normalized_moments(h.weights, h.rates)
            got = (triple.m1, triple.n2, triple.n3)
            back = ref.hyperexp_normalized_moments(fit.weights, fit.rates)
            if (
                gap > CONVERSION_GAP
                or not (decreasing and check.is_member)
                or not np.allclose(got, want, rtol=MOMENT_RTOL, atol=0.0)
                or not np.allclose(back, want, rtol=FIT_RTOL, atol=0.0)
            ):
                fails.append(f"convert: {h} failed (CDF gap {gap:.3e})")
        return fails

    def _order(self, tr):
        out = []
        with tr.label("structure.order"):
            for lo, hi, probe in self.pairs:
                out.append((cf.leq(lo, hi), cf.leq_report(lo, hi),
                            cf.state_space_report(probe)))
        return Outcome(3 * len(out), out, lambda: [
            (a, r.ok, r.min_gap, r.nonconstant_min_gap, r.witness, s.ok, s.violations)
            for a, r, s in out
        ])

    def _check_order(self, out):
        fails = []
        for (lo, hi, probe), (decided, report, space) in zip(self.pairs, out.data):
            bad = decided != ref.leq_brute(lo, hi, ORDER_TOL) or report.ok != decided
            if report.witness is not None:
                seq = report.witness
                admissible = all(a >= b for a, b in zip(seq, seq[1:])) and seq[0] > seq[-1]
                gap = ref.level_phase_mass(hi, seq) - ref.level_phase_mass(lo, seq)
                bad |= not admissible or gap >= -ORDER_TOL
            bad |= space.ok != (ref.state_violation(probe) <= 1e-12)
            if bad:
                fails.append(f"order: pair of shape {lo.shape} failed")
        return fails

    def parts(self, med, inner):
        g, s = self.size["grid"], self.size["scatter"]
        grid_points = g["points"] * (3 * g["coxians"] + g["hypers"])
        scatter_points = s["coxians"] * (s["points"] + s["scalars"])
        return [
            ("dist_grid_points_per_s", grid_points / med["grid"], "points/s"),
            ("dist_scatter_points_per_s", scatter_points / med["scatter"], "points/s"),
            ("convert_per_s", 4 * len(self.hypers) / med["convert"], "ops/s"),
            ("order_checks_per_s", 3 * len(self.pairs) / med["order"], "ops/s"),
        ]


def _coxian_eval_fails(cox, times, cdf_values, pdf_values):
    surv, dens = ref.coxian_survival_density(cox.rates, cox.continuations, times)
    fails = []
    gap = float(np.max(np.abs((1.0 - cdf_values) - surv)))
    if gap > COXIAN_EVAL:
        fails.append(f"coxian cdf off the matrix exponential by {gap:.3e}")
    if pdf_values is not None:
        gap = float(np.max(np.abs(pdf_values - dens))) / max(1.0, max(cox.rates))
        if gap > COXIAN_EVAL:
            fails.append(f"coxian pdf off the matrix exponential by {gap:.3e}")
    return fails


WORKLOADS = {w.name: w for w in (MeanField, FiniteN, Structure)}
