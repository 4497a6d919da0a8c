"""Finite-N simulator.

Correctness anchors: with single-choice routing (d=1) the servers are
exactly independent M/G/1/B queues at every N, so the time-averaged tail
must match closed forms (M/M/1/B) and the ODE fixed point without any
finite-N bias.  At N = 3 the chain is small enough to solve exactly: its
stationary tails, built from the rules in ``sim``'s docstring, are the
oracle for every policy.  Everything else checks determinism, pooling and
the comparison contract.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import coxfield as cf
from coxfield import sim
from coxfield.cli import model_from_dict, model_to_dict
from coxfield.sim import StationaryEstimate


EXP = cf.CoxianDistribution((1.0,), (0.0,))


def mm1b_tail(rho, B):
    # P(Q >= l) for M/M/1/B, l = 1..B
    ls = np.arange(1, B + 1)
    return rho**ls * (1 - rho ** (B + 1 - ls)) / (1 - rho ** (B + 1))


def test_mm1_anchor():
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=EXP, B=20, d=1)
    config = cf.SimConfig(
        model=model, N=100, horizon=600.0, seed=11, warmup=100.0, replications=8
    )
    est = cf.replicate(config)
    exact = mm1b_tail(0.5, 20)[:, None]
    gap = np.abs(est.h_bar - exact)
    assert gap.max() < 5e-3
    # per-entry CI coverage where the level is actually visited
    lively = gap[:12] > 3.0 * est.half_width[:12] + 1e-9
    assert lively.sum() <= 2
    assert est.drop_fraction < 1e-4


def test_single_choice_matches_ode_fixed_point(balanced_service):
    # d=1: servers are iid M/Cox/1/B queues, the mean-field pi is exact
    model = cf.PolicyModel(kind="jsq", lam=0.6, service=balanced_service, B=10, d=1)
    pi = cf.fixed_point(model).pi
    config = cf.SimConfig(
        model=model, N=200, horizon=400.0, seed=3, warmup=100.0, replications=6
    )
    comp = cf.compare_to_fixed_point(cf.replicate(config), pi)
    assert comp.distance < 0.01
    assert comp.excess_entries <= 2
    assert comp.total_entries == 20


def test_estimate_lies_in_state_space(balanced_service):
    model = cf.PolicyModel(
        kind="batchjsq", lam=0.3, service=balanced_service, B=6, d=3, K=2
    )
    config = cf.SimConfig(model=model, N=60, horizon=120.0, seed=5, warmup=20.0)
    est = cf.simulate(config)
    assert cf.state_space_report(est.h_bar, tol=1e-12).ok


def test_determinism_and_seed_sensitivity(balanced_service):
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=1.0, service=balanced_service, B=5)
    config = cf.SimConfig(model=model, N=30, horizon=80.0, seed=9, warmup=10.0)
    a = cf.simulate(config)
    b = cf.simulate(config)
    assert np.array_equal(a.h_bar, b.h_bar)
    c = cf.simulate(cf.SimConfig(model=model, N=30, horizon=80.0, seed=10, warmup=10.0))
    assert not np.array_equal(a.h_bar, c.h_bar)


def test_replicate_pools_and_matches_simulate(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=6, d=2)
    config = cf.SimConfig(
        model=model, N=40, horizon=90.0, seed=2, warmup=15.0, replications=3
    )
    est = cf.replicate(config)
    assert est.per_replication.shape == (3, 6, 2)
    assert np.array_equal(est.h_bar, est.per_replication.mean(axis=0))
    assert np.all(est.half_width[:4] > 0)  # deep tail may go unvisited
    # replication r reruns simulate with seed+r
    solo = cf.simulate(cf.SimConfig(model=model, N=40, horizon=90.0, seed=4, warmup=15.0))
    assert np.array_equal(est.per_replication[2], solo.h_bar)
    single = cf.replicate(cf.SimConfig(model=model, N=40, horizon=90.0, seed=2, warmup=15.0))
    assert single.replications == 1
    assert np.all(single.half_width == 0.0)


def test_worker_pool_matches_serial(balanced_service, monkeypatch):
    model = cf.PolicyModel(kind="jsq", lam=0.6, service=balanced_service, B=5, d=2)
    config = cf.SimConfig(
        model=model, N=25, horizon=60.0, seed=6, warmup=10.0, replications=2
    )
    monkeypatch.setenv("COXFIELD_THREADS", "1")
    serial = cf.replicate(config)
    monkeypatch.setenv("COXFIELD_THREADS", "2")
    pooled = cf.replicate(config)
    assert np.array_equal(serial.h_bar, pooled.h_bar)
    assert np.array_equal(serial.half_width, pooled.half_width)


def test_thread_cap_must_be_positive_integer(balanced_service, monkeypatch):
    model = cf.PolicyModel(kind="jsq", lam=0.6, service=balanced_service, B=5, d=2)
    config = cf.SimConfig(model=model, N=5, horizon=5.0, seed=6, warmup=1.0)
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("COXFIELD_THREADS", bad)
        with pytest.raises(ValueError, match="COXFIELD_THREADS"):
            cf.replicate(config)


def test_one_server_cluster_runs(balanced_service):
    # probes have no peer to pull from when N=1
    model = cf.PolicyModel(kind="pullpush", lam=0.5, r=2.0, service=balanced_service, B=4)
    est = cf.simulate(cf.SimConfig(model=model, N=1, horizon=200.0, seed=1, warmup=20.0))
    assert cf.state_space_report(est.h_bar, tol=1e-12).ok
    assert 0.0 < est.h_bar[0, 0] < 1.0


def test_overloaded_model_runs_and_drops(balanced_service):
    with pytest.warns(UserWarning, match="unstable"):
        model = cf.PolicyModel(kind="jsq", lam=1.2, service=balanced_service, B=3, d=2)
    est = cf.simulate(cf.SimConfig(model=model, N=20, horizon=30.0, seed=0, warmup=5.0))
    assert est.drop_fraction > 0.0
    assert cf.state_space_report(est.h_bar, tol=1e-12).ok


# SHA-256 over (dwell bytes, drops, jobs) of seeds 0, 1, 2: the event loop
# must take the same values from its three streams and do the same float
# operations in the same order, so any rewrite of it keeps these bytes.
GOLDEN_REPLICATIONS = {
    "jsq-d2": (
        dict(kind="jsq", lam=0.7, B=6, d=2),
        dict(N=40, horizon=60.0, warmup=10.0),
        "f7c755c948295ba06daa7c20281ab44ec46c331e620856a9aaf2d882a72a1138",
    ),
    "batchjsq-d3-k2": (
        dict(kind="batchjsq", lam=0.3, B=6, d=3, K=2),
        dict(N=40, horizon=60.0, warmup=10.0),
        "1e9ec208fac2c39635c673d824cf49a21176d1b41c57a6853503a5305593a186",
    ),
    "pullpush-r1": (
        dict(kind="pullpush", lam=0.5, B=5, r=1.0),
        dict(N=30, horizon=60.0, warmup=10.0),
        "ba81e65bab9f7e8ac4d5f8fdcfa4805e65b7488e74880a9ad470419d64622797",
    ),
    "pullpush-n1": (
        dict(kind="pullpush", lam=0.5, B=4, r=2.0),
        dict(N=1, horizon=200.0, warmup=20.0),
        "13fa6108d3b49c63a224d60585f3d52a96400237797ff4cfa8ebe6c59b42122a",
    ),
    "jsq-overload": (
        dict(kind="jsq", lam=1.2, B=3, d=2),
        dict(N=20, horizon=30.0, warmup=5.0),
        "98bc2fbfc577bf5956c16b50ee7ab20e73b10ef497fbf22a07ca41926a83913e",
    ),
    # edge windows: a window from t = 0, windows of 1e-3 and 1e-9 past
    # warmup (at N = 1 and 3), and K = d batches on a two-slot buffer
    "jsq-warmup0": (
        dict(kind="jsq", lam=0.7, B=6, d=2),
        dict(N=40, horizon=60.0, warmup=0.0),
        "0f2c7a7052c9eb6835bccf6b9d1e9f27cce7a866197f5e20724430c7c81be4be",
    ),
    "pullpush-n1-short": (
        dict(kind="pullpush", lam=0.5, B=4, r=2.0),
        dict(N=1, horizon=10.0 + 1e-3, warmup=10.0),
        "b722734fcc72bdfbddadb0d92695fe61e04179c2191ec8af64dc0dbcc42c025f",
    ),
    "pullpush-n3-tiny": (
        dict(kind="pullpush", lam=0.5, B=4, r=2.0),
        dict(N=3, horizon=20.0 + 1e-9, warmup=20.0),
        "6992ebbcb34217b28df9a7df4a65369e1e60a6b71c2dba6df2df5806663eb217",
    ),
    "batchjsq-k3-b2": (
        dict(kind="batchjsq", lam=0.3, B=2, d=3, K=3),
        dict(N=40, horizon=60.0, warmup=0.0),
        "073ea3fc3db6d0e6ed52fa23c1c7807a61305f874c16ed211efa659940738990",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPLICATIONS))
def test_replication_golden_bytes(name, balanced_service):
    spec, shape, digest = GOLDEN_REPLICATIONS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = cf.PolicyModel(service=balanced_service, **spec)
    config = cf.SimConfig(model=model, **shape)
    h = hashlib.sha256()
    for seed in range(3):
        dwell, drops, jobs = sim._run_replication(config, seed)[:3]
        h.update(np.ascontiguousarray(dwell, dtype=np.float64).tobytes())
        h.update(f"{drops},{jobs};".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2"])
def test_replicate_golden_bytes(threads, balanced_service, monkeypatch):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=6, d=2)
    config = cf.SimConfig(
        model=model, N=40, horizon=60.0, warmup=10.0, seed=7, replications=3
    )
    monkeypatch.setenv("COXFIELD_THREADS", threads)
    est = cf.replicate(config)
    h = hashlib.sha256(est.per_replication.tobytes())
    h.update(repr(est.drop_fraction).encode())
    assert h.hexdigest() == (
        "3f8b21a8a2208ccd49ed470f1ac4f60fdc21f1530c41f876aa36eb75bcf8ac11"
    )


@pytest.mark.parametrize("spec, twin", [
    (dict(kind="batchjsq", d=3, K=1), dict(kind="jsq", d=3)),
    (dict(kind="pullpush", r=0.0), dict(kind="jsq", d=1)),
])
def test_same_arrival_rule_same_bytes(spec, twin, balanced_service):
    # the event loop reads the policy only as model.arrival = (K, d, pull),
    # so two models with the same triple draw the same uniforms
    runs = []
    for kind in (spec, twin):
        model = cf.PolicyModel(lam=0.7, service=balanced_service, B=6, **kind)
        assert model.arrival == cf.PolicyModel(
            lam=0.7, service=balanced_service, B=6, **twin).arrival
        config = cf.SimConfig(model=model, N=40, horizon=60.0, warmup=10.0)
        dwell, *counts = sim._run_replication(config, 3)
        runs.append((dwell.tobytes(), counts))
    assert runs[0] == runs[1]


def test_streams_do_not_depend_on_block_sizes(balanced_service, monkeypatch):
    # a replication's bytes depend on its seed alone: streams drawn in
    # blocks of one to three values give the same runs as the default blocks
    def runs():
        out = []
        for spec in (dict(kind="jsq", d=2), dict(kind="pullpush", r=1.0)):
            model = cf.PolicyModel(lam=0.7, service=balanced_service, B=6, **spec)
            config = cf.SimConfig(model=model, N=40, horizon=60.0, warmup=10.0)
            dwell, *counts = sim._run_replication(config, 5)
            out.append((dwell.tobytes(), counts))
        return out

    default = runs()
    monkeypatch.setattr(sim, "_block_sizes", lambda: itertools.cycle((1, 2, 3)))
    assert runs() == default


def test_service_draw_past_the_last_class_is_a_null_event(balanced_service,
                                                          monkeypatch):
    # float residue in the running service rate can put a service draw past
    # the last phase's servers; a resum that overshoots by 1 makes it common
    monkeypatch.setattr(sim, "_float_sum", lambda terms: math.fsum(terms) + 1.0)
    model = cf.PolicyModel(kind="jsq", lam=0.3, service=balanced_service, B=6, d=2)
    config = cf.SimConfig(model=model, N=5, horizon=40_000.0, warmup=10.0)
    dwell, _, _, events = sim._run_replication(config, 0)
    assert events > 0x10000  # the resum ran
    estimate = sim._estimate_from_dwell(config, dwell)
    assert cf.state_space_report(estimate, tol=1e-12).ok


def test_stats_count_each_replication(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.7, service=balanced_service, B=6, d=2)
    config = cf.SimConfig(
        model=model, N=40, horizon=60.0, warmup=10.0, seed=2, replications=3
    )
    stats = cf.replicate(config).stats
    _, drops, jobs, events = sim._run_replication(config, 4)
    assert (stats.events[2], stats.drops[2], stats.jobs[2]) == (events, drops, jobs)
    assert all(len(v) == 3 for v in vars(stats).values())
    assert all(rate > 0 for rate in stats.events_per_s)
    assert cf.simulate(config, seed=4).stats.events == (events,)


def test_warmup_resolution(balanced_service):
    def cfg(model, **kw):
        return cf.SimConfig(model=model, N=10, horizon=1000.0, **kw)

    jsq = cf.PolicyModel(kind="jsq", lam=0.9, service=balanced_service, B=4, d=2)
    assert cfg(jsq).resolved_warmup == pytest.approx(200.0)
    assert cfg(jsq, warmup=3.0).resolved_warmup == 3.0
    batch = cf.PolicyModel(
        kind="batchjsq", lam=0.4, service=balanced_service, B=4, d=3, K=2
    )
    assert cfg(batch).resolved_warmup == pytest.approx(100.0)
    light = cf.PolicyModel(kind="jsq", lam=0.2, service=balanced_service, B=4, d=2)
    assert cfg(light).resolved_warmup == 100.0


def test_config_validation(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service, B=4, d=2)
    with pytest.raises(ValueError, match="N >= 1"):
        cf.SimConfig(model=model, N=0, horizon=10.0)
    with pytest.raises(ValueError, match="replications"):
        cf.SimConfig(model=model, N=5, horizon=10.0, replications=0)
    with pytest.raises(ValueError, match="horizon"):
        cf.SimConfig(model=model, N=5, horizon=10.0, warmup=10.0)
    unbounded = cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service, d=2)
    with pytest.raises(ValueError, match="buffer"):
        cf.SimConfig(model=unbounded, N=5, horizon=10.0)


@pytest.mark.parametrize("field, value", [
    ("N", 2.5), ("N", math.inf), ("N", math.nan), ("replications", 2.5),
    ("replications", math.inf), ("seed", 1.5), ("seed", -1), ("seed", None),
])
def test_config_integer_fields_are_checked(field, value, balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service, B=4, d=2)
    fields = dict(model=model, N=5, horizon=10.0, warmup=1.0)
    with pytest.raises(ValueError, match=f"integer {field} "):
        cf.SimConfig(**dict(fields, **{field: value}))


def test_config_integer_fields_are_stored_as_ints(balanced_service):
    model = cf.PolicyModel(kind="jsq", lam=0.5, service=balanced_service, B=4, d=2)
    config = cf.SimConfig(model=model, N=5.0, horizon=2.0, warmup=1.0,
                          replications=2.0, seed=np.int64(3))
    assert all(type(v) is int for v in (config.N, config.replications, config.seed))
    assert cf.replicate(config).replications == 2


def test_comparison_contract():
    pi = np.array([[0.5, 0.2], [0.1, 5e-11]])
    h_bar = pi.copy()
    h_bar[1, 1] = 0.0  # never visited in simulation
    hw = np.full((2, 2), 2e-3)
    hw[1, 1] = 0.0

    def est(h):
        return StationaryEstimate(
            h_bar=h, half_width=hw, n_servers=10, replications=2,
            per_replication=np.stack([h, h]), drop_fraction=0.0,
        )

    comp = cf.compare_to_fixed_point(est(h_bar), pi)
    # the dead-tail gap sits below the solver allowance
    assert comp.excess_entries == 0
    assert comp.distance == pytest.approx(5e-11)
    shifted = h_bar.copy()
    shifted[0, 0] += 0.01
    comp = cf.compare_to_fixed_point(est(shifted), pi)
    assert comp.excess_entries == 1
    assert comp.distance == pytest.approx(0.01)
    assert comp.half_width_max == pytest.approx(2e-3)
    with pytest.raises(ValueError, match="shape"):
        cf.compare_to_fixed_point(est(h_bar), np.zeros((3, 2)))


STRAY_CASES = [
    ({"policy": "jsq", "lambda": 0.9, "d": 2}, {"K": 5, "r": 3.0}),
    ({"policy": "pullpush", "lambda": 0.9, "r": 1.0}, {"d": 7, "K": 3}),
    ({"policy": "batchjsq", "lambda": 0.3, "d": 3, "K": 2}, {"r": 4.0}),
]


@pytest.mark.parametrize("doc, stray", STRAY_CASES)
def test_stray_model_fields_have_no_effect(doc, stray):
    service = {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]}
    clean = model_from_dict({**doc, "B": 8, "service": service})
    mixed = model_from_dict({**doc, **stray, "B": 8, "service": service})
    assert mixed.arrival == clean.arrival
    assert mixed.rate_bound == clean.rate_bound
    assert model_to_dict(mixed) == model_to_dict(clean)
    configs = [cf.SimConfig(model=m, N=20, horizon=260.0, seed=3) for m in (clean, mixed)]
    assert configs[0].resolved_warmup == configs[1].resolved_warmup
    runs = [cf.simulate(config) for config in configs]
    assert runs[0].per_replication.tobytes() == runs[1].per_replication.tobytes()
    assert runs[0].stats.events == runs[1].stats.events


def exact_chain_tails(model, N, peer_from_all=False, distinct_slots=False,
                      swapped_continuations=False):
    """Stationary tails of the labelled N-server chain, solved densely.

    Each server is idle or holds (length l <= B, phase j of its head job),
    so the chain has (1 + B n)^N states.  An arrival event (rate lam N)
    draws d slots uniformly with replacement, ranks them by length with a
    uniform tiebreak and gives one job to each of the K best, a job for a
    full buffer being dropped; each idle server probes at rate r a peer
    drawn from the N - 1 others and, if that peer has a waiting job, takes
    it into phase 1 while the peer keeps its phase.  Phase j ends at rate
    mu_j, moving on with probability p_j, else the job leaves and the
    next starts in phase 1.  ``peer_from_all`` and ``distinct_slots`` break
    the probe and the slot draw on purpose, and ``swapped_continuations``
    the service: phases 1 and 2 trade their continuation probabilities.
    """
    B, n = model.B, model.n
    K, d, pull = model.arrival
    rates, conts = model.service.rates, list(model.service.continuations)
    if swapped_continuations:
        conts[0], conts[1] = conts[1], conts[0]
    cells = [(0, 0)] + [(l, j) for l in range(1, B + 1) for j in range(1, n + 1)]
    states = list(itertools.product(cells, repeat=N))
    number = {x: k for k, x in enumerate(states)}
    draws = (itertools.permutations(range(N), d) if distinct_slots
             else itertools.product(range(N), repeat=d))
    # each draw in each tiebreak order, all equally likely
    orders = [order for slots in draws for order in itertools.permutations(slots)]
    Q = np.zeros((len(states), len(states)))

    def move(x, y, rate):
        Q[number[x], number[tuple(y)]] += rate  # a drop is a move to x itself

    for x in states:
        for order in orders:
            y = list(x)
            for s in sorted(order, key=lambda s: x[s][0])[:K]:
                l, j = y[s]
                if l < B:
                    y[s] = (l + 1, j or 1)
            move(x, y, model.lam * N / len(orders))
        for s in range(N):
            l, j = x[s]
            if not l:
                peers = [t for t in range(N) if peer_from_all or t != s]
                for t in peers:
                    if x[t][0] >= 2:
                        y = list(x)
                        y[s], y[t] = (1, 1), (x[t][0] - 1, x[t][1])
                        move(x, y, pull / len(peers))
                continue
            y = list(x)
            if j < n:
                y[s] = (l, j + 1)
                move(x, y, rates[j - 1] * conts[j - 1])
            y[s] = (l - 1, 1) if l > 1 else (0, 0)
            move(x, y, rates[j - 1] * (1.0 - conts[j - 1]))
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    balance = Q.T.copy()
    balance[-1] = 1.0  # one balance equation gives way to the total mass
    p = np.linalg.solve(balance, np.eye(len(states))[-1])
    h = np.zeros((B, n))
    for prob, x in zip(p, states):
        for l, j in x:
            h[:l, :j] += prob / N
    return h


BALANCED = cf.hyperexp_to_coxian(cf.HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)))
#: unit mean, decreasing completion rates, and a middle phase that continues
COX3 = cf.CoxianDistribution((3.0, 1.5, 0.6), (0.5, 0.4, 0.0))

#: policy and buffer, service, horizon, and the broken chain the estimate
#: must miss; every case has 1 + B n = 7 cells per server, so 7^3 = 343
#: states at N = 3
EXACT_CHAIN_CASES = {
    "jsq": (dict(kind="jsq", lam=0.7, d=2, B=3), BALANCED, 10_000.0, None),
    "pullpush": (dict(kind="pullpush", lam=0.5, r=1.0, B=3), BALANCED, 20_000.0,
                 "peer_from_all"),
    "batchjsq": (dict(kind="batchjsq", lam=0.35, d=2, K=2, B=3), BALANCED, 10_000.0,
                 "distinct_slots"),
    "jsq-cox3": (dict(kind="jsq", lam=0.7, d=2, B=2), COX3, 10_000.0,
                 "swapped_continuations"),
}


@pytest.mark.parametrize("name", sorted(EXACT_CHAIN_CASES))
def test_simulator_matches_the_exact_finite_chain(name):
    spec, service, horizon, broken = EXACT_CHAIN_CASES[name]
    model = cf.PolicyModel(service=service, **spec)
    est = cf.replicate(cf.SimConfig(model=model, N=3, horizon=horizon, warmup=20.0,
                                    seed=3, replications=16))
    allowed = 4.0 * est.half_width + 1e-3
    assert (np.abs(est.h_bar - exact_chain_tails(model, 3)) <= allowed).all()
    if broken:
        # the test's power: the chain with the probe, the slot draw or the
        # continuations broken is far enough from the estimate to be told apart
        wrong = exact_chain_tails(model, 3, **{broken: True})
        assert (np.abs(est.h_bar - wrong) > allowed).any()
