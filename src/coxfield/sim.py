"""Event-driven simulation of the finite-N server cluster.

One replication runs a continuous-time Markov chain over N servers, each
holding a queue (length <= B) whose head job sits in a Coxian phase.
Event selection uses aggregate rates: one exponential clock for the total
rate, then a categorical draw over arrival / probe / per-phase service
classes.  Per-phase member lists with swap-remove give O(1) selection of
the affected server.  Tail fractions are estimated from per-cell dwell
times: whenever a server changes cell, its elapsed time since the last
change is charged to the old (length, phase) cell, and the double tail
sum of the dwell matrix is the time-averaged state.  Nothing is clipped
to the measurement window: the first event at or past warmup drops the
charges made so far and restarts every server's clock at warmup.
Averages of valid states over a convex set remain valid states, so the
estimate satisfies the state-space inequalities up to float summation
error.

The event loop is one flat pure-Python loop: the swap-remove and the
dwell charge are written inline.  It branches on the drift's rule,
``model.arrival`` = (K, d, pull), alone: the K shortest of d sampled
queues get one job each (so batchjsq with K = 1 simulates as jsq to the
byte, and a pullpush local arrival is K = d = 1), and at a nonzero pull
rate a pull moves one waiting job to the idle server that probed.  All
of them end in one block that places a job on each chosen server.

A replication's seed feeds three independent numpy streams, split off
one ``SeedSequence``: uniforms (``Generator.random``) for the class draw,
tiebreaks, the prober and its peer; holding times
(``standard_exponential``), divided by the total rate; and the slots an
arrival samples (``integers(0, N)``).  Each is read one value at a time
through the bound ``next`` of a C-level chain over blocks that double
from 1024 to 16384 draws.  The values do not depend on the block sizes,
so a replication's bytes depend on its seed alone.  A service event
takes its server from the class draw itself: with x uniform on
[0, m_j mu_j) for the m_j servers in phase j, y = x / mu_j picks member
int(y), and the phase moves on when y - int(y) < p_j.  The residue of y
is uniform up to float granularity, so p_j is biased by at most about
ulp(total rate) / mu_j, about 1e-12 at N = 1000.

Replications are independent chains with seeds seed, seed+1, ...; the
pooled estimate and 95% half-widths come from the replication variance,
with the Student-t quantile computed here in plain Python (``_t975``).
COXFIELD_THREADS caps how many run in parallel (processes, since the
event loop is pure Python); results are pooled in seed order either way.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .dist import _float_sum
from .mfode import PolicyModel, _set_integer
from .order import StateLike, _as_h, _tail_sums

_BLOCK = 1 << 14

#: Largest accepted model.rate_bound * N * horizon, which bounds the events
#: of one replication (1e9 is 14-30 minutes at the 0.55-1.2 M events/s of
#: the three N = 1000 benchmark models, in CPU time on a 2-vCPU x86_64 host)
MAX_EVENTS = 1e9


@dataclass(frozen=True)
class SimConfig:
    """A simulation request: model, cluster size, window, replications.

    ``warmup=None`` applies max(100, 20/(1 - model.load)) time units, a
    rough multiple of the relaxation time; override it for loads close to
    saturation.
    """

    model: PolicyModel
    N: int
    horizon: float
    seed: int = 0
    warmup: Optional[float] = None
    replications: int = 1

    def __post_init__(self):
        if self.model.B is None:
            raise ValueError("simulation needs a finite buffer size")
        _set_integer(self, "N")
        _set_integer(self, "replications")
        _set_integer(self, "seed", low=0)
        if not math.isfinite(self.horizon):
            raise ValueError(f"need a finite horizon, got {self.horizon}")
        events = self.model.rate_bound * self.N * self.horizon
        if events > MAX_EVENTS:
            raise ValueError(f"expected events {events:.3g} exceed {MAX_EVENTS:.0e}")
        warm = self.resolved_warmup
        if not 0 <= warm < self.horizon:
            raise ValueError(
                f"need horizon > warmup >= 0, got {self.horizon} vs {warm}"
            )

    @property
    def resolved_warmup(self) -> float:
        if self.warmup is not None:
            return float(self.warmup)
        jobs = self.model.load
        if jobs < 1:
            return max(100.0, 20.0 / (1.0 - jobs))
        return 100.0


@dataclass(frozen=True)
class SimStats:
    """Where a simulation spent its work, one entry per replication.

    Entries are in seed order.  ``events`` counts simulated transitions
    (arrivals, probes and phase completions); ``jobs`` counts arriving
    jobs and ``drops`` those that found a full buffer.  ``wall_s`` is the
    wall time of each replication in the process that ran it, and
    ``events_per_s`` their ratio.
    """

    events: tuple
    events_per_s: tuple
    drops: tuple
    jobs: tuple
    wall_s: tuple


@dataclass(frozen=True, eq=False)
class StationaryEstimate:
    """Pooled time-averaged tail fractions with 95% half-widths.

    ``half_width`` is zero everywhere for a single replication (no
    variance information); ``per_replication`` keeps the individual
    averages for custom pooling.  ``stats`` records the work of each
    replication.
    """

    h_bar: np.ndarray
    half_width: np.ndarray
    n_servers: int
    replications: int
    per_replication: np.ndarray
    drop_fraction: float
    stats: Optional[SimStats] = None


def _block_sizes():
    """1024, 2048, 4096 and 8192 draws, then _BLOCK = 16384 at a time."""
    return chain([1 << k for k in range(10, 14)], repeat(_BLOCK))


def _stream(draw):
    """Bound ``next`` over the values of ``draw(size)``, one at a time.

    The values are drawn in blocks of ``_block_sizes()``, so a short
    replication does not pay for a full block; numpy's streams do not
    depend on the block sizes.
    """
    blocks = map(np.ndarray.tolist, map(draw, _block_sizes()))
    return chain.from_iterable(blocks).__next__


def _run_replication(config: SimConfig, seed: int) -> tuple:
    """One chain; returns (dwell matrix (B, n), drops, jobs, events)."""
    model = config.model
    N, B, n = config.N, model.B, model.n
    warmup = config.resolved_warmup
    horizon = config.horizon
    streams = np.random.SeedSequence(seed).spawn(3)
    uniform, holding, slot = map(np.random.default_rng, streams)
    u = _stream(uniform.random)
    e = _stream(holding.standard_exponential)
    v = _stream(partial(slot.integers, 0, N))

    mu = [0.0] + [float(r) for r in model.service.rates]
    cont = [0.0] + [float(p) for p in model.service.continuations]
    mu1 = mu[1]
    lam_total = model.lam * N
    K, d, probe_rate = model.arrival
    choices, rest = range(d), range(d - 1)

    qlen = [0] * N
    phase = [0] * N
    pos = list(range(N))
    members = [list(range(N))] + [[] for _ in range(n)]
    idle, busy1 = members[0], members[1]  # idle servers, servers in phase 1
    last = [0.0] * N
    occ = [[0.0] * n for _ in range(B)]
    svc_total = 0.0
    drops = 0
    jobs = 0
    t = 0.0
    stop = warmup
    events = 0

    # Moving server i between member lists is a swap-remove: the last entry
    # takes i's slot.  Before a server changes cell, the time since its last
    # change is charged to its (length, phase) cell.  The first event at or
    # past warmup restarts every clock at warmup and drops the charges made
    # before it; the next stop is the horizon.
    while True:
        arr_total = lam_total + probe_rate * len(idle)
        total = arr_total + svc_total
        t += e() / total
        if t >= stop:
            if stop == warmup:
                occ = [[0.0] * n for _ in range(B)]
                last = [warmup] * N
                stop = horizon
            if t >= horizon:
                t = horizon
                break
        events += 1
        if not events & 0xFFFF:
            # kill float drift in the incrementally maintained total
            svc_total = _float_sum(len(members[j]) * mu[j] for j in range(1, n + 1))
        x = u() * total
        if x < arr_total:
            if x >= lam_total:
                # an idle server pulls one waiting job from a random peer
                # and then takes it like an arriving job
                if N == 1:
                    continue
                prober = idle[int(u() * len(idle))]
                s = int(u() * (N - 1))
                if s >= prober:
                    s += 1
                li = qlen[s]
                if li < 2:
                    continue
                occ[li - 1][phase[s] - 1] += t - last[s]
                last[s] = t
                qlen[s] = li - 1
                targets = (prober,)
            elif K > 1:
                # rank the d sampled slots by length at arrival, random
                # tiebreak; the K best get one job each (repeats allowed)
                jobs += K
                slots = [(qlen[s], u(), s) for s in [v() for _ in choices]]
                slots.sort()
                targets = [s for _, _, s in slots[:K]]
            else:
                # the shortest of d sampled queues, random tiebreak (K = 1);
                # a pullpush local arrival is the case d = 1
                jobs += 1
                best = v()
                blen = qlen[best]
                ties = 1
                for _ in rest:
                    s = v()
                    sl = qlen[s]
                    if sl < blen:
                        best, blen, ties = s, sl, 1
                    elif sl == blen:
                        ties += 1
                        if u() * ties < 1.0:
                            best = s
                targets = (best,)
            for i in targets:
                li = qlen[i]
                if li >= B:
                    drops += 1
                    continue
                if li:
                    occ[li - 1][phase[i] - 1] += t - last[i]
                else:
                    k = pos[i]
                    moved = idle.pop()
                    if moved != i:
                        idle[k] = moved
                        pos[moved] = k
                    pos[i] = len(busy1)
                    busy1.append(i)
                    phase[i] = 1
                    svc_total += mu1
                last[i] = t
                qlen[i] = li + 1
        else:
            x -= arr_total
            j = 1
            while j < n:
                w = len(members[j]) * mu[j]
                if x < w:
                    break
                x -= w
                j += 1
            # x is uniform on [0, len(bucket) mu_j): its integer part in
            # units of mu_j picks the server and its residue the next phase
            bucket = members[j]
            y = x / mu[j]
            k = int(y)
            if k >= len(bucket):
                if not bucket:
                    continue  # only float residue in svc_total lands here
                k = len(bucket) - 1
            i = bucket[k]
            li = qlen[i]
            occ[li - 1][j - 1] += t - last[i]
            last[i] = t
            if y - k < cont[j]:
                dest = j + 1
                svc_total += mu[dest] - mu[j]
            else:
                li -= 1
                qlen[i] = li
                if li == 0:
                    dest = 0
                    svc_total -= mu[j]
                elif j != 1:
                    dest = 1
                    svc_total += mu1 - mu[j]
                else:
                    continue
            k = pos[i]
            moved = bucket.pop()
            if moved != i:
                bucket[k] = moved
                pos[moved] = k
            lst = members[dest]
            pos[i] = len(lst)
            lst.append(i)
            phase[i] = dest

    for i in range(N):
        li = qlen[i]
        if li:
            occ[li - 1][phase[i] - 1] += t - last[i]
    return np.asarray(occ), drops, jobs, events


def _estimate_from_dwell(config, dwell):
    span = config.horizon - config.resolved_warmup
    return _tail_sums(dwell / (config.N * span))


def _timed_replication(task):
    config, seed = task
    started = time.perf_counter()
    result = _run_replication(config, seed)
    return result + (time.perf_counter() - started,)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) for a > 0, to about 1e-16.

    A small number, -1 / (8a) + ...  From a = 15 on it is the asymptotic
    series sum_k c_k / a^k, c_k = (-1)^(k+1) (B_{k+1}(1/2) - B_{k+1}) /
    (k (k+1)) (DLMF 5.11.8; the even terms vanish), whose first omitted
    term is below 1e-17 there; below 15, Gamma(x + 1) = x Gamma(x) shifts
    a up one step at a time.  Not ``math.lgamma(a + 1/2) - lgamma(a)``:
    that difference carries the rounding of values of size a log a, about
    1e-9 at a = 5e5 and 3e-15 at a = 6.5.
    """
    total = 0.0
    while a < 15.0:
        total += 0.5 * math.log1p(1.0 / a) - math.log1p(0.5 / a)
        a += 1.0
    r = 1.0 / (a * a)
    return total + (-1 / 8 + (1 / 192 + (-1 / 640 + (17 / 14336 + (-341 / 202752
                    + 2073 / 540672 * r) * r) * r) * r) * r) / a


def _beta_fraction(p: float, q: float, x: float) -> float:
    """The continued fraction of I_x(p, q) = x^p (1-x)^q / (p B(p, q)) * cf.

    Numerical Recipes (6.4.5), evaluated in modified Lentz form until a
    factor is within rounding of 1.
    """
    c, d = 1.0, 1.0 / (1.0 - (p + q) * x / (p + 1.0))
    frac = d
    for m in range(1, 10000):
        num = m * (q - m) * x / ((p + 2 * m - 1) * (p + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        frac *= d * c
        num = -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 2 * m + 1))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        frac *= d * c
        if abs(d * c - 1.0) <= 2.3e-16:
            break
    return frac


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom.

    Newton's method on the upper tail Q(t) = I_x(df/2, 1/2) / 2, with
    x = df / (df + t^2) and I the regularized incomplete beta function.
    Q is convex on t > 0 and the start, the Cornish-Fisher expansion about
    the normal quantile, lies below the root or within rounding of it, so
    the steps approach the root from below.  With u = t^2 / df, the
    continued fraction of I_x(df/2, 1/2) serves for u >= 0.01; nearer
    x = 1 it loses digits (4e-11 at df = 1e6), and Q is taken as
    (1 - I_y(1/2, df/2)) / 2 with y = 1 - x.  The logs of x and y are
    formed from u, not from x.  Accurate to about 1e-14 relative.
    """
    a = 0.5 * df
    # log of 1 / (sqrt(a) B(a, 1/2)) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi a))
    log_norm = _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    z = 1.959963984540054
    z2 = z * z
    t = z + z * ((z2 + 1) / 4 + ((5 * z2 + 16) * z2 + 3) / (96 * df)
                 + (((3 * z2 + 19) * z2 + 17) * z2 - 15) / (384 * df * df)) / df
    for _ in range(100):
        u = t * t / df
        log_x = -math.log1p(u)
        # x^a y^(1/2) / B(a, 1/2), with y = u / (1 + u)
        front = math.exp(a * log_x + 0.5 * math.log(a * u / (1.0 + u)) + log_norm)
        if u >= 0.01:
            tail = 0.5 * front * _beta_fraction(a, 0.5, 1.0 / (1.0 + u)) / a
        else:
            tail = 0.5 - front * _beta_fraction(0.5, a, u / (1.0 + u))
        density = math.exp(log_norm - 0.5 * math.log(2.0) + (a + 0.5) * log_x)
        step = (tail - 0.025) / density
        t += step
        if abs(step) <= 1e-11 * t:
            break
    return t


def _pool(config: SimConfig, results: list) -> StationaryEstimate:
    """Pool per-replication results (in seed order) into one estimate."""
    R = len(results)
    dwells, drops, jobs, events, wall = zip(*results)
    per = np.stack([_estimate_from_dwell(config, dwell) for dwell in dwells])
    h_bar = per.mean(axis=0)
    if R > 1:
        spread = per.std(axis=0, ddof=1) / math.sqrt(R)
        half = _t975(R - 1) * spread
    else:
        half = np.zeros_like(h_bar)
    return StationaryEstimate(
        h_bar=h_bar,
        half_width=half,
        n_servers=config.N,
        replications=R,
        per_replication=per,
        drop_fraction=sum(drops) / sum(jobs) if any(jobs) else 0.0,
        stats=SimStats(
            events=events,
            events_per_s=tuple(e / w for e, w in zip(events, wall)),
            drops=drops,
            jobs=jobs,
            wall_s=wall,
        ),
    )


def simulate(config: SimConfig, seed: Optional[int] = None) -> StationaryEstimate:
    """Run a single replication (half-widths are zero)."""
    task = (config, config.seed if seed is None else seed)
    return _pool(config, [_timed_replication(task)])


def _thread_cap() -> int:
    """COXFIELD_THREADS as a positive int; machine parallelism when unset."""
    cap = os.environ.get("COXFIELD_THREADS")
    if not cap:
        return os.cpu_count() or 1
    try:
        workers = int(cap)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"COXFIELD_THREADS must be a positive integer, got {cap!r}")
    return workers


def replicate(config: SimConfig) -> StationaryEstimate:
    """Run config.replications independent chains and pool them.

    Seeds are seed+0..seed+R-1; the pooled mean and t-based 95%
    half-widths depend only on (config, seed), not on scheduling.
    Parallel workers are capped by the COXFIELD_THREADS environment
    variable (default: machine parallelism); a value that is not a
    positive integer raises ValueError.  Each worker takes its
    replications in chunks of about R / (4 workers), which keeps the
    round trips few when replications are short.
    """
    R = config.replications
    tasks = [(config, config.seed + r) for r in range(R)]
    workers = max(1, min(_thread_cap(), R))
    if workers == 1:
        results = list(map(_timed_replication, tasks))
    else:
        chunk = max(1, R // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_timed_replication, tasks, chunksize=chunk))
    return _pool(config, results)


@dataclass(frozen=True)
class FixedPointComparison:
    distance: float
    excess_entries: int
    total_entries: int
    half_width_max: float


#: Gap to pi that is never significant: deep-tail entries of pi carry
#: O(residual) solver error and the chain may never visit them (zero
#: variance), so gaps below the solver's accuracy are no evidence.
RESIDUAL_ALLOWANCE = 1e-10


def compare_to_fixed_point(
    estimate: StationaryEstimate, pi: StateLike
) -> FixedPointComparison:
    """Sup distance to pi and the count of statistically significant gaps.

    An entry is counted when |h_bar - pi| exceeds 3 half-widths plus
    RESIDUAL_ALLOWANCE.
    """
    target = _as_h(pi, like=estimate.h_bar.shape, whose="the estimate's")
    gap = np.abs(estimate.h_bar - target)
    excess = gap > 3.0 * estimate.half_width + RESIDUAL_ALLOWANCE
    return FixedPointComparison(
        distance=float(gap.max()),
        excess_entries=int(excess.sum()),
        total_entries=gap.size,
        half_width_max=float(np.max(estimate.half_width)),
    )
