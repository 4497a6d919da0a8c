"""Event-driven simulation of the finite-N server cluster.

One replication runs a continuous-time Markov chain over N servers, each
holding a queue (length <= B) whose head job sits in a Coxian phase.
Event selection uses aggregate rates: one exponential clock for the total
rate, then a categorical draw over arrival / probe / per-phase service
classes.  Per-phase member lists with swap-remove give O(1) selection of
the affected server.  Tail fractions are estimated from per-cell dwell
times: whenever a server changes cell, its elapsed time since the last
change (clipped to the measurement window) is charged to the old
(length, phase) cell, and the double tail sum of the dwell matrix is the
time-averaged state.  Averages of valid states over a convex set remain
valid states, so the estimate satisfies the state-space inequalities up
to float summation error.

Replications are independent chains with seeds seed, seed+1, ...; the
pooled estimate and 95% half-widths come from the replication variance.
COXFIELD_THREADS caps how many run in parallel (processes, since the
event loop is pure Python); results are pooled in seed order either way.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .mfode import PolicyModel
from .order import StateLike, _as_h, _tail_sums

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """A simulation request: model, cluster size, window, replications.

    ``warmup=None`` applies max(100, 20/(1 - lam*max(K,1))) time units,
    a rough multiple of the relaxation time; override it for loads close
    to saturation.
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
        if self.N < 1:
            raise ValueError(f"need N >= 1 servers, got {self.N}")
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        warm = self.resolved_warmup
        if not 0 <= warm < self.horizon:
            raise ValueError(
                f"need horizon > warmup >= 0, got {self.horizon} vs {warm}"
            )

    @property
    def resolved_warmup(self) -> float:
        if self.warmup is not None:
            return float(self.warmup)
        jobs = self.model.lam * max(self.model.K or 1, 1)
        if jobs < 1:
            return max(100.0, 20.0 / (1.0 - jobs))
        return 100.0


@dataclass(frozen=True)
class StationaryEstimate:
    """Pooled time-averaged tail fractions with 95% half-widths.

    ``half_width`` is zero everywhere for a single replication (no
    variance information); ``per_replication`` keeps the individual
    averages for custom pooling.
    """

    h_bar: np.ndarray
    half_width: np.ndarray
    n_servers: int
    replications: int
    per_replication: np.ndarray
    drop_fraction: float


class _Draws:
    """Sequential uniform stream in pre-drawn blocks (python floats)."""

    __slots__ = ("_rng", "_buf", "_k")

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._buf = self._rng.random(_BLOCK).tolist()
        self._k = 0

    def __call__(self):
        k = self._k
        buf = self._buf
        if k == _BLOCK:
            buf = self._buf = self._rng.random(_BLOCK).tolist()
            k = 0
        self._k = k + 1
        return buf[k]


def _run_replication(config: SimConfig, seed: int) -> tuple:
    """One chain; returns (dwell matrix (B, n), drop count, job count)."""
    model = config.model
    N, B, n = config.N, model.B, model.n
    warmup = config.resolved_warmup
    horizon = config.horizon
    u = _Draws(seed)

    mu = [0.0] + [float(r) for r in model.service.rates]
    cont = [0.0] + [float(p) for p in model.service.continuations]
    lam_total = model.lam * N
    kind = model.kind
    d = model.d or 1
    K = model.K or 1
    probe_rate = float(model.r or 0.0)

    qlen = [0] * N
    phase = [0] * N
    pos = list(range(N))
    members = [list(range(N))] + [[] for _ in range(n)]  # members[0] = idle
    last = [0.0] * N
    occ = [[0.0] * n for _ in range(B)]
    svc_total = 0.0
    drops = 0
    jobs = 0
    t = 0.0
    events = 0

    def account(i):
        # charge the elapsed dwell in the current cell, inside the window
        li = qlen[i]
        if li > 0:
            start = last[i]
            if start < warmup:
                start = warmup
            if t > start:
                occ[li - 1][phase[i] - 1] += t - start
        last[i] = t

    def unlink(i):
        lst = members[phase[i]]
        k = pos[i]
        moved = lst[-1]
        lst[k] = moved
        pos[moved] = k
        lst.pop()

    def link(i, ph):
        lst = members[ph]
        pos[i] = len(lst)
        lst.append(i)
        phase[i] = ph

    def place(i):
        nonlocal svc_total, drops, jobs
        jobs += 1
        li = qlen[i]
        if li >= B:
            drops += 1
            return
        account(i)
        if li == 0:
            unlink(i)
            link(i, 1)
            svc_total += mu[1]
        qlen[i] = li + 1

    while True:
        idle = len(members[0])
        if kind == "pullpush":
            arr_total = lam_total + probe_rate * idle
        else:
            arr_total = lam_total
        total = arr_total + svc_total
        t += -math.log(1.0 - u()) / total
        if t >= horizon:
            t = horizon
            break
        events += 1
        if not events & 0xFFFF:
            # kill float drift in the incrementally maintained total
            svc_total = sum(len(members[j]) * mu[j] for j in range(1, n + 1))
        x = u() * total
        if x < arr_total:
            if kind == "jsq":
                best = int(u() * N)
                blen = qlen[best]
                ties = 1
                for _ in range(d - 1):
                    s = int(u() * N)
                    sl = qlen[s]
                    if sl < blen:
                        best, blen, ties = s, sl, 1
                    elif sl == blen:
                        ties += 1
                        if u() * ties < 1.0:
                            best = s
                place(best)
            elif kind == "batchjsq":
                # rank the d sampled slots by length at arrival, random
                # tiebreak; the K best get one job each (repeats allowed)
                slots = [(qlen[s], u(), s) for s in (int(u() * N) for _ in range(d))]
                slots.sort()
                for _, _, s in slots[:K]:
                    place(s)
            else:
                if x < lam_total:
                    place(int(u() * N))
                elif N > 1:
                    prober = members[0][int(u() * idle)]
                    target = int(u() * (N - 1))
                    if target >= prober:
                        target += 1
                    if qlen[target] >= 2:
                        account(target)
                        qlen[target] -= 1
                        account(prober)
                        unlink(prober)
                        link(prober, 1)
                        qlen[prober] = 1
                        svc_total += mu[1]
        else:
            x -= arr_total
            j = 1
            while j < n:
                w = len(members[j]) * mu[j]
                if x < w:
                    break
                x -= w
                j += 1
            bucket = members[j]
            i = bucket[int(u() * len(bucket)) % len(bucket)]
            account(i)
            if u() < cont[j]:
                unlink(i)
                link(i, j + 1)
                svc_total += mu[j + 1] - mu[j]
            else:
                li = qlen[i] - 1
                qlen[i] = li
                if li == 0:
                    unlink(i)
                    link(i, 0)
                    svc_total -= mu[j]
                elif j != 1:
                    unlink(i)
                    link(i, 1)
                    svc_total += mu[1] - mu[j]

    for i in range(N):
        account(i)
    return np.asarray(occ), drops, jobs


def _estimate_from_dwell(config, dwell):
    span = config.horizon - config.resolved_warmup
    return _tail_sums(dwell / (config.N * span))


def simulate(config: SimConfig, seed: Optional[int] = None) -> StationaryEstimate:
    """Run a single replication (half-widths are zero)."""
    dwell, drops, jobs = _run_replication(config, config.seed if seed is None else seed)
    h_bar = _estimate_from_dwell(config, dwell)
    return StationaryEstimate(
        h_bar=h_bar,
        half_width=np.zeros_like(h_bar),
        n_servers=config.N,
        replications=1,
        per_replication=h_bar[None],
        drop_fraction=drops / jobs if jobs else 0.0,
    )


def _worker(args):
    config, seed = args
    return _run_replication(config, seed)


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
    positive integer raises ValueError.
    """
    R = config.replications
    seeds = [config.seed + r for r in range(R)]
    workers = max(1, min(_thread_cap(), R))
    if workers == 1:
        results = [_run_replication(config, s) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, [(config, s) for s in seeds]))
    per = np.stack([_estimate_from_dwell(config, dwell) for dwell, _, _ in results])
    drops = sum(r[1] for r in results)
    jobs = sum(r[2] for r in results)
    h_bar = per.mean(axis=0)
    if R > 1:
        spread = per.std(axis=0, ddof=1) / math.sqrt(R)
        half = float(stats.t.ppf(0.975, R - 1)) * spread
    else:
        half = np.zeros_like(h_bar)
    return StationaryEstimate(
        h_bar=h_bar,
        half_width=half,
        n_servers=config.N,
        replications=R,
        per_replication=per,
        drop_fraction=drops / jobs if jobs else 0.0,
    )


@dataclass(frozen=True)
class FixedPointComparison:
    distance: float
    excess_entries: int
    total_entries: int
    half_width_max: float


def compare_to_fixed_point(
    estimate: StationaryEstimate,
    pi: StateLike,
    residual_allowance: float = 1e-10,
) -> FixedPointComparison:
    """Sup distance to pi and the count of statistically significant gaps.

    An entry is counted when |h_bar - pi| exceeds 3 half-widths plus
    ``residual_allowance``.  The allowance covers the solver's own
    accuracy: deep-tail entries of pi carry O(residual) numerical error
    and the chain may never visit them (zero variance), so differences
    below the solver's certified accuracy are not evidence of mismatch.
    """
    target = _as_h(pi)
    if target.shape != estimate.h_bar.shape:
        raise ValueError(
            f"shape mismatch {target.shape} vs {estimate.h_bar.shape}"
        )
    gap = np.abs(estimate.h_bar - target)
    excess = gap > 3.0 * estimate.half_width + residual_allowance
    return FixedPointComparison(
        distance=float(gap.max()),
        excess_entries=int(excess.sum()),
        total_entries=gap.size,
        half_width_max=float(np.max(estimate.half_width)),
    )
