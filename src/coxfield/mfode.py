"""Mean-field ODE engine for FCFS load balancing with Coxian service.

The state h lives on a (B, n) grid (see order.py).  Its drift splits into
a service part shared by every policy and a policy-specific arrival part:

* service: completions at rate nu_j = mu_j (1 - p_j) remove a server from
  {length >= l} only when its length is exactly l, and from every
  {length >= l, phase >= i >= 2} set regardless (the next job restarts in
  phase 1); phase advances feed h_{l,i} from h_{l,i-1}.
* arrivals: each policy is one overflow polynomial
  F_{K,d}(x) = sum_{s<K} (K-s) C(d,s) x^(d-s) (1-x)^s, the expected
  number of a batch's K jobs that land on servers with tail value x when
  they go to the K shortest of d uniform samples.  "batchjsq" is (K, d)
  with batch rate lam per server, "jsq" is (1, d), where F = x^d, and
  "pullpush" is (1, 1) for its uniform local arrivals plus a pull term:
  idle servers pull one waiting job from a uniform peer at rate r.

Level 1 gets lam (K - F(h_{1,1})) in column 1.  Every column i of a
level l >= 2 gets lam times the exact-length mass (h_{l-1,i} - h_{l,i})
times the divided difference of F between h_{l,1} and h_{l-1,1}; in
column 1 that is lam (F(h_{l-1,1}) - F(h_{l,1})).  The divided difference
is evaluated by Gauss-Legendre quadrature of F' along the segment, which
is exact for polynomials and free of the cancellation a raw difference
quotient suffers when the two tail values nearly coincide.

The drift is compiled once per model (``_DriftTerms``).  The service part
is linear and couples a level only to the level above it, so it is one
(n, n) operator per level, h @ same, plus a column-1 term h_{l+1} @ below.
The arrival part keeps lam folded into the constants of F and of its
quadrature rule, and is added in place.  The compiled drift checks
nothing: its input must be C-contiguous and of the model's (B, n).
``drift`` is the checked public entry; ``integrate`` checks a stack once,
and its trials call the compiled drift directly.

Integration is an error-controlled Dormand-Prince 8(5,3) method, DOP853,
written here, batched and deterministic: each start of a stack keeps its
own step, so its numbers do not depend on the other starts, and a trial
step whose result leaves the state space is repeated with a smaller
step, never clipped.  A trial keeps its 13 stages in one buffer, and each
stage sum is one einsum call that adds the stages in order, member by
member.  Each member's time, step, error norm and step control are
Python floats, decided one member at a time.  It is the one flow: the
certificates take their states from it.  Fixed points are found by
pseudo-transient continuation from the empty state, or from the full
state when the load lam K is at least 1:
backward-Euler steps (I/tau - J) delta = f(h) on the full
(B n)-dimensional drift, with J the exact Jacobian, a complex step on
3 n + 1 coloured probes, and the pseudo-time step tau growing as the
drift falls, until the step is plain Newton.
The fixed point is unique and attracts every valid state, so a valid
state with zero drift is it; iterates that leave the state space are
rejected with a smaller tau rather than clipped.

The certificates (monotonicity, attraction and Lyapunov reports) are
computed here only, and each ``verify`` suite makes one call.  The
attraction report integrates the empty and the full state; the others
integrate their starts as one stack (in chunks of at most STACK_FLOATS
floats, counting the samples and the integrator's working states).  The
Lyapunov report checks its closed-form rates exactly: both functionals
are linear in h, so their rate along the flow is their value at the drift.

Models are built from Python values; their JSON form is read and written
by ``coxfield.cli``.
"""

import copy
import math
import numbers
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .dist import (
    CoxianDistribution,
    Distribution,
    _as_coxian,
    has_decreasing_completion_rates,
    moments,
    remaining_service_times,
)
from .order import (
    MeanFieldState,
    OMEGA_TOL,
    StateLike,
    _as_h,
    _cell_diffs,
    _check_tol,
    _leq_arrays,
    _margins,
    _phase_diffs,
    full_state,
    state_space_report,
    upper_envelope,
    zero_state,
)

#: the optional model fields each policy reads; it ignores the others
POLICY_FIELDS = {"jsq": ("d",), "pullpush": ("r",), "batchjsq": ("d", "K")}

#: sup-norm drift at or below which continuation steps become plain Newton
PRE_NEWTON_DRIFT = 1e-8

#: residual required of a polished fixed point
FIXED_POINT_RESIDUAL = 1e-12

#: tail mass threshold for automatic buffer growth
TAIL_MASS_TOL = 1e-10

_UNIT_MEAN_TOL = 1e-9


class FixedPointError(RuntimeError):
    """Raised when the solver cannot reach the target residual.

    Carries the residual history so callers can distinguish slow progress
    (near-instability) from divergence.
    """

    def __init__(self, message: str, history: Sequence[float] = ()):
        super().__init__(message)
        self.history = tuple(float(r) for r in history)


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the state space beyond tolerance."""


def _integer(name: str, value, low: int = 1) -> int:
    """``value`` as an int >= ``low``: 2.0 counts, while 2.5, inf, NaN, None
    or a string raise a ValueError naming ``name``.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < low:
        raise ValueError(f"need an integer {name} >= {low}, got {value!r}")
    return whole


def _level(L, B: int) -> int:
    """Level ``L`` of a state with ``B`` levels, as an int.

    A number outside 1..B raises a ValueError naming the range; any other
    non-integer (2.5, None, a string) raises ``_integer``'s.
    """
    if isinstance(L, numbers.Real) and not 1 <= L <= B:
        raise ValueError(f"need 1 <= L <= B, got L={L}")
    return _integer("L", L)


def _set_integer(obj, name: str, low: int = 1) -> int:
    """Store field ``name`` of a frozen dataclass as ``_integer`` checks it."""
    whole = _integer(name, getattr(obj, name), low)
    object.__setattr__(obj, name, whole)
    return whole


@dataclass(frozen=True)
class PolicyModel:
    """A load-balancing policy with its rates and service distribution.

    ``kind`` is one of "jsq" (needs d), "pullpush" (needs r), "batchjsq"
    (needs K <= d); other fields are ignored.  ``service`` is a Coxian, or
    a hyperexponential, which is stored converted to its Coxian form; it
    must have unit mean and nonincreasing completion rates, both structural
    requirements of the ODE family; violations raise.  Instability
    (``load`` = lam K >= 1, with K = 1 unless batched) only warns: with a
    finite buffer the dynamics stay well defined.  ``B=None`` requests
    automatic buffer growth in fixed_point.
    """

    kind: str
    lam: float
    service: CoxianDistribution
    B: Optional[int] = None
    d: Optional[int] = None
    K: Optional[int] = None
    r: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_FIELDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"arrival rate must be positive, got {self.lam!r}")
        if self.B is not None:
            _set_integer(self, "B")
        object.__setattr__(self, "service", _as_coxian(self.service))
        m1 = moments(self.service, 1)
        if abs(m1 - 1.0) > _UNIT_MEAN_TOL:
            raise ValueError(f"service must have unit mean, got {m1!r}")
        check = has_decreasing_completion_rates(self.service, tol=1e-9)
        if not check.is_member:
            raise ValueError(
                "service completion rates must be nonincreasing "
                f"(margin {check.margin!r})"
            )

        if self.kind == "pullpush":
            if self.r is None or not (math.isfinite(self.r) and self.r >= 0):
                raise ValueError(
                    f"pullpush needs a finite probe rate r >= 0, got {self.r!r}"
                )
        else:
            d = _set_integer(self, "d")
            if self.kind == "batchjsq" and _set_integer(self, "K") > d:
                raise ValueError(f"batchjsq needs 1 <= K <= d, got K={self.K!r}")
        if self.load >= 1:
            warnings.warn(
                f"{self.kind} with load {self.load} is unstable", stacklevel=3
            )

    @property
    def n(self) -> int:
        return self.service.n

    @property
    def arrival(self) -> tuple:
        """The policy's (K, d, pull); fields it does not own are never read."""
        if self.kind == "jsq":
            return 1, self.d, 0.0
        if self.kind == "pullpush":
            return 1, 1, self.r
        return self.K, self.d, 0.0

    @property
    def load(self) -> float:
        """Jobs arriving per server per unit time, lam K; stable below 1."""
        return self.lam * self.arrival[0]

    @property
    def rate_bound(self) -> float:
        """Total event-rate scale governing the integrator step bound."""
        K, d, pull = self.arrival
        return self.lam * max(d, K) + float(np.max(self.service.rates)) + pull

    def with_buffer(self, B: int) -> "PolicyModel":
        """This model with buffer B; it shares the compiled drift, which reads no B."""
        model = copy.copy(self)
        vars(model).update(B=_integer("B", B), _terms=self._terms)
        return model

    @cached_property
    def _terms(self) -> "_DriftTerms":
        """Drift constants, built on first use and kept with the model."""
        return _DriftTerms(self)


# ---------------------------------------------------------------------------
# overflow polynomial calculus for batch sampling


def _overflow_terms(K: int, d: int) -> tuple:
    """(c, a, b) terms of F_{K,d}(x) = sum of c x^a (1-x)^b, s = K-1 down to 0."""
    return tuple(((K - s) * math.comb(d, s), d - s, s) for s in range(K - 1, -1, -1))


def _prime_terms(K: int, d: int) -> tuple:
    """(c, a, b) terms of the derivative F'_{K,d}, s = 0 up to K-1."""
    return tuple((d * math.comb(d - 1, s), d - 1 - s, s) for s in range(K))


def _poly(x, terms):
    """Sum of c x^a (1-x)^b over the (c, a, b) terms, in their order."""
    acc = None
    for c, a, b in terms:
        term = c * x if a == 1 else c * x**a
        if b:
            term = term * (1 - x if b == 1 else (1 - x) ** b)
        acc = term if acc is None else acc + term
    return acc


def _gl_terms(K: int, d: int, scale: float) -> tuple:
    """Gauss-Legendre rule for the mean of F'_{K,d} on a segment, times scale.

    One (t, terms) pair per node t on [0, 1], its weight and ``scale``
    folded into the constants of F''s terms; exact for F' of degree d - 1.
    Nodes and constants are Python floats.
    """
    u, w = np.polynomial.legendre.leggauss(max(1, (d + 1) // 2))
    prime = _prime_terms(K, d)
    return tuple(
        ((t + 1.0) / 2.0, tuple((wt / 2.0 * scale * c, a, b) for c, a, b in prime))
        for t, wt in zip(u.tolist(), w.tolist())
    )


def _slope(x1, gap, rule):
    """Divided difference of F between x1 and x1 + gap: the mean of F'."""
    acc = None
    for t, terms in rule:
        term = _poly(x1 + t * gap, terms)
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# drift assembly; all functions broadcast over leading axes of h


class _DriftTerms:
    """The drift of one model, compiled once by ``PolicyModel._terms``.

    The service drift is linear and couples level l only to level l + 1:
    it is ``h @ same`` plus ``h_{l+1} @ below`` in column 1 of level l,
    with ``same`` (n, n) and ``below`` (n,) built from the completion rates
    nu_j = mu_j (1 - p_j) and the phase-advance rates mu_i p_i.  Arrivals
    follow the overflow polynomial of ``model.arrival``'s (K, d), with lam
    folded into its constants and into the quadrature rule of its slope;
    ``pull`` is the probe rate.  Each stack member's rows are computed on
    their own, so its bytes do not depend on the rest of the stack.
    """

    def __init__(self, model: PolicyModel):
        K, d, self.pull = model.arrival
        lam = model.lam
        self.lam_K = lam * K
        self.overflow = tuple((lam * c, a, b) for c, a, b in _overflow_terms(K, d))
        self.rule = _gl_terms(K, d, lam)
        rates = np.asarray(model.service.rates, dtype=float)
        conts = np.asarray(model.service.continuations, dtype=float)
        nu = rates * (1 - conts)
        # in the phase differences d_j = h_j - h_{j+1} of level l, phase i
        # loses sum_{j>=i} nu_j d_j and gains mu_{i-1} p_{i-1} d_{i-1}, and
        # phase 1 of level l - 1 gains sum_j nu_j d_j; d = h @ to_diffs
        n = len(nu)
        to_diffs = np.eye(n) - np.eye(n, k=-1)
        by_diff = np.diag(rates[:-1] * conts[:-1], k=1)
        by_diff -= np.tril(np.outer(nu, np.ones(n)))
        self.same = to_diffs @ by_diff
        self.below = to_diffs @ nu

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """The drift at h (..., B, n), unchecked.

        h must be C-contiguous and of the model's (B, n): ``drift`` is the
        checked public entry, and ``integrate`` checks a stack once before
        its trials call this directly on fresh stage arrays.  Each
        exact-length mass h_{l-1} - h_l is taken once; its column 1 is the
        gap of the slope.
        """
        out = h @ self.same
        upper = h[..., 1:, :]
        out[..., :-1, 0] += upper @ self.below
        out[..., 0, 0] += self.lam_K - _poly(h[..., 0, 0], self.overflow)
        exact = h[..., :-1, :] - upper
        slope = _slope(upper[..., 0], exact[..., 0], self.rule)
        out[..., 1:, :] += exact * slope[..., None]
        if self.pull and h.shape[-2] > 1:
            # a pull moves a waiting job from a length >= 2 server, which keeps
            # its phase, to an idle server, which starts the job in phase 1
            pull = self.pull * (1.0 - h[..., 0, 0])
            out[..., 0, 0] += pull * upper[..., 0, 0]
            out[..., 1:, :] -= pull[..., None, None] * _cell_diffs(upper)
        return out


def _model_states(model: PolicyModel, h: StateLike) -> np.ndarray:
    """The (..., B, n) array of h, whose (B, n) must be the model's."""
    return _as_h(h, batch=True, like=(model.B, model.n))


def drift(model: PolicyModel, h: StateLike) -> np.ndarray:
    """Policy arrivals plus service drift at h, whose (B, n) must be the model's."""
    # one memory layout, so that each state's rows take the same products
    return model._terms(np.ascontiguousarray(_model_states(model, h)))


# ---------------------------------------------------------------------------
# integration


@dataclass(frozen=True)
class IntegrationStats:
    """Where an integration spent its work.

    Step counts add up over the members of a stack.  ``invalid_steps`` are
    the rejected steps whose result left the state space.  ``drift_calls``
    counts drift evaluations, each one batched call over the members still
    short of the next sample, so one start takes 1 + 12 (accepted +
    rejected) of them.  ``min_margin`` is the smallest state-space slack
    (``order._margins``) of the starts and of every accepted step's result.
    ``wall_s`` is the wall time.
    """

    accepted_steps: int
    rejected_steps: int
    invalid_steps: int
    drift_calls: int
    min_margin: float
    wall_s: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times (strictly increasing) and state stack.

    ``states[k]`` is the state at ``times[k]``; with batched initial
    conditions the state axes follow the time axis.  ``stats`` says where
    the integration spent its work.
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegrationStats

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def step_bound(model: PolicyModel) -> float:
    """First trial step of the integrator, 0.1 over the event-rate scale.

    Every start's first trial step is this length, and it is the unit of
    the step floor: a start whose proposed step falls below _STEP_FLOOR
    times it fails the integration.
    """
    return 0.1 / model.rate_bound


#: state-space tolerance an integrator step's result or a continuation
#: iterate must meet to be accepted
_ITERATE_TOL = 1e-8

#: relative and absolute error tolerances of the adaptive integrator
RTOL = 1e-11
ATOL = 1e-11

#: Largest accepted T * model.rate_bound of one integration.  Stability,
#: not accuracy, holds steps near the fixed point to about 5 / rate_bound,
#: so this caps a flow at about 2e6 steps; the README model's ``verify
#: attract`` default is 3,800.
MAX_HORIZON = 1e7

#: Largest accepted ``samples`` of one integration.  Each sample time ends a
#: step, so samples add steps to those MAX_HORIZON allows: with both caps a
#: flow takes at most about 3e6 steps and holds 1e6 + 1 sampled states.
MAX_SAMPLES = 10**6

#: step-size factor after a trial that left the state space
_INVALID_SHRINK = 0.25

#: a member whose proposed step falls below this fraction of step_bound
#: cannot follow the flow within tolerance, and the integration fails
_STEP_FLOOR = 1e-12

# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10), with the coefficients of Hairer's dop853 rounded to doubles, the
# same bits as scipy's DOP853 uses: stage i + 2 takes the drift at
# y + h sum_j _DOP_A[i][j] k_j, _DOP_B weighs the 12 stages into the
# eighth-order result, whose drift is the next step's first stage (FSAL),
# and _DOP_E5 and _DOP_E3 weigh them into the fifth- and third-order local
# error estimates.  Each stage sum is one einsum, which adds the weighted
# stages one at a time in stage order, so a member's sums depend on its
# own stages alone.


def _stage_weights(w) -> np.ndarray:
    """The weights w as a view with a stride of two floats.

    With unit-stride weights einsum sums the stages of a one-float state
    as a dot product, in another order than the stages of a larger stack.
    """
    buf = np.zeros((len(w), 2))
    buf[:, 0] = w
    return buf[:, 0]


_DOP_A = tuple(_stage_weights(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
))
_DOP_B = _stage_weights((
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
))
_DOP_E5 = _stage_weights((
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
))
_DOP_E3 = _stage_weights((
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
))


def _stage_sum(w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_j w_j ks[j] over the first len(w) stages, in one einsum call."""
    return np.einsum("j,j...->...", w, ks[: len(w)], optimize=False)


def _dop_trial(model, y, k1, h):
    """One DOP853 trial step of per-member length h, shaped (M, 1, 1).

    The 13 stages share one (13, M, B, n) buffer, and every stage sum is
    one einsum over it.  Returns the eighth-order result, its drift and the
    per-member error norms e5^2 / sqrt(e5^2 + 0.01 e3^2) as a list of
    Python floats, 0 where the denominator is 0, with e5 and e3 the max
    over (B, n) of |est| / (ATOL + RTOL max(|y|, |y_new|)) for the fifth-
    and third-order estimates.  The norm takes the same correctly rounded
    operations, one at a time, as it would in numpy.
    """
    terms = model._terms
    ks = np.empty((len(_DOP_E5),) + y.shape)
    ks[0] = k1
    for s, row in enumerate(_DOP_A, 1):
        ks[s] = terms(y + h * _stage_sum(row, ks))
    y_new = y + h * _stage_sum(_DOP_B, ks)
    ks[-1] = terms(y_new)
    scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
    e5, e3 = (
        (np.abs(h * _stage_sum(e, ks)) / scale).max(axis=(-2, -1)).tolist()
        for e in (_DOP_E5, _DOP_E3)
    )
    # on a short enough step a^2 and b^2 both underflow to 0
    errs = [a * a / math.sqrt(norm) if (norm := a * a + 0.01 * (b * b)) else 0.0
            for a, b in zip(e5, e3)]
    return y_new, ks[-1], errs


def _growth(err: float) -> float:
    """Step-size factor 0.9 err^(-1/8) clamped to [0.2, 5].

    Taken in Python floats, one member at a time, so that a member's steps
    never depend on the size of the stack it shares.
    """
    return 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err**-0.125))


def _integrate_adaptive(model, h, times, margin):
    """Sampled states and stats of the DOP853 flow from h (M, B, n).

    Each member keeps its own time, step and error norm, and each round
    steps only the members short of the next sample time, so a member's
    bytes do not depend on the other members of its stack.  A trial fails
    when its error norm exceeds 1 or its result leaves the state space
    (tolerance _ITERATE_TOL); it is repeated with a smaller step.  Steps are
    cut to land exactly on the sample times.  ``margin`` is the starts'
    smallest state-space slack.

    The stages, the error estimates and the margins are numpy calls over
    the members of a round.  Each member's times, steps and decisions are
    Python floats in one loop over them, which on the small stacks of the
    reports costs less than numpy's calls on arrays of a few floats and
    takes the same correctly rounded operations.
    """
    members = len(h)
    out = np.empty((len(times),) + h.shape)
    out[0] = h
    slope = drift(model, h)
    calls, accepted, rejected, invalid = 1, 0, 0, 0
    bound = step_bound(model)
    t, step = [0.0] * members, [bound] * members
    floor = _STEP_FLOOR * bound
    for k, target in enumerate(times[1:].tolist(), 1):
        while True:
            act = [m for m in range(members) if t[m] < target]
            if not act:
                break
            trial = [min(step[m], target - t[m]) for m in act]
            sel = slice(None) if len(act) == members else act
            y_new, slope_new, errs = _dop_trial(
                model, h[sel], slope[sel], np.array(trial)[:, None, None]
            )
            calls += 12
            done = []  # the positions in act of the accepted trials
            for i, (m, gap, err) in enumerate(zip(act, _margins(y_new).tolist(), errs)):
                valid = gap >= -_ITERATE_TOL
                ok = valid and err <= 1.0
                if valid:
                    proposal = trial[i] * _growth(err)
                else:
                    proposal = trial[i] * _INVALID_SHRINK
                    invalid += 1
                landed = ok and step[m] >= target - t[m]
                if landed and proposal < step[m]:
                    proposal = step[m]
                if proposal < floor:
                    raise IntegrationError(
                        f"step fell below {floor:.3g} at t={t[m]:.6g} (start {m}); "
                        f"the flow cannot be followed within tolerance {RTOL:g}"
                    )
                step[m] = proposal
                if ok:
                    done.append(i)
                    t[m] = target if landed else t[m] + trial[i]
                    if gap < margin:
                        margin = gap
            accepted += len(done)
            rejected += len(act) - len(done)
            if len(done) == members:
                h[...], slope[...] = y_new, slope_new
            elif done:
                rows = [act[i] for i in done]
                h[rows], slope[rows] = y_new[done], slope_new[done]
        out[k] = h
    return out, (accepted, rejected, invalid, calls, margin)


def integrate(
    model: PolicyModel, h0: StateLike, T: float, samples: int = 50
) -> Trajectory:
    """Integrate the mean-field ODE, sampled at ``samples`` + 1 even times.

    The sample times include both endpoints and, for T > 0, strictly
    increase; ``T`` must be finite and nonnegative, with ``T *
    model.rate_bound`` at most MAX_HORIZON, and ``samples`` an integer from
    1 to MAX_SAMPLES.
    The flow is integrated by the error-controlled Dormand-Prince 8(5,3)
    method DOP853 (RTOL = ATOL = 1e-11) with one step size per start: a
    trial step whose error norm exceeds 1 or whose result leaves the state
    space (tolerance 1e-8) is repeated with a smaller step, so every
    accepted state is valid and none is clipped.
    ``h0`` may carry leading batch axes to integrate many trajectories at
    once; each start's numbers are those it gets alone.  Raises
    IntegrationError when a start is outside the state space at 1e-8
    (a non-finite entry included) or cannot be followed.
    """
    started = time.perf_counter()
    if not 0 <= T < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {T!r}")
    if T * model.rate_bound > MAX_HORIZON:
        raise ValueError(
            f"horizon {T!r} is {T * model.rate_bound:.3g} event-rate units, "
            f"above {MAX_HORIZON:.0e}"
        )
    if isinstance(samples, numbers.Real) and samples < 1:
        raise ValueError(f"need at least one sample after the start, got {samples!r}")
    samples = _integer("samples", samples)
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {samples!r}")
    h = np.array(_model_states(model, h0), dtype=float, copy=True, order="C")
    stack = h.reshape((-1,) + h.shape[-2:])
    margins = _margins(stack)
    bad = np.flatnonzero(~(margins >= -_ITERATE_TOL))
    if bad.size:
        report = state_space_report(stack[bad[0]], tol=_ITERATE_TOL)
        raise IntegrationError(
            f"start {bad[0]} is outside the valid polytope: "
            + ", ".join(report.violations[:5])
        )
    margin = float(np.min(margins, initial=np.inf))
    if T == 0:
        times, out, counts = np.zeros(1), stack[None], (0, 0, 0, 0, margin)
    else:
        times = np.linspace(0.0, T, samples + 1)
        if not (np.diff(times) > 0).all():
            raise ValueError(f"horizon {T!r} has no {samples} distinct sample times")
        out, counts = _integrate_adaptive(model, stack, times, margin)
    stats = IntegrationStats(*counts, wall_s=time.perf_counter() - started)
    return Trajectory(times, out.reshape((len(times),) + h.shape), stats)


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class SolverStats:
    """Where a fixed-point solve spent its work.

    ``drift_calls`` counts drift evaluations, a batched Jacobian build
    counting as one.  ``accepted_steps`` and ``rejected_steps`` count
    continuation steps; a step is rejected when its iterate leaves the
    state space.  With automatic buffer growth the counts add up over
    every buffer tried.  ``wall_s`` is the wall time of the whole solve.
    """

    drift_calls: int
    accepted_steps: int
    rejected_steps: int
    buffers_tried: int
    wall_s: float


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    pi: MeanFieldState
    residual: float
    newton_steps: int
    history: tuple
    stats: SolverStats

    @property
    def B(self) -> int:
        return self.pi.B


_AUTO_BUFFERS = (16, 32, 64, 128, 256, 512)

#: first pseudo-time step of the continuation
_TAU_START = 1.0

#: pseudo-time step below which the continuation gives up
_TAU_FLOOR = 1e-9

#: continuation steps, accepted or rejected, one buffer may take
NEWTON_MAX = 200

#: imaginary step of the complex-step Jacobian, Im f(h + i e) / e
_CS_STEP = 1e-100


@lru_cache(maxsize=8)
def _colouring(B: int, n: int, pull: bool) -> tuple:
    """Curtis-Powell-Reid colours of J, whose level l reads levels l - 1 to
    l + 1 and the pull's h_{1,1}: column (l, j) is in probe (l mod 3) n + j,
    a pull's h_{1,1} in probe 3 n, and row (L, i) keeps levels L - 1 to L + 1.
    """
    level = np.arange(B * n) // n
    colour = level % 3 * n + np.arange(B * n) % n
    near = abs(level[:, None] - level) <= 1
    if pull:
        colour[0], near[:, 0] = 3 * n, True
    probes = _CS_STEP * 1j * (colour == np.arange(colour.max() + 1)[:, None])
    colour.flags.writeable = near.flags.writeable = probes.flags.writeable = False
    return colour, near, probes.reshape(-1, B, n)


def _jacobian(model: PolicyModel, h: np.ndarray) -> np.ndarray:
    """The drift's exact Jacobian at h (B, n) from 3 n + 1 complex probes."""
    B, n = h.shape
    colour, near, probes = _colouring(B, n, bool(model.arrival[2]))
    out = model._terms(h + probes).imag / _CS_STEP  # drift() casts to float
    return np.where(near, out.reshape(-1, B * n)[colour].T, 0.0)


def fixed_point(
    model: PolicyModel,
    drift_tol: float = PRE_NEWTON_DRIFT,
    residual_tol: float = FIXED_POINT_RESIDUAL,
) -> FixedPointResult:
    """Locate the fixed point by pseudo-transient continuation.

    Each step solves (I/tau - J) delta = f(h) and moves to h + delta: a
    backward-Euler step of pseudo-time tau along the ODE, with J the exact
    Jacobian at h (``_jacobian``).  tau grows by switched evolution
    relaxation, tau <- tau |f_old| / |f_new| (sup norms).  Once the sup
    drift is at most ``drift_tol`` the 1/tau shift is dropped and the steps
    are plain Newton.  A trial iterate outside the state space (tolerance
    1e-8) is rejected and solved again with the same J at shift 1/tau, tau
    divided by 4, so small steps follow the flow, which attracts every
    valid state to the unique fixed point.  Iterates are never clipped.

    Once the residual is at most ``residual_tol`` one more plain Newton
    step polishes pi down to rounding level; it counts as an ordinary
    step.  Each buffer takes at most NEWTON_MAX steps, accepted or
    rejected.  Stable loads start from the empty state and take about 8 to
    26 steps.  Overloaded models (``model.load`` >= 1) start from the full
    state, next to their nearly full fixed point: from empty their queues
    would fill level by level at one to two steps a level.  The returned
    pi has residual at most ``residual_tol`` and passes
    ``state_space_report`` at its default tolerance.  With ``B=None`` the
    buffer doubles from 16, each size solved afresh, until the top level's
    tail mass drops below 1e-10, emulating an infinite buffer.  Raises
    FixedPointError (with the residual history) when tau falls below 1e-9
    or the steps run out, which in practice flags loads at the edge of
    stability.  A NaN tolerance raises a ValueError naming it.
    """
    _check_tol(drift_tol, "drift_tol")
    _check_tol(residual_tol, "residual_tol")
    started = time.perf_counter()
    calls = accepted = rejected = 0
    for tried, B in enumerate(_AUTO_BUFFERS if model.B is None else (model.B,), 1):
        h = (full_state if model.load >= 1 else zero_state)(B, model.n).h
        eye = np.eye(h.size)
        fval = drift(model, h)
        sup = float(np.max(np.abs(fval)))
        history = [sup]
        calls += 1
        first = accepted + rejected  # this buffer's steps count from here
        tau, polished = _TAU_START, False
        while sup > residual_tol or not polished:
            jac = _jacobian(model, h)
            calls += 1
            shift = 0.0 if sup <= drift_tol else 1.0 / tau
            while True:
                if accepted + rejected - first >= NEWTON_MAX:
                    raise FixedPointError(
                        f"no convergence in {NEWTON_MAX} continuation steps "
                        f"(residual {sup:.3e}); model may be near instability",
                        history,
                    )
                try:
                    step = np.linalg.solve(shift * eye - jac, fval.ravel())
                except np.linalg.LinAlgError:
                    step = np.full(h.size, np.nan)
                trial = h + step.reshape(h.shape)
                if _margins(trial) >= -_ITERATE_TOL:  # a NaN margin fails
                    break
                rejected += 1
                tau /= 4.0
                if tau < _TAU_FLOOR:
                    raise FixedPointError(
                        f"continuation step fell below {_TAU_FLOOR:g} "
                        f"at residual {sup:.3e}",
                        history,
                    )
                shift = 1.0 / tau
            trial_f = drift(model, trial)
            calls += 1
            trial_sup = float(np.max(np.abs(trial_f)))
            tau *= sup / max(trial_sup, np.finfo(float).tiny)
            polished = sup <= residual_tol
            h, fval, sup = trial, trial_f, trial_sup
            accepted += 1
            history.append(sup)
        if not _margins(h) >= -OMEGA_TOL:
            shown = state_space_report(h).violations[0]
            raise FixedPointError(f"solver state violates {shown}", history)
        if model.B is not None or h[-1, 0] < TAIL_MASS_TOL:
            wall = time.perf_counter() - started
            stats = SolverStats(calls, accepted, rejected, tried, wall)
            pi = MeanFieldState(h)
            return FixedPointResult(pi, sup, len(history) - 1, tuple(history), stats)
    raise FixedPointError(f"tail mass still above {TAIL_MASS_TOL} at B={B}")


@dataclass(frozen=True)
class StructureCheck:
    """Residuals of the fixed-point phase structure.

    ``phase_residual`` measures the level-1 identity pi_{1,i} =
    pi_{1,1} * sum_{j>=i} beta_j with beta_j = (prod_{s<j} p_s)/mu_j;
    ``generator_residual`` certifies independently that beta spans the
    null space of the restart generator S + (-S 1) alpha.
    """

    phase_residual: float
    generator_residual: float

    @property
    def residual(self) -> float:
        return max(self.phase_residual, self.generator_residual)


def fixed_point_structure_residual(
    pi: StateLike, service: Distribution
) -> StructureCheck:
    """Check the level-1 phase marginal a fixed point must carry.

    A HyperExponential ``service`` is read as its Coxian form.
    """
    service = _as_coxian(service)
    h = _as_h(pi, like=(None, service.n), whose="the service's")
    rates = np.asarray(service.rates, dtype=float)
    conts = np.asarray(service.continuations, dtype=float)
    beta = np.concatenate([[1.0], np.cumprod(conts[:-1])]) / rates
    tails = np.flip(np.cumsum(np.flip(beta)))
    phase_residual = float(np.max(np.abs(h[0, :] - h[0, 0] * tails)))

    gen = service.generator()
    restart = gen.copy()
    restart[:, 0] -= gen @ np.ones(service.n)
    generator_residual = float(np.max(np.abs(beta @ restart)))
    return StructureCheck(phase_residual, generator_residual)


# ---------------------------------------------------------------------------
# certificates: Lyapunov functionals, order preservation, attraction


def _dots(rows, vec):
    """rows @ vec, one np.dot per row: a batched matmul may round otherwise."""
    flat = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
    return np.array([np.dot(row, vec) for row in flat]).reshape(rows.shape[:-1])[()]


#: floats one chunk of a report's stack may hold, its samples and the
#: integrator's working states together: the reports integrate larger
#: stacks chunk by chunk (a start's numbers do not depend on its chunk),
#: so their memory stays bounded however many starts they are given
STACK_FLOATS = 1 << 21

#: states the DOP853 flow holds per integrated member besides its samples:
#: the 13-stage trial buffer and the temporaries of a trial
_WORK_STATES = 17


def _chunks(run, count: int, size: int, members: int, samples: int) -> tuple:
    """``run`` on consecutive slices of ``count`` starts, its arrays joined.

    Each start is ``members`` integrated states of ``size`` floats, each
    sampled at ``samples`` + 1 times; a slice holds the starts that fit
    STACK_FLOATS.  ``run(part)`` integrates and reduces one slice to a tuple
    of arrays, and the k-th arrays of the slices are joined on their first
    axis.  A chunk's trajectory is released when ``run`` returns.
    """
    per_start = members * (samples + 1 + _WORK_STATES) * size
    step = max(1, STACK_FLOATS // per_start)
    parts = [run(slice(k, k + step)) for k in range(0, count, step)]
    return tuple(map(np.concatenate, zip(*parts)))


def lyapunov_values(h: StateLike, service: Distribution, L: int = 1):
    """The two decreasing functionals: tail mass above L and a phase term.

    Returns (sum_{l>=L} h_{l,1}, sum_{i>=2} h_{1,i} (R_i - R_{i-1})) with
    R the expected remaining service times per phase.  Both are
    nonnegative whenever completion rates are nonincreasing.  Over leading
    batch axes of ``h`` both are arrays; for one state, floats.  A
    HyperExponential ``service`` is read as its Coxian form.
    """
    service = _as_coxian(service)
    arr = _as_h(h, batch=True, like=(None, service.n), whose="the service's")
    L = _level(L, arr.shape[-2])
    rem = remaining_service_times(service)
    z1 = arr[..., L - 1 :, 0].sum(axis=-1)
    z2 = _dots(arr[..., 0, 1:], np.diff(rem))
    return z1, z2


def lyapunov_rates(model: PolicyModel, h: StateLike, L: int = 1):
    """Closed-form time derivatives of the two Lyapunov functionals.

    The arrivals into {length >= L} telescope over the levels to
    lam (F(h_{L-1,1}) - F(h_{B,1})), with h_{0,1} = 1 and F(1) = K, less
    pullpush's pulls out of level L, r (1 - h_{1,1}) h_{L,1}, when L >= 2;
    the completions at length exactly L leave it.  Broadcasts over leading
    batch axes of ``h`` like ``lyapunov_values``.
    """
    arr = _model_states(model, h)
    L = _level(L, arr.shape[-2])
    terms = model._terms
    top = terms.lam_K if L == 1 else _poly(arr[..., L - 2, 0], terms.overflow)
    arrivals = top - _poly(arr[..., -1, 0], terms.overflow)
    if terms.pull and L >= 2:
        arrivals = arrivals - terms.pull * (1.0 - arr[..., 0, 0]) * arr[..., L - 1, 0]
    nu = np.asarray(model.service.completion_rates)
    d_phase = _phase_diffs(arr)
    dz1 = arrivals - _dots(d_phase[..., L - 1, :], nu)
    dz2 = -arr[..., 0, 0] + _dots(d_phase[..., 0, :], nu)
    return dz1, dz2


#: largest accepted gap between a closed-form Lyapunov rate and the
#: functionals of the drift
LYAPUNOV_RATE_TOL = 1e-6

#: sampled times per flow at which ``lyapunov_report`` checks the rates
LYAPUNOV_SAMPLES = 10


@dataclass(frozen=True, eq=False)
class LyapunovReport:
    """Per start: worst rate dz1 + dz2, worst gap to the drift's rate, pass."""

    max_rates: np.ndarray
    max_rate_gaps: np.ndarray
    passed: np.ndarray
    fixed_point: FixedPointResult
    ok: bool


def lyapunov_report(
    model: PolicyModel, starts, T: float, tol: float = 1e-9
) -> LyapunovReport:
    """Check that the Lyapunov functionals decrease along flows above pi.

    Each of the (M, B, n) ``starts`` is lifted to its upper envelope with
    pi, and the stack is integrated to T, as ``verify lyapunov`` does.  At
    each of the LYAPUNOV_SAMPLES + 1 samples h the closed-form rate
    dz1 + dz2 (L = 1) is compared with z1 + z2 of the drift at h, which is
    the exact rate along the flow, as both functionals are linear in h.  A
    start passes when its worst rate is at most ``tol`` and its worst gap
    at most LYAPUNOV_RATE_TOL.
    """
    _check_tol(tol)
    starts = _model_states(model, starts)
    starts = starts.reshape((-1,) + starts.shape[-2:])
    if not len(starts):
        raise ValueError("need at least one start")
    fp = fixed_point(model.with_buffer(starts.shape[-2]))

    def run(part):
        top = upper_envelope(starts[part], fp.pi)
        states = integrate(model, top, T, samples=LYAPUNOV_SAMPLES).states
        rate = np.add(*lyapunov_rates(model, states))
        exact = np.add(*lyapunov_values(drift(model, states), model.service))
        return rate.max(axis=0), np.abs(exact - rate).max(axis=0)

    max_rates, gaps = _chunks(run, len(starts), starts[0].size, 1, LYAPUNOV_SAMPLES)
    passed = (max_rates <= tol) & (gaps <= LYAPUNOV_RATE_TOL)
    return LyapunovReport(max_rates, gaps, passed, fp, bool(passed.all()))


@dataclass(frozen=True, eq=False)
class OrderPreservationReport:
    """Order along the flow, overall and per pair (violation time NaN if none)."""

    ok: bool
    times: np.ndarray
    violation_time: Optional[float]
    violation_pair: Optional[int]
    min_margin: float
    pair_margins: np.ndarray
    pair_violation_times: np.ndarray


def monotonicity_report(
    model: PolicyModel,
    lo: StateLike,
    hi: StateLike,
    T: float,
    samples: int = 50,
    tol: float = 1e-8,
) -> OrderPreservationReport:
    """Integrate an ordered pair (or stacks of pairs) and track the order.

    ``lo`` and ``hi`` may carry leading batch axes (pairs are matched
    elementwise) and are integrated as one stack (in chunks of at most
    STACK_FLOATS floats), as ``verify monotone`` does.  Inputs must be
    ordered at t=0; the margin is the most negative componentwise or
    sequence-functional gap; ``violation_pair`` indexes the flat stack.
    """
    samples = _integer("samples", samples)
    _check_tol(tol)
    a, b = _as_h(lo, batch=True), _as_h(hi, batch=True)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not a.size:
        raise ValueError("need at least one pair")
    if not np.all(_leq_arrays(a, b, tol)[0]):
        raise ValueError("initial states are not ordered")
    pairs = a.shape[:-2]
    a, b = a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + b.shape[-2:])
    times = []

    def run(part):
        traj = integrate(model, np.stack([a[part], b[part]]), T, samples=samples)
        times[:] = [traj.times]  # the same in every chunk
        lo_t, hi_t = traj.states[:, 0], traj.states[:, 1]
        ordered, _, dp_min = _leq_arrays(lo_t, hi_t, tol)
        gap = np.minimum((hi_t - lo_t).min(axis=(-2, -1)), dp_min)
        first = np.where(ordered.all(axis=0), np.nan, times[0][ordered.argmin(axis=0)])
        return gap.min(axis=0), first

    margins, first = _chunks(run, len(a), a[0].size, 2, samples)
    ok = bool(np.isnan(first).all())
    when = None if ok else float(np.nanmin(first))
    pair = None if ok else int(np.flatnonzero(first == when)[0])
    return OrderPreservationReport(
        ok, times[0], when, pair, float(margins.min()),
        margins.reshape(pairs), first.reshape(pairs),
    )


@dataclass(frozen=True)
class AttractionReport:
    """The sandwich at T: its sup width, whether it is ordered, pass."""

    gap: float
    ordered: bool
    ok: bool


def attraction_report(model: PolicyModel, T: float, tol: float = 1e-6) -> AttractionReport:
    """Bound every start's distance to pi at T by the flows of two states.

    The empty and the full state are the least and the greatest valid
    states in the comparison order, which the flow preserves (the paper's
    theorem for the nonincreasing completion rates PolicyModel enforces;
    AC-07 and ``verify monotone`` check it numerically).  So at T the flow
    of every valid start, pi's included, lies between theirs entry by
    entry, within ``gap`` = max(full(T) - empty(T)) of pi in sup norm, up
    to the integrator's tolerance of about 1e-11.  ``ordered`` says whether
    the two flows are still ordered at T (tolerance 1e-8); the report
    passes when they are and ``gap`` is at most ``tol``.  Needs ``model.B``.
    """
    _check_tol(tol)
    if model.B is None:
        raise ValueError("the attraction report needs a model with a buffer size B")
    sandwich = np.stack([zero_state(model.B, model.n).h, full_state(model.B, model.n).h])
    low, high = integrate(model, sandwich, T, samples=1).final
    ordered = bool(_leq_arrays(low, high, 1e-8)[0])
    gap = float(np.max(high - low))
    return AttractionReport(gap, ordered, ordered and gap <= tol)
