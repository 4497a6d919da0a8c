"""Coxian and hyperexponential service-time algebra.

A Coxian distribution is a phase-type distribution with ordered phases
1..n: a job starts in phase 1, leaves phase i at rate mu_i, continues to
phase i+1 with probability p_i and completes otherwise, so the completion
rate of phase i is nu_i = mu_i * (1 - p_i).  A hyperexponential mixes
exponentials with positive weights.  This module converts between the two
representations, classifies Coxians by whether their completion rates
decrease along phases (the class that behaves like hyperexponentials in
the mean-field results), computes moments and hazard rates, and fits a
two-branch hyperexponential to a moment triple.

Survival, density and hazard come from the phase mass a(t) = alpha
expm(S t), with alpha the initial phase law and S the upper-bidiagonal
phase generator.  Each call evaluates one distribution: its phase mass is
propagated exactly between the sorted evaluation times by matrix
exponentials of S times each distinct gap (scipy's scaling and
squaring, Al-Mohy & Higham 2009), so there is no step size to choose and
no truncation error to bound; survival is the total mass and density the
completion flow a(t) nu.  Row i of S is scaled by span_i = min(gap, 1e30 /
mu_i) and column i of the step by span_i / gap: a capped phase keeps none
of its own mass and carries its inflow's balance mass at mu_i, so fast
phases and huge or infinite times stay finite (expm fails near 1e37).

The per-distribution algebra (conversion, class check, moments) runs on
plain Python floats, since a distribution has a handful of phases.  Its
float sums are explicit left-to-right loops: the builtin ``sum``
compensates float rounding from Python 3.12 on, so it would give other
bytes on other interpreters.  ``hyperexp_to_coxian`` builds its result
without re-running ``CoxianDistribution``'s checks, which could only
repeat what holds already: its rates come from a checked
HyperExponential and its loop checks each continuation it makes.
``fit_hyperexp2`` likewise builds its HyperExponential unchecked and
checks only what can still fail there: that each rate is a normal,
finite float, and that the rates are distinct.  The fit is scale-free:
it is solved at unit mean and its rates divided by m1 at the end.

Distributions are built from Python values; their JSON form is read and
written by ``coxfield.cli``.
"""

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .order import _check_tol

#: relative gap under which two rates are considered duplicates (rejected
#: where the partial-fraction algebra needs distinct rates)
DUPLICATE_RATE_RTOL = 1e-9

#: completion-rate ties within this absolute tolerance count as a boundary
#: case of the decreasing-completion-rate class (accepted, margin 0)
BOUNDARY_TOL = 1e-12

#: survival values below this are too small for a trustworthy hazard ratio
SURVIVAL_FLOOR = 1e-14

#: largest exponent mu_i * gap a phase is propagated over, exp(-1e30) = 0
EXPONENT_CAP = 1e30

#: smallest normal float; a fitted rate below it has lost precision
_SMALLEST_NORMAL = sys.float_info.min


def _set_fields(dist, other: str) -> tuple:
    """Store ``dist.rates`` and ``dist.<other>`` as float tuples and check them.

    The one field check of the three distribution types: the two fields
    have equal, nonzero lengths and every rate is positive and finite.
    Returns the ``other`` tuple; each type then checks its own rules.
    """
    values = tuple(map(float, getattr(dist, other)))
    rates = tuple(map(float, dist.rates))
    object.__setattr__(dist, other, values)
    object.__setattr__(dist, "rates", rates)
    if not 0 < len(values) == len(rates):
        raise ValueError(f"got {len(values)} {other} for {len(rates)} rates")
    for r in rates:  # a loop: on a few phases, cheaper than all() over a generator
        if not 0 < r < math.inf:
            raise ValueError(f"rates must be positive and finite, got {rates}")
    return values


def _float_sum(values) -> float:
    """Left-to-right float sum, the same bits on every Python version.

    Not the builtin ``sum``: see the module docstring.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class CoxianDistribution:
    """Coxian distribution with rates ``mu_i`` and continuations ``p_i``.

    Parameters
    ----------
    rates : tuple of float
        Phase exit rates mu_1..mu_n, all strictly positive.
    continuations : tuple of float
        Continuation probabilities p_1..p_n with p_i in [0, 1) and
        p_n = 0 exactly.
    """

    rates: tuple
    continuations: tuple

    def __post_init__(self):
        conts = _set_fields(self, "continuations")
        for p in conts:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"continuations must be finite and in [0, 1), got {conts}")
        if conts[-1] != 0.0:
            raise ValueError(f"last continuation must be 0, got {conts[-1]}")

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def completion_rates(self) -> np.ndarray:
        """nu_i = mu_i * (1 - p_i) for each phase."""
        return np.asarray(self.rates) * (1.0 - np.asarray(self.continuations))

    def generator(self) -> np.ndarray:
        """Upper-bidiagonal phase generator S (absorption excluded)."""
        return _phase_generator(self.rates, self.continuations)


@dataclass(frozen=True)
class HyperExponential:
    """Finite mixture of exponentials with strictly positive weights.

    Parameters
    ----------
    weights : tuple of float
        Branch probabilities, strictly positive, summing to 1 within 1e-12.
    rates : tuple of float
        Branch rates, strictly positive and pairwise distinct (relative
        gaps above 1e-9).
    """

    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = _set_fields(self, "weights")
        for v in w:
            if not 0 < v < math.inf:
                raise ValueError(f"weights must be positive and finite, got {w}")
        total = _float_sum(w)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got sum {total!r}")
        _reject_duplicate_rates(self.rates)

    @property
    def k(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class SignedMixture:
    """Exponential mixture with real (possibly negative) weights.

    The partial-fraction expansion of a Coxian over distinct rates always
    sums to one but may carry negative weights; a nonnegative expansion is
    exactly a hyperexponential.
    """

    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = _set_fields(self, "weights")
        total = _float_sum(w)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got sum {total!r}")

    @property
    def is_hyperexponential(self) -> bool:
        """True when every weight is nonnegative (within 1e-12)."""
        return all(v >= -1e-12 for v in self.weights)


@dataclass(frozen=True)
class MomentTriple:
    """First moment plus normalized second and third moments.

    n2 = m2 / m1^2 and n3 = m3 / (m1 * m2).
    """

    m1: float
    n2: float
    n3: float

    def __post_init__(self):
        if not (math.isfinite(self.m1) and math.isfinite(self.n2)
                and math.isfinite(self.n3)):
            raise ValueError(
                f"moments must be finite, got ({self.m1}, {self.n2}, {self.n3})"
            )
        if self.m1 <= 0:
            raise ValueError(f"m1 must be positive, got {self.m1}")
        if self.n2 < 1 or self.n3 < 1:
            raise ValueError(
                f"normalized moments must be >= 1, got n2={self.n2}, n3={self.n3}"
            )


@dataclass(frozen=True)
class CompletionRateCheck:
    """Outcome of the decreasing-completion-rate classification.

    ``margin`` is min_i (nu_i - nu_{i+1}), +inf for a single phase;
    ``boundary`` flags ties accepted with margin 0.
    """

    is_member: bool
    margin: float
    boundary: bool


Distribution = Union[CoxianDistribution, HyperExponential]


def _reject_duplicate_rates(rates: Sequence[float]) -> None:
    ordered = sorted(rates)
    for a, b in zip(ordered, ordered[1:]):
        if (b - a) <= DUPLICATE_RATE_RTOL * b:
            raise ValueError(
                f"rates must be distinct (relative gap > {DUPLICATE_RATE_RTOL:g}), "
                f"got {a!r} and {b!r}"
            )


def hyperexp_to_coxian(hyper: HyperExponential) -> CoxianDistribution:
    """Convert a hyperexponential to its equivalent Coxian.

    Rates are sorted in strictly decreasing order and the continuation
    probabilities are chosen so both representations have identical
    distribution functions.  The result always has strictly decreasing
    completion rates.

    Parameters
    ----------
    hyper : HyperExponential
        Mixture to convert.

    Returns
    -------
    CoxianDistribution
        Equivalent Coxian on the sorted rates, p_i in (0, 1) for i < n.
    """
    # rates are distinct, so the order is unique and weights never compare
    mu, w = zip(*sorted(zip(hyper.rates, hyper.weights), reverse=True))
    n = len(mu)
    # partial[k] accumulates prod_{j<=i} (1 - mu_k/mu_j) as i advances;
    # only k >= i is ever read, so the zero factor at j = k never enters.
    # denom sums w_k partial_k over k >= i before the update, numer over
    # k > i after it, each left to right (see the module docstring).
    partial = [1.0] * n
    conts = []
    for i in range(n - 1):
        mu_i = mu[i]
        denom, numer = w[i] * partial[i], 0.0
        for k in range(i + 1, n):
            denom += w[k] * partial[k]
            partial[k] *= 1.0 - mu[k] / mu_i
            numer += w[k] * partial[k]
        p_i = numer / denom
        if not 0.0 < p_i < 1.0:
            raise ValueError(
                f"conversion produced continuation {p_i!r} outside (0, 1); "
                "input rates are too close to duplicate"
            )
        conts.append(p_i)
    conts.append(0.0)
    # built unchecked: the rates come from a checked HyperExponential
    # (positive, finite, distinct floats), each p_i with i < n was checked in
    # (0, 1) above and p_n = 0, so __post_init__ would change nothing
    cox = object.__new__(CoxianDistribution)
    object.__setattr__(cox, "rates", mu)
    object.__setattr__(cox, "continuations", tuple(conts))
    return cox


def coxian_to_mixture(cox: CoxianDistribution) -> SignedMixture:
    """Expand a Coxian with distinct rates into a signed exponential mixture.

    The weight of rate mu_k collects the partial-fraction residues of every
    phase prefix the job can complete in.  Weights always sum to one; they
    are all nonnegative exactly when the Coxian is also a hyperexponential.

    Raises
    ------
    ValueError
        If any two rates coincide within relative 1e-9.
    """
    _reject_duplicate_rates(cox.rates)
    mu = list(cox.rates)
    p = list(cox.continuations)
    n = cox.n

    # exit[i] = P(job completes in phase i) = (1 - p_i) * prod_{j<i} p_j
    exit_prob = []
    through = 1.0
    for i in range(n):
        exit_prob.append((1.0 - p[i]) * through)
        through *= p[i]

    weights = []
    for k in range(n):
        residue = 1.0  # prod_{j <= i, j != k} mu_j / (mu_j - mu_k)
        for j in range(k):
            residue *= mu[j] / (mu[j] - mu[k])
        total = exit_prob[k] * residue
        for i in range(k + 1, n):
            residue *= mu[i] / (mu[i] - mu[k])
            total += exit_prob[i] * residue
        weights.append(total)
    return SignedMixture(tuple(weights), tuple(mu))


def has_decreasing_completion_rates(
    cox: CoxianDistribution, tol: float = 0.0
) -> CompletionRateCheck:
    """Check whether completion rates nu_i decrease along phases.

    Parameters
    ----------
    cox : CoxianDistribution
        Distribution to classify.
    tol : float, optional
        Slack: the check passes when every nu_i - nu_{i+1} > -tol.  The
        default demands strict decrease, except that ties within 1e-12 are
        reported as a boundary case and accepted with margin 0.  A single
        phase has no pair to compare: it is a member with margin +inf.
        A NaN ``tol`` is rejected with a ValueError.
    """
    _check_tol(tol)
    # one loop over the phases; prev = inf makes the first difference inf
    margin, prev = math.inf, math.inf
    for mu, p in zip(cox.rates, cox.continuations):
        nu = mu * (1.0 - p)
        if prev - nu < margin:
            margin = prev - nu
        prev = nu
    boundary = -BOUNDARY_TOL <= margin <= 0.0
    is_member = margin > -tol or boundary
    return CompletionRateCheck(is_member, 0.0 if boundary else margin, boundary)


def remaining_service_times(cox: CoxianDistribution) -> np.ndarray:
    """Expected remaining service time R_i seen from each phase i.

    R_n = 1/mu_n and R_{i-1} = 1/mu_{i-1} + p_{i-1} R_i.  For unit-mean
    distributions R_1 = 1, and decreasing completion rates make the vector
    strictly increasing.
    """
    return np.array(_neg_generator_solves(cox.rates, cox.continuations, 1)[0])


def _phase_form(dist: Distribution):
    """Unified (alpha, rates, continuations) phase representation, as tuples."""
    if isinstance(dist, CoxianDistribution):
        return (1.0,) + (0.0,) * (dist.n - 1), dist.rates, dist.continuations
    if isinstance(dist, HyperExponential):
        return dist.weights, dist.rates, (0.0,) * dist.k
    raise TypeError(f"unsupported distribution type {type(dist).__name__}")


def _neg_generator_solves(rates, conts, k: int) -> list:
    """y_1..y_k with (-S) y_j = y_{j-1} and y_0 = 1, as lists of floats.

    S is upper bidiagonal, so each solve is one backward sweep,
    x_i = v_i / mu_i + p_i x_{i+1}; on a handful of phases plain floats
    beat numpy's per-call cost.
    """
    n = len(rates)
    ys, y = [], [1.0] * n
    for _ in range(k):
        x, nxt = [0.0] * n, 0.0
        for i in range(n - 1, -1, -1):
            nxt = x[i] = y[i] / rates[i] + conts[i] * nxt
        ys.append(x)
        y = x
    return ys


def raw_moments(dist: Distribution, k: int) -> tuple:
    """Raw moments (m_1, ..., m_k), m_j = j! * alpha (-S)^{-j} 1.

    The phase generator is upper bidiagonal, so each (-S)^{-1} application
    is a single backward sweep; no matrix is ever inverted, and m_j reuses
    the sweeps of m_{j-1}.  Works for both representations through the
    shared phase form.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    alpha, rates, conts = _phase_form(dist)
    # np.dot, not a Python sum: BLAS accumulates with fused multiply-adds
    alpha = np.array(alpha)
    return tuple(
        math.factorial(j) * float(np.dot(alpha, y))
        for j, y in enumerate(_neg_generator_solves(rates, conts, k), start=1)
    )


def moments(dist: Distribution, k: int) -> float:
    """Raw moment m_k = k! * alpha (-S)^{-k} 1 (see :func:`raw_moments`)."""
    return raw_moments(dist, k)[-1]


def normalized_moments(dist: Distribution) -> MomentTriple:
    """MomentTriple (m1, m2/m1^2, m3/(m1 m2)) of a distribution."""
    m1, m2, m3 = raw_moments(dist, 3)
    return MomentTriple(m1, m2 / m1 ** 2, m3 / (m1 * m2))


def fit_hyperexp2(target: MomentTriple) -> HyperExponential:
    """Fit a two-branch hyperexponential to a moment triple in closed form.

    The moment equations m_j = j! sum_k w_k / mu_k^j say the branch means
    1/mu_k form a two-point distribution with power moments m_j / j!; its
    atoms solve a quadratic with coefficients linear in the moments, and
    the weight follows from the mean.  Feasibility requires n2 > 2 and
    n3 > 1.5 * n2 (an open region); the single point (n2, n3) = (2, 3)
    is the exponential with rate 1/m1.  On the boundary n3 = 1.5 * n2 one
    branch mean collapses to zero, and below it the root product is
    negative, so no slack on the boundary could admit a fit.  The fit is
    solved at unit mean and each rate divided by m1, so any m1 gives the
    unit-mean weights and rates scaled by 1/m1.

    Parameters
    ----------
    target : MomentTriple
        Moments to match.

    Raises
    ------
    ValueError
        If the target lies outside the feasible region, the solve
        degenerates on its boundary, or a rate overflows or falls below
        the normal floats once divided by m1.
    """
    m1, n2, n3 = float(target.m1), float(target.n2), float(target.n3)
    if abs(n2 - 2.0) <= 1e-12 and abs(n3 - 3.0) <= 1e-12:
        return _fitted((1.0,), (1.0,), m1)
    if n2 <= 2.0:
        raise ValueError(
            f"second normalized moment must exceed 2, got n2={n2!r}"
        )
    if n3 <= 1.5 * n2:
        raise ValueError(
            f"third normalized moment must exceed 1.5*n2={1.5 * n2!r}, "
            f"got n3={n3!r}"
        )

    # Branch means are the atoms of a two-point law whose power moments
    # are m_j / j!, solved here at unit mean: the fit is scale-free, and
    # m1 only divides the rates at the end, so m1^2 is never formed.  The
    # atoms' sum a and (negated) product b reduce to the expressions below
    # in u = n3 - 3 and v = n2 - 2, direct input subtractions that avoid
    # the cancellation of the generic moment route near the exponential
    # point (2n3 - 3n2 = 2u - 3v).  The discriminant a^2 + 4b is written
    # as a sum of nonnegative terms, since forming it as a difference
    # amplifies the rounding of b near a rate tie; the small root comes
    # from the root product rather than a - sqrt(disc).
    u, v = n3 - 3.0, n2 - 2.0
    a = n2 * u / (3.0 * v)
    b = -n2 * (2.0 * u - 3.0 * v) / (6.0 * v)
    disc = n2 * (2.0 * (u - 3.0 * v) ** 2 + v * u * u) / (9.0 * v * v)
    if disc <= 0.0:
        raise ValueError(
            f"target {target} has no real two-branch solution"
        )
    x1 = 0.5 * (a + math.sqrt(disc))
    x2 = -b / x1
    if x2 <= 0.0 or x1 <= x2:
        raise ValueError(
            f"target {target} degenerates to a zero-mean branch; "
            "it sits on the feasibility boundary"
        )
    w1 = (1.0 - x2) / (x1 - x2)
    if not 0.0 < w1 < 1.0:
        raise ValueError(f"target {target} needs a weight outside (0, 1)")
    return _fitted((w1, 1.0 - w1), (x1, x2), m1)


def _fitted(weights: tuple, means: tuple, m1: float) -> HyperExponential:
    """The fit with unit-mean branch means ``means`` scaled to mean ``m1``.

    Built without re-running ``HyperExponential``'s checks.  The weights
    pass them already: they are 1, or w1 and 1 - w1 with w1 checked in
    (0, 1).  What can still fail is checked here: a rate (1 / x) / m1 that
    overflows, or underflows below the normal floats, and a duplicate rate.
    """
    rates = tuple([1.0 / x / m1 for x in means])
    for r in rates:
        if not _SMALLEST_NORMAL <= r < math.inf:
            raise ValueError(
                f"fitted rates {rates} overflow or underflow at mean m1={m1!r}"
            )
    _reject_duplicate_rates(rates)
    hyper = object.__new__(HyperExponential)
    object.__setattr__(hyper, "weights", weights)
    object.__setattr__(hyper, "rates", rates)
    return hyper


# ---------------------------------------------------------------------------
# survival / density / hazard by exact phase-mass propagation
# ---------------------------------------------------------------------------


def _phase_generator(rates, conts) -> np.ndarray:
    """Upper-bidiagonal phase generator: -mu_i on the diagonal, mu_i p_i above."""
    rates = np.asarray(rates)
    n = len(rates)
    gen = np.zeros((n, n))
    diag = np.arange(n)
    gen[diag, diag] = -rates
    gen[diag[:-1], diag[1:]] = (rates * np.asarray(conts))[:-1]
    return gen


def _phase_grid(dist: Distribution, t):
    """Survival and density of one distribution at scalar or 1-D times ``t``.

    Returns (survival, density), each of shape (len(t),), or (1,) for a
    scalar.  The phase mass a(t) = alpha expm(S t) moves from one distinct
    time to the next by the exact propagator expm(S gap); one batched
    ``expm`` covers every distinct gap, and the masses at all times are
    summed once at the end.
    """
    from scipy import linalg  # on first use: ``import coxfield`` loads no scipy
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError(f"times must be a scalar or 1-D, got shape {ts.shape}")
    if not np.all(ts >= 0):
        raise ValueError("times must be nonnegative and not NaN")
    times, at = np.unique(ts, return_inverse=True)
    gaps, gap_index = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    mass, rates, conts = (np.array(part) for part in _phase_form(dist))
    # row i of S times span_i = min(gap, cap / mu_i), column i span_i / gap;
    # rates below cap / (largest float), about 5.6e-279, are raised to it, so
    # that no span is inf (inf times the zeros of S is NaN)
    slowest = EXPONENT_CAP / np.finfo(float).max
    spans = np.minimum(gaps[:, None], EXPONENT_CAP / np.maximum(rates, slowest))
    capped = spans < gaps[:, None]
    kept = np.divide(spans, gaps[:, None], out=np.ones_like(spans), where=capped)
    gen = _phase_generator(rates, conts)
    steps = linalg.expm(gen * spans[..., None]) * kept[:, None, :]
    masses = np.empty((len(times), len(rates)))
    for col, g in enumerate(gap_index):
        mass = masses[col] = np.einsum("i,ij->j", mass, steps[g])
    surv = masses.sum(axis=1)
    dens = (masses * (rates * (1.0 - conts))).sum(axis=1)
    return surv[at], dens[at]


def _as_given(t, values: np.ndarray):
    """``values`` as a float for scalar times ``t``, else as the array."""
    return float(values[0]) if np.ndim(t) == 0 else values


def cdf(dist: Distribution, t):
    """Distribution function at scalar or array times, F(t) = 1 - survival."""
    surv, _ = _phase_grid(dist, t)
    return _as_given(t, 1.0 - surv)


def pdf(dist: Distribution, t):
    """Density at scalar or array times, the completion flow of phase mass."""
    _, dens = _phase_grid(dist, t)
    return _as_given(t, dens)


def hazard(dist: Distribution, t):
    """Hazard rate pdf/survival; NaN where survival drops below 1e-14.

    The hazard is the completion-rate average over the conditional phase
    distribution at time t, hence nonincreasing for distributions with
    decreasing completion rates.
    """
    surv, dens = _phase_grid(dist, t)
    out = np.full_like(surv, np.nan)
    ok = surv >= SURVIVAL_FLOOR
    out[ok] = dens[ok] / surv[ok]
    return _as_given(t, out)
