"""State space and comparison order for mean-field queue states.

A state h is a (B, n) array where h[l-1, i-1] is the fraction of servers
with queue length >= l whose job in service sits in phase >= i... phase
exactly >= i is the tail convention used throughout: h_{l,1} is the
fraction with length >= l, and boundary conventions h_{0,1} = 1,
h_{l,n+1} = 0, h_{B+1,i} = 0 apply everywhere.

Valid states form a polytope: entries in [0, 1], nonincreasing along
phases and levels, plus a supermodularity family that makes the implied
per-(length, phase) occupancy nonnegative.  The comparison order used by
the monotonicity results strengthens componentwise ordering with a family
of linear functionals indexed by nonincreasing level sequences; a change
of summation makes each functional separable across phases, so the
minimum over all sequences is a small dynamic program instead of an
exponential enumeration.  A state's JSON form is read and written by
``coxfield.cli``.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

#: default tolerance for state-space membership checks
OMEGA_TOL = 1e-12

#: default tolerance of ``leq``, ``leq_report`` and ``verify order-oracle``
#: (``monotonicity_report`` checks its trajectories at 1e-8)
ORDER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MeanFieldState:
    """Tail-fraction state on B queue levels and n service phases."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(_as_h(self.h), copy=True)
        if not np.isfinite(h).all():
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "h", h)

    @property
    def B(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class StateSpaceReport:
    ok: bool
    violations: tuple


#: the report of every valid state, shared since it is frozen
_VALID = StateSpaceReport(True, ())


@dataclass(frozen=True)
class LeqReport:
    """Outcome of an order comparison.

    ``min_gap`` is the minimum of the functional gaps over all
    nonincreasing level sequences including constant ones;
    ``nonconstant_min_gap`` restricts to admissible sequences (first level
    strictly above the last) and ``witness`` is a minimizing admissible
    sequence (1-based levels) when that gap is negative beyond tolerance.
    With one phase every sequence is constant: ``min_gap`` is the smallest
    componentwise gap, ``nonconstant_min_gap`` is +inf and there is no
    witness.
    """

    ok: bool
    componentwise_ok: bool
    min_gap: float
    nonconstant_min_gap: float
    witness: Optional[tuple]


StateLike = Union[MeanFieldState, np.ndarray]


def _as_h(
    state: StateLike, batch: bool = False, like=None, whose: str = "the model's"
) -> np.ndarray:
    """The (B, n) array of a state; ``batch`` also admits stacks of them.

    The one reader of a state argument: ``like`` is the (B, n) its last two
    axes must have, B None when free, and a mismatch names both shapes.
    """
    if isinstance(state, MeanFieldState):
        h = state.h
    else:
        h = np.asarray(state, dtype=float)
        if h.ndim < 2 or (h.ndim > 2 and not batch) or 0 in h.shape[-2:]:
            shape = "(B, n) array or a stack of them" if batch else "(B, n) array"
            raise ValueError(f"state must be a {shape}, got shape {h.shape}")
    # a matching (B, n) state costs one tuple comparison; a stack or a free
    # B walks the last two axes
    if like is not None and h.shape != like:
        B, n = h.shape[-2:]
        if like[1] != n or like[0] not in (None, B):
            raise ValueError(
                f"shape mismatch: state shape (B, n) = ({B}, {n}) does not "
                f"match {whose} ({like[0]}, {like[1]})"
            )
    return h


def zero_state(B: int, n: int) -> MeanFieldState:
    """All servers idle."""
    return MeanFieldState(np.zeros((B, n)))


def full_state(B: int, n: int) -> MeanFieldState:
    """Every server at full buffer in the last phase (the order maximum)."""
    return MeanFieldState(np.ones((B, n)))


def _slacks(h: np.ndarray) -> tuple:
    """The four inequality families as (name, slack) pairs over leading axes.

    A slack is the amount by which the inequality anchored at that 0-based
    (level, phase) cell holds; it is negative where the inequality fails.
    """
    gap = (h[..., :-1, :-1] + h[..., 1:, 1:]) - (h[..., 1:, :-1] + h[..., :-1, 1:])
    return (
        ("range", np.minimum(h, 1.0 - h)),
        ("phase monotonicity", h[..., :, :-1] - h[..., :, 1:]),
        ("level monotonicity", h[..., :-1, :] - h[..., 1:, :]),
        ("supermodularity", gap),
    )


def _margins(h: np.ndarray) -> np.ndarray:
    """Smallest slack of each state in a stack (NaN for a non-finite state).

    The one state-space decision: a state is valid at ``tol`` exactly when
    its margin is at least ``-tol``, which a NaN margin never is.
    """
    # each family's cells on one axis; a count, as -1 fails on an empty stack
    flat = [
        slack.reshape(slack.shape[:-2] + (slack.shape[-2] * slack.shape[-1],))
        for _, slack in _slacks(h)
    ]
    return np.concatenate(flat, axis=-1).min(axis=-1)


def _check_tol(tol: float, name: str = "tol") -> None:
    """Reject a NaN tolerance, which fails every comparison; a negative one is fine.

    The ValueError names the tolerance as ``name``.
    """
    if math.isnan(tol):
        raise ValueError(f"{name} must be a number, got {tol!r}")


def state_space_report(state: StateLike, tol: float = OMEGA_TOL) -> StateSpaceReport:
    """Check the four inequality families defining valid states.

    Validity is decided by ``_margins``.  A failing state gets its
    violations as human-readable strings naming the 1-based (level, phase)
    cell: first each non-finite entry, as "non-finite at (2, 1)", then each
    failed inequality by family and anchor, e.g. "phase monotonicity at
    (1, 1)" when h_{1,2} > h_{1,1}.
    """
    _check_tol(tol)
    h = _as_h(state)
    if _margins(h) >= -tol:
        return _VALID
    masks = [("non-finite", ~np.isfinite(h))]
    masks += [(name, slack < -tol) for name, slack in _slacks(h)]
    # every flagged cell in one pass, as a flat index into the masks laid
    # end to end (family, then row-major), turned back into a family and a
    # cell in Python ints; an empty mask (B = 1 or n = 1) owns no index
    flagged = np.concatenate([bad.ravel() for _, bad in masks]).nonzero()[0].tolist()
    violations, family, end = [], -1, 0
    for flat in flagged:
        while flat >= end:  # past this family's cells: on to the next mask
            family += 1
            name, bad = masks[family]
            start, end = end, end + bad.size
        l, i = divmod(flat - start, bad.shape[1])
        violations.append(f"{name} at ({l + 1}, {i + 1})")
    return StateSpaceReport(False, tuple(violations))


def random_state(B: int, n: int, rng: np.random.Generator) -> MeanFieldState:
    """Random valid state: tail sums of normalized exponential variates.

    There is one variate per (level, phase) cell and one for the idle
    fraction, which the sums leave out.
    """
    raw = rng.exponential(size=B * n + 1)
    raw /= raw.sum()
    return MeanFieldState(_tail_sums(raw[1:].reshape(B, n)))


def level_phase_mass(state: StateLike, levels: Sequence[int]) -> float:
    """Functional g: mass with queue >= l_i and phase exactly i for some i.

    ``levels`` is a 1-based nonincreasing sequence (l_1, ..., l_n) with
    l_1 > l_n.  The value is h_{l_1,1} + sum_{i>=2} (h_{l_i,i} -
    h_{l_{i-1},i}), always within [0, h_{l_n,1}] for valid states.
    """
    h = _as_h(state)
    B, n = h.shape
    seq = [int(l) for l in levels]
    if len(seq) != n:
        raise ValueError(f"need one level per phase ({n}), got {len(seq)}")
    if any(l < 1 or l > B for l in seq):
        raise ValueError(f"levels must lie in 1..{B}, got {seq}")
    if any(a < b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"levels must be nonincreasing, got {seq}")
    if seq[0] <= seq[-1]:
        raise ValueError(f"first level must exceed the last, got {seq}")
    value = h[seq[0] - 1, 0]
    for i in range(1, n):
        value += h[seq[i] - 1, i] - h[seq[i - 1] - 1, i]
    return float(value)


def _phase_diffs(h: np.ndarray) -> np.ndarray:
    """d[..., l, i] = h_{l,i} - h_{l,i+1} with h_{.,n+1} = 0."""
    d = h.copy()
    d[..., :-1] -= h[..., 1:]
    return d


def _cell_diffs(d: np.ndarray) -> np.ndarray:
    """x[..., l, i] = d_{l,i} - d_{l+1,i} with d_{B+1,.} = 0.

    Applied to phase differences this is the cell occupancy: the mass
    with queue length exactly l in phase exactly i.
    """
    x = d.copy()
    x[..., :-1, :] -= d[..., 1:, :]
    return x


def _tail_sums(x: np.ndarray) -> np.ndarray:
    """h[..., l, i] = sum_{l' >= l, i' >= i} x[..., l', i'].

    Inverse of ``_cell_diffs(_phase_diffs(.))``: tail sums over levels,
    then over phases.
    """
    t = np.cumsum(x[..., ::-1, :], axis=-2)[..., ::-1, :]
    return np.cumsum(t[..., ::-1], axis=-1)[..., ::-1]


def _suffix_min(a: np.ndarray) -> np.ndarray:
    """b[..., l] = min_{l' >= l} a[..., l']."""
    return np.minimum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]


def _nan_min(vals: list) -> float:
    """Smallest entry of a list, NaN if any entry is NaN (as numpy's min).

    A non-finite state gives NaN gaps, and a NaN gap must fail the order
    rather than lose to a finite one.
    """
    return math.nan if any(map(math.isnan, vals)) else min(vals)


def _leq_arrays(h: np.ndarray, ht: np.ndarray, tol: float):
    """Batched order decision on (..., B, n) stacks.

    Returns (ok, componentwise_ok, dp_min) with batch shape (...,).
    dp_min is the sequence-functional gap minimized over all nonincreasing
    sequences; once componentwise ordering holds, constant sequences have
    nonnegative gaps, so including them never flips the decision.  With one
    phase dp_min is the smallest componentwise gap.
    """
    comp_ok = (ht >= h - tol).all(axis=(-2, -1))
    d = _phase_diffs(ht) - _phase_diffs(h)
    m = d[..., :, 0]
    for i in range(1, h.shape[-1]):
        m = d[..., :, i] + _suffix_min(m)
    dp_min = m.min(axis=-1)
    return comp_ok & (dp_min >= -tol), comp_ok, dp_min


def leq(h: StateLike, other: StateLike, tol: float = ORDER_TOL) -> bool:
    """Decide h <= other in the strengthened comparison order.

    Requires componentwise ordering and nonnegative gaps of every
    level-sequence functional.  With a single phase the order reduces to
    the componentwise comparison.
    """
    _check_tol(tol)
    a = _as_h(h)
    b = _as_h(other, like=a.shape, whose="the other state's")
    ok, _, _ = _leq_arrays(a, b, tol)
    return bool(ok)


def leq_report(h: StateLike, other: StateLike, tol: float = ORDER_TOL) -> LeqReport:
    """Order decision plus diagnostics and a violating sequence if any.

    The witness minimizes the functional gap over admissible sequences
    (nonincreasing, first level strictly above the last); constant
    sequences are tracked separately so the witness is always admissible.
    ``min_gap`` is the smaller of the two tracks' minima, which equals
    ``leq``'s one-track DP value since rounding is monotone.
    """
    _check_tol(tol)
    a = _as_h(h)
    b = _as_h(other, like=a.shape, whose="the other state's")
    B, n = a.shape
    comp_ok = bool((b >= a - tol).all())
    d = (_phase_diffs(b) - _phase_diffs(a)).T.tolist()
    # two-track DP: E = best prefix that stayed constant, N = best prefix
    # that already dropped a level; only N-prefixes can end admissibly.
    # One backward pass per phase builds both suffix minima (the largest
    # level attaining each, -1 while every candidate is inf) and records
    # per level whether the best came from N, and from which level.
    e_val = d[0]
    n_val = [math.inf] * B
    from_n, preds = [], []
    for i in range(1, n):
        col = d[i]
        take_n, pred, new_n = [False] * B, [-1] * B, [0.0] * B
        suf, suf_l = math.inf, -1  # min of n_val[l:]
        drop, drop_l = math.inf, -1  # min of e_val[l+1:]
        for l in range(B - 1, -1, -1):
            if n_val[l] < suf:
                suf, suf_l = n_val[l], l
            if suf <= drop:
                take_n[l], pred[l], new_n[l] = True, suf_l, col[l] + suf
            else:
                pred[l], new_n[l] = drop_l, col[l] + drop
            if e_val[l] < drop:
                drop, drop_l = e_val[l], l
        from_n.append(take_n)
        preds.append(pred)
        n_val = new_n
        e_val = [e + c for e, c in zip(e_val, col)]

    nonconst_min = _nan_min(n_val)
    min_gap = _nan_min(e_val + [nonconst_min])
    ok = comp_ok and min_gap >= -tol
    witness = None
    if nonconst_min < -tol:
        seq = [n_val.index(nonconst_min)]  # levels from the last phase back
        for i in range(n - 2, -1, -1):
            level = preds[i][seq[-1]]
            if not from_n[i][seq[-1]]:
                seq += [level] * (i + 1)
                break
            seq.append(level)
        witness = tuple(l + 1 for l in reversed(seq))
    return LeqReport(ok, comp_ok, min_gap, nonconst_min, witness)


def upper_envelope(h: StateLike, pi: StateLike):
    """Common upper bound: every phase column equals max(h_{l,1}, pi_{l,1}).

    The result is a valid state above both inputs in the comparison order;
    each sequence functional telescopes to its value at the last level.
    A stack of states ``h`` gives the (..., B, n) stack of their bounds
    with the one state ``pi``; a single state gives a MeanFieldState.
    """
    b = _as_h(pi)
    a = _as_h(h, batch=True, like=b.shape, whose="the other state's")
    col = np.maximum(a[..., :, 0], b[:, 0])
    env = np.repeat(col[..., None], b.shape[1], axis=-1)
    return MeanFieldState(env) if env.ndim == 2 else env
