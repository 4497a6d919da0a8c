"""Independent references the benchmark checks coxfield's outputs against.

Nothing here calls coxfield.  Each reference is a closed form, a dense
matrix exponential, or a brute-force enumeration written from the
definitions in the package documentation, so a wrong library result
cannot also make its own reference wrong.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg


def hyperexp_cdf(weights, rates, t):
    """F(t) = 1 - sum_k w_k exp(-mu_k t) at an array of times."""
    t = np.asarray(t, dtype=float)
    return 1.0 - np.exp(-np.multiply.outer(t, np.asarray(rates))) @ np.asarray(weights)


def coxian_survival_density(rates, continuations, t):
    """Survival alpha exp(S t) 1 and density alpha exp(S t) nu of a Coxian.

    Uses scipy's dense matrix exponential at each time.
    """
    rates = np.asarray(rates, dtype=float)
    conts = np.asarray(continuations, dtype=float)
    gen = np.diag(-rates)
    if len(rates) > 1:
        gen += np.diag(rates[:-1] * conts[:-1], k=1)
    rows = np.array([scipy.linalg.expm(gen * tk)[0] for tk in np.atleast_1d(t)])
    return rows.sum(axis=1), rows @ completion_rates(rates, conts)


def hyperexp_normalized_moments(weights, rates):
    """(m1, m2/m1^2, m3/(m1 m2)) from m_k = k! sum_k w_k / mu_k^k."""
    w = np.asarray(weights)
    mu = np.asarray(rates)
    m1, m2, m3 = (math.factorial(k) * float(np.sum(w / mu**k)) for k in (1, 2, 3))
    return m1, m2 / m1**2, m3 / (m1 * m2)


def completion_rates(rates, continuations):
    return np.asarray(rates) * (1.0 - np.asarray(continuations))


def state_violation(h):
    """Largest violation of the four inequality families of a valid state.

    Range [0, 1], nonincreasing along phases and levels, and the
    supermodularity that keeps every per-cell occupancy nonnegative.
    Returns 0.0 for a valid state.
    """
    h = np.asarray(h, dtype=float)
    worst = max(0.0, -float(h.min()), float(h.max()) - 1.0)
    if h.shape[1] > 1:
        worst = max(worst, float((h[:, 1:] - h[:, :-1]).max()))
    if h.shape[0] > 1:
        worst = max(worst, float((h[1:, :] - h[:-1, :]).max()))
    if h.shape[0] > 1 and h.shape[1] > 1:
        gap = (h[:-1, :-1] + h[1:, 1:]) - (h[1:, :-1] + h[:-1, 1:])
        worst = max(worst, -float(gap.min()))
    return worst


def level_phase_mass(h, seq):
    """g(seq) = h_{l1,1} + sum_{i>=2} (h_{li,i} - h_{l(i-1),i}), 1-based levels."""
    value = h[seq[0] - 1, 0]
    for i in range(1, len(seq)):
        value += h[seq[i] - 1, i] - h[seq[i - 1] - 1, i]
    return value


def leq_brute(lo, hi, tol):
    """The comparison order by enumeration of every admissible sequence."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if float((hi - lo).min()) < -tol:
        return False
    B, n = lo.shape
    for combo in combinations_with_replacement(range(1, B + 1), n):
        seq = combo[::-1]
        if seq[0] > seq[-1] and level_phase_mass(hi, seq) - level_phase_mass(lo, seq) < -tol:
            return False
    return True


def random_valid_state(rng, B, n):
    """Double tail sums of normalized exponential cell masses (one idle cell)."""
    raw = rng.exponential(size=B * n + 1)
    cells = (raw[1:] / raw.sum()).reshape(B, n)
    tails = np.flip(np.cumsum(np.flip(cells, axis=0), axis=0), axis=0)
    return np.flip(np.cumsum(np.flip(tails, axis=1), axis=1), axis=1)


def upper_envelope(a, b):
    """Every phase column set to max(a_{l,1}, b_{l,1}): above both in the order."""
    col = np.maximum(a[:, 0], b[:, 0])
    return np.repeat(col[:, None], a.shape[1], axis=1)


def jsq_exponential_tail(lam, levels):
    """Power-of-two fixed point with exponential service: pi_l = lam^(2^l - 1)."""
    return np.array([lam ** (2**l - 1) for l in range(1, levels + 1)])


def level1_phase_residual(h, rates, continuations):
    """max_i |pi_{1,i} - pi_{1,1} sum_{j>=i} beta_j|, beta_j = prod_{s<j} p_s / mu_j."""
    rates = np.asarray(rates, dtype=float)
    conts = np.asarray(continuations, dtype=float)
    beta = np.concatenate([[1.0], np.cumprod(conts[:-1])]) / rates
    tails = np.cumsum(beta[::-1])[::-1]
    return float(np.max(np.abs(h[0, :] - h[0, 0] * tails)))
