"""Seeded samplers of the test suites' random service distributions.

Each draw depends only on the generator it is given, so a seed gives the
same distribution on every run.
"""

import math

import numpy as np

from coxfield import CoxianDistribution, HyperExponential, moments


def normalize_to_unit_mean(cox: CoxianDistribution) -> CoxianDistribution:
    """Rescale rates so the mean becomes exactly one."""
    m1 = moments(cox, 1)
    return CoxianDistribution(
        tuple(r * m1 for r in cox.rates), cox.continuations
    )


def random_hyperexp(
    rng: np.random.Generator,
    max_branches: int = 6,
    rate_range=(1e-2, 1e2),
    min_rel_gap: float = 1e-4,
) -> HyperExponential:
    """Draw a random hyperexponential with log-uniform rates.

    Rates are resampled until all pairwise relative gaps exceed
    ``min_rel_gap`` (near-ties are measure zero but would sit inside the
    duplicate-rejection band); weights get a small floor so no branch is
    negligible.
    """
    k = int(rng.integers(1, max_branches + 1))
    lo, hi = math.log(rate_range[0]), math.log(rate_range[1])
    while True:
        rates = np.sort(np.exp(rng.uniform(lo, hi, size=k)))[::-1]
        if k == 1 or np.all((rates[:-1] - rates[1:]) > min_rel_gap * rates[:-1]):
            break
    w = rng.dirichlet(np.ones(k))
    w = (w + 0.02) / (1.0 + 0.02 * k)
    return HyperExponential(tuple(w), tuple(rates))


def random_coxian_decreasing(
    rng: np.random.Generator,
    max_phases: int = 6,
    completion_range=(0.05, 20.0),
    max_continuation: float = 0.9,
    unit_mean: bool = True,
    max_unit_rate: float = 500.0,
) -> CoxianDistribution:
    """Draw a random Coxian with strictly decreasing completion rates.

    Completion rates are sorted log-uniform draws, continuations are
    uniform on [0.05, max_continuation], and the result is normalized to
    unit mean by default.  Normalized draws whose largest rate exceeds
    ``max_unit_rate`` are redrawn: they are valid, but a large rate
    makes the mean-field ODE stiff, and the explicit DOP853 integrator
    of ``mfode`` then needs steps of order one over the rate
    (its first trial step is ``mfode.step_bound``).
    """
    lo, hi = math.log(completion_range[0]), math.log(completion_range[1])
    while True:
        n = int(rng.integers(1, max_phases + 1))
        nu = np.sort(np.exp(rng.uniform(lo, hi, size=n)))[::-1]
        if n > 1 and np.any((nu[:-1] - nu[1:]) <= 1e-6 * nu[:-1]):
            continue
        p = rng.uniform(0.05, max_continuation, size=n)
        p[-1] = 0.0
        cox = CoxianDistribution(tuple(nu / (1.0 - p)), tuple(p))
        if unit_mean:
            cox = normalize_to_unit_mean(cox)
        if max(cox.rates) <= max_unit_rate:
            return cox
