"""Guarantee arithmetic: Markov budgets, mixture caps, comparison tables.

Exponents routinely exceed what double precision can hold linearly, so
every table quantity is computed in the log2 domain first and the linear
value is derived from it (underflowing gracefully to zero).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, BadRange, DimMismatch
from .qmath import DensityOperator, trace_norm


@dataclass(frozen=True)
class GuaranteeScenario:
    """Protocol-scale parameters for guarantee comparisons.

    ``epsilon`` defaults to 2^-l when omitted.  ``delta_target`` is the
    per-event probability budget used when chaining Markov guarantees.
    """

    n: int
    l: int
    m: int
    epsilon: float | None = None
    delta_target: float | None = None

    def __post_init__(self):
        if not 0 < self.m <= self.n:
            raise BadParams(f"need 0 < m <= n, got m={self.m}, n={self.n}")
        if self.l < 0:
            raise BadParams(f"exponent l must be nonnegative, got {self.l}")
        eps = self.epsilon if self.epsilon is not None else 2.0**-self.l
        if not 0.0 <= eps < 1.0:
            raise BadParams(f"epsilon must lie in [0, 1), got {eps!r}")
        object.__setattr__(self, "epsilon", float(eps))


#: log2 of the smallest normal double; smaller budgets lose their precision.
_MIN_NORMAL_LOG2 = math.log2(sys.float_info.min)


def _linear(log2_value: float) -> float:
    """2**x as a float, saturating to 0.0 / inf outside the double range."""
    if log2_value == -math.inf:
        return 0.0
    try:
        return 2.0**log2_value
    except OverflowError:
        return math.inf


def markov_bound(mean: float, threshold: float) -> float:
    """Pr[X >= threshold] <= mean / threshold for nonnegative X, capped at 1."""
    if mean < 0:
        raise BadParams(f"mean must be nonnegative, got {mean!r}")
    if threshold <= 0:
        raise BadParams(f"threshold must be positive, got {threshold!r}")
    return min(1.0, mean / threshold)


@dataclass(frozen=True)
class GuaranteeBudget:
    required_average: float
    degradation_factor: float


def average_for_individual_guarantee(
    eps: float, delta: float, guarantees: int = 1
) -> GuaranteeBudget:
    """Average budget needed so each of several events fails with probability
    at most eps at deviation delta.

    One Markov application turns E[X] <= eps*delta into the individual
    guarantee; chaining k of them multiplies the budget down to eps*delta^k,
    which is the quantitative price of per-event promises.  delta = 1 is
    allowed and marks the no-degradation baseline.  A budget below the
    smallest normal double is refused rather than rounded toward zero.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta <= 1.0:
        raise BadParams("eps must lie in (0, 1) and delta in (0, 1]")
    if guarantees < 1:
        raise BadParams(f"need at least one guarantee, got {guarantees}")
    budget_log2 = math.log2(eps) + guarantees * math.log2(delta)
    if budget_log2 < _MIN_NORMAL_LOG2:
        raise BadParams(
            f"required average 2^{budget_log2:.6g} is below the smallest normal "
            f"double 2^{_MIN_NORMAL_LOG2:g}"
        )
    factor = delta**guarantees
    return GuaranteeBudget(eps * factor, factor)


def hypothesis_ii_cap(d: float) -> float:
    """Success cap 1/2 + d/2 implied by the probability-(1-d) mixture reading."""
    if not 0.0 <= d <= 0.5:
        raise BadRange(f"criterion value must lie in [0, 1/2], got {d!r}")
    return 0.5 + d / 2.0


def hypothesis_ii_exact(
    sigma0: DensityOperator, sigma1: DensityOperator, d: float
) -> float:
    """Exact mixture-reading success 1/2 + (d/4)||sigma0 - sigma1||_1.

    Always at most the cap, with equality for orthogonal pure components.
    """
    if sigma0.dim != sigma1.dim:
        raise DimMismatch(f"dimensions differ: {sigma0.dim} vs {sigma1.dim}")
    if not 0.0 <= d <= 0.5:
        raise BadRange(f"criterion value must lie in [0, 1/2], got {d!r}")
    return 0.5 + (d / 4.0) * trace_norm(sigma0.matrix - sigma1.matrix)


@dataclass(frozen=True)
class ComparisonRow:
    """One subsequence length in the uniform-vs-certified comparison.

    ``ratio`` measures how much worse the certified bound 2^-m + eps is
    than the truly uniform probability 2^-m; log2 fields are exact where
    the linear ones underflow.
    """

    m: int
    uniform_prob: float
    uniform_log2: float
    bound: float
    bound_log2: float
    spiked_peak: float
    spiked_log2: float
    ratio: float
    ratio_log2: float


def uniform_comparison_table(
    scenario: GuaranteeScenario, ms: tuple[int, ...] | None = None
) -> tuple[ComparisonRow, ...]:
    """Compare the certified subsequence bound against a uniform key.

    One row per requested subsequence length (default: the scenario's m).
    """
    lengths = tuple(ms) if ms is not None else (scenario.m,)
    if any(not 0 < m <= scenario.n for m in lengths):
        raise BadParams("every subsequence length must lie in (0, n]")
    eps = scenario.epsilon
    eps_log2 = math.log2(eps) if eps > 0 else -math.inf
    rows = []
    for m in lengths:
        uniform_log2 = -float(m)
        bound_log2 = float(np.logaddexp2(uniform_log2, eps_log2))
        ratio_log2 = bound_log2 + m
        rows.append(
            ComparisonRow(
                m=m,
                uniform_prob=_linear(uniform_log2),
                uniform_log2=uniform_log2,
                bound=_linear(bound_log2),
                bound_log2=bound_log2,
                spiked_peak=_linear(-float(scenario.l)),
                spiked_log2=-float(scenario.l),
                ratio=_linear(ratio_log2),
                ratio_log2=ratio_log2,
            )
        )
    return tuple(rows)
