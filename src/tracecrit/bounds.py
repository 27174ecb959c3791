"""Guarantee arithmetic: Markov budgets, mixture caps, comparison tables.

Exponents routinely exceed what double precision can hold linearly, so
every table quantity is computed in the log2 domain first and the linear
value is derived from it (underflowing gracefully to zero).

The arithmetic is float and log2 only, so this module loads no numpy and
no kernel at import: a `table` or `markov` request starts without them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import TOL, BadParams


@dataclass(frozen=True)
class GuaranteeScenario:
    """Protocol-scale parameters for guarantee comparisons.

    ``epsilon`` defaults to 2^-l when omitted.  ``epsilon_log2`` is its
    log2, exactly -l for the default even where 2^-l underflows to 0.0.
    """

    n: int
    l: int
    m: int
    epsilon: float | None = None
    epsilon_log2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.m <= self.n:
            raise BadParams(f"need 0 < m <= n, got m={self.m}, n={self.n}")
        if self.l < 0:
            raise BadParams(f"exponent l must be nonnegative, got {self.l}")
        if self.l == 0 and self.epsilon is None:
            raise BadParams("exponent l must be positive when epsilon is omitted, its default 2^-l being 1")
        eps = self.epsilon if self.epsilon is not None else 2.0**-self.l
        if not 0.0 <= eps < 1.0:
            raise BadParams(f"epsilon must lie in [0, 1), got {eps!r}")
        if self.epsilon is None:
            eps_log2 = -float(self.l)
        else:
            eps_log2 = math.log2(eps) if eps > 0 else -math.inf
        object.__setattr__(self, "epsilon", float(eps))
        object.__setattr__(self, "epsilon_log2", eps_log2)


#: log2 of the smallest normal double; smaller budgets lose their precision.
_MIN_NORMAL_LOG2 = math.log2(sys.float_info.min)


#: log2(e), the factor numpy's logaddexp2 scales its log1p by.
_LOG2E = 1.4426950408889634


def _logaddexp2(x: float, y: float) -> float:
    """log2(2**x + 2**y), bit for bit numpy's ``np.logaddexp2`` on doubles:
    its ``npy_logaddexp2`` step by step, with the same libm calls."""
    if x == y:  # equal infinities too, without an inf - inf
        return x + 1.0
    gap = x - y
    if gap > 0:
        return x + _LOG2E * math.log1p(math.exp2(-gap))
    if gap <= 0:
        return y + _LOG2E * math.log1p(math.exp2(gap))
    return gap  # NaN


def _linear(log2_value: float) -> float:
    """2**x as a float, saturating to 0.0 / inf outside the double range."""
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
    """Success cap 1/2 + d/2 implied by the probability-(1-d) mixture reading.

    d is clamped into [0, 1/2]; a d computed from validated states misses
    that range only by rounding, so only a miss beyond ``TOL`` is refused.
    """
    if not -TOL <= d <= 0.5 + TOL:  # NaN fails too
        raise BadParams(f"criterion value must lie in [0, 1/2], got {d!r}")
    return 0.5 + min(max(d, 0.0), 0.5) / 2.0


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
    eps_log2 = scenario.epsilon_log2
    rows = []
    for m in lengths:
        uniform_log2 = -float(m)
        bound_log2 = _logaddexp2(uniform_log2, eps_log2)
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
