"""Couplings of distribution pairs and their mismatch probabilities.

A coupling is a joint distribution with prescribed marginals.  The
minimum achievable mismatch Pr[X != X'] equals the variational distance,
attained by the maximal coupling; the independent coupling shows how far
an arbitrary coupling can sit from that optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ensembles import ProbDist, _joined
from .errors import BadParams
from .qmath import _frozen


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint mass over X x X' with declared marginals, built by
    `maximal_coupling` or `independent_coupling`.

    Both sides share one label index, ``row_labels``: the outer join of the
    marginals' labels, missing labels at zero mass.  The marginals ``p`` and
    ``q`` and the optional ``diagonal`` are read-only arrays over it and over
    one common ``denominator``: Python-int numerators when every mass is
    exact, else float64 with ``denominator`` None.  The mass is kept factored
    and never expanded, so huge label universes stay cheap: ``diagonal[i]``
    on cell (i, i) plus the rank-one residual ``res_p[i] * res_q[j] /
    leftover``, where ``res_p = p - diagonal``, ``res_q = q - diagonal`` and
    ``leftover`` is the total of ``res_p``, all in the units of ``p``.
    Without a diagonal the coupling is the independent product P(x)Q(x'),
    i.e. residuals P and Q and leftover 1.
    """

    row_labels: tuple[str, ...]
    p: np.ndarray
    q: np.ndarray
    denominator: int | None
    diagonal: np.ndarray | None = None
    res_p: np.ndarray | None = field(default=None, init=False, repr=False)
    res_q: np.ndarray | None = field(default=None, init=False, repr=False)
    leftover: object = field(default=None, init=False, repr=False)
    # No dense joint table is ever kept.  bench/spans.py's dense-cell counter
    # still reads this; both go in the benchmark re-baseline (ROADMAP item 5).
    joint = None

    def __post_init__(self):
        p, q, diag, den = self.p, self.q, self.diagonal, self.denominator
        if diag is None:
            # the product P x Q has marginals P and Q by construction
            res_p, res_q, leftover = p, q, 1.0 if den is None else den
        else:
            res_p, res_q = p - diag, q - diag
            leftover = math.fsum(res_p.tolist()) if den is None else int(res_p.sum())
        _frozen(self, p=p, q=q, diagonal=diag, res_p=res_p, res_q=res_q, leftover=leftover)


def maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Coupling whose mismatch probability equals the variational distance.

    Diagonal mass min(P(x), Q(x)); the residual mass on each side is coupled
    by the outer product of the normalized residuals, which is deterministic
    and independent of label order.  Kept factored, so it costs O(N).
    """
    labels, P, Q, den = _joined(p, q)
    if not len(labels) == len(p.labels) == len(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    return Coupling(labels, P, Q, den, np.where(Q < P, Q, P))


def independent_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Product coupling P(x)Q(x'); kept in factored form."""
    return Coupling(*_joined(p, q))


def mismatch_probability(c: Coupling):
    """Pr[X != X'] = 1 minus the mass on matching labels, summed over the
    one label index: diagonal[i] + res_p[i] * res_q[i] / leftover, where a
    leftover of 0 means every residual is 0.

    Exact marginals give an exact Fraction; the factored arrays are reduced
    without expansion.
    """
    scale = c.leftover or 1
    matches = c.res_p * c.res_q
    if c.denominator is None:  # divide first, so the diagonal adds in units of p
        matches /= scale
        if c.diagonal is not None:
            matches += c.diagonal
        return 1.0 - math.fsum(matches.tolist())
    if c.diagonal is not None:
        matches += c.diagonal * scale
    whole = c.denominator * scale
    return Fraction(whole - int(matches.sum()), whole)
