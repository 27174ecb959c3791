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

from .ensembles import ProbDist, _common, _joined
from .errors import BadParams


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint mass over X x X' with declared marginals, built by
    `maximal_coupling` or `independent_coupling`.

    The marginals ``p`` and ``q`` and the optional ``diagonal`` are
    read-only arrays over one common ``denominator``: Python-int numerators
    when every mass is exact, else float64 with ``denominator`` None.  The
    mass is kept factored and never expanded, so huge label universes stay
    cheap: ``diagonal[i]`` on cell (i, i) plus the rank-one residual
    ``res_p[i] * res_q[j] / leftover``, where ``res_p = p - diagonal``,
    ``res_q = q - diagonal`` and ``leftover`` is the total of ``res_p``, all
    in the units of ``p``.  Without a diagonal the coupling is the
    independent product P(x)Q(x'), i.e. residuals P and Q and leftover 1.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
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
        for name, value in zip(("res_p", "res_q", "leftover"), (res_p, res_q, leftover)):
            object.__setattr__(self, name, value)
        for a in (p, q, diag, res_p, res_q):
            if a is not None:
                a.setflags(write=False)

    def _cells(self, rows: np.ndarray, cols: np.ndarray):
        """(cells, whole): the factored mass of cells (rows[t], cols[t]), the diagonal
        on matching cells plus res_p * res_q / leftover, as int numerators over
        whole = denominator * (leftover or 1), or as float64 with whole None.
        A leftover of 0 means every residual is 0."""
        scale = self.leftover or 1
        cells = self.res_p[rows] * self.res_q[cols]
        if self.denominator is None:  # divide now, so the diagonal is in scale
            cells, scale = cells / scale, 1
        if self.diagonal is not None:
            on = rows == cols
            cells[on] += self.diagonal[rows[on]] * scale
        return cells, None if self.denominator is None else self.denominator * scale


def maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Coupling whose mismatch probability equals the variational distance.

    Diagonal mass min(P(x), Q(x)); the residual mass on each side is coupled
    by the outer product of the normalized residuals, which is deterministic
    and independent of label order.  Kept factored, so it costs O(N).
    """
    P, Q, den = _joined(p, q)
    if not len(P) == len(p.labels) == len(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    return Coupling(p.labels, p.labels, P, Q, den, np.where(Q < P, Q, P))


def independent_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Product coupling P(x)Q(x'); kept in factored form."""
    (P, Q), den = _common(p, q)
    return Coupling(p.labels, q.labels, P, Q, den)


def mismatch_probability(c: Coupling):
    """Pr[X != X'] = 1 minus the mass on matching labels.

    Exact marginals give an exact Fraction; the factored arrays are reduced
    without expansion.
    """
    if c.row_labels == c.col_labels:
        rows = cols = np.arange(len(c.row_labels))
    else:
        col_index = {x: j for j, x in enumerate(c.col_labels)}
        pairs = [(i, col_index[x]) for i, x in enumerate(c.row_labels) if x in col_index]
        rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    cells, whole = c._cells(rows, cols)
    if whole is None:
        return 1.0 - math.fsum(cells.tolist())
    return Fraction(whole - int(cells.sum()), whole)
