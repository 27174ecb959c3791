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

from .ensembles import ProbDist, _common, _exact_parts, _floats, _joined
from .errors import BadParams

#: Tolerance on coupling marginal sums.
MARGINAL_TOL = 1e-12


def _masses(*seqs):
    """The mass sequences as arrays over one common denominator: Python-int
    numerators (object dtype) when every mass is an int or a Fraction, else
    float64 with denominator None."""
    nums, den = _exact_parts([v for s in seqs for v in s])
    if den is None:
        return [np.array(s, dtype=np.float64) for s in seqs], None
    return np.split(np.array(nums, dtype=object), np.cumsum([len(s) for s in seqs[:-1]])), den


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint mass over X x X' with declared marginals.

    The marginals ``p`` and ``q`` and the optional ``diagonal`` are kept as
    read-only arrays over one common ``denominator``: Python-int numerators
    when every given mass is an int or a Fraction, else float64 with
    ``denominator`` None.

    ``joint``, when given, is the dense row-major tuple of rows and is
    validated cell by cell.  Otherwise the mass is kept factored and never
    expanded, so huge label universes stay cheap: ``diagonal[i]`` on cell
    (i, i) plus the rank-one residual ``res_p[i] * res_q[j] / leftover``,
    where ``res_p = p - diagonal``, ``res_q = q - diagonal`` and
    ``leftover`` is their common total, all in the units of ``p``.  Without
    a diagonal the coupling is the independent product P(x)Q(x'), i.e.
    residuals P and Q and leftover 1.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    p: np.ndarray
    q: np.ndarray
    joint: tuple | None = None
    diagonal: np.ndarray | None = None
    denominator: int | None = field(default=None, init=False)
    res_p: np.ndarray | None = field(default=None, init=False, repr=False)
    res_q: np.ndarray | None = field(default=None, init=False, repr=False)
    leftover: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        given = None
        if "denominator" not in vars(self):  # built through __init__: masses from the caller
            given = (self.p, self.q) if self.diagonal is None else (self.p, self.q, self.diagonal)
            arrays, den = _masses(*given)
            for name, a in zip(("p", "q", "diagonal"), arrays):
                object.__setattr__(self, name, a)
            object.__setattr__(self, "denominator", den)
        if len(self.row_labels) != len(self.p) or len(self.col_labels) != len(self.q):
            raise BadParams("marginal lengths do not match label counts")
        if self.joint is None:
            if self.diagonal is None:
                # the product P x Q has marginals P and Q by construction
                factors = self.p, self.q, 1.0 if self.denominator is None else self.denominator
            else:
                factors = self._derive_factors()
            for name, value in zip(("res_p", "res_q", "leftover"), factors):
                object.__setattr__(self, name, value)
            for a in (self.p, self.q, self.diagonal, self.res_p, self.res_q):
                if a is not None:
                    a.setflags(write=False)
        else:
            self._check_joint()
        if given is not None:  # last, so that every check above keeps its message
            for labels, masses in zip((self.row_labels, self.col_labels), given):
                ProbDist(labels, masses)  # the marginals must be distributions

    def _check_joint(self):
        rows = tuple(tuple(r) for r in self.joint)
        if len(rows) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in rows
        ):
            raise BadParams("joint mass shape does not match labels")
        for r in rows:
            for v in r:
                if not v >= -MARGINAL_TOL:  # NaN fails too
                    raise BadParams(f"negative or NaN coupling mass {v!r}")
        p, q = (self.p, self.q) if self.denominator is None else (
            _floats(a, self.denominator) for a in (self.p, self.q)
        )
        for i, r in enumerate(rows):
            if not abs(math.fsum(float(v) for v in r) - p[i]) <= MARGINAL_TOL:
                raise BadParams(f"row sum {i} does not reproduce the first marginal")
        for j in range(len(self.col_labels)):
            col = math.fsum(float(r[j]) for r in rows)
            if not abs(col - q[j]) <= MARGINAL_TOL:
                raise BadParams(f"column sum {j} does not reproduce the second marginal")
        object.__setattr__(self, "joint", rows)

    @classmethod
    def _over(cls, row_labels, col_labels, p, q, denominator, diagonal=None) -> "Coupling":
        """Factored coupling of marginal arrays already over one denominator
        (None for float64), validated without a Fraction per mass."""
        self = cls.__new__(cls)
        vars(self).update(
            row_labels=row_labels, col_labels=col_labels, p=p, q=q, joint=None,
            diagonal=diagonal, denominator=denominator,
        )
        self.__post_init__()
        return self

    def _derive_factors(self):
        """Residuals and leftover from the diagonal, in O(N).

        The diagonal must lie within both marginals, so both residuals are
        nonnegative, and the residuals must carry the same total, so that
        row and column sums reproduce P and Q.
        """
        p, q, diag, den = self.p, self.q, self.diagonal, self.denominator
        if not len(q) == len(diag) == len(p):
            raise BadParams("factored coupling needs square factors matching the marginals")
        if not np.all((diag >= 0) & (diag <= p) & (diag <= q)):
            raise BadParams("the diagonal must lie within both marginals")
        res_p, res_q = p - diag, q - diag
        if den is None:
            leftover, other = math.fsum(res_p.tolist()), math.fsum(res_q.tolist())
            gap = abs(leftover - other)
        else:
            leftover, other = int(res_p.sum()), int(res_q.sum())
            gap = abs(leftover / den - other / den)
        if not gap <= MARGINAL_TOL:  # NaN fails too
            raise BadParams("the two residuals carry different totals")
        return res_p, res_q, leftover

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

    def mass(self, i: int, j: int):
        if self.joint is not None:
            return self.joint[i][j]
        (cell,), whole = self._cells(np.array([i]), np.array([j]))
        return float(cell) if whole is None else Fraction(cell, whole)


def maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Coupling whose mismatch probability equals the variational distance.

    Diagonal mass min(P(x), Q(x)); the residual mass on each side is coupled
    by the outer product of the normalized residuals, which is deterministic
    and independent of label order.  Kept factored, so it costs O(N).
    """
    P, Q, den = _joined(p, q)
    if not len(P) == len(p.labels) == len(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    return Coupling._over(p.labels, p.labels, P, Q, den, diagonal=np.where(Q < P, Q, P))


def independent_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Product coupling P(x)Q(x'); kept in factored form."""
    (P, Q), den = _common(p, q)
    return Coupling._over(p.labels, q.labels, P, Q, den)


def mismatch_probability(c: Coupling):
    """Pr[X != X'] = 1 minus the mass on matching labels.

    Exact marginals give an exact Fraction; a factored coupling is reduced
    over its arrays without expansion.
    """
    if c.joint is not None:  # dense: cell by cell
        col_index = {x: j for j, x in enumerate(c.col_labels)}
        matches = [
            c.joint[i][col_index[x]] for i, x in enumerate(c.row_labels) if x in col_index
        ]
        if c.denominator is not None and all(isinstance(v, (int, Fraction)) for v in matches):
            return 1 - sum(matches, Fraction(0))
        return 1.0 - math.fsum(float(v) for v in matches)
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
