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

from .ensembles import ProbDist
from .errors import BadParams

#: Tolerance on coupling marginal sums.
MARGINAL_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """Joint mass over X x X' with declared marginals.

    ``joint``, when given, is the dense row-major tuple of rows and is
    validated cell by cell.  Otherwise the mass is kept factored and never
    expanded, so huge label universes stay cheap: ``diagonal[i]`` on cell
    (i, i) plus the rank-one residual ``res_p[i] * res_q[j] / leftover``,
    where ``res_p = p - diagonal``, ``res_q = q - diagonal`` and
    ``leftover`` is their common total (exact when p and q are).  Without
    a diagonal the coupling is the independent product P(x)Q(x'), i.e.
    residuals P and Q and leftover 1.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    p: tuple
    q: tuple
    joint: tuple | None = None
    diagonal: tuple | None = None
    res_p: tuple | None = field(default=None, init=False, repr=False)
    res_q: tuple | None = field(default=None, init=False, repr=False)
    leftover: object = field(default=1, init=False, repr=False)

    def __post_init__(self):
        if len(self.row_labels) != len(self.p) or len(self.col_labels) != len(self.q):
            raise BadParams("marginal lengths do not match label counts")
        if self.joint is None:
            if self.diagonal is None:
                # the product P x Q has marginals P and Q by construction
                object.__setattr__(self, "res_p", self.p)
                object.__setattr__(self, "res_q", self.q)
            else:
                self._derive_factors()
            return
        rows = tuple(tuple(r) for r in self.joint)
        if len(rows) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in rows
        ):
            raise BadParams("joint mass shape does not match labels")
        for r in rows:
            for v in r:
                if v < -MARGINAL_TOL:
                    raise BadParams(f"negative coupling mass {v!r}")
        for i, r in enumerate(rows):
            if abs(math.fsum(float(v) for v in r) - float(self.p[i])) > MARGINAL_TOL:
                raise BadParams(f"row sum {i} does not reproduce the first marginal")
        for j in range(len(self.col_labels)):
            col = math.fsum(float(r[j]) for r in rows)
            if abs(col - float(self.q[j])) > MARGINAL_TOL:
                raise BadParams(f"column sum {j} does not reproduce the second marginal")
        object.__setattr__(self, "joint", rows)

    def _derive_factors(self):
        """Residuals and leftover from the diagonal, in O(N).

        The diagonal must lie within both marginals, so both residuals are
        nonnegative, and the residuals must carry the same total, so that
        row and column sums reproduce P and Q.
        """
        p, q, diag = self.p, self.q, self.diagonal
        if not len(q) == len(diag) == len(p):
            raise BadParams("factored coupling needs square factors matching the marginals")
        if not all(0 <= m <= a and m <= b for m, a, b in zip(diag, p, q)):
            raise BadParams("the diagonal must lie within both marginals")
        res_p = tuple(a - m for a, m in zip(p, diag))
        res_q = tuple(b - m for b, m in zip(q, diag))
        if all(isinstance(v, (int, Fraction)) for v in (*p, *q)):
            leftover, other = sum(res_p, Fraction(0)), sum(res_q, Fraction(0))
        else:
            leftover, other = math.fsum(map(float, res_p)), math.fsum(map(float, res_q))
        if abs(float(leftover) - float(other)) > MARGINAL_TOL:
            raise BadParams("the two residuals carry different totals")
        object.__setattr__(self, "res_p", res_p)
        object.__setattr__(self, "res_q", res_q)
        object.__setattr__(self, "leftover", leftover)

    def mass(self, i: int, j: int):
        if self.joint is not None:
            return self.joint[i][j]
        cell = self.res_p[i] * self.res_q[j]
        if cell and self.leftover != 1:
            cell = cell / self.leftover
        if self.diagonal is None or i != j:
            return cell
        return self.diagonal[i] + cell if cell else self.diagonal[i]


def _aligned(p: ProbDist, q: ProbDist) -> tuple:
    if set(p.labels) != set(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    order = {x: i for i, x in enumerate(q.labels)}
    return tuple(q.probs[order[x]] for x in p.labels)


def maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Coupling whose mismatch probability equals the variational distance.

    Diagonal mass min(P(x), Q(x)); the residual mass on each side is coupled
    by the outer product of the normalized residuals, which is deterministic
    and independent of label order.  Kept factored, so it costs O(N).
    """
    qp = _aligned(p, q)
    mins = tuple(min(a, b) for a, b in zip(p.probs, qp))
    return Coupling(p.labels, p.labels, p.probs, qp, diagonal=mins)


def independent_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Product coupling P(x)Q(x'); kept in factored form."""
    return Coupling(p.labels, q.labels, p.probs, q.probs)


def mismatch_probability(c: Coupling):
    """Pr[X != X'] = 1 minus the mass on matching labels.

    Exact (Fraction) marginals give an exact result; the independent
    coupling is evaluated from its factors without expansion.
    """
    col_index = {x: j for j, x in enumerate(c.col_labels)}
    pairs = [
        (i, col_index[x]) for i, x in enumerate(c.row_labels) if x in col_index
    ]
    matches = [c.mass(i, j) for i, j in pairs]
    exact = all(isinstance(v, (int, Fraction)) for v in matches)
    if exact:
        return 1 - sum(matches, Fraction(0))
    return 1.0 - math.fsum(float(v) for v in matches)
