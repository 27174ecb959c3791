"""Couplings of distribution pairs and their mismatch probabilities.

A coupling is a joint distribution with prescribed marginals.  The
minimum achievable mismatch Pr[X != X'] equals the variational distance,
attained by the maximal coupling; the independent coupling shows how far
an arbitrary coupling can sit from that optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    (i, i) plus the rank-one residual ``res_p[i] * res_q[j] / leftover``.
    Without factors the coupling is the independent product P(x)Q(x'),
    i.e. a zero diagonal with residuals P and Q and leftover 1.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    p: tuple
    q: tuple
    joint: tuple | None = None
    diagonal: tuple | None = None
    res_p: tuple | None = None
    res_q: tuple | None = None
    leftover: object = 1

    def __post_init__(self):
        if len(self.row_labels) != len(self.p) or len(self.col_labels) != len(self.q):
            raise BadParams("marginal lengths do not match label counts")
        if self.joint is None:
            factors = (self.diagonal, self.res_p, self.res_q)
            if all(f is None for f in factors) and self.leftover == 1:
                # the product P x Q has marginals P and Q by construction
                object.__setattr__(self, "res_p", self.p)
                object.__setattr__(self, "res_q", self.q)
            else:
                self._check_factors()
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

    def _check_factors(self):
        """The dense checks in O(N): nonnegative factors whose row and column
        sums reproduce P and Q."""
        if any(f is None for f in (self.diagonal, self.res_p, self.res_q)):
            raise BadParams("a factored coupling needs diagonal, res_p and res_q")
        n = len(self.p)
        if not len(self.q) == len(self.diagonal) == len(self.res_p) == len(self.res_q) == n:
            raise BadParams("factored coupling needs square factors matching the marginals")
        diag, rp, rq, p, q = (
            np.asarray([float(v) for v in f])
            for f in (self.diagonal, self.res_p, self.res_q, self.p, self.q)
        )
        if min(diag.min(), rp.min(), rq.min()) < -MARGINAL_TOL:
            raise BadParams("negative coupling mass in the factors")
        leftover = float(self.leftover)
        if leftover <= 0 and (rp.any() or rq.any()):
            raise BadParams("residual mass with no leftover to normalize it")
        rows = diag + (rp * (math.fsum(rq) / leftover) if leftover > 0 else 0.0)
        cols = diag + (rq * (math.fsum(rp) / leftover) if leftover > 0 else 0.0)
        for side, order, sums, marginal in (("row", "first", rows, p), ("column", "second", cols, q)):
            off = np.flatnonzero(np.abs(sums - marginal) > MARGINAL_TOL)
            if off.size:
                raise BadParams(f"{side} sum {off[0]} does not reproduce the {order} marginal")

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
    res_p = tuple(a - m for a, m in zip(p.probs, mins))
    res_q = tuple(b - m for b, m in zip(qp, mins))
    exact = all(isinstance(v, (int, Fraction)) for v in (*p.probs, *qp))
    leftover = (
        sum(res_p, Fraction(0)) if exact else math.fsum(float(v) for v in res_p)
    )
    return Coupling(
        p.labels, p.labels, p.probs, qp, diagonal=mins, res_p=res_p, res_q=res_q, leftover=leftover
    )


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
