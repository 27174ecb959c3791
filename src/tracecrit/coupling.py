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

from .ensembles import ProbDist
from .errors import BadParams

#: Tolerance on coupling marginal sums.
MARGINAL_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """Joint mass over X x X' with declared marginals.

    ``joint`` is a row-major tuple of rows; ``None`` marks the independent
    product coupling, whose mass P(x)Q(x') is never materialized so that
    huge label universes stay cheap.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    p: tuple
    q: tuple
    joint: tuple | None

    def __post_init__(self):
        if len(self.row_labels) != len(self.p) or len(self.col_labels) != len(self.q):
            raise BadParams("marginal lengths do not match label counts")
        if self.joint is None:
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

    def mass(self, i: int, j: int):
        if self.joint is None:
            return self.p[i] * self.q[j]
        return self.joint[i][j]


def _aligned(p: ProbDist, q: ProbDist) -> tuple:
    if set(p.labels) != set(q.labels):
        raise BadParams("coupled distributions must share one label universe")
    order = {x: i for i, x in enumerate(q.labels)}
    return tuple(q.probs[order[x]] for x in p.labels)


def maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Coupling whose mismatch probability equals the variational distance.

    Diagonal mass min(P(x), Q(x)); the residual mass on each side is coupled
    by the outer product of the normalized residuals, which is deterministic
    and independent of label order.
    """
    qp = _aligned(p, q)
    n = len(p.labels)
    mins = tuple(min(a, b) for a, b in zip(p.probs, qp))
    res_p = tuple(a - m for a, m in zip(p.probs, mins))
    res_q = tuple(b - m for b, m in zip(qp, mins))
    exact = all(isinstance(v, (int, Fraction)) for v in (*p.probs, *qp))
    leftover = (
        sum(res_p, Fraction(0)) if exact else math.fsum(float(v) for v in res_p)
    )

    rows = [[0 * mins[0]] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = mins[i]
    if leftover > 0:
        for i in range(n):
            if res_p[i] == 0:
                continue
            for j in range(n):
                if res_q[j] == 0:
                    continue
                rows[i][j] = rows[i][j] + res_p[i] * res_q[j] / leftover
    return Coupling(p.labels, p.labels, p.probs, qp, tuple(tuple(r) for r in rows))


def independent_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Product coupling P(x)Q(x'); kept in factored form."""
    return Coupling(p.labels, q.labels, p.probs, q.probs, None)


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
