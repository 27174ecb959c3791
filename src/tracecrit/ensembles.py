"""Classical-quantum ensembles and the two-bit example family.

An ensemble pairs each key value with a prior probability and a probe
state held by the attacker.  The joint key-probe state is block diagonal
in the key basis, so ensembles store one probe per key instead of the
exponentially larger joint matrix; the joint form is materialized only
where a computation genuinely needs it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import TOL, ZERO_TOL, BadParams
from .keys import _BIT_STRINGS, _ints, _key_space, bit_strings
from .qmath import DensityOperator, _frozen, _require_density_stack, _trace_norms, tensor


def _exact_parts(values):
    """(numerators, denominator) of int and Fraction masses over the lcm of
    their denominators, or (None, None) when any mass is of another type;
    BadParams for a bool among them, which is no exact mass.  While
    `fractions` is not loaded no Fraction exists, so ints alone are exact and
    a request that reads no Fraction never imports it."""
    fractions = sys.modules.get("fractions")
    exact = int if fractions is None else (int, fractions.Fraction)
    if len(values) and not isinstance(values[0], exact):  # no scan for floats
        return None, None
    types = set(map(type, values))
    if not all(issubclass(t, exact) for t in types):
        return None, None
    if bool in types:
        raise BadParams(f"probability mass {next(v for v in values if type(v) is bool)!r} is not a number")
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        nums = [n * (den // d) for n, d in zip(nums, dens)]
    return nums, den


class _RangeLabels(Sequence):
    """The decimal strings of a range's integers, held as the range and
    formatted when read: ``format(i)`` is ``str(i)`` for an int.  It is equal
    to, and hashes as, the tuple of those strings; a slice is again a view."""

    __slots__ = ("_range",)

    def __init__(self, r: range):
        self._range = r

    def __len__(self):
        return len(self._range)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _RangeLabels(self._range[i])
        return format(self._range[i])

    def __iter__(self):
        return map(format, self._range)

    def __eq__(self, other):
        if isinstance(other, _RangeLabels):
            return self._range == other._range  # distinct integers have distinct strings
        if isinstance(other, tuple):
            return len(other) == len(self._range) and tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


def _labels(labels) -> Sequence[str]:
    """Labels of a distribution or a measurement as an immutable sequence of
    unique strings: a tuple, non-strings coerced by str(), or BadParams when
    two coincide.  A range is held as the range, read as its decimal strings
    (`_RangeLabels`), and needs no check: its integers are pairwise distinct,
    so their strings are."""
    # bit_strings(n), unique strings as built, is the memo's entry for its length 2^n
    if type(labels) is tuple and labels is _BIT_STRINGS.get(len(labels).bit_length() - 1):
        return labels
    if type(labels) is range:
        return _RangeLabels(labels)
    if type(labels) is _RangeLabels:
        return labels
    labels = tuple(labels)
    if set(map(type, labels)) - {str}:
        labels = tuple(map(str, labels))
    if len(set(labels)) != len(labels):
        raise BadParams("labels must be unique")
    return labels


def _float_masses(given) -> np.ndarray:
    """Float masses, a tuple or an ndarray of any shape, as a fresh float64
    array, each a real number at least -ZERO_TOL and clamped at zero, their
    total within TOL of one.  A bool is no mass: a bool array is refused,
    while a bool among float masses in a tuple reads as a number unscanned."""
    if isinstance(given, np.ndarray) and given.dtype.kind in "iuf":
        probs = np.array(given, dtype=np.float64)
    else:
        import array

        if isinstance(given, np.ndarray):
            if given.dtype.kind == "b" and given.size:
                raise BadParams(f"probability mass {given.flat[0].item()!r} is not a number")
            masses, shape = given.ravel().tolist(), given.shape
        else:
            masses, shape = given, -1
        # array.array reads each mass as Python reads a real number, at no more
        # cost than numpy, which would parse a str or bytes and nest a list
        try:
            probs = np.frombuffer(array.array("d", masses)).reshape(shape)
        except TypeError:  # which names no mass
            for v in masses:
                try:
                    array.array("d", (v,))
                except TypeError:
                    raise BadParams(f"probability mass {v!r} is not a number") from None
            raise
    negative = probs < 0  # False for NaN, which fails the total
    if negative.any():
        below = probs[probs < -ZERO_TOL]
        if below.size:
            raise BadParams(f"negative probability mass {below[0].item()!r}")
        probs[negative] = 0.0
    # A float sum of probs.size nonnegative masses, in any order, and the
    # correctly rounded one both lie within probs.size * eps * total of the exact
    # sum (Higham, SIAM J. Sci. Comput. 14 (1993) 783).  So a plain sum that
    # clears TOL by that much decides as fsum would; any other total, NaN and
    # inf included, is taken by fsum.
    total = float(probs.sum())
    if not abs(total - 1.0) <= TOL - probs.size * np.finfo(float).eps * total:
        _require_unit_total(math.fsum(probs.ravel().tolist()))
    return probs


def _require_unit_total(total: float) -> None:
    """BadParams unless the total of a distribution's masses is within TOL of one."""
    if not abs(total - 1.0) <= TOL:  # NaN fails too
        raise BadParams(f"masses sum to {total!r}, off unit by {abs(total - 1.0):.3e}")


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Finite labelled probability distribution, masses held in one array.

    When every mass is an int or a Fraction the distribution is exact:
    ``probs`` holds Python-int numerators (object dtype) over the common
    ``denominator``, so rational identities (uniform distributions,
    coupling overlaps) are verified without rounding.  Otherwise ``probs``
    is float64 and ``denominator`` is None.  Either array is read-only.
    """

    labels: Sequence[str]
    probs: np.ndarray
    denominator: int | None = field(default=None, init=False)

    def __post_init__(self):
        labels = _labels(self.labels)
        given = self.probs if isinstance(self.probs, np.ndarray) else tuple(self.probs)
        if isinstance(given, np.ndarray) and given.ndim != 1:
            raise BadParams(f"masses must form one flat sequence, got shape {given.shape}")
        if len(labels) != len(given):
            raise BadParams(f"{len(labels)} labels but {len(given)} masses")
        nums, den = _exact_parts(given)
        if den is None:
            probs = _float_masses(given)
        else:
            if min(nums, default=0) < 0:
                for i, v in enumerate(nums):
                    if v < 0:
                        from fractions import Fraction

                        if Fraction(v, den) < -ZERO_TOL:
                            raise BadParams(f"negative probability mass {Fraction(v, den)!r}")
                        nums[i] = 0
            common = math.gcd(den, *nums)
            if common > 1:
                nums, den = [v // common for v in nums], den // common
            _require_unit_total(sum(nums) / den)
            probs = np.array(nums, dtype=object)
        _frozen(self, labels=labels, probs=probs, denominator=den)

    @classmethod
    def uniform(cls, labels) -> "ProbDist":
        """Exact uniform distribution: labels checked like any other, masses
        numerators 1 over the label count, exact by construction, so neither
        a Fraction per mass nor the checked constructor's reduction is needed."""
        labels = _labels(labels)
        if not labels:
            raise BadParams("cannot build a distribution over zero labels")
        n = len(labels)
        return _frozen(cls.__new__(cls), labels=labels, probs=np.full(n, 1, dtype=object), denominator=n)

    def as_array(self) -> np.ndarray:
        """Float64 masses, a fresh writable array."""
        if self.denominator is None:
            return self.probs.copy()
        return (self.probs / self.denominator).astype(np.float64)  # int / int rounds like float(Fraction)


def _joined(p: ProbDist, q: ProbDist):
    """(labels, P, Q, denominator): the masses of p and q on the outer join of
    their labels, p's labels first and a missing label at zero mass, as int
    numerators over one common denominator when both are exact, else float64
    with denominator None."""
    if p.denominator is None or q.denominator is None:
        a, b, den = p.as_array(), q.as_array(), None
    else:
        den = math.lcm(p.denominator, q.denominator)
        a, b = (d.probs if d.denominator == den else d.probs * (den // d.denominator) for d in (p, q))
    if p.labels == q.labels:
        return p.labels, a, b, den
    where = {x: i for i, x in enumerate(p.labels)}
    for x in q.labels:
        where.setdefault(x, len(where))
    P, Q = np.zeros((2, len(where)), dtype=float if den is None else object)
    P[: len(a)] = a
    Q[[where[x] for x in q.labels]] = b
    return tuple(where), P, Q, den


@dataclass(frozen=True)
class LeakSpec:
    """Bit positions revealed to the attacker and their values."""

    positions: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        positions = _ints(self.positions, "leak positions must be integers")
        values = _ints(self.values, "leaked values must be bits")
        if len(positions) != len(values):
            raise BadParams("positions and values must have equal length")
        if any(p < 0 for p in positions):
            raise BadParams("leak positions must be nonnegative")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise BadParams("leak positions must be strictly increasing")
        if set(values) - {0, 1}:
            raise BadParams("leaked values must be bits")
        _frozen(self, positions=positions, values=values)


@dataclass(frozen=True, eq=False)
class CqEnsemble:
    """Keyed family {key value, prior probability, probe state}.

    Keys are the 2^n bit strings in lexicographic order (bit 0 leftmost);
    probes (DensityOperators or square matrices) share one dimension.  They
    are kept as one frozen (2^n, d, d) stack in key order, the prior also as
    float64 weights.  The stack is checked as one unless every probe is a
    DensityOperator, which was checked when it was built.
    """

    n_bits: int
    prior: ProbDist
    probes: InitVar[Mapping[str, DensityOperator | np.ndarray]]
    probe_stack: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, probes):
        expected = _key_space(
            self.n_bits, self.prior.labels, "prior must range over the 2^n bit strings in lexicographic order"
        )
        if set(probes) != set(expected):
            raise BadParams("probes must cover exactly the key values")
        matrices = [getattr(probes[k], "matrix", probes[k]) for k in expected]
        shapes = {np.shape(m) for m in matrices}
        if len(shapes) != 1:
            raise BadParams(f"probe shapes differ: {sorted(shapes)}")
        stack = np.array(matrices)  # as np.stack would, at a third of its cost: the shapes are equal
        if not all(isinstance(probes[k], DensityOperator) for k in expected):
            stack = _require_density_stack(stack, lambda i: f"probe {expected[i]!r}")
        _frozen(self, probe_stack=stack, weights=self.prior.as_array())

    @property
    def keys(self) -> Sequence[str]:
        return self.prior.labels

    @property
    def probe_dim(self) -> int:
        return self.probe_stack.shape[1]

    @cached_property
    def average(self) -> DensityOperator:
        """Prior-weighted average probe, accumulated in key order: the last
        running sum holds the bits of a key-by-key loop, where numpy's
        pairwise reductions would not, and + 0.0 clears the -0.0 that a
        loop from zero never holds."""
        terms = self.weights[:, None, None] * self.probe_stack
        return DensityOperator._trusted(np.add.accumulate(terms)[-1] + 0.0)

    @cached_property
    def key_norms(self) -> np.ndarray:
        """Unhalved trace norms ||rho_k - rho_avg||_1, in key order."""
        norms = _trace_norms(self.probe_stack - self.average.matrix)
        norms.setflags(write=False)
        return norms

    @cached_property
    def _outcome_masses(self) -> dict:
        """Frozen key x outcome masses by `Povm`, as `criteria._outcome_mass`
        computes them.  A `Povm` compares by identity, and its entry keeps
        it alive, so its identity is never reused for another measurement."""
        return {}


def two_bit_pkl_example(
    sigma: DensityOperator, rho1: DensityOperator, rho2: DensityOperator
) -> CqEnsemble:
    """Two-bit family where the second bit decides which of two states rides
    on the second qubit: keys 00 and 11 carry sigma (x) rho1, keys 01 and 10
    carry sigma (x) rho2."""
    for name, op in (("sigma", sigma), ("rho1", rho1), ("rho2", rho2)):
        if op.dim != 2:
            raise BadParams(f"{name} must be qubit-dimensioned, got dim {op.dim}")
    pair = tensor(sigma.matrix, np.array([rho1.matrix, rho2.matrix]))  # sigma (x) rho1, sigma (x) rho2
    first, second = map(DensityOperator._trusted, pair)
    probes = {"00": first, "01": second, "10": second, "11": first}
    return CqEnsemble(2, ProbDist.uniform(bit_strings(2)), probes)
