"""Classical-quantum ensembles and the worked example families.

An ensemble pairs each key value with a prior probability and a probe
state held by the attacker.  The joint key-probe state is block diagonal
in the key basis, so ensembles store one probe per key instead of the
exponentially larger joint matrix; the joint form is materialized only
where a computation genuinely needs it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import TOL, ZERO_TOL, BadParams
from .qmath import DensityOperator, _require_density_stack, _trace_norms, tensor

#: Key length cap for sparse spiked distributions.
MAX_SPIKED_BITS = 30
#: bit_strings(n) by n, each built once per process and then held.
_BIT_STRINGS: dict[int, tuple[str, ...]] = {0: ("",), 1: ("0", "1")}


def bit_strings(n: int) -> tuple[str, ...]:
    """All n-bit strings in lexicographic order; ('',) for n = 0.  Built once
    per process and then returned as the same tuple, so it stays held: about
    5 MB at n = 16 and about 80 MB at n = 20."""
    if type(n) is int and n in _BIT_STRINGS:  # a hit; 1.0 == 1 must not hit
        return _BIT_STRINGS[n]
    (n,) = _ints((n,), f"bit count must be an integer, got {n!r}")
    if n < 0:
        raise BadParams(f"bit count must be nonnegative, got {n}")
    if n not in _BIT_STRINGS:
        # every high half followed by every low half, high half slowest
        low = bit_strings(n // 2)
        _BIT_STRINGS[n] = tuple(a + b for a in bit_strings(n - n // 2) for b in low)
    return _BIT_STRINGS[n]


def _ints(values, message: str) -> tuple[int, ...]:
    """values as a tuple of ints, refused with BadParams(message) when one is a
    bool or not an Integral, which int() would round or take silently."""
    values = tuple(values)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
        raise BadParams(message)
    return tuple(map(int, values))


def _exact_parts(values):
    """(numerators, denominator) of int and Fraction masses over the lcm of
    their denominators, or (None, None) when any mass is of another type."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return None, None
    if len(values) and not isinstance(values[0], (int, Fraction)):  # no scan for floats
        return None, None
    if not all(issubclass(t, (int, Fraction)) for t in set(map(type, values))):
        return None, None
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        nums = [n * (den // d) for n, d in zip(nums, dens)]
    return nums, den


def _floats(nums: np.ndarray, den: int) -> np.ndarray:
    """Numerators over den as float64; int / int rounds correctly, like float(Fraction)."""
    return (nums / den).astype(np.float64)


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Finite labelled probability distribution, masses held in one array.

    When every mass is an int or a Fraction the distribution is exact:
    ``probs`` holds Python-int numerators (object dtype) over the common
    ``denominator``, so rational identities (uniform distributions,
    coupling overlaps) are verified without rounding.  Otherwise ``probs``
    is float64 and ``denominator`` is None.  Either array is read-only.
    """

    labels: tuple[str, ...]
    probs: np.ndarray
    denominator: int | None = field(default=None, init=False)

    def __post_init__(self):
        labels = self.labels
        if not any(labels is keys for keys in _BIT_STRINGS.values()):  # unique strings as built
            labels = tuple(labels)
            if set(map(type, labels)) - {str}:
                labels = tuple(map(str, labels))
            if len(set(labels)) != len(labels):
                raise BadParams("distribution labels must be unique")
        given = self.probs if isinstance(self.probs, np.ndarray) else tuple(self.probs)
        if len(labels) != len(given):
            raise BadParams(f"{len(labels)} labels but {len(given)} masses")
        if self.denominator is None:
            nums, den = _exact_parts(given)
        else:  # numerators built by _from_numerators
            nums, den = list(given), self.denominator
        if den is None:
            probs = np.array(given, dtype=np.float64)
            negative = probs < 0  # False for NaN, which fails the total
            if negative.any():
                below = np.flatnonzero(probs < -ZERO_TOL)
                if below.size:
                    raise BadParams(f"negative probability mass {given[below[0]]!r}")
                probs[negative] = 0.0
            # A float sum of len(probs) nonnegative masses, in any order, and
            # the correctly rounded one both lie within len(probs) * eps * total
            # of the exact sum (Higham, SIAM J. Sci. Comput. 14 (1993) 783).
            # So a plain sum that clears TOL by that much decides as fsum
            # would; any other total, NaN and inf included, is taken by fsum.
            total = float(probs.sum())
            if not abs(total - 1.0) <= TOL - len(probs) * np.finfo(float).eps * total:
                total = math.fsum(probs.tolist())
        else:
            if min(nums, default=0) < 0:
                for i, v in enumerate(nums):
                    if v < 0:
                        if Fraction(v, den) < -ZERO_TOL:
                            raise BadParams(f"negative probability mass {Fraction(v, den)!r}")
                        nums[i] = 0
            common = math.gcd(den, *nums)
            if common > 1:
                nums, den = [v // common for v in nums], den // common
            total = sum(nums) / den
            probs = np.array(nums, dtype=object)
        if not abs(total - 1.0) <= TOL:  # NaN fails too
            raise BadParams(f"masses sum to {total!r}, off unit by {abs(total - 1.0):.3e}")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def uniform(cls, labels) -> "ProbDist":
        """Exact uniform distribution."""
        labels = tuple(labels)
        if not labels:
            raise BadParams("cannot build a distribution over zero labels")
        return cls._from_numerators(labels, [1] * len(labels), len(labels))

    @classmethod
    def _from_numerators(cls, labels, numerators, denominator: int) -> "ProbDist":
        """Exact distribution of int numerators over one denominator, validated
        like any other but without a Fraction per mass."""
        self = cls.__new__(cls)
        vars(self).update(labels=labels, probs=tuple(numerators), denominator=denominator)
        self.__post_init__()
        return self

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def mass(self, label: str):
        """One label's mass: a Fraction when exact, else a float."""
        try:
            i = self._index[label]
        except KeyError:
            raise BadParams(f"unknown label {label!r}") from None
        if self.denominator is None:
            return float(self.probs[i])
        return Fraction(self.probs[i], self.denominator)

    def as_array(self) -> np.ndarray:
        """Float64 masses, a fresh writable array."""
        if self.denominator is None:
            return self.probs.copy()
        return _floats(self.probs, self.denominator)


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
    where = dict(p._index)
    for x in q.labels:
        where.setdefault(x, len(where))
    P, Q = np.zeros((2, len(where)), dtype=float if den is None else object)
    P[: len(a)] = a
    Q[[where[x] for x in q.labels]] = b
    return tuple(where), P, Q, den


@dataclass(frozen=True)
class SpikedDist:
    """One heavy key value plus a uniform remainder, stored sparsely.

    The spike sits on the all-zeros key with mass 2^-spike_exponent; the
    remaining mass is spread evenly over the other 2^n - 1 keys.  All
    masses are exact rationals, so identities hold without rounding up to
    n = 30 where a dense table would be infeasible.
    """

    n_bits: int
    spike_exponent: int

    def __post_init__(self):
        n, l = _ints(
            (self.n_bits, self.spike_exponent), "key length and spike exponent must be integers"
        )
        if not 1 <= n <= MAX_SPIKED_BITS:
            raise BadParams(f"key length must be in [1, {MAX_SPIKED_BITS}], got {n}")
        if not 0 <= l <= n:
            raise BadParams(f"spike exponent must be in [0, {n}], got {l}")

    @property
    def spike_label(self) -> str:
        return "0" * self.n_bits

    @property
    def spike_mass(self) -> Fraction:
        return Fraction(1, 2**self.spike_exponent)

    @property
    def rest_mass(self) -> Fraction:
        """Mass of each non-spike key."""
        return (1 - self.spike_mass) / (2**self.n_bits - 1)  # n >= 1, so never 0 / 0

    def max_mass(self) -> Fraction:
        return max(self.spike_mass, self.rest_mass)

    def variational_from_uniform(self) -> Fraction:
        """Exact distance to uniform, summed over the two mass levels."""
        u = Fraction(1, 2**self.n_bits)
        others = 2**self.n_bits - 1
        return (abs(self.spike_mass - u) + others * abs(self.rest_mass - u)) / 2

    def shannon_entropy(self) -> float:
        """Entropy in bits, grouped over the two mass levels."""
        total = 0.0
        for mass, count in ((self.spike_mass, 1), (self.rest_mass, 2**self.n_bits - 1)):
            value = float(mass)
            if value > 0.0 and count > 0:
                total -= count * value * math.log2(value)
        return total


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
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)


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
        expected = bit_strings(self.n_bits)
        if self.prior.labels is not expected and self.prior.labels != expected:
            raise BadParams(
                "prior must range over the 2^n bit strings in lexicographic order"
            )
        if set(probes) != set(expected):
            raise BadParams("probes must cover exactly the key values")
        matrices = [getattr(probes[k], "matrix", probes[k]) for k in expected]
        shapes = {np.shape(m) for m in matrices}
        if len(shapes) != 1:
            raise BadParams(f"probe shapes differ: {sorted(shapes)}")
        stack = np.stack(matrices)
        if not all(isinstance(probes[k], DensityOperator) for k in expected):
            stack = _require_density_stack(stack)
        weights = self.prior.as_array()
        stack.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "probe_stack", stack)
        object.__setattr__(self, "weights", weights)

    @property
    def keys(self) -> tuple[str, ...]:
        return self.prior.labels

    @property
    def probe_dim(self) -> int:
        return self.probe_stack.shape[1]

    def probe(self, key: str) -> DensityOperator:
        """The probe of one key, a read-only view of its row of the stack."""
        if key not in self.prior._index:
            raise BadParams(f"unknown key {key!r}")
        return DensityOperator._trusted(self.probe_stack[self.prior._index[key]])

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


def single_bit_pure_example(c: float) -> CqEnsemble:
    """One-bit key with pure probes of real overlap c, embedded in dim 2."""
    if not 0.0 <= c <= 1.0:
        raise BadParams(f"overlap must lie in [0, 1], got {c!r}")
    kets = np.array([[1.0, 0.0], [c, math.sqrt(max(0.0, 1.0 - c * c))]], dtype=complex)
    probes = {k: DensityOperator._trusted(np.outer(v, v.conj())) for k, v in zip("01", kets)}
    return CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)


def two_bit_pkl_example(
    sigma: DensityOperator, rho1: DensityOperator, rho2: DensityOperator
) -> CqEnsemble:
    """Two-bit family where the second bit decides which of two states rides
    on the second qubit: keys 00 and 11 carry sigma (x) rho1, keys 01 and 10
    carry sigma (x) rho2."""
    for name, op in (("sigma", sigma), ("rho1", rho1), ("rho2", rho2)):
        if op.dim != 2:
            raise BadParams(f"{name} must be qubit-dimensioned, got dim {op.dim}")
    first = DensityOperator._trusted(tensor(sigma.matrix, rho1.matrix))
    second = DensityOperator._trusted(tensor(sigma.matrix, rho2.matrix))
    probes = {"00": first, "01": second, "10": second, "11": first}
    return CqEnsemble(2, ProbDist.uniform(bit_strings(2)), probes)


def condition_on_leak(e: CqEnsemble, leak: LeakSpec) -> CqEnsemble:
    """Ensemble over the unleaked bits, prior renormalized, probes unchanged."""
    n = e.n_bits
    if leak.positions and leak.positions[-1] >= n:
        raise BadParams(
            f"leak position {leak.positions[-1]} outside a {n}-bit key"
        )
    # key i holds bit (i >> (n - 1 - pos)) & 1 at position pos, so the
    # matching rows come in residual key order
    mask = sum(1 << (n - 1 - pos) for pos in leak.positions)
    leaked = sum(bit << (n - 1 - pos) for pos, bit in zip(leak.positions, leak.values))
    rows = np.flatnonzero((np.arange(2**n) & mask) == leaked)
    matched = e.prior.probs[rows]
    exact = e.prior.denominator is not None
    total = sum(matched.tolist()) if exact else math.fsum(matched.tolist())
    if total <= 0:
        raise BadParams("leaked pattern has zero prior probability")

    n_kept = n - len(leak.positions)
    residual_keys = bit_strings(n_kept)
    if exact:  # the matched numerators over their sum
        prior = ProbDist._from_numerators(residual_keys, matched, total)
    else:
        prior = ProbDist(residual_keys, matched / total)
    probes = (DensityOperator._trusted(e.probe_stack[i]) for i in rows.tolist())
    return CqEnsemble(n_kept, prior, dict(zip(residual_keys, probes)))
