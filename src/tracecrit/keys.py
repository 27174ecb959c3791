"""Keys as bit strings and the sparse spiked key distribution.

Everything here is standard-library arithmetic: bit strings are tuples of
str and the spiked masses are exact Fractions.  This module imports only
`errors`, so a `spiked` request starts without numpy or a kernel, and the
GF(2) kernels read `bit_strings` and `_ints` without loading `ensembles`.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple

from .errors import BadParams

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


class _Spiked(NamedTuple):
    n_bits: int
    spike_exponent: int


class SpikedDist(_Spiked):
    """One heavy key value plus a uniform remainder, stored sparsely.

    The spike sits on the all-zeros key with mass 2^-spike_exponent; the
    remaining mass is spread evenly over the other 2^n - 1 keys.  All
    masses are exact rationals, so identities hold without rounding up to
    n = 30 where a dense table would be infeasible.
    """

    __slots__ = ()

    def __new__(cls, n_bits: int, spike_exponent: int):
        n, l = _ints((n_bits, spike_exponent), "key length and spike exponent must be integers")
        if not 1 <= n <= MAX_SPIKED_BITS:
            raise BadParams(f"key length must be in [1, {MAX_SPIKED_BITS}], got {n}")
        if not 0 <= l <= n:
            raise BadParams(f"spike exponent must be in [0, {n}], got {l}")
        return super().__new__(cls, n_bits, spike_exponent)

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

    def event_deviation(self, m: int):
        """Largest deviation of any m-bit subsequence event from 2^-m, exact,
        as ``(max_dev, (positions, pattern))``: the spike's m-bit prefix on
        the first m positions."""
        (m,) = _ints((m,), f"subsequence length must be an integer, got {m!r}")
        if not 1 <= m <= self.n_bits:
            raise BadParams(f"subsequence length must be in [1, {self.n_bits}], got {m}")
        hit = self.spike_mass + (2 ** (self.n_bits - m) - 1) * self.rest_mass
        # any other pattern deviates from 2^-m by 1 / (2^m - 1) of the spike prefix's deviation
        return abs(hit - Fraction(1, 2**m)), (tuple(range(m)), self.spike_label[:m])
