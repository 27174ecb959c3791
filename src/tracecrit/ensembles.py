"""Classical-quantum ensembles and the worked example families.

An ensemble pairs each key value with a prior probability and a probe
state held by the attacker.  The joint key-probe state is block diagonal
in the key basis, so ensembles store one probe per key instead of the
exponentially larger joint matrix; the joint form is materialized only
where a computation genuinely needs it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import BadOverlap, BadParams, DimMismatch, TooLarge, ZeroMass
from .qmath import DensityOperator, PureState, tensor, trace_norms, validate_density

#: Tolerance on total probability mass.
MASS_TOL = 1e-9
#: Masses in [-NEG_MASS_TOL, 0) are clamped to zero; anything lower is an error.
NEG_MASS_TOL = 1e-12

#: Key length cap for sparse spiked distributions.
MAX_SPIKED_BITS = 30


def bit_strings(n: int) -> tuple[str, ...]:
    """All n-bit strings in lexicographic order; ('',) for n = 0."""
    if n < 0:
        raise BadParams(f"bit count must be nonnegative, got {n}")
    if n == 0:
        return ("",)
    if n == 1:
        return ("0", "1")
    # every high half followed by every low half, high half slowest
    low = bit_strings(n // 2)
    return tuple(a + b for a in bit_strings(n - n // 2) for b in low)


@dataclass(frozen=True)
class ProbDist:
    """Finite labelled probability distribution.

    Masses may be floats or Fractions; exact inputs stay exact so that
    rational identities (uniform distributions, coupling overlaps) can be
    verified without rounding.
    """

    labels: tuple[str, ...]
    probs: tuple

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise BadParams("distribution labels must be unique")
        probs = tuple(self.probs)
        if len(labels) != len(probs):
            raise BadParams(
                f"{len(labels)} labels but {len(probs)} masses"
            )
        cleaned = []
        for v in probs:
            if v < 0:
                if v < -NEG_MASS_TOL:
                    raise BadParams(f"negative probability mass {v!r}")
                v = abs(0 * v)  # clamp, preserving the numeric type
            cleaned.append(v)
        total = math.fsum(float(v) for v in cleaned)
        if not abs(total - 1.0) <= MASS_TOL:  # NaN fails too
            raise BadParams(f"masses sum to {total!r}, off unit by {abs(total - 1.0):.3e}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", tuple(cleaned))

    @classmethod
    def uniform(cls, labels) -> "ProbDist":
        """Exact uniform distribution (masses are Fractions)."""
        labels = tuple(labels)
        if not labels:
            raise BadParams("cannot build a distribution over zero labels")
        w = Fraction(1, len(labels))
        return cls(labels, (w,) * len(labels))

    def mass(self, label: str):
        try:
            return self.probs[self.labels.index(label)]
        except ValueError:
            raise BadParams(f"unknown label {label!r}") from None

    def as_array(self) -> np.ndarray:
        return np.asarray([float(v) for v in self.probs])

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, v in zip(self.labels, self.probs) if v > 0)


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
        n, l = self.n_bits, self.spike_exponent
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
        others = 2**self.n_bits - 1
        if others == 0:
            return Fraction(0)
        return (1 - self.spike_mass) / others

    def mass(self, label: str) -> Fraction:
        if len(label) != self.n_bits or set(label) - {"0", "1"}:
            raise BadParams(f"label {label!r} is not a {self.n_bits}-bit string")
        return self.spike_mass if label == self.spike_label else self.rest_mass

    def total_mass(self) -> Fraction:
        return self.spike_mass + (2**self.n_bits - 1) * self.rest_mass

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

    def to_probdist(self, max_bits: int = 20) -> ProbDist:
        if self.n_bits > max_bits:
            raise TooLarge(
                f"dense expansion of a {self.n_bits}-bit distribution exceeds the "
                f"{max_bits}-bit cap"
            )
        labels = bit_strings(self.n_bits)
        return ProbDist(labels, tuple(self.mass(x) for x in labels))


@dataclass(frozen=True)
class LeakSpec:
    """Bit positions revealed to the attacker and their values."""

    positions: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(int(p) for p in self.positions)
        values = tuple(int(v) for v in self.values)
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


@dataclass(frozen=True)
class CqEnsemble:
    """Keyed family {key value, prior probability, probe state}.

    Keys are the 2^n bit strings in lexicographic order (bit 0 leftmost);
    probes all share one dimension.  Construction also freezes the probes
    as one (2^n, d, d) stack in key order and the prior as float64
    weights, so the criterion kernels run batched.
    """

    n_bits: int
    prior: ProbDist
    probes: Mapping[str, DensityOperator]
    probe_stack: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = bit_strings(self.n_bits)
        if self.prior.labels != expected:
            raise BadParams(
                "prior must range over the 2^n bit strings in lexicographic order"
            )
        if set(self.probes) != set(expected):
            raise BadParams("probes must cover exactly the key values")
        dims = {self.probes[k].dim for k in expected}
        if len(dims) != 1:
            raise DimMismatch(f"probe dimensions differ: {sorted(dims)}")
        probes = MappingProxyType(dict(self.probes))
        stack = np.stack([probes[k].matrix for k in expected])
        weights = self.prior.as_array()
        stack.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "probe_stack", stack)
        object.__setattr__(self, "weights", weights)

    @property
    def keys(self) -> tuple[str, ...]:
        return self.prior.labels

    @property
    def probe_dim(self) -> int:
        return self.probe_stack.shape[1]

    def probe(self, key: str) -> DensityOperator:
        return self.probes[key]

    @cached_property
    def average(self) -> DensityOperator:
        """Prior-weighted average probe, accumulated in key order."""
        acc = np.zeros((self.probe_dim, self.probe_dim), dtype=complex)
        for w, rho in zip(self.weights.tolist(), self.probe_stack):
            acc += w * rho
        return validate_density(acc)

    @cached_property
    def key_norms(self) -> np.ndarray:
        """Unhalved trace norms ||rho_k - rho_avg||_1, in key order."""
        norms = trace_norms(self.probe_stack - self.average.matrix)
        norms.setflags(write=False)
        return norms


def average_probe(e: CqEnsemble) -> DensityOperator:
    """Prior-weighted average of the probe states."""
    return e.average


def single_bit_pure_example(c: float) -> CqEnsemble:
    """One-bit key with pure probes of real overlap c, embedded in dim 2."""
    if not 0.0 <= c <= 1.0:
        raise BadOverlap(f"overlap must lie in [0, 1], got {c!r}")
    k0 = PureState([1.0, 0.0])
    k1 = PureState([c, math.sqrt(max(0.0, 1.0 - c * c))])
    probes = {"0": k0.projector(), "1": k1.projector()}
    return CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)


def two_bit_pkl_example(
    sigma: DensityOperator, rho1: DensityOperator, rho2: DensityOperator
) -> CqEnsemble:
    """Two-bit family where the second bit decides which of two states rides
    on the second qubit: keys 00 and 11 carry sigma (x) rho1, keys 01 and 10
    carry sigma (x) rho2."""
    for name, op in (("sigma", sigma), ("rho1", rho1), ("rho2", rho2)):
        if op.dim != 2:
            raise DimMismatch(f"{name} must be qubit-dimensioned, got dim {op.dim}")
    first = DensityOperator(tensor(sigma.matrix, rho1.matrix))
    second = DensityOperator(tensor(sigma.matrix, rho2.matrix))
    probes = {"00": first, "01": second, "10": second, "11": first}
    return CqEnsemble(2, ProbDist.uniform(bit_strings(2)), probes)


def spiked_distribution(n: int, l: int) -> SpikedDist:
    """Distribution with one key of mass 2^-l and a uniform remainder."""
    return SpikedDist(n, l)


def condition_on_leak(e: CqEnsemble, leak: LeakSpec) -> CqEnsemble:
    """Ensemble over the unleaked bits, prior renormalized, probes unchanged."""
    n = e.n_bits
    if leak.positions and leak.positions[-1] >= n:
        raise BadParams(
            f"leak position {leak.positions[-1]} outside a {n}-bit key"
        )
    kept = [i for i in range(n) if i not in set(leak.positions)]
    pattern = dict(zip(leak.positions, leak.values))

    matched: dict[str, tuple[str, object]] = {}
    for k, p in zip(e.keys, e.prior.probs):
        if all(k[pos] == str(bit) for pos, bit in pattern.items()):
            residual = "".join(k[i] for i in kept)
            matched[residual] = (k, p)

    total = math.fsum(float(p) for _, p in matched.values())
    if total <= 0.0:
        raise ZeroMass("leaked pattern has zero prior probability")
    exact = all(isinstance(p, (int, Fraction)) for _, p in matched.values())
    norm = sum((p for _, p in matched.values()), Fraction(0)) if exact else total

    residual_keys = bit_strings(len(kept))
    probs = tuple(matched[r][1] / norm for r in residual_keys)
    probes = {r: e.probe(matched[r][0]) for r in residual_keys}
    return CqEnsemble(len(kept), ProbDist(residual_keys, probs), probes)


def ensemble_to_json(e: CqEnsemble) -> str:
    """Serialize an ensemble for CLI round-trips (probe matrices as re/im pairs)."""
    doc = {
        "n_bits": e.n_bits,
        "keys": list(e.keys),
        "prior": [float(p) for p in e.prior.probs],
        "probes": {
            k: {
                "re": np.real(e.probe(k).matrix).tolist(),
                "im": np.imag(e.probe(k).matrix).tolist(),
            }
            for k in e.keys
        },
    }
    return json.dumps(doc, sort_keys=True)


def ensemble_from_json(text: str) -> CqEnsemble:
    doc = json.loads(text)
    n = int(doc["n_bits"])
    prior = ProbDist(tuple(doc["keys"]), tuple(doc["prior"]))
    probes = {}
    for k, mats in doc["probes"].items():
        probes[k] = validate_density(np.asarray(mats["re"]) + 1j * np.asarray(mats["im"]))
    return CqEnsemble(n, prior, probes)
