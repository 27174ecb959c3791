"""Seeded random instances and loop oracles shared across the test modules."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from tracecrit import (
    Coupling,
    CqEnsemble,
    DensityOperator,
    Povm,
    ProbDist,
    gf2_rank,
    toeplitz_from_seed,
    validate_density,
)
from tracecrit.coupling import _aligned
from tracecrit.ensembles import bit_strings


def random_density(rng, dim: int) -> DensityOperator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real)


def random_pure_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_probdist(rng, labels) -> ProbDist:
    labels = tuple(labels)
    w = rng.random(len(labels)) + 1e-6
    return ProbDist(labels, tuple(w / w.sum()))


def random_ensemble(rng, n_bits: int, dim: int, uniform_prior: bool = True) -> CqEnsemble:
    keys = bit_strings(n_bits)
    prior = ProbDist.uniform(keys) if uniform_prior else random_probdist(rng, keys)
    probes = {k: random_density(rng, dim) for k in keys}
    return CqEnsemble(n_bits, prior, probes)


def random_povm(rng, dim: int, n_outcomes: int) -> Povm:
    raws = []
    for _ in range(n_outcomes):
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(b @ b.conj().T)
    total = np.sum(raws, axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    elements = []
    for i, raw in enumerate(raws):
        op = inv_sqrt @ raw @ inv_sqrt
        elements.append((f"o{i}", 0.5 * (op + op.conj().T)))
    return Povm(tuple(elements))


# -- loop oracles for the batched kernels --------------------------------


def singular_fraction_loop(m: int, n: int, mode: str = "exhaustive", samples=None, seed=None) -> float:
    """Singular Toeplitz fraction, one gf2_rank per seed."""
    bits = m + n - 1
    if mode == "exhaustive":
        seeds = ([(s >> i) & 1 for i in range(bits)] for s in range(2**bits))
        total = 2**bits
    else:
        rng = random.Random(seed)
        seeds = ([rng.randrange(2) for _ in range(bits)] for _ in range(samples))
        total = samples
    singular = sum(gf2_rank(toeplitz_from_seed(b, m, n)) < min(m, n) for b in seeds)
    return singular / total


def event_deviation_loop(p: ProbDist, m: int):
    """Largest m-bit subsequence event deviation, one bincount pass per position set."""
    n = len(p.labels[0])
    probs = p.as_array()
    keys = np.arange(2**n, dtype=np.int64)
    target = 2.0**-m
    best_dev = -1.0
    best_event = None
    for positions in itertools.combinations(range(n), m):
        idx = np.zeros(2**n, dtype=np.int64)
        for t, pos in enumerate(positions):
            idx |= ((keys >> (n - 1 - pos)) & 1) << (m - 1 - t)
        sums = np.bincount(idx, weights=probs, minlength=2**m)
        devs = np.abs(sums - target)
        j = int(np.argmax(devs))
        if devs[j] > best_dev:
            best_dev = float(devs[j])
            best_event = (positions, format(j, f"0{m}b"))
    return best_dev, best_event


def dense_maximal_coupling(p: ProbDist, q: ProbDist) -> Coupling:
    """Maximal coupling with every cell of the joint mass materialized."""
    qp = _aligned(p, q)
    n = len(p.labels)
    mins = tuple(min(a, b) for a, b in zip(p.probs, qp))
    res_p = tuple(a - m for a, m in zip(p.probs, mins))
    res_q = tuple(b - m for b, m in zip(qp, mins))
    exact = all(isinstance(v, (int, Fraction)) for v in (*p.probs, *qp))
    leftover = sum(res_p, Fraction(0)) if exact else math.fsum(float(v) for v in res_p)
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
