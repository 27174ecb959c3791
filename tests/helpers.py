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
    hermitian_eigen,
    toeplitz_from_seed,
    validate_density,
)
from tracecrit.coupling import _aligned
from tracecrit.discrimination import PGM_KERNEL_TOL
from tracecrit.ensembles import bit_strings
from tracecrit.qmath import _require_square_hermitian


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


def bits(x) -> bytes:
    """The exact float64 (or complex128) bit pattern of a value or array."""
    a = np.asarray(x)
    return a.astype(complex if np.iscomplexobj(a) else float).tobytes()


def trace_norm_loop(a) -> float:
    """Trace norm of one Hermitian matrix from its own eigensolve."""
    m = _require_square_hermitian(a)
    return math.fsum(abs(float(v)) for v in np.linalg.eigvalsh(m))


def average_probe_loop(e: CqEnsemble) -> np.ndarray:
    """Prior-weighted average probe, one key at a time."""
    acc = np.zeros((e.probe_dim, e.probe_dim), dtype=complex)
    for k, p in zip(e.keys, e.prior.probs):
        acc += float(p) * e.probe(k).matrix
    return acc


def d_k_per_key_loop(e: CqEnsemble) -> dict:
    """Unhalved per-key norms ||rho_k - rho_avg||_1, one eigensolve per key."""
    avg = average_probe_loop(e)
    return {k: trace_norm_loop(e.probe(k).matrix - avg) for k in e.keys}


def criterion_d_averaged_loop(e: CqEnsemble) -> float:
    avg = average_probe_loop(e)
    return 0.5 * math.fsum(
        float(p) * trace_norm_loop(e.probe(k).matrix - avg)
        for k, p in zip(e.keys, e.prior.probs)
    )


def pairwise_bound_loop(e: CqEnsemble):
    """(worst pair, worst value) over all key pairs, one eigensolve per pair."""
    worst_value = 0.0
    worst_pair = (e.keys[0], e.keys[0])
    for k1, k2 in itertools.combinations(e.keys, 2):
        v = trace_norm_loop(e.probe(k1).matrix - e.probe(k2).matrix)
        if v > worst_value:
            worst_value, worst_pair = v, (k1, k2)
    return worst_pair, worst_value


def outcome_mass_loop(e: CqEnsemble, povm: Povm) -> np.ndarray:
    """Key x outcome mass p_k tr(rho_k E_o), one product per cell."""
    mass = np.zeros((len(e.keys), len(povm.elements)))
    for i, (k, p) in enumerate(zip(e.keys, e.prior.probs)):
        rho = e.probe(k).matrix
        for j, (_, op) in enumerate(povm.elements):
            mass[i, j] = float(p) * float(np.trace(rho @ op).real)
    return mass


def pgm_elements_loop(e: CqEnsemble) -> list:
    """Pretty-good measurement elements of the keys, one sandwich per key."""
    vals, vecs = hermitian_eigen(average_probe_loop(e))
    keep = vals > PGM_KERNEL_TOL
    basis = vecs[:, keep]
    inv_sqrt = basis @ np.diag(vals[keep] ** -0.5) @ basis.conj().T
    elements = []
    for k, p in zip(e.keys, e.prior.probs):
        op = inv_sqrt @ (float(p) * e.probe(k).matrix) @ inv_sqrt
        elements.append((k, 0.5 * (op + op.conj().T)))
    return elements


def classical_dbar_loop(mass: np.ndarray) -> float:
    """Joint vs uniform-key x outcome-marginal distance, one term per cell."""
    u = 1.0 / mass.shape[0]
    col = mass.sum(axis=0)
    return 0.5 * math.fsum(
        abs(float(mass[i, j]) - u * float(col[j]))
        for i in range(mass.shape[0])
        for j in range(mass.shape[1])
    )


def variants_from_mass_loop(mass: np.ndarray) -> tuple:
    """The four deviation readings, one term per cell and outcome."""
    mass = np.maximum(mass, 0.0)
    n_keys, n_out = mass.shape
    outcome_mass = mass.sum(axis=0)
    support = [j for j in range(n_out) if outcome_mass[j] > 1e-12]
    u_support = 1.0 / len(support)
    v_outcome = 0.5 * math.fsum(abs(float(outcome_mass[j]) - u_support) for j in support)
    u_cell = (1.0 / n_keys) * (1.0 / n_out)
    v_joint = 0.5 * math.fsum(abs(float(v) - u_cell) for v in mass.ravel())
    u_key = 1.0 / n_keys
    post_devs = []
    for j in support:
        posterior = mass[:, j] / outcome_mass[j]
        post_devs.append(0.5 * math.fsum(abs(float(v) - u_key) for v in posterior))
    v_avg = math.fsum(float(outcome_mass[j]) * dev for j, dev in zip(support, post_devs))
    return v_outcome, v_joint, max(post_devs), v_avg
