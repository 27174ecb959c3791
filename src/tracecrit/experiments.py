"""Named experiments with machine-readable reports.

Each experiment reproduces one quantitative claim of the analysis as a
deterministic computation: given the same parameters and seed it emits a
byte-identical canonical JSON report.  Verdicts state whether the tested
relation held, failed, or did not apply to the supplied instance.
"""

# No `from __future__ import annotations`: _bind calls each parameter's annotation, its kind.

import itertools
import json
import math
import numbers
import sys
import time
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import __version__
from .errors import EXHAUSTIVE_SEED_CAP, TOL, ZERO_TOL, BadParams, ParseError, TooLarge, UnknownExperiment

if TYPE_CHECKING:
    from .discrimination import Povm
    from .qmath import DensityOperator
    from .sidechannel import LinearCode

# Each command and helper imports the kernels it calls at its top, so one
# CLI request loads only the modules of its experiment; a preset name and
# the Toeplitz seed caps are checked first, so a request they refuse loads none.

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"

#: Atom count above which cex_i reports the maximal-coupling verdict as
#: NOT-APPLICABLE.  Nothing is materialized (the coupling is factored); the
#: constant only gates that verdict, which the reports of larger N pin.
MAX_DENSE_COUPLING = 1024
#: Atom cap for cex_i, from a budget of about 5 s that a Fraction per atom
#: once used up.  With integer numerators N = 2^18 takes 0.2-0.25 s and
#: 64 MiB peak RSS on a 2-core Xeon VM, so the cap is loose until the caps
#: are re-derived from one time budget.
_MAX_ATOMS = 2**18
#: Longest parameter or code file read, in bytes; a 20x20 generator file
#: is under 1 KiB.
_MAX_FILE_BYTES = 2**20
#: Grid points a sweep may hold: each costs about 200 bytes before the
#: first point runs, so the cap bounds memory (about 13 MiB), not time.
_MAX_SWEEP_POINTS = 2**16

TWO_BIT_PRESETS = {
    "two-bit-orthogonal": {
        "sigma": {"diag": [1.0, 0.0]},
        "rho1": {"diag": [1.0, 0.0]},
        "rho2": {"diag": [0.0, 1.0]},
    },
    "two-bit-mixed": {
        "sigma": {"diag": [1.0, 0.0]},
        "rho1": {"diag": [0.6, 0.4]},
        "rho2": {"diag": [0.1, 0.9]},
    },
}

CODE_PRESETS = {
    "hamming74": [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    "code52": [
        [1, 0, 1, 1, 0],
        [0, 1, 0, 1, 1],
    ],
}

SCENARIO_PRESETS = {
    # headline comparison: certified bound vs uniform at m = 100
    "headline-gap": {"n": 1000, "l": 20, "m": 100},
    # published operating point for a full protocol run (epsilon = 1e-5)
    "bb84-headline": {"n": 1000, "l": 16, "m": 100, "epsilon": 1e-5},
}


class Verdict(NamedTuple):
    relation: str
    status: str
    detail: str

    def to_dict(self) -> dict:
        return {"relation": self.relation, "status": self.status, "detail": self.detail}


def _verdict(relation: str, ok: bool, detail: str, skip: str | None = None) -> Verdict:
    """PASS or FAIL by ``ok``; given a ``skip`` reason, NOT-APPLICABLE with that reason as its detail."""
    if skip is not None:
        return Verdict(relation, NOT_APPLICABLE, skip)
    return Verdict(relation, PASS if ok else FAIL, detail)


def _all_pass(verdicts) -> bool:
    """Whether no verdict FAILed: NOT-APPLICABLE passes, as in the exit code."""
    return all(v.status != FAIL for v in verdicts)


def _is_integer(value) -> bool:
    """Whether a value is an integer: an Integral other than a bool, or an integral float."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integral or (isinstance(value, float) and value.is_integer())


def _int_param(value, name: str) -> int:
    """An integer parameter; strings, booleans, non-integral numbers and
    magnitudes above 2^53, past which floats skip integers, exit 2."""
    if _is_integer(value):
        if abs(value) <= 2**53:
            return int(value)
        raise BadParams(f"parameter {name!r} must have magnitude at most 2^53")
    raise BadParams(f"parameter {name!r} must be an integer, got {value!r}")


def _seed(seed) -> int:
    """The seed as an int in [0, 2^64), the range the CLI's --seed takes;
    anything else exits 2."""
    if _is_integer(seed) and 0 <= seed < 2**64:
        return int(seed)
    raise BadParams(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _float_param(value, name: str) -> float:
    """A finite real parameter; strings, booleans, containers and non-finite
    or out-of-range numbers exit 2."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:  # NaN fails too
        return float(value)
    raise BadParams(f"parameter {name!r} must be a finite number, got {value!r}")


def _int_list_param(value, name: str) -> tuple[int, ...]:
    """A non-empty list of integer parameters, as a tuple."""
    if not isinstance(value, (list, tuple)) or not value:
        raise BadParams(f"parameter {name!r} must be a non-empty list of integers, got {value!r}")
    return tuple(_int_param(v, name) for v in value)


def _preset(name, presets: Mapping, kind: str):
    """The named entry of a preset table; unknown or non-string names exit 2."""
    if not isinstance(name, str) or name not in presets:
        raise ParseError(f"unknown {kind} preset {name!r}")
    return presets[name]


#: The exact types `_jsonify` returns as they are; numpy integers and floats go on.
_PLAIN = {int, str, bool, type(None)}


def _jsonify(value):
    """Coerce results into JSON-safe, canonical-friendly values."""
    kind = type(value)
    if kind is float:  # the common case first, without the numbers ABCs
        return value if math.isfinite(value) else repr(value)
    if kind in _PLAIN:
        return value
    if isinstance(value, dict):
        if set(map(type, value.values())) <= _PLAIN and set(map(type, value)) <= {str}:
            return dict(value)  # a flat map, an ecc census's 2^k region sizes, copied without recursion
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, numbers.Integral):  # numpy integers register as Integral
        return int(value)
    if isinstance(value, numbers.Real):  # numpy floats and Fractions, as their float
        return _jsonify(float(value))
    return value


class ExperimentReport(NamedTuple):
    """One experiment run: inputs, named numeric results, verdicts.

    The canonical JSON form excludes elapsed time, so repeated runs with
    identical (parameters, seed) serialize byte-identically.
    """

    experiment: str
    params: dict
    seed: int
    results: dict
    verdicts: tuple[Verdict, ...]
    version: str
    elapsed_seconds: float | None = None

    def all_ok(self) -> bool:
        return _all_pass(self.verdicts)

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "experiment": self.experiment,
            "params": _jsonify(self.params),
            "seed": self.seed,
            "results": _jsonify(self.results),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "version": self.version,
        }
        if include_timing and self.elapsed_seconds is not None:
            doc["elapsed_seconds"] = self.elapsed_seconds
        return doc

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )


def parse_qubit(spec, name: str = "qubit spec") -> "DensityOperator":
    """Qubit density operator from a {'diag': [a, b]} or {'bloch': [x, y, z]} spec called ``name``."""
    import numpy as np

    from .qmath import validate_density

    if not isinstance(spec, Mapping):
        raise ParseError(f"{name} must be a mapping, got {spec!r}")
    try:
        if "diag" in spec:
            a, b = (_float_param(v, name) for v in spec["diag"])
            return validate_density(np.diag([a, b]))
        if "bloch" in spec:
            x, y, z = (_float_param(v, name) for v in spec["bloch"])
            if math.hypot(x, y, z) > 1.0 + ZERO_TOL:
                raise ParseError(f"Bloch vector length exceeds 1: {(x, y, z)}")
            return validate_density(
                0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
            )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad {name} {spec!r}: {exc}") from exc
    raise ParseError(f"{name} needs a 'diag' or 'bloch' entry, got {spec!r}")


def _resolve_two_bit(preset, overlap, sigma, rho1, rho2) -> tuple["DensityOperator", ...]:
    if preset is not None:
        spec = _preset(preset, TWO_BIT_PRESETS, "two-bit")
        return tuple(parse_qubit(spec[k]) for k in ("sigma", "rho1", "rho2"))
    from .ensembles import _overlap_pair

    if overlap is not None:
        ket0, ket = _overlap_pair(overlap)  # |0><0| is also sigma
        return ket0, ket0, ket
    if any(spec is None for spec in (sigma, rho1, rho2)):
        raise ParseError("two-bit family needs 'preset', 'overlap', or explicit sigma/rho1/rho2")
    return sigma, rho1, rho2


def cmd_cex_i(seed: int, *, N: _int_param = 4):
    """Independent coupling of identical uniform distributions: the mismatch
    probability sits at 1 - 1/N even though the distance is zero."""
    from .coupling import independent_coupling, maximal_coupling, mismatch_probability
    from .criteria import variational_distance
    from .ensembles import ProbDist

    if N < 2:
        raise BadParams(f"need at least two atoms, got {N}")
    if N > _MAX_ATOMS:
        raise TooLarge(f"{N} atoms exceed the cap of {_MAX_ATOMS}")
    labels = tuple(map(str, range(N)))
    p = q = ProbDist.uniform(labels)  # the experiment's two distributions are identical
    delta = variational_distance(p, q)
    ind = mismatch_probability(independent_coupling(p, q))

    results = {
        "n_atoms": N,
        "delta": float(delta),
        "independent_mismatch": float(ind),
        "independent_mismatch_num": ind.numerator,
        "independent_mismatch_den": ind.denominator,
    }
    skip = None if N <= MAX_DENSE_COUPLING else f"dense coupling skipped at N={N}"
    mm = math.nan
    if skip is None:
        mm = results["maximal_mismatch"] = float(mismatch_probability(maximal_coupling(p, q)))
    verdicts = [
        _verdict(
            "independent-mismatch-exceeds-delta",
            ind > delta,
            f"mismatch {float(ind)!r} vs delta {float(delta)!r}",
        ),
        _verdict(
            "maximal-coupling-attains-delta",
            abs(mm - float(delta)) <= ZERO_TOL,
            f"maximal mismatch {mm!r} vs delta {float(delta)!r}",
            skip,
        ),
    ]
    return results, verdicts


def cmd_cex_ii(
    seed: int, *, preset=None, overlap: _float_param = None, sigma: parse_qubit = None,
    rho1: parse_qubit = None, rho2: parse_qubit = None
):
    """Partial key leakage beats the mixture cap: conditioning on the first
    bit lets the second be read out with probability 1/2 + d, above the
    1/2 + d/2 that a probability-(1-d) uniform key would allow."""
    sigma, rho1, rho2 = _resolve_two_bit(preset, overlap, sigma, rho1, rho2)
    from .bounds import hypothesis_ii_cap
    from .criteria import criterion_d_averaged, criterion_d_entangled
    from .discrimination import helstrom_binary, post_leak_discrimination
    from .ensembles import LeakSpec, two_bit_pkl_example
    from .qmath import _trace_norm

    family = two_bit_pkl_example(sigma, rho1, rho2)
    gap = _trace_norm(rho1.matrix - rho2.matrix)
    d = criterion_d_averaged(family)
    success, d_again = post_leak_discrimination(family, LeakSpec((0,), (0,)))
    cap = hypothesis_ii_cap(d)
    single = helstrom_binary(rho1, rho2, 0.5)

    results = {
        "d": d,
        "d_entangled": criterion_d_entangled(family),
        "pair_trace_norm": gap,
        "post_leak_success": success,
        "mixture_cap": cap,
        "violation_margin": success - cap,
        "single_bit_success": single,
        "single_bit_margin": single - cap,
    }
    skip = "identical probes, d = 0" if gap <= ZERO_TOL else None
    verdicts = [
        _verdict(
            "family-distance-identity",
            abs(d - 0.25 * gap) <= TOL,
            f"d {d!r} vs quarter norm {0.25 * gap!r}",
        ),
        _verdict(
            "post-leak-success-equals-half-plus-d",
            abs(success - (0.5 + d)) <= TOL,
            f"success {success!r} vs 1/2 + d = {0.5 + d!r}",
        ),
        _verdict(
            "post-leak-success-exceeds-mixture-cap",
            success > cap,
            f"success {success!r} vs cap {cap!r}",
            skip,
        ),
        _verdict(
            "single-bit-success-exceeds-mixture-cap",
            single > cap,
            f"success {single!r} vs cap {cap!r}",
            skip,
        ),
    ]
    return results, verdicts


def _family_measurement(sigma: "DensityOperator", rho1: "DensityOperator", rho2: "DensityOperator") -> "Povm":
    """Product measurement: the sigma eigenbasis on the first qubit and the
    eigenbasis of rho1 - rho2 on the second."""
    import numpy as np

    from .discrimination import Povm
    from .qmath import _phase_fixed

    # row i of each factor is its eigenvector i, in `_hermitian_eigen`'s order and phases
    solves = [np.linalg.eigh(m)[1][:, ::-1] for m in (sigma.matrix, rho1.matrix - rho2.matrix)]
    vecs = _phase_fixed(np.array(solves)).swapaxes(1, 2)
    pa, pb = vecs[:, :, :, None] * vecs.conj()[:, :, None, :]  # pa[i] and pb[j] are their projectors
    # pa[i] (x) pb[j] at index 2i + j, as `qmath.tensor` multiplies them
    stack = (pa[:, None, :, None, :, None] * pb[None, :, None, :, None, :]).reshape(4, 4, 4)
    labels = [f"{fl}:{sl}" for fl in ("a", "b") for sl in ("e+", "e-")]
    return Povm(tuple(zip(labels, stack)))


def cmd_cex_iii(
    seed: int, *, preset=None, overlap: _float_param = None, sigma: parse_qubit = None,
    rho1: parse_qubit = None, rho2: parse_qubit = None
):
    """A concrete measurement whose induced distribution deviates from
    uniform by more than d under the joint or posterior readings."""
    sigma, rho1, rho2 = _resolve_two_bit(preset, overlap, sigma, rho1, rho2)
    from .criteria import _variants_from_mass, classical_dbar, criterion_d_averaged
    from .discrimination import measure_ensemble
    from .ensembles import two_bit_pkl_example

    purity = float((sigma.matrix @ sigma.matrix).trace().real)
    if purity < 1.0 - TOL:
        raise ParseError(f"sigma must be pure for this construction, purity {purity!r}")
    family = two_bit_pkl_example(sigma, rho1, rho2)
    povm = _family_measurement(sigma, rho1, rho2)
    d = criterion_d_averaged(family)
    joint = measure_ensemble(family, povm)
    variants = _variants_from_mass(joint.mass)
    dbar = classical_dbar(joint)

    results = {
        "d": d,
        "outcome_vs_uniform": variants.outcome_vs_uniform,
        "joint_vs_product_uniform": variants.joint_vs_product_uniform,
        "max_posterior_dev": variants.max_posterior_dev,
        "avg_posterior_dev": variants.avg_posterior_dev,
        "dbar": dbar,
    }
    worst = max(variants.joint_vs_product_uniform, variants.max_posterior_dev)
    verdicts = [
        _verdict(
            "delta-e-exceeds-d",
            worst > d + ZERO_TOL,
            f"worst reading {worst!r} vs d {d!r}",
            "identical probes, d = 0" if d <= ZERO_TOL else None,
        ),
        _verdict(
            "averaged-reading-respects-d",
            variants.avg_posterior_dev <= d + TOL,
            f"averaged reading {variants.avg_posterior_dev!r} vs d {d!r}",
        ),
        _verdict(
            "averaged-reading-equals-dbar",
            abs(variants.avg_posterior_dev - dbar) <= ZERO_TOL,
            f"averaged reading {variants.avg_posterior_dev!r} vs dbar {dbar!r}",
        ),
    ]
    return results, verdicts


def cmd_spiked(seed: int, *, n: _int_param = 8, l: _int_param = 3):
    """Spiked distribution: the whole key is guessable with probability
    2^-l while the distance from uniform is only 2^-l - 2^-n."""
    from fractions import Fraction

    from .keys import SpikedDist

    dist = SpikedDist(n, l)
    analytic = Fraction(1, 2**l) - Fraction(1, 2**n)
    summed = dist.variational_from_uniform()
    dev, (positions, pattern) = dist.event_deviation(n)

    results = {
        "n": n,
        "l": l,
        "peak_mass": float(dist.max_mass()),
        "peak_mass_num": dist.max_mass().numerator,
        "peak_mass_den": dist.max_mass().denominator,
        "delta_analytic": float(analytic),
        "delta_summed": float(summed),
        "delta_num": summed.numerator,
        "delta_den": summed.denominator,
        "entropy_bits": dist.shannon_entropy(),
        "max_event_dev_full_key": float(dev),
        "argmax_event_pattern": pattern,
    }
    verdicts = [
        _verdict(
            "spiked-deviation-analytic-matches-sum",
            analytic == summed,
            f"analytic {float(analytic)!r} vs summed {float(summed)!r}",
        ),
        _verdict(
            "spiked-peak-mass",
            dist.max_mass() == Fraction(1, 2**l),
            f"peak {float(dist.max_mass())!r} vs 2^-l {float(Fraction(1, 2 ** l))!r}",
        ),
        _verdict(
            "event-deviation-bounded-by-delta",
            dev <= summed,
            f"event deviation {float(dev)!r} vs delta {float(summed)!r}",
        ),
    ]
    return results, verdicts


def cmd_toeplitz(
    seed: int, *, m: _int_param = 2, n: _int_param = 2, mode="exhaustive", samples: _int_param = None
):
    """Singular fraction of a Toeplitz hash family; singular members leak.
    A request over either seed cap is refused before numpy loads, as
    `singular_fraction` would refuse it, with its message."""
    if mode == "exhaustive" and m + n - 1 >= EXHAUSTIVE_SEED_CAP.bit_length():
        raise TooLarge(f"2^{m + n - 1} seeds exceed the exhaustive cap of {EXHAUSTIVE_SEED_CAP}")
    if mode == "sample" and samples is not None and samples > EXHAUSTIVE_SEED_CAP:
        raise TooLarge(f"{samples} samples exceed the cap of {EXHAUSTIVE_SEED_CAP}")
    from .sidechannel import singular_fraction

    fraction = singular_fraction(m, n, mode=mode, samples=samples, seed=seed)
    results = {
        "m": m,
        "n": n,
        "mode": mode,
        "seed_space_bits": m + n - 1,
        "singular_fraction": fraction,
    }
    if mode == "sample":  # exhaustive runs draw nothing, so a samples value is unused
        results["samples"] = samples
    verdicts = [
        _verdict(
            "family-has-singular-members",
            fraction > 0.0,
            f"singular fraction {fraction!r}",
        ),
        _verdict(
            "exhaustive-2x2-fraction-half",
            fraction == 0.5,
            f"fraction {fraction!r} vs 0.5",
            None if (m, n, mode) == (2, 2, "exhaustive") else "only checked for 2x2 exhaustive",
        ),
    ]
    return results, verdicts


def _read_text(path: str) -> str:
    """The UTF-8 text of a file of at most _MAX_FILE_BYTES bytes, read no further."""
    with open(path, "rb") as f:
        data = f.read(_MAX_FILE_BYTES + 1)
    if len(data) > _MAX_FILE_BYTES:
        raise TooLarge(f"file {path!r} is longer than {_MAX_FILE_BYTES} bytes")
    return data.decode()


def _resolve_code(preset, generator, code_file) -> "LinearCode":
    if preset is not None:
        generator = _preset(preset, CODE_PRESETS, "code")
    from .sidechannel import Gf2Matrix, LinearCode, code_from_text

    if generator is not None:
        return LinearCode(Gf2Matrix.from_rows(generator))
    if code_file is not None:
        if not isinstance(code_file, str):
            raise ParseError(f"'code_file' must be a path string, got {code_file!r}")
        try:
            text = _read_text(code_file)
        except (OSError, ValueError) as exc:  # ValueError: undecodable or NUL in path
            raise ParseError(f"cannot read code file {code_file!r}: {exc}") from None
        return code_from_text(text)
    raise ParseError("code spec needs 'preset', 'generator', or 'code_file'")


def cmd_ecc(seed: int, *, preset=None, generator=None, code_file=None, rule="syndrome"):
    """Decision-region census: unequal regions bias the decoded message."""
    code = _resolve_code(preset, generator, code_file)
    from .sidechannel import decision_region_census, is_perfect_code

    census = decision_region_census(code, rule)
    perfect_radius = next(
        (t for t in range(code.n + 1) if is_perfect_code(code, t)), None
    )
    sizes = census.region_sizes
    perfect = perfect_radius is not None
    distinct = sorted(set(sizes.values())) if perfect else []  # up to 2^k sizes, read only when perfect
    results = {
        "n": code.n,
        "k": code.k,
        "rule": rule,
        "region_sizes": sizes,
        "region_size_min": min(sizes.values()),
        "region_size_max": max(sizes.values()),
        "bias_delta": census.bias_delta,
        "perfect_radius": -1 if perfect_radius is None else perfect_radius,
    }
    verdicts = [
        _verdict(
            "census-regions-sum",
            sum(sizes.values()) == 2**code.n,
            f"sum {sum(sizes.values())} vs 2^n = {2 ** code.n}",
        ),
        _verdict(
            "perfect-code-equal-regions",
            len(distinct) == 1 and census.bias_delta == 0.0,
            f"sizes {distinct}, bias {census.bias_delta!r}",
            None if perfect else "code is not perfect",
        ),
        _verdict(
            "nonperfect-min-distance-bias",
            census.bias_delta > 0.0,
            f"bias {census.bias_delta!r}",
            "code is perfect" if perfect
            else None if rule == "min_distance"
            else "syndrome regions are cosets, always equal",
        ),
    ]
    return results, verdicts


def cmd_markov(
    seed: int, *, mean: _float_param = 0.001, threshold: _float_param = 0.01,
    eps: _float_param = None, delta: _float_param = None, guarantees: _int_param = 1
):
    """Markov budget arithmetic, with the chained individual-guarantee cost."""
    from .bounds import average_for_individual_guarantee, markov_bound

    bound = markov_bound(mean, threshold)
    results = {"mean": mean, "threshold": threshold, "bound": bound}
    skip = None if eps is not None and delta is not None else "no eps/delta supplied"
    required = target = math.nan
    if skip is None:
        budget = average_for_individual_guarantee(eps, delta, guarantees)
        required, target = budget.required_average, eps * delta**guarantees
        results["required_average"] = required
        results["degradation_factor"] = budget.degradation_factor
        results["guarantees"] = guarantees
    verdicts = [
        _verdict(
            "markov-bound-arithmetic",
            bound == min(1.0, mean / threshold),
            f"bound {bound!r} vs min(1, mean/threshold)",
        ),
        _verdict(
            "individual-guarantee-budget",
            required == target,
            f"required {required!r} vs eps*delta^{guarantees}",
            skip,
        ),
    ]
    return results, verdicts


def cmd_table(
    seed: int, *, preset=None, n: _int_param = None, l: _int_param = None, m: _int_param = None,
    epsilon: _float_param = None, ms: _int_list_param = None
):
    """Uniform-vs-certified comparison table for a guarantee scenario."""
    if preset is not None:
        spec = _preset(preset, SCENARIO_PRESETS, "scenario")
        n, l, m, epsilon = spec["n"], spec["l"], spec["m"], spec.get("epsilon")
    if n is None or l is None or m is None:
        raise ParseError("table scenario needs n, l and m (or a preset)")
    from .bounds import GuaranteeScenario, uniform_comparison_table

    scenario = GuaranteeScenario(n=n, l=l, m=m, epsilon=epsilon)
    rows = uniform_comparison_table(scenario, ms)

    results = {
        "n": scenario.n,
        "l": scenario.l,
        "epsilon": scenario.epsilon,
        "rows": [r._asdict() for r in rows],
        "headline_ratio_log2": rows[0].ratio_log2,
    }
    if epsilon is None and scenario.epsilon == 0.0:  # the default 2^-l underflowed
        results["epsilon_log2"] = scenario.epsilon_log2
    verdicts = [
        _verdict(
            "bound-dominates-uniform",
            all(r.bound_log2 >= r.uniform_log2 - ZERO_TOL for r in rows),
            "certified bound never drops below the uniform probability",
        )
    ]
    return results, verdicts


REGISTRY = {
    "cex_i": cmd_cex_i,
    "cex_ii": cmd_cex_ii,
    "cex_iii": cmd_cex_iii,
    "spiked": cmd_spiked,
    "toeplitz": cmd_toeplitz,
    "ecc": cmd_ecc,
    "markov": cmd_markov,
    "table": cmd_table,
}


def _command(name):
    """The experiment registered as ``name``; any other name, a non-string
    included, raises UnknownExperiment."""
    if not isinstance(name, str) or name not in REGISTRY:
        raise UnknownExperiment(f"unknown experiment {name!r}; available: {', '.join(sorted(REGISTRY))}")
    return REGISTRY[name]


def _kinds(name: str, keys) -> dict:
    """The command's parameter kinds, its annotations, by name; a key it does
    not declare, as a keyword-only parameter after the seed, raises ParseError."""
    command = _command(name)
    declared = command.__kwdefaults__
    undeclared = [k for k in keys if k not in declared]
    if undeclared:
        raise ParseError(f"{name} has no parameters {undeclared!r}; it declares {', '.join(declared)}")
    return command.__annotations__


def _coerce(kinds: dict, key: str, value):
    """The value by its parameter's kind, if it has one; null raises ParseError."""
    if value is None:
        raise ParseError(f"parameter {key!r} is null; omit it to take its default")
    kind = kinds.get(key)
    return value if kind is None else kind(value, key)


def _bind(name: str, params: Mapping) -> dict:
    """Every given value by its parameter's kind, whether the run reads it or not."""
    kinds = _kinds(name, params)
    return {k: _coerce(kinds, k, v) for k, v in params.items()}


def run_experiment(name: str, params: Mapping | None = None, seed: int = 0) -> ExperimentReport:
    """Run one registered experiment and wrap its results in a report; a seed
    outside [0, 2^64), a null or mistyped value or a name its signature
    lacks raises before it runs."""
    command = _command(name)
    seed = _seed(seed)
    params = dict(params or {})
    kwargs = _bind(name, params)
    start = time.perf_counter()
    results, verdicts = command(seed, **kwargs)
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        experiment=name,
        params=params,
        seed=seed,
        results=results,
        verdicts=tuple(verdicts),
        version=__version__,
        elapsed_seconds=elapsed,
    )


def run_sweep(
    experiment: str,
    grid: Mapping[str, list],
    seed: int = 0,
    base: Mapping | None = None,
) -> str:
    """One CSV row per grid point, ordered by grid index.

    The grid is the cartesian product of the per-parameter value lists in
    declaration order; rows are independent, so a fixed seed makes the
    whole sweep reproducible byte for byte.  The seed, the base and every
    grid value are checked before the first point runs.  The result
    columns are the sorted union of every point's scalar results, blank
    where a point lacks one; a grid value that is a list or an object is
    written as compact JSON.
    """
    command = _command(experiment)
    seed = _seed(seed)
    if not isinstance(grid, Mapping) or not all(
        isinstance(v, (list, tuple)) for v in grid.values()
    ):
        raise ParseError(f"sweep grid must map parameter names to value lists, got {grid!r}")
    if base is not None and not isinstance(base, Mapping):
        raise ParseError(f"sweep base must be a parameter object, got {base!r}")
    count = math.prod(len(v) for v in grid.values())
    if count > _MAX_SWEEP_POINTS:
        raise TooLarge(f"sweep grid has {count} points, above the cap of {_MAX_SWEEP_POINTS}")
    base = _bind(experiment, base or {})
    names = list(grid.keys())
    kinds = _kinds(experiment, names)
    columns = [[_coerce(kinds, k, v) for v in grid[k]] for k in names]
    given = itertools.product(*(grid[k] for k in names))
    points = [] if not names else list(zip(given, itertools.product(*columns)))

    runs = []
    for point, bound in points:
        results, verdicts = command(seed, **{**base, **dict(zip(names, bound))})
        cells = [json.dumps(v, sort_keys=True, separators=(",", ":")) if isinstance(v, (dict, list)) else v for v in point]
        scalars = {k: v for k, v in _jsonify(results).items() if isinstance(v, (int, float, str))}
        runs.append((cells, scalars, _all_pass(verdicts)))
    result_keys = sorted(set().union(*(scalars for _, scalars, _ in runs)))  # a point may lack a result
    rows = [[i, *cells, *(scalars.get(k, "") for k in result_keys), ok] for i, (cells, scalars, ok) in enumerate(runs)]
    header = [f"result:{k}" if k in names else k for k in result_keys]  # own column: a table preset overrides a grid n
    return _csv_text([["grid_index", *names, *header, "all_pass"], *rows])


def _csv_text(rows) -> str:
    """CSV with minimal quoting and bare newline line ends."""
    import csv
    import io

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
