"""The two-bit counterexamples: `cex_ii` and `cex_iii`.

Both build the two-bit family whose second bit the attacker reads after
learning the first, from a preset, an overlap or three qubit specs.  The
qubit specs, the overlap's range and the presence of a spec are checked
here before numpy and the kernels are imported, so a request refused by
those values loads none of them.  Two refusals come later: a spec missing
after an explicit one, which binding has already built, and an impure
`sigma` for `cex_iii`, whose purity is read off its matrix.
"""

# No `from __future__ import annotations`: `_bind` calls each parameter's annotation, its kind.

import math
from typing import TYPE_CHECKING, Mapping

from .errors import TOL, ZERO_TOL, BadParams, ParseError
from .experiments import _float_param, _preset, _verdict

if TYPE_CHECKING:
    from .discrimination import Povm
    from .qmath import DensityOperator

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


def parse_qubit(spec, name: str = "qubit spec") -> "DensityOperator":
    """Qubit density operator from a {'diag': [a, b]} or {'bloch': [x, y, z]}
    spec called ``name``; numpy loads once its entries have been read."""
    if not isinstance(spec, Mapping):
        raise ParseError(f"{name} must be a mapping, got {spec!r}")
    if "diag" not in spec and "bloch" not in spec:
        raise ParseError(f"{name} needs a 'diag' or 'bloch' entry, got {spec!r}")
    try:
        if "diag" in spec:
            a, b = (_float_param(v, name) for v in spec["diag"])
            rows, scale = [[a, 0.0], [0.0, b]], 1.0
        else:
            x, y, z = (_float_param(v, name) for v in spec["bloch"])
            if math.hypot(x, y, z) > 1.0 + ZERO_TOL:
                raise ParseError(f"Bloch vector length exceeds 1: {(x, y, z)}")
            rows, scale = [[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], 0.5
        import numpy as np

        from .qmath import validate_density

        return validate_density(scale * np.array(rows))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad {name} {spec!r}: {exc}") from exc


def _overlap_pair(c: float) -> tuple["DensityOperator", "DensityOperator"]:
    """The pure qubit states |0><0| and |v><v|, v = (c, sqrt(1 - c^2)), of real overlap c."""
    if not 0.0 <= c <= 1.0:
        raise BadParams(f"overlap must lie in [0, 1], got {c!r}")
    import numpy as np

    from .qmath import DensityOperator

    kets = np.array([[1.0, 0.0], [c, math.sqrt(max(0.0, 1.0 - c * c))]], dtype=complex)
    ket0, ket = kets[:, :, None] * kets.conj()[:, None, :]  # each row's outer product
    return DensityOperator._trusted(ket0), DensityOperator._trusted(ket)


def _resolve_two_bit(preset, overlap, sigma, rho1, rho2) -> tuple["DensityOperator", ...]:
    if preset is not None:
        spec = _preset(preset, TWO_BIT_PRESETS, "two-bit")
        return tuple(parse_qubit(spec[k]) for k in ("sigma", "rho1", "rho2"))
    if overlap is not None:
        ket0, ket = _overlap_pair(overlap)  # |0><0| is also sigma
        return ket0, ket0, ket
    if any(spec is None for spec in (sigma, rho1, rho2)):
        raise ParseError("two-bit family needs 'preset', 'overlap', or explicit sigma/rho1/rho2")
    return sigma, rho1, rho2


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
    from .qmath import _trace_norms

    family = two_bit_pkl_example(sigma, rho1, rho2)
    (gap,) = _trace_norms((rho1.matrix - rho2.matrix)[None]).tolist()
    d = criterion_d_averaged(family)
    success = post_leak_discrimination(family, LeakSpec((0,), (0,))).p_success
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
    from .qmath import _hermitian_eigen, tensor

    # row i of each factor is its eigenvector i
    vecs = _hermitian_eigen(np.array([sigma.matrix, rho1.matrix - rho2.matrix]))[1].swapaxes(1, 2)
    pa, pb = vecs[:, :, :, None] * vecs.conj()[:, :, None, :]  # pa[i] and pb[j] are their projectors
    stack = tensor(pa[:, None], pb[None]).reshape(4, 4, 4)  # pa[i] (x) pb[j] at index 2i + j
    labels = [f"{fl}:{sl}" for fl in ("a", "b") for sl in ("e+", "e-")]
    return Povm(tuple(zip(labels, stack)))


def cmd_cex_iii(
    seed: int, *, preset=None, overlap: _float_param = None, sigma: parse_qubit = None,
    rho1: parse_qubit = None, rho2: parse_qubit = None
):
    """A concrete measurement whose induced distribution deviates from
    uniform by more than d under the joint or posterior readings."""
    sigma, rho1, rho2 = _resolve_two_bit(preset, overlap, sigma, rho1, rho2)
    from .criteria import classical_dbar, criterion_d_averaged, delta_E_variants
    from .discrimination import measure_ensemble
    from .ensembles import two_bit_pkl_example

    purity = float((sigma.matrix @ sigma.matrix).trace().real)
    if purity < 1.0 - TOL:
        raise ParseError(f"sigma must be pure for this construction, purity {purity!r}")
    family = two_bit_pkl_example(sigma, rho1, rho2)
    povm = _family_measurement(sigma, rho1, rho2)
    d = criterion_d_averaged(family)
    joint = measure_ensemble(family, povm)
    variants = delta_E_variants(family, povm)
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
