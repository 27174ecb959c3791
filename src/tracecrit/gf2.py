"""The GF(2) experiments: `toeplitz` and `ecc`.

Each command imports `sidechannel` after its own checks: a `toeplitz`
request over either seed cap and an `ecc` preset name that does not exist
are refused before any kernel loads.
"""

# No `from __future__ import annotations`: `_bind` calls each parameter's annotation, its kind.

from typing import TYPE_CHECKING

from .errors import ParseError, _check_seed_cap
from .experiments import _int_param, _preset, _read_text, _verdict

if TYPE_CHECKING:
    from .sidechannel import LinearCode

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


def cmd_toeplitz(
    seed: int, *, m: _int_param = 2, n: _int_param = 2, mode="exhaustive", samples: _int_param = None
):
    """Singular fraction of a Toeplitz hash family; singular members leak.
    A request over either seed cap is refused before numpy loads, by the
    check `singular_fraction` makes, with its message."""
    _check_seed_cap(mode, m + n - 1, samples)
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
    from .sidechannel import decision_region_census

    census = decision_region_census(code, rule)
    sizes = census.region_sizes
    perfect = census.perfect_radius is not None
    distinct = sorted(set(sizes.values())) if perfect else []  # up to 2^k sizes, read only when perfect
    results = {
        "n": code.n,
        "k": code.k,
        "rule": rule,
        "region_sizes": sizes,
        "region_size_min": min(sizes.values()),
        "region_size_max": max(sizes.values()),
        "bias_delta": census.bias_delta,
        "perfect_radius": census.perfect_radius if perfect else -1,
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
            else "syndrome regions are cosets, always equal" if rule != "min_distance"
            else None if census.ties else "no coset has two least-weight words",
        ),
    ]
    return results, verdicts
