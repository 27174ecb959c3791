"""The classical experiments: `cex_i`, `spiked`, `markov` and `table`.

`cex_i` couples two exact distributions and `spiked` is exact `Fraction`
arithmetic on `keys`; `markov` and `table` are guarantee arithmetic on
`bounds` alone.  Each check runs in the code that reads its value, before
numpy loads: `cex_i` checks N here before it imports the kernels, and the
`spiked`, `table` and `markov` ranges are checked by the numpy-free
`keys` and `bounds`, so no request refused by its parameters loads numpy.
"""

# No `from __future__ import annotations`: `_bind` calls each parameter's annotation, its kind.

import math

from .errors import ZERO_TOL, BadParams, ParseError, TooLarge
from .experiments import _float_param, _int_list_param, _int_param, _preset, _verdict

#: Atom count above which cex_i reports the maximal-coupling verdict as
#: NOT-APPLICABLE.  Nothing is materialized (the coupling is factored); the
#: constant only gates that verdict, which the reports of larger N pin.
MAX_DENSE_COUPLING = 1024
#: Atom cap for cex_i, from a budget of about 5 s that a Fraction per atom
#: once used up.  With integer numerators and labels held as their range,
#: N = 2^18 takes about 0.02 s in process, and 0.17-0.22 s and 36 MiB peak
#: RSS through the CLI, on a 2-vCPU VM, so the cap is loose until the caps
#: are re-derived from one time budget.
_MAX_ATOMS = 2**18

SCENARIO_PRESETS = {
    # headline comparison: certified bound vs uniform at m = 100
    "headline-gap": {"n": 1000, "l": 20, "m": 100},
    # published operating point for a full protocol run (epsilon = 1e-5)
    "bb84-headline": {"n": 1000, "l": 16, "m": 100, "epsilon": 1e-5},
}


def cmd_cex_i(seed: int, *, N: _int_param = 4):
    """Independent coupling of identical uniform distributions: the mismatch
    probability sits at 1 - 1/N even though the distance is zero."""
    if N < 2:
        raise BadParams(f"need at least two atoms, got {N}")
    if N > _MAX_ATOMS:
        raise TooLarge(f"{N} atoms exceed the cap of {_MAX_ATOMS}")
    from .coupling import independent_coupling, maximal_coupling, mismatch_probability
    from .criteria import variational_distance
    from .ensembles import ProbDist

    p = q = ProbDist.uniform(range(N))  # the experiment's two distributions are identical
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


def cmd_spiked(seed: int, *, n: _int_param = 8, l: _int_param = 3):
    """Spiked distribution: the whole key is guessable with probability
    2^-l while the distance from uniform is only 2^-l - 2^-n."""
    from .keys import SpikedDist

    dist = SpikedDist(n, l)  # checks n and l before `fractions` loads
    from fractions import Fraction

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
