"""Numerical toolkit for the trace-distance security criterion of
quantum-generated keys: criterion evaluation on classical-quantum
ensembles, optimal-measurement success probabilities, coupling
constructions, GF(2) side-channel analysis, and guarantee arithmetic,
all exposed through deterministic reporting experiments."""

__version__ = "0.1.0"


def _api() -> dict:
    """Import every module but `cli`; the names the package exports."""
    from .bounds import (
        ComparisonRow,
        GuaranteeBudget,
        GuaranteeScenario,
        average_for_individual_guarantee,
        hypothesis_ii_cap,
        markov_bound,
        uniform_comparison_table,
    )
    from .coupling import (
        Coupling,
        independent_coupling,
        maximal_coupling,
        mismatch_probability,
    )
    from .criteria import (
        CriterionReport,
        DeltaEVariants,
        classical_dbar,
        criterion_d_averaged,
        criterion_d_entangled,
        criterion_report,
        delta_E_variants,
        event_deviation_bound,
        pairwise_distance_bound,
        variational_distance,
    )
    from .discrimination import (
        JointDistribution,
        Povm,
        helstrom_binary,
        measure_ensemble,
        pgm,
        post_leak_discrimination,
    )
    from .ensembles import (
        CqEnsemble,
        LeakSpec,
        ProbDist,
        condition_on_leak,
        two_bit_pkl_example,
    )
    from .experiments import ExperimentReport, Verdict, run_experiment, run_sweep
    from .keys import SpikedDist
    from .qmath import DensityOperator, tensor, validate_density
    from .sidechannel import (
        CensusResult,
        Gf2Matrix,
        LinearCode,
        code_from_text,
        decision_region_census,
        gf2_rank,
        is_perfect_code,
        singular_fraction,
    )
    return locals()


def __getattr__(name: str):
    """PEP 562: the first read of a package attribute binds the whole API,
    so `python -m tracecrit`, which reaches `cli` through relative imports
    only, loads just the modules its request runs."""
    globals().update(_api())
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    globals().update(_api())
    return list(globals())
