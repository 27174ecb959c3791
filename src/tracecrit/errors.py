"""Exception types raised across the toolkit, its float tolerances, `pgm`'s floor and the Toeplitz seed cap with its check.

Every error names the violated contract; validation errors include the
offending magnitude in their message so reports stay diagnosable.
`BadParams` is the one type for a violated precondition; a narrower class
exists only where some caller tells it apart from `BadParams`.  The
tolerances live here because every module imports this one and it imports
nothing, so `bounds` reads them without loading numpy; the seed cap and
its check live here so that `toeplitz` refuses an over-cap request before
it loads numpy, with the message `singular_fraction` gives.
"""

#: How far a validated unit-scale float may miss its exact constraint: an adjoint gap, a trace,
#: a norm, an eigenvalue floor, a mass total, a POVM sum or the agreement of two routes.
TOL = 1e-9
#: Magnitude at or below which a mass, an eigenvalue or a vector component counts as zero.
ZERO_TOL = 1e-12
#: Relative floor of the average-probe eigenvalues `pgm` inverts.  The sandwich
#: avg^(-1/2) X avg^(-1/2) scales rounding of size eps_mach * lam_max by lam_max / lam,
#: so a floor of 1e-6 lam_max keeps every element within TOL of positive and of the identity sum.
_PGM_SUPPORT_CUTOFF = 1e-6
#: Seed-space cap for exhaustive singular-fraction enumeration, and sample cap of the sampled one.
EXHAUSTIVE_SEED_CAP = 2**24


def _check_seed_cap(mode: str, bits: int, samples: int | None) -> None:
    """Refuse, as `TooLarge`, an exhaustive run over 2^bits seeds or a
    sampled run of more samples than `EXHAUSTIVE_SEED_CAP`."""
    if mode == "exhaustive" and bits >= EXHAUSTIVE_SEED_CAP.bit_length():  # compare exponents: no 2**bits yet
        raise TooLarge(f"2^{bits} seeds exceed the exhaustive cap of {EXHAUSTIVE_SEED_CAP}")
    if mode == "sample" and samples is not None and samples > EXHAUSTIVE_SEED_CAP:
        raise TooLarge(f"{samples} samples exceed the cap of {EXHAUSTIVE_SEED_CAP}")


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(ToolkitError):
    """Matrix deviates from A = A^dagger beyond tolerance."""


class NotPsd(ToolkitError):
    """Operator has an eigenvalue below the negative tolerance."""


class BadTrace(ToolkitError):
    """Operator trace is not 1 within tolerance."""


class TooLarge(ToolkitError):
    """A valid request exceeds a size cap, where smaller sizes would run."""


class BadParams(ToolkitError):
    """Parameters violate an operation precondition: a value outside its
    range, operands of mismatched dimensions, a leak or seed that does not
    fit its use."""


class NonUniformPrior(ToolkitError):
    """Joint distribution does not have a uniform row marginal."""


class ParseError(ToolkitError):
    """Experiment parameters could not be parsed."""


class UnknownExperiment(ToolkitError):
    """No experiment registered under the requested name."""
