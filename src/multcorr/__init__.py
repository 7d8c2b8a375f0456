"""Exact and empirical shifted-correlation averages of +-1 completely
multiplicative functions: local densities, correlation products over prime
sets, the spectrum of attainable values, and the symmetric-difference closure
machinery over the two-element field.

The sieve names load `sieve`, and with it numpy, on first use."""

from .core import (
    DEFAULT_SEGMENT_LENGTH,
    MAX_INPUT,
    BudgetError,
    DiffSet,
    PrimeSet,
    ShiftSet,
    exceptional_primes,
    is_prime,
    liouville,
    omega,
    primes_from,
    shifted_sign,
)
from .density import (
    DensityTrace,
    local_density,
    local_density_trace,
)
from .gf2 import (
    ClosureFamily,
    F2Poly,
    closure_membership,
    family_from_generators,
    two_element_member,
)
from .spectrum import (
    Correlation,
    CorrelationInterval,
    SpectrumDescription,
    construct_prime_set,
    correlation,
    describe_spectrum,
    set_density,
    truncated_correlation,
)

__version__ = "0.1.0"

_SIEVE_NAMES = frozenset(
    {
        "SeriesSample",
        "SieveConfig",
        "SignSeries",
        "empirical_density",
        "running_average",
        "shifted_parities",
        "sieve_parities",
    }
)


def __getattr__(name: str):
    if name in _SIEVE_NAMES:
        from . import sieve

        return getattr(sieve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_INPUT",
    "BudgetError",
    "DiffSet",
    "PrimeSet",
    "ShiftSet",
    "exceptional_primes",
    "is_prime",
    "liouville",
    "omega",
    "primes_from",
    "shifted_sign",
    "DensityTrace",
    "local_density",
    "local_density_trace",
    "ClosureFamily",
    "F2Poly",
    "closure_membership",
    "family_from_generators",
    "two_element_member",
    "DEFAULT_SEGMENT_LENGTH",
    "SeriesSample",
    "SieveConfig",
    "SignSeries",
    "empirical_density",
    "running_average",
    "shifted_parities",
    "sieve_parities",
    "Correlation",
    "CorrelationInterval",
    "SpectrumDescription",
    "construct_prime_set",
    "correlation",
    "describe_spectrum",
    "set_density",
    "truncated_correlation",
]
