"""Exact and empirical shifted-correlation averages of +-1 completely
multiplicative functions: local densities, correlation products over prime
sets, the spectrum of attainable values, and the symmetric-difference closure
machinery over the two-element field.

Every name loads its module on first use, so `import multcorr` loads no
layer, and only the sieve names load `sieve`, and with it numpy."""

from importlib import import_module

__version__ = "0.1.0"

# The module of the package that defines each public name.
_HOME = {
    "DEFAULT_SEGMENT_LENGTH": "core",
    "MAX_INPUT": "core",
    "BudgetError": "core",
    "PrimeSet": "core",
    "ShiftSet": "core",
    "exceptional_primes": "core",
    "is_prime": "core",
    "liouville": "core",
    "omega": "core",
    "primes_from": "core",
    "shifted_sign": "core",
    "DensityTrace": "density",
    "local_density": "density",
    "local_density_trace": "density",
    "ClosureFamily": "gf2",
    "F2Poly": "gf2",
    "closure_membership": "gf2",
    "family_from_generators": "gf2",
    "two_element_member": "gf2",
    "SeriesSample": "sieve",
    "SieveConfig": "sieve",
    "SignSeries": "sieve",
    "empirical_density": "sieve",
    "running_average": "sieve",
    "shifted_parities": "sieve",
    "sieve_parities": "sieve",
    "Correlation": "spectrum",
    "CorrelationInterval": "spectrum",
    "SpectrumDescription": "spectrum",
    "construct_prime_set": "spectrum",
    "correlation": "spectrum",
    "describe_spectrum": "spectrum",
    "set_density": "spectrum",
    "truncated_correlation": "spectrum",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
