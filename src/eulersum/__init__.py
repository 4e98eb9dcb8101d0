"""Euler summation of divergent spectral series, regulated completeness
kernels for the square well and harmonic oscillator, and reconstruction of
their Hamiltonian kernels as verified t -> 1 limits.

Public names are imported from their module on first use (PEP 562), so
``import eulersum`` alone loads no numerics and no numpy."""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the public names it exports.
_EXPORTS = {
    "errors": ("BoundaryAmbiguous", "DomainError", "EulerSumError", "InvalidConfig", "NoEulerSum",
               "NOverflow", "PrecisionFloor", "QuadratureNotConverged", "TailNotBounded",
               "TestFunctionBoundary", "TNotInUnitInterval", "TruncationInsufficient"),
    "harness": ("RunConfig", "main", "run", "sweep"),
    "oscillator": ("MehlerPoint", "mehler_kernel", "mehler_series", "osc_action", "osc_h_kernel",
                   "phi_osc", "symmetrized_exponent"),
    "quadrature": ("QuadratureResult", "QuadratureSpec", "integrate"),
    "resummation": ("AbelEvaluation", "CoefficientSequence", "EulerLimitConfig", "EulerLimitResult",
                    "abel_eval", "euler_limit"),
    "rows": ("ResultRow", "SweepRow", "read_rows", "write_rows"),
    "square_well": ("IntervalIntegralQuery", "WellKernelPoint", "arg_f", "d_kernel", "h_kernel",
                    "h_series", "k_interval_integral", "k_kernel", "k_series", "phi_well", "well_action"),
    "zeta": ("alternating_sequence", "plain_sequence", "zeta_direct", "zeta_euler"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a submodule, or the module exporting ``name``, on first use."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
