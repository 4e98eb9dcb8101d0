"""Harmonic-oscillator eigenfunctions and the regulated Mehler kernel.

The generating sum sum(t^n phi_n(x) phi_n(y)) over the normalised
oscillator eigenfunctions has the Gaussian closed form

    K(x, y, t) = (pi (1 - t^2))^(-1/2)
                 * exp[(x^2 - y^2)/2 - (x - y t)^2 / (1 - t^2)],

whose exponent can be symmetrised to
    -(1-t)/(1+t) (x+y)^2/4 - (1+t)/(1-t) (x-y)^2/4.

The regulated Hamiltonian kernel sum((n + 1/2) t^n phi_n phi_n) follows
by applying either t d/dt + 1/2 or -1/2 d^2/dy^2 + y^2/2 to the closed
form; both analytic routes are implemented and agree identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, InvalidConfig, NOverflow, TruncationInsufficient, check_t
from .quadrature import eval_test_function, integrate
from .resummation import _certified_terms

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class MehlerPoint:
    """An (x, y, t) evaluation point on R^2 x [0, 1)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("x and y must be finite")
        check_t(self.t)


@np.errstate(all="ignore")  # a non-finite entry is reported as NOverflow
def _hermite_function_table(n_max: int, x: ArrayLike) -> np.ndarray:
    """phi_0(x) .. phi_{n_max}(x) stacked on a new first axis, by the
    normalised recurrence

    phi_0 = pi^(-1/4) exp(-x^2/2), phi_1 = sqrt(2) x phi_0,
    phi_{m+1} = sqrt(2/(m+1)) x phi_m - sqrt(m/(m+1)) phi_{m-1}.

    Algebraically this is the log-scaled normalisation of the raw H_n
    recurrence, so 2^n n! never appears and no overflow occurs at any n.
    Raises NOverflow if any entry is not finite (a non-finite x).
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is
    # about 2.5x faster per step than the 0-d array's.
    x = np.asarray(x, dtype=np.float64)[()]
    # Beyond |x| = 1e154 every phi_n(x) is 0, but sqrt(2) x would overflow
    # before it multiplies phi_0 = 0; inf and nan pass on, to be reported.
    x = np.where(np.isinf(x), x, np.clip(x, -1e154, 1e154))[()]
    out = np.empty((n_max + 1, *np.shape(x)))
    phi_prev = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    out[0] = phi_prev
    if n_max > 0:
        phi = math.sqrt(2.0) * x * phi_prev
        out[1] = phi
        # phi_{m-1} and phi_m stay in locals; reading them back from out
        # each step costs more.
        for m in range(1, n_max):
            phi_prev, phi = phi, math.sqrt(2.0 / (m + 1)) * x * phi - math.sqrt(m / (m + 1.0)) * phi_prev
            out[m + 1] = phi
    if not np.all(np.isfinite(out)):
        raise NOverflow("eigenfunction recurrence produced a non-finite value")
    return out


def phi_osc(n: int, x: float) -> float:
    """Normalised eigenfunction phi_n(x) = (2^n n! sqrt(pi))^(-1/2)
    exp(-x^2/2) H_n(x), evaluated overflow-free for any n."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return float(_hermite_function_table(n, x)[n])


def _mehler_exponent(x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * (x * x - y * y) - (x - y * t) ** 2 / (1.0 - t * t)


def _mehler(x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    return np.exp(_mehler_exponent(x, y, t)) / math.sqrt(math.pi * (1.0 - t * t))


def mehler_kernel(p: MehlerPoint) -> float:
    """Closed form of sum(t^n phi_n(x) phi_n(y)), an explicit Gaussian."""
    return float(_mehler(p.x, p.y, p.t))


def mehler_series(p: MehlerPoint, n_max: int) -> float:
    """Truncated sum_{n<=n_max} t^n phi_n(x) phi_n(y); the independent
    oracle for mehler_kernel."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    px, py = _hermite_function_table(n_max, (p.x, p.y)).T
    tn = p.t ** np.arange(n_max + 1, dtype=np.float64)
    return math.fsum(tn * px * py)


def symmetrized_exponent(x: float, y: float, t: float) -> float:
    """-(1-t)/(1+t) (x+y)^2/4 - (1+t)/(1-t) (x-y)^2/4; identical to the
    unsymmetrised kernel exponent (x^2-y^2)/2 - (x-yt)^2/(1-t^2)."""
    check_t(t)
    return (
        -((1.0 - t) / (1.0 + t)) * (x + y) ** 2 / 4.0
        - ((1.0 + t) / (1.0 - t)) * (x - y) ** 2 / 4.0
    )


def _osc_h_t_route(x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    # (t d/dt + 1/2) K, with d(log K)/dt worked out analytically:
    # dK/dt = K [t/(1-t^2) + 2 (x - y t)(y - x t)/(1-t^2)^2].
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    omt2 = 1.0 - t * t
    bracket = 0.5 + t * t / omt2 + 2.0 * t * (x - y * t) * (y - x * t) / omt2 ** 2
    return _mehler(x, y, t) * bracket


def _osc_h_y_route(x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    # (-1/2 d^2/dy^2 + y^2/2) K with E = log(K sqrt(pi(1-t^2))):
    # dE/dy = -y + 2t(x - yt)/(1-t^2), d2E/dy2 = -(1+t^2)/(1-t^2).
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    omt2 = 1.0 - t * t
    ey = -y + 2.0 * t * (x - y * t) / omt2
    eyy = -(1.0 + t * t) / omt2
    return _mehler(x, y, t) * (0.5 * y * y - 0.5 * (ey * ey + eyy))


def osc_h_kernel(p: MehlerPoint, route: str = "y_operator") -> float:
    """Regulated Hamiltonian kernel sum((n + 1/2) t^n phi_n(x) phi_n(y)).

    ``route`` selects which operator is applied analytically to the
    closed-form kernel: "t_derivative" for t d/dt + 1/2, "y_operator" for
    -1/2 d^2/dy^2 + y^2/2.  The two expressions are algebraically equal.
    """
    if route == "t_derivative":
        return float(_osc_h_t_route(p.x, p.y, p.t))
    if route == "y_operator":
        return float(_osc_h_y_route(p.x, p.y, p.t))
    raise InvalidConfig(f"unknown route {route!r}")


def osc_action(x: float, t: float, g: Callable, operator: str = "identity") -> float:
    """Integrate K(x, ., t) g or H(x, ., t) g over the real line.

    As t -> 1 the identity action tends to g(x) and the hamiltonian
    action to -g''(x)/2 + x^2 g(x)/2.  The integral is truncated to
    [-L, L] with L = |x| + 10/sqrt(1-t); if the integrand at +-L exceeds
    1e-14 of its peak the truncation is rejected.  g must be smooth with
    sub-Gaussian growth so the Gaussian kernel factor controls the tails.
    """
    if operator not in ("identity", "hamiltonian"):
        raise InvalidConfig(f"unknown operator {operator!r}")
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    check_t(t)

    kern = _mehler if operator == "identity" else _osc_h_y_route

    def integrand(y: np.ndarray) -> np.ndarray:
        return kern(x, y, t) * eval_test_function(g, y)

    half_width = abs(x) + 10.0 / math.sqrt(1.0 - t)
    peak_width = math.sqrt(2.0 * (1.0 - t) / (1.0 + t))

    def check_edges(peak_value: float) -> None:
        edges = float(np.max(np.abs(integrand(np.array([-half_width, half_width])))))
        if peak_value > 0.0 and edges > 1e-14 * peak_value:
            raise TruncationInsufficient(
                f"integrand at +-L={half_width!r} is {edges:.3e}, "
                f"above 1e-14 of its peak {peak_value:.3e}"
            )

    # Probe near the kernel peak first so growing test functions are
    # rejected before any quadrature effort is spent on them.
    probe = np.array([x - peak_width, x, x + peak_width, 0.0])
    check_edges(float(np.max(np.abs(integrand(probe)))))
    res = integrate(integrand, -half_width, half_width, peak=x, peak_min_width=peak_width / 4.0)
    check_edges(res.max_abs_integrand)
    return res.value


def _gaussian_overlaps(n_max: int) -> np.ndarray:
    """g_n = <phi_n, exp(-y^2)>, n = 0 .. n_max: 0 for odd n, g_0 =
    pi^(-1/4) sqrt(2pi/3) and g_{2m+2} = -(1/3) sqrt((2m+1)/(2m+2)) g_{2m}
    (from the integral of H_{2m} exp(-3y^2/2)), so |g_n| <= g_0 3^(-n/2)."""
    g = np.zeros(n_max + 1)
    m = np.arange(n_max // 2, dtype=np.float64)
    g[0::2] = math.pi ** -0.25 * math.sqrt(2.0 * math.pi / 3.0) * np.cumprod(
        np.concatenate(([1.0], -np.sqrt((2.0 * m + 1.0) / (2.0 * m + 2.0)) / 3.0)))
    return g


def osc_action_coefficients(x: float, p: int, tol: float) -> np.ndarray:
    """a_n = E_n^p phi_n(x) g_n, n = 0 .. N, with E_n = n + 1/2: the
    eigen-series f(t) = sum a_n t^n of the action of H^p on g = exp(-y^2).
    N is the least index with sum_{n>N} |a_n| <= tol for every t in [0, 1],
    by |phi_n| <= pi^(-1/4) (Cramer's inequality in Indritz's sharp form),
    |g_n| <= g_0 3^(-n/2) and n + 1/2 <= 3n/2."""
    c = math.pi ** -0.5 * math.sqrt(2.0 * math.pi / 3.0) * 1.5 ** p
    n_max = max(1, _certified_terms(c, p, 3.0 ** -0.5, tol))
    return (np.arange(n_max + 1) + 0.5) ** p * _hermite_function_table(n_max, x) * _gaussian_overlaps(n_max)
