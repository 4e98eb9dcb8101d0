"""Composite Gauss-Legendre quadrature with panel-doubling refinement.

The kernels integrated here develop a sharp peak at the diagonal as the
regulator approaches 1, so the panel containing a declared peak is
pre-subdivided down to the peak width before the global refinement loop
starts.  Refinement halves every panel until two successive totals agree
within the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfig, QuadratureNotConverged

_INITIAL_PANELS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count, refinement ceiling and tolerance for all integrals."""

    nodes_per_panel: int = 64
    max_refinements: int = 12
    tolerance: float = 1e-9

    def __post_init__(self):
        if not 2 <= self.nodes_per_panel <= 1024:  # leggauss(n) builds an n x n matrix
            raise InvalidConfig("nodes_per_panel must lie in [2, 1024]")
        if self.max_refinements < 1:
            raise InvalidConfig("max_refinements must be at least 1")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidConfig("tolerance must be finite and positive")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    refinements: int
    panels: int
    delta: float
    max_abs_integrand: float


@lru_cache(maxsize=8)
def _gl_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _composite(f: Callable[[np.ndarray], np.ndarray], bp: np.ndarray, nodes: int):
    x, w = _gl_rule(nodes)
    mid = 0.5 * (bp[1:] + bp[:-1])
    half = 0.5 * (bp[1:] - bp[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=np.float64).reshape(pts.shape)
    total = float(np.sum((vals * w[None, :]).sum(axis=1) * half))
    return total, float(np.max(np.abs(vals)))


def eval_test_function(g: Callable, y: np.ndarray) -> np.ndarray:
    """g at the nodes y, calling g once per node when it is not vectorised."""
    out = np.asarray(g(y), dtype=np.float64)
    if out.shape != y.shape:
        out = np.array([float(g(v)) for v in y], dtype=np.float64)
    return out


def _split_at_peak(bp: np.ndarray, peak: float, min_width: float) -> np.ndarray:
    """Grade the mesh toward the peak: the panel containing it is split
    down to ``min_width`` and every other panel down to its distance from
    the peak, so panel width grows roughly geometrically away from it."""
    pts = list(bp)
    i = 0
    while i < len(pts) - 1 and len(pts) < 4096:
        lo, hi = pts[i], pts[i + 1]
        dist = max(lo - peak, peak - hi, 0.0)
        if hi - lo > max(min_width, dist):
            pts.insert(i + 1, 0.5 * (lo + hi))
        else:
            i += 1
    return np.asarray(pts)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: Optional[QuadratureSpec] = None,
    peak: Optional[float] = None,
    peak_min_width: Optional[float] = None,
) -> QuadratureResult:
    """Integrate a vectorised function over [a, b].

    ``peak``/``peak_min_width`` request pre-subdivision of the panel
    containing a sharp feature down to the given width.  Raises
    QuadratureNotConverged if the refinement ceiling is reached before two
    totals agree within ``spec.tolerance``.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not b > a:
        raise InvalidConfig("integration interval must have b > a")
    bp = np.linspace(a, b, _INITIAL_PANELS + 1)
    if peak is not None and peak_min_width is not None and peak_min_width > 0.0:
        if a < peak < b:
            bp = _split_at_peak(bp, peak, peak_min_width)

    prev = None
    max_abs = 0.0
    for refinement in range(spec.max_refinements + 1):
        value, fmax = _composite(f, bp, spec.nodes_per_panel)
        max_abs = max(max_abs, fmax)
        if prev is not None:
            delta = abs(value - prev)
            if delta <= spec.tolerance:
                return QuadratureResult(
                    value=value,
                    refinements=refinement,
                    panels=len(bp) - 1,
                    delta=delta,
                    max_abs_integrand=max_abs,
                )
        prev = value
        if refinement < spec.max_refinements:
            doubled = np.empty(2 * len(bp) - 1)
            doubled[0::2] = bp
            doubled[1::2] = 0.5 * (bp[1:] + bp[:-1])
            bp = doubled

    raise QuadratureNotConverged(
        f"no agreement within {spec.tolerance!r} after {spec.max_refinements} refinements "
        f"({len(bp) - 1} panels)"
    )
