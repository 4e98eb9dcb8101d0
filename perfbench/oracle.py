"""Independent oracles for every op of the benchmark, and the outcome of
each op judged against them.

The oracles do not call the code paths they check:

- zeta(s) and the regulated zeta series f(t) come from mpmath;
- the square-well identity action is (8/pi) sum_{odd n} t^n sin(nx)/n^3,
  summed until a tail bound drops below 1e-17;
- the square-well Hamiltonian action is (2/pi) atan(2t sin x / (1 - t^2));
- the oscillator identity action is sqrt(2/(3-t^2))
  exp(-x^2 (3+t^2) / (2 (3-t^2))), and its Hamiltonian is
  (t d/dt + 1/2) of that;
- the interval integral is the log series resummed in mpmath;
- sweep rows use the complex forms of the kernels (Re 1/(1 - t e^{iz})
  and its z-derivatives, the symmetric Mehler Gaussian and its t-route
  Hamiltonian), and on a sample the library's public point kernels and
  truncated series.

Every op ends in one of four outcomes:

- ``ok``: the verdict is true and every reported value meets its oracle;
- ``wrong-value``: a value written to the result file misses its oracle,
  or a value claimed as converged is off by more than 100x the requested
  tolerance;
- ``false-verdict``: the verdict is false: a converged claim with an error
  above ``--tol`` (up to 100x), a failure verdict (``NoEulerSum``,
  ``QuadratureNotConverged``, ...) where the quantity exists and can be
  computed, or a claimed limit where none exists;
- ``unexpected-error``: exit status 1, a raised exception, or a result
  file that does not read back.
"""

from __future__ import annotations

import math
import random
import re

import mpmath
import numpy as np

OK = "ok"
WRONG_VALUE = "wrong-value"
FALSE_VERDICT = "false-verdict"
UNEXPECTED_ERROR = "unexpected-error"
OUTCOMES = (OK, WRONG_VALUE, FALSE_VERDICT, UNEXPECTED_ERROR)

# Action rows come from composite Gauss-Legendre quadrature that stops when
# two refinements agree to 1e-9; a row further than 100x that from the
# closed form is a wrong value.
ACTION_ROW_TOL = 1e-7
# The summary line prints values with 12 significant digits.
PRINT_REL = 1e-11
# A converged claim off by more than this many tolerances is a wrong value,
# not merely an optimistic verdict.
GROSS_FACTOR = 100.0

mpmath.mp.dps = 30


def _summary(text: str) -> dict:
    """Parse the CLI's one-line summary into {key: text}."""
    line = text.strip().splitlines()[-1] if text.strip() else ""
    head, _, detail = line.partition(" detail=")
    out = dict(re.findall(r"(\w+)=(\S+)", head))
    if detail:
        out["detail"] = detail
    return out


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _schedule_ok(rows: list, k_first: int) -> bool:
    """Rows k_first, k_first + 1, ... at t_k = 1 - 2^-k, the CLI's default."""
    return all(r.k == k_first + i and r.t == 1.0 - 0.5 ** r.k for i, r in enumerate(rows))


# --- zeta -----------------------------------------------------------------

# f(t) is checked at t = 1/2 and 3/4, where mpmath's polylog is fast; the
# deeper rows are what the precision-limited class is about.
_ZETA_ROW_KS = (1, 2)


def zeta_expected(op) -> dict:
    s = op.params["s"]
    z = float(mpmath.zeta(s))
    f = {}
    for k in _ZETA_ROW_KS:
        t = 1.0 - 0.5 ** k
        if op.params["plain"]:
            f[k] = float(mpmath.polylog(s, t))
        else:
            pref = 1.0 / (1.0 - mpmath.mpf(2) ** (1 - s))
            f[k] = float(-pref * mpmath.polylog(s, -t))
    return {"zeta": z, "f": f}


def _classify_zeta(op, exp, rc, summary, rows):
    tol = op.params["tol"]
    z = exp["zeta"]
    if not _schedule_ok(rows, 0):
        return WRONG_VALUE, "rows do not follow the schedule t_k = 1 - 2^-k"
    for r in rows:
        if r.k in exp["f"] and not _close(r.value, exp["f"][r.k], tol):
            return WRONG_VALUE, f"f(t={r.t}) = {r.value!r}, oracle {exp['f'][r.k]!r}"
        if r.reference is not None and not _close(r.reference, z, 1e-9 * max(1.0, abs(z))):
            return WRONG_VALUE, f"reference column {r.reference!r}, zeta = {z!r}"
    verdict = summary.get("verdict")
    if op.params["plain"]:
        if rc == 2 and verdict == "NoEulerSum":
            return OK, ""
        return FALSE_VERDICT, f"divergent series reported exit {rc} verdict={verdict}"
    if rc == 2:
        return FALSE_VERDICT, f"zeta({op.params['s']}) exists; reported {verdict}"
    err = abs(float(summary.get("value", "nan")) - z)
    if err <= tol + PRINT_REL * max(1.0, abs(z)):
        return OK, ""
    if err <= GROSS_FACTOR * tol:
        return FALSE_VERDICT, f"converged with error {err / tol:.3g} x tol"
    return WRONG_VALUE, f"converged value off by {err:.3e}"


# --- actions ----------------------------------------------------------------


def well_identity_action(x: float, t: float) -> float:
    """(8/pi) sum over odd n of t^n sin(nx)/n^3: the sine series of
    y(pi - y) against the regulated completeness kernel."""
    n_max = 1024
    while t ** n_max / (n_max ** 3 * (1.0 - t)) > 1e-17:
        n_max *= 2
    n = np.arange(1, n_max + 1, 2, dtype=np.float64)
    return 8.0 / math.pi * math.fsum(t ** n * np.sin(n * x) / n ** 3)


def well_hamiltonian_action(x: float, t: float) -> float:
    """(4/pi) sum over odd n of t^n sin(nx)/n, which resums to an atan."""
    return 2.0 / math.pi * math.atan(2.0 * t * math.sin(x) / (1.0 - t * t))


def osc_identity_action(x: float, t: float) -> float:
    """The Mehler kernel against exp(-y^2), integrated in closed form."""
    q = 3.0 - t * t
    return math.sqrt(2.0 / q) * math.exp(-x * x * (3.0 + t * t) / (2.0 * q))


def osc_hamiltonian_action(x: float, t: float) -> float:
    """(t d/dt + 1/2) of the identity action."""
    q = 3.0 - t * t
    return osc_identity_action(x, t) * (0.5 + t * t / q - 6.0 * x * x * t * t / q ** 2)


_ACTIONS = {
    "well-delta": well_identity_action,
    "well-hamiltonian": well_hamiltonian_action,
    "osc-delta": osc_identity_action,
    "osc-hamiltonian": osc_hamiltonian_action,
}

# The t -> 1 limits: g(x) and -g''(x)/2 (+ x^2 g/2 for the oscillator).
_LIMITS = {
    "well-delta": lambda x: x * (math.pi - x),
    "well-hamiltonian": lambda x: 1.0,
    "osc-delta": lambda x: math.exp(-x * x),
    "osc-hamiltonian": lambda x: (1.0 - 1.5 * x * x) * math.exp(-x * x),
}


def action_expected(op) -> dict:
    sub, x, k_max = op.params["sub"], op.params["x"], op.params["k_max"]
    values = [_ACTIONS[sub](x, 1.0 - 0.5 ** k) for k in range(1, k_max + 1)]
    return {"values": values, "limit": _LIMITS[sub](x)}


def _approaching(values: list, limit: float, window: int = 4) -> bool:
    errs = [abs(v - limit) for v in values][-(window + 1):]
    return len(errs) >= 2 and all(b < a for a, b in zip(errs, errs[1:]))


def _classify_action(op, exp, rc, summary, rows):
    verdict = summary.get("verdict")
    if rc == 2 and not rows:
        return FALSE_VERDICT, f"{verdict}: the action exists at every t_k of the schedule"
    if len(rows) != op.params["k_max"] or not _schedule_ok(rows, 1):
        return WRONG_VALUE, f"{len(rows)} rows do not follow the schedule"
    limit = exp["limit"]
    for r, want in zip(rows, exp["values"]):
        if not _close(r.value, want, ACTION_ROW_TOL):
            return WRONG_VALUE, f"A(t={r.t}) = {r.value!r}, oracle {want!r}"
        if r.reference is None or not _close(r.reference, limit, 1e-12 * max(1.0, abs(limit))):
            return WRONG_VALUE, f"reference column {r.reference!r}, limit {limit!r}"
    truth = _approaching(exp["values"], limit)
    claimed = rc == 0 and verdict == "approaching"
    if claimed == truth:
        return OK, ""
    return FALSE_VERDICT, f"verdict={verdict} but the oracle values {'do' if truth else 'do not'} approach"


def interval_integral(x: float, a: float, b: float, t: float) -> float:
    """(2/pi) sum t^n sin(nx)(cos(na) - cos(nb))/n, resummed through
    sum t^n sin(n u)/n = atan2(t sin u, 1 - t cos u), in 30 digits."""
    t = mpmath.mpf(t)

    def f(u):
        u = mpmath.mpf(u)
        return mpmath.atan2(t * mpmath.sin(u), 1 - t * mpmath.cos(u))

    return float((f(x + a) + f(x - a) - f(x + b) - f(x - b)) / mpmath.pi)


def well_integral_expected(op) -> dict:
    p = op.params
    values = [interval_integral(p["x"], p["a"], p["b"], 1.0 - 0.5 ** k)
              for k in range(1, p["k_max"] + 1)]
    return {"values": values, "limit": 1.0 if p["a"] < p["x"] < p["b"] else 0.0}


def _classify_well_integral(op, exp, rc, summary, rows):
    if len(rows) != op.params["k_max"] or not _schedule_ok(rows, 1):
        return WRONG_VALUE, f"{len(rows)} rows do not follow the schedule"
    for r, want in zip(rows, exp["values"]):
        if not _close(r.value, want, 1e-10):
            return WRONG_VALUE, f"I(t={r.t}) = {r.value!r}, oracle {want!r}"
    # The CLI's default tolerance, 1e-8, applies to the last schedule point.
    limit = exp["limit"]
    if rc == 0:
        if _close(rows[-1].value, limit, 1e-8):
            return OK, ""
        return FALSE_VERDICT, f"converged claim, but |I - {limit}| = {abs(rows[-1].value - limit):.3e}"
    if _close(exp["values"][-1], limit, 1e-8):
        return FALSE_VERDICT, f"verdict={summary.get('verdict')}, but the oracle converges"
    return OK, ""


# --- sweeps -------------------------------------------------------------------


def _d_and_d2(z, t):
    """D(z, t) = (1/pi) Re 1/(1 - w) and its second z-derivative
    (1/pi) Re[-w (1 + w) / (1 - w)^3], w = t e^{iz}."""
    w = t * np.exp(1j * np.asarray(z, dtype=np.float64))
    d = np.real(1.0 / (1.0 - w)) / math.pi
    d2 = np.real(-w * (1.0 + w) / (1.0 - w) ** 3) / math.pi
    return d, d2


def sweep_kernel(kernel: str, x, y, t):
    """Vectorised kernel values; t may be an array broadcast with x, y."""
    x, y, t = (np.asarray(v, dtype=np.float64) for v in (x, y, t))
    if kernel in ("well", "well-h"):
        dm, d2m = _d_and_d2(x - y, t)
        dp, d2p = _d_and_d2(x + y, t)
        return dm - dp if kernel == "well" else -0.5 * (d2m - d2p)
    omt2 = 1.0 - t * t
    q = (1.0 + t * t) * (x * x + y * y) - 4.0 * t * x * y
    k = np.exp(-q / (2.0 * omt2)) / np.sqrt(math.pi * omt2)
    if kernel == "osc":
        return k
    dq = 2.0 * t * (x * x + y * y) - 4.0 * x * y
    return k * (0.5 + t * t / omt2 - t * dq / (2.0 * omt2) - q * t * t / omt2 ** 2)


def _series_terms(t: float, power: int) -> int:
    """Terms after which n^power t^n / (1 - t)^2 < 1e-14."""
    if t == 0.0:
        return 2
    n = 8
    while n ** power * t ** n / (1.0 - t) ** 2 > 1e-14:
        n *= 2
    return n


def _sample_check(eulersum, kernel: str, x: float, y: float, t: float, value: float):
    """Compare one sweep row with the public point kernel and, where the
    library has one, its truncated series."""
    sw, osc = eulersum.square_well, eulersum.oscillator
    if kernel.startswith("well"):
        p = sw.WellKernelPoint(x=x, y=y, t=t)
        if kernel == "well":
            point, series = sw.k_kernel(p), sw.k_series(p, _series_terms(t, 0))
        else:
            point, series = sw.h_kernel(p), sw.h_series(p, _series_terms(t, 2))
    else:
        p = osc.MehlerPoint(x=x, y=y, t=t)
        if kernel == "osc":
            point, series = osc.mehler_kernel(p), osc.mehler_series(p, _series_terms(t, 0))
        else:
            point, series = osc.osc_h_kernel(p, route="t_derivative"), None
    scale = max(1.0, abs(point))
    if not _close(value, point, 1e-11 * scale):
        return f"row ({x}, {y}, {t}) = {value!r}, point kernel {point!r}"
    if series is not None and not _close(value, series, 1e-9 * scale):
        return f"row ({x}, {y}, {t}) = {value!r}, series {series!r}"
    return ""


def _classify_sweep(op, exp, rc, summary, rows, eulersum):
    p = op.params
    if "x" in p:
        xs, ys = np.array([p["x"]]), np.array([p["y"]])
    else:
        lo, hi = (0.0, math.pi) if p["kernel"].startswith("well") else (-3.0, 3.0)
        xs, ys = np.linspace(lo, hi, p["nx"]), np.linspace(lo, hi, p["ny"])
    ks = np.arange(p["k_max"] + 1)
    gx, gy, gk = (a.ravel() for a in np.meshgrid(xs, ys, ks, indexing="ij"))
    if len(rows) != gx.size:
        return WRONG_VALUE, f"{len(rows)} rows for {xs.size}x{ys.size} points"
    got = np.array([(r.k, r.t, r.x, r.y, r.value) for r in rows], dtype=np.float64).T
    gt = 1.0 - 0.5 ** gk
    if not (np.array_equal(got[0], gk) and np.array_equal(got[1], gt)
            and np.array_equal(got[2], gx) and np.array_equal(got[3], gy)):
        return WRONG_VALUE, "k, t, x or y columns differ from the grid and schedule"
    want = sweep_kernel(p["kernel"], gx, gy, gt)
    miss = np.abs(got[4] - want) > 1e-9 * np.maximum(1.0, np.abs(want))
    if miss.any():
        i = int(np.argmax(miss))
        return WRONG_VALUE, f"row {i}: {got[4][i]!r}, oracle {want[i]!r}"
    rng = random.Random(" ".join(op.argv))
    for i in rng.sample(range(len(rows)), 2):
        note = _sample_check(eulersum, p["kernel"], gx[i], gy[i], gt[i], got[4][i])
        if note:
            return WRONG_VALUE, note
    peak = float(np.max(np.abs(got[4])))
    if rc != 0 or summary.get("verdict") != "ok":
        return FALSE_VERDICT, f"exit {rc} verdict={summary.get('verdict')}"
    if not _close(float(summary.get("value", "nan")), peak, PRINT_REL * max(1.0, peak)):
        return WRONG_VALUE, f"summary value {summary.get('value')}, max |row| {peak!r}"
    return OK, ""


def _classify_mehler(op, exp, rc, summary, rows):
    tol = op.params["tol"]
    # Each row is |series - closed form| on a grid: exactly 0 in exact
    # arithmetic, so a row above tol is a wrong value.
    if len(rows) != op.params["k_max"] or not _schedule_ok(rows, 1):
        return WRONG_VALUE, f"{len(rows)} rows do not follow the schedule"
    for r in rows:
        if not 0.0 <= r.value <= tol:
            return WRONG_VALUE, f"discrepancy {r.value!r} at t={r.t} exceeds tol"
    if rc == 0 and summary.get("verdict") == "converged":
        return OK, ""
    return FALSE_VERDICT, f"exit {rc} verdict={summary.get('verdict')}"


_EXPECTED = {
    "zeta": zeta_expected,
    "action": action_expected,
    "well-integral": well_integral_expected,
}


def expected(op) -> dict:
    """Oracle data for ``op``, computed before any op is timed."""
    fn = _EXPECTED.get(op.kind)
    return fn(op) if fn else {}


def classify(op, exp: dict, rc, stdout: str, rows, eulersum) -> tuple:
    """(outcome, note) for one op from its exit status, stdout and the
    rows read back from its result file.  ``rc`` is None when main raised,
    ``rows`` is None when the result file did not read back."""
    if rc not in (0, 2) or rows is None:
        return UNEXPECTED_ERROR, f"exit {rc}" if rows is not None else "result file unreadable"
    summary = _summary(stdout)
    if op.kind == "zeta":
        return _classify_zeta(op, exp, rc, summary, rows)
    if op.kind == "action":
        return _classify_action(op, exp, rc, summary, rows)
    if op.kind == "well-integral":
        return _classify_well_integral(op, exp, rc, summary, rows)
    if op.kind == "sweep":
        return _classify_sweep(op, exp, rc, summary, rows, eulersum)
    return _classify_mehler(op, exp, rc, summary, rows)
