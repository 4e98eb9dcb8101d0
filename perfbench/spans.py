"""Span tracing for the benchmark's traced run.

``install`` rebinds the public names each eulersum caller looks up at call
time (module attributes) to wrappers that record a span per call: name,
start, end, parent span and op id, plus one count (terms, points, rows)
and a status.  The term-block and integrand callables that pass through
those calls are wrapped too.  ``uninstall`` restores the originals; the
untraced run never installs anything.

Spans live in flat arrays in memory and are written out once, by
``Tracer.save``, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

# status codes
RETURNED = 0
RAISED = 1
UNCONVERGED = 2


class Tracer:
    """In-memory span recorder; one open-span stack, one op at a time."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.status = array("b")
        self.extra = {}  # span index -> small dict of layer-specific numbers
        self._stack: list = []
        self.op_id = -1

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0.0)
        self.status.append(RETURNED)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, count: float = 0.0, status: int = RETURNED) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.count[i] = count
        self.status[i] = status

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn inside a span; ``count(result, args)`` gives its count."""
        i = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(i, status=RAISED)
            raise
        self.close(i, count=0.0 if count is None else float(count(result, args)))
        return result

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.float64),
            "status": np.frombuffer(self.status, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, name: str, fn, count=None):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, count=count, **kwargs)

    return traced


def _len(result, args) -> int:
    return len(result)


def _euler_limit(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        i = tracer.open("resummation.euler_limit")
        try:
            res = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(i, count=len(getattr(exc, "trace", None) or []), status=RAISED)
            raise
        tracer.close(i, count=len(res.trace),
                     status=RETURNED if res.converged else UNCONVERGED)
        return res

    return traced


def _sequence(tracer: Tracer, fn):
    """Wrap a CoefficientSequence factory so its term_block records spans."""

    def traced(*args, **kwargs):
        seq = fn(*args, **kwargs)
        block = seq.term_block
        if block is None:
            return seq
        wrapped = _wrap(tracer, "zeta.term_block", block, count=_len)
        return dataclasses.replace(seq, term_block=wrapped)

    return traced


def _integrate(tracer: Tracer, module: str, fn, default_spec):
    """Wrap ``integrate`` as a quadrature span and its integrand as child
    spans counting points; panels are points / nodes per panel."""
    name = f"{module}.integrand"

    def traced(f, a, b, spec=None, *args, **kwargs):
        spec_ = default_spec if spec is None else spec
        i = tracer.open("quadrature.integrate")
        points = [0]

        def integrand(y):
            points[0] += y.size
            return tracer.call(name, f, y, count=lambda r, args: args[0].size)

        try:
            res = fn(integrand, a, b, spec, *args, **kwargs)
        except BaseException:
            tracer.close(i, count=points[0], status=RAISED)
            tracer.extra[i] = {"panels": points[0] / spec_.nodes_per_panel,
                               "refinements": spec_.max_refinements}
            raise
        tracer.close(i, count=points[0])
        tracer.extra[i] = {"panels": points[0] / spec_.nodes_per_panel,
                           "refinements": res.refinements}
        return res

    return traced


def install(tracer: Tracer, eulersum) -> list:
    """Rebind the traced names; returns what ``uninstall`` needs."""
    h, rs, sw, osc = eulersum.harness, eulersum.resummation, eulersum.square_well, eulersum.oscillator
    spec = eulersum.quadrature.QuadratureSpec()
    abel = _wrap(tracer, "resummation.abel_eval", rs.abel_eval,
                 count=lambda r, args: r.terms_used)
    patches = [
        (h, "main", _wrap(tracer, "harness.main", h.main)),
        (h, "read_rows", _wrap(tracer, "harness.read_rows", h.read_rows, count=_len)),
        (h, "write_rows", _wrap(tracer, "harness.write_rows", h.write_rows,
                                count=lambda r, args: len(args[1]))),
        (h, "sweep", _wrap(tracer, "harness.sweep", h.sweep, count=_len)),
        (h, "euler_limit", _euler_limit(tracer, h.euler_limit)),
        (h, "abel_eval", abel),
        (rs, "abel_eval", abel),
        (h, "alternating_sequence", _sequence(tracer, h.alternating_sequence)),
        (h, "plain_sequence", _sequence(tracer, h.plain_sequence)),
        (h, "reference_value", _wrap(tracer, "zeta.reference_value", h.reference_value)),
        (sw, "well_action", _wrap(tracer, "square_well.well_action", sw.well_action)),
        (sw, "k_interval_integral",
         _wrap(tracer, "square_well.k_interval_integral", sw.k_interval_integral)),
        (sw, "integrate", _integrate(tracer, "square_well", sw.integrate, spec)),
        (osc, "osc_action", _wrap(tracer, "oscillator.osc_action", osc.osc_action)),
        (osc, "integrate", _integrate(tracer, "oscillator", osc.integrate, spec)),
    ]
    saved = []
    for mod, attr, wrapper in patches:
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


def self_times(a: dict) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of the traced pass, as {name: (value, unit)}.
    Rates over no work (a layer the workload never reaches) are 0."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    self_s = self_times(a)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(name):
        return a["name"] == ids.get(name, -1)

    def total(values, name):
        return float(np.sum(values[mask(name)]))

    def failed(name):
        return int(np.sum(mask(name) & (a["status"] == RAISED)))

    def rate(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    ab = mask("resummation.abel_eval")
    terms = total(a["count"], "resummation.abel_eval")
    ab_self = total(self_s, "resummation.abel_eval")
    # Terms are useful when their evaluation ran inside an euler_limit call
    # that converged; the CLI's re-evaluation and failed limits are waste.
    converged_limit = mask("resummation.euler_limit") & (a["status"] == RETURNED)
    parent = a["parent"][ab]
    useful = np.sum(a["count"][ab][(parent >= 0) & converged_limit[np.maximum(parent, 0)]])
    m["resummation.abel_eval.calls"] = (int(np.sum(ab)), "count")
    m["resummation.abel_eval.terms"] = (int(terms), "count")
    m["resummation.abel_eval.self_s"] = (ab_self, "s")
    m["resummation.abel_eval.ns_per_term"] = (rate(ab_self, terms, 1e9), "ns")
    m["resummation.abel_eval.failed"] = (failed("resummation.abel_eval"), "count")
    m["resummation.abel_eval.useful_ratio"] = (rate(float(useful), terms), "ratio")
    m["resummation.euler_limit.calls"] = (int(np.sum(mask("resummation.euler_limit"))), "count")
    m["resummation.euler_limit.points"] = (int(total(a["count"], "resummation.euler_limit")), "count")
    m["resummation.euler_limit.self_s"] = (total(self_s, "resummation.euler_limit"), "s")
    m["resummation.euler_limit.failed"] = (failed("resummation.euler_limit"), "count")
    m["zeta.term_block.calls"] = (int(np.sum(mask("zeta.term_block"))), "count")
    m["zeta.term_block.s"] = (total(dur, "zeta.term_block"), "s")
    m["zeta.reference_value.s"] = (total(dur, "zeta.reference_value"), "s")
    quad = np.nonzero(mask("quadrature.integrate"))[0]
    m["quadrature.integrate.calls"] = (int(quad.size), "count")
    m["quadrature.integrate.points"] = (int(total(a["count"], "quadrature.integrate")), "count")
    m["quadrature.integrate.panels"] = (int(sum(tracer.extra[i]["panels"] for i in quad)), "count")
    m["quadrature.integrate.refinements"] = (
        int(sum(tracer.extra[i]["refinements"] for i in quad)), "count")
    m["quadrature.integrate.self_s"] = (total(self_s, "quadrature.integrate"), "s")
    m["quadrature.integrate.failed"] = (failed("quadrature.integrate"), "count")
    for name in ("square_well.well_action", "square_well.k_interval_integral",
                 "oscillator.osc_action"):
        m[f"{name}.s"] = (total(dur, name), "s")
    for mod in ("square_well", "oscillator"):
        name = f"{mod}.integrand"
        m[f"{name}.ns_per_point"] = (rate(total(dur, name), total(a["count"], name), 1e9), "ns")
    for fn, what in (("sweep", "points"), ("write_rows", "rows"), ("read_rows", "rows")):
        name = f"harness.{fn}"
        s, n = total(dur, name), total(a["count"], name)
        m[f"{name}.{what}"] = (int(n), "count")
        m[f"{name}.s"] = (s, "s")
        if what == "points":
            m[f"{name}.ns_per_point"] = (rate(s, n, 1e9), "ns")
        else:
            m[f"{name}.rows_per_s"] = (rate(n, s), "1/s")
    m["harness.main.self_s"] = (total(self_s, "harness.main"), "s")
    return m


def coverage(tracer: Tracer, op_seconds: float) -> float:
    """Summed self times of all spans over the op time the client measured
    for the traced pass: 1 when the spans account for all of it."""
    return float(np.sum(self_times(tracer.arrays()))) / op_seconds if op_seconds else 0.0
