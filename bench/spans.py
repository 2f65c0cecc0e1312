"""Per-layer spans recorded around calls into spatialperf, from outside it.

A Tracer rebinds each layer function in every module that calls it, so
calls made inside the program are seen too.  Each span's self time is its
duration minus the time of the spans it encloses.  Spans are summed in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import spatialperf as sp
from spatialperf import catalog, cli, constraints, demand, distributed, estimate

# layer name -> (function name, modules whose global of that name is rebound).
# The first module listed defines the function; the package namespace is the
# caller module of the benchmark's own calls.
SPANS = {
    "estimate.search": [("search_max_m", (estimate, cli, sp))],
    "estimate.alloc": [("balanced_allocation", (estimate, cli, sp))],
    "estimate.latency": [("prefill_latency", (estimate, cli, sp)),
                         ("decode_latency", (estimate, cli, sp))],
    "distributed.multi_prefill": [("multi_prefill_latency", (distributed, cli, sp))],
    "constraints.report": [("constraint_report", (constraints, cli, sp))],
    "constraints.compute": [("check_compute", (constraints, estimate))],
    "constraints.capacity": [("check_capacity", (constraints, estimate))],
    "constraints.ports": [("check_ports", (constraints, estimate))],
    "demand.buffer_plan": [("buffer_plan", (demand, constraints))],
    "catalog.lookup": [("get_model", (catalog, cli)), ("get_device", (catalog, cli)),
                       ("get_quant", (catalog, cli))],
    "catalog.load": [("load_model_spec", (catalog, cli)),
                     ("load_device_spec", (catalog, cli)),
                     ("load_quant_scheme", (catalog, cli))],
    "cli.main": [("main", (cli,))],
    "cli.command": [("cmd_estimate", (cli,)), ("cmd_search_m", (cli,)),
                    ("cmd_sweep", (cli,)), ("cmd_compare", (cli,))],
}
# Counted without a span: one call per feasibility evaluation of the search.
COUNTS = {"estimate.feasible": ("_feasible", (estimate,))}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, layer, fn):
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def _count(self, layer, fn):
        def counted(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, name, modules, wrap):
        wrapped = wrap(getattr(modules[0], name))
        for module in modules:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapped)

    def install(self) -> None:
        for layer, targets in SPANS.items():
            for name, modules in targets:
                self._rebind(name, modules, lambda fn, layer=layer: self._span(layer, fn))
        for layer, (name, modules) in COUNTS.items():
            self._rebind(name, modules, lambda fn, layer=layer: self._count(layer, fn))
        # main() builds a fresh parser per call; time its construction and parsing.
        build = self._span("cli.parse", cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self._span("cli.parse", parser.parse_args)
            return parser
        self._saved.append((cli, "build_parser", cli.build_parser))
        cli.build_parser = build_parser

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def metrics(self, counted: dict[str, int], ops: int,
                slowdown: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures: call counts per operation, from `counted` calls
        over `ops` operations, and self time per call over every traced
        call, divided by the run's slowdown against the reference speed."""
        def per_op(layer):
            return counted.get(layer, 0) / ops

        def mean(layer, unit):
            calls = self.calls[layer]
            return self.self_s[layer] / calls * unit / slowdown if calls else 0.0

        searches = counted.get("estimate.search", 0)
        out = {
            "estimate.evals_per_search": (
                counted.get("estimate.feasible", 0) / searches if searches else 0.0, "count"),
            "estimate.search_ms": (mean("estimate.search", 1e3), "ms"),
        }
        for layer in ("constraints.ports", "constraints.compute", "constraints.capacity",
                      "estimate.alloc", "estimate.latency", "distributed.multi_prefill",
                      "demand.buffer_plan", "catalog.lookup", "catalog.load"):
            out[f"{layer}_calls"] = (per_op(layer), "count")
            out[f"{layer}_us"] = (mean(layer, 1e6), "us")
        out["constraints.report_us"] = (mean("constraints.report", 1e6), "us")
        mains = self.calls["cli.main"]
        out["cli.parse_ms"] = (
            self.self_s["cli.parse"] / mains * 1e3 / slowdown if mains else 0.0, "ms")
        out["cli.command_ms"] = (mean("cli.command", 1e3), "ms")
        out["cli.self_ms"] = (mean("cli.main", 1e3), "ms")
        return out
