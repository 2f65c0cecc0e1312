#!/usr/bin/env python3
"""Host-time benchmark of spatialperf: the m search, design points and the CLI.

    python3 bench/run.py --workload search|points|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --census

Run it from a source checkout; it imports spatialperf from src/.  Every
output is checked against bench/oracle.py or a property of the model.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 21       # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 5          # timed rounds at least, so each slot's median has five times
TAIL_PCT = 75           # with 40 slots per round: 10 slots beyond
# Median seconds of reference() on the reference machine (see README.md):
# times are reported as if the machine ran at that speed throughout.
REFERENCE_S = 0.004


@dataclass
class Rounds:
    """Times of whole rounds: times[i] holds slot i's time in each round."""

    times: list[list[float]]    # each scaled by the two reference timings around it
    slowdowns: list[float] = field(default_factory=list)  # per round: median reference / REFERENCE_S
    starts: list[float] = field(default_factory=list)  # fresh starts, scaled like times
    failed: int = 0
    failures: dict[int, tuple] = field(default_factory=dict)  # slot -> (fault, first failure)
    unexpected: list[str] = field(default_factory=list)
    counted: dict[str, int] = field(default_factory=dict)  # tracer calls of the first rounds

    @property
    def rounds(self) -> int:
        return len(self.slowdowns)

    @property
    def attempted(self) -> int:
        return sum(len(repeats) for repeats in self.times)

    @property
    def typical(self) -> list[float]:
        """Each slot's median time over the rounds, in reference-machine seconds."""
        return [statistics.median(repeats) for repeats in self.times]

    @property
    def ops_per_s(self) -> float:
        typical = self.typical
        return len(typical) / sum(typical)


def _call(op):
    try:
        return op.run()
    except Exception as exc:    # a crash is a failed operation, not a failed run
        return exc


def _verdict(op, out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {out!r}"
    try:
        return op.check(out)
    except Exception as exc:
        return f"unreadable output ({exc!r})"


def reference_computation() -> Callable[[], float]:
    """A fixed pure-Python computation outside the program, timed between
    operations to follow how fast the shared machine runs at the moment."""
    from oracle import Design, envelope

    model, device, quant, w, reuse = envelope(random.Random(0))
    design = Design.of(model, device, quant, reuse=reuse, **w)

    def reference() -> float:
        start = time.perf_counter()
        for m in range(1, 2000):
            design.feasible(m)
        return time.perf_counter() - start
    return reference


def run_rounds(work, first: int, seconds: float,
               setup: Callable[[], float] | None = None, tracer=None) -> Rounds:
    """Whole rounds, numbered from `first`, until `seconds` of operation time
    and MIN_ROUNDS rounds.

    Each round draws fresh inputs for every slot, times each op in an order
    shuffled for the round, and then checks every output; an op fails when
    its output is wrong.  The
    reference computation is timed before the first op and after each one,
    and each op's time is divided by how much slower than REFERENCE_S the two
    references around it ran.  When `setup` is given, SETUP_STARTS fresh
    starts are spread between the rounds, each scaled the same way.  A
    `tracer` is installed only while the ops run; `counted` keeps its calls
    after MIN_ROUNDS rounds.
    """
    result = Rounds([[] for _ in range(work.slots)])
    reference = reference_computation()
    perf = time.perf_counter

    def start_scaled() -> float:
        before = reference()
        took = setup()
        return took / ((before + reference()) / 2 / REFERENCE_S)

    busy = 0.0
    while busy < seconds or result.rounds < MIN_ROUNDS:
        while setup and len(result.starts) < SETUP_STARTS * min(1.0, busy / seconds):
            result.starts.append(start_scaled())
        number = first + result.rounds
        ops, env = work.round(number)
        os.environ.update(env)
        order = list(range(work.slots))     # so no slot always follows the same op
        random.Random(f"{work.seed}:{number}:order").shuffle(order)
        outs, elapsed_ops = [None] * work.slots, [0.0] * work.slots
        gc.collect()
        gc.freeze()     # the benchmark's own objects are not the program's garbage
        if tracer:
            tracer.install()
        references = [reference()]
        for slot in order:
            start = perf()
            outs[slot] = _call(ops[slot])
            elapsed_ops[slot] = perf() - start
            references.append(reference())
            busy += elapsed_ops[slot]
        if tracer:
            tracer.uninstall()
        gc.unfreeze()
        for slot, (op, out) in enumerate(zip(ops, outs)):
            verdict = _verdict(op, out)
            if verdict is not None:
                result.failed += 1
                result.failures.setdefault(slot, (op.fault, f"{op.kind}: {verdict}"))
                if op.fault is None:
                    result.unexpected.append(f"{op.kind}: {verdict}")
        for i, slot in enumerate(order):
            slowdown = (references[i] + references[i + 1]) / 2 / REFERENCE_S
            result.times[slot].append(elapsed_ops[slot] / slowdown)
        result.slowdowns.append(statistics.median(references) / REFERENCE_S)
        if tracer and result.rounds == MIN_ROUNDS:
            result.counted = dict(tracer.calls)
    while setup and len(result.starts) < SETUP_STARTS:
        result.starts.append(start_scaled())
    return result


def fresh_start(code: str) -> Callable[[], float]:
    """Seconds from a fresh interpreter to `code` (import and catalog) done,
    with the catalog directories of the latest round."""
    def start() -> float:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - begin
    return start


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def report_failures(runs: list[Rounds]) -> None:
    from workloads import KNOWN_FAULTS

    failures = {}
    for run in runs:
        for slot, failure in run.failures.items():
            failures.setdefault(slot, failure)
    for slot, (fault, message) in sorted(failures.items()):
        label = f"known fault: {KNOWN_FAULTS[fault]}" if fault else "UNEXPECTED"
        print(f"  slot {slot} failed, first as {message}\n    [{label}]")


def benchmark(args) -> dict:
    import workloads

    scratch = ROOT / ".bench_run" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        work = workloads.build(args.workload, args.seed, scratch)
        if args.trace:
            from spans import Tracer
            plain = run_rounds(work, 1, args.seconds / 2)
            tracer = Tracer()
            traced = run_rounds(work, 1 + plain.rounds, args.seconds / 2, tracer=tracer)
            metrics = tracer.metrics(traced.counted, MIN_ROUNDS * work.slots,
                                     statistics.median(traced.slowdowns))
            metrics["trace.overhead_pct"] = (
                (plain.ops_per_s / traced.ops_per_s - 1) * 100, "%")
            runs = [plain, traced]
            print(f"  counts over the first {MIN_ROUNDS} traced rounds; times over all "
                  f"{traced.rounds}")
        else:
            timed = run_rounds(work, 1, args.seconds, fresh_start(work.setup_code))
            typical_ms = [t * 1e3 for t in timed.typical]
            metrics = {
                "setup_s": (statistics.median(timed.starts), "s"),
                "ops_per_s": (timed.ops_per_s, "1/s"),
                "op_p50_ms": (statistics.median(typical_ms), "ms"),
                "op_tail_ms": (percentile(typical_ms, TAIL_PCT), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            runs = [timed]
            print(f"  {work.slots} slots x {timed.rounds} rounds of fresh inputs; "
                  f"op_tail_ms is p{TAIL_PCT} of {work.slots} per-slot medians")
            slow = sorted(timed.slowdowns)
            print(f"  rounds ran at {slow[0]:.3f} to {slow[-1]:.3f} (median "
                  f"{statistics.median(slow):.3f}) x the reference time")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    report_failures(runs)
    unexpected = [u for r in runs for u in r.unexpected]
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    return {
        "correct": not unexpected,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def census(seeds=range(101, 111), draws: int = 250) -> int:
    """The search workload's catalog draws, unfiltered, and the slot targets."""
    from workloads import SEARCH_TARGETS, search_census

    found = search_census(seeds, draws)
    answers = sorted(found["answers"])
    total = len(answers) + found["infeasible"] + found["nonmonotone"]
    print(f"{total} catalog draws, seeds {seeds.start}-{seeds.stop - 1}, {draws} each")
    for name, count in (("m = 1 infeasible", found["infeasible"]),
                        ("feasibility not monotone", found["nonmonotone"]),
                        ("monotone, scanning", len(answers))):
        print(f"  {name:26s} {count:5d}  {count / total:6.1%}")
    print(f"  of the scanning: answer below the ceiling - 1: {found['below_ceiling']}")
    deciles = statistics.quantiles(answers, n=10)
    print("scanning answers: min", answers[0], "deciles", [round(q) for q in deciles],
          "max", answers[-1])
    print("  p91-p99", [round(q) for q in statistics.quantiles(answers, n=100)[90:]])
    edges = [0, *deciles, math.inf]
    for lo, hi in zip(edges, edges[1:]):
        part = [a for a in answers if lo < a <= hi]
        print(f"  decile ({lo:.0f}, {hi:.0f}]: mean {statistics.mean(part):.0f}, "
              f"{sum(part) / sum(answers):.1%} of all evaluations")
    targets = [round(q) for q in statistics.quantiles(answers, n=2 * len(SEARCH_TARGETS))[::2]]
    print("SEARCH_TARGETS =", tuple(targets))
    return 0


def self_test() -> int:
    """The oracle must reproduce the optima ROADMAP.md states by hand."""
    import spatialperf as sp
    from oracle import Design, envelope
    from workloads import BUILTIN_DOCS

    wrong = 0
    print("point                              oracle  expected  program")
    cases = [(("bert", "vck5000", "w4a8"), 3024), (("bert", "vck5000", "w8a8"), 1296),
             (("gpt2", "vhk158", "w16a16"), 512), (("gpt2", "stratix10nx", "w4a8"), 34220),
             (("gpt2", "stratix10nx", "w16a16"), 4608), (("bert", "stratix10nx", "w16a16"), 7460)]
    for (m, d, q), want in cases:
        docs = BUILTIN_DOCS["model"][m], BUILTIN_DOCS["device"][d], BUILTIN_DOCS["quant"][q]
        got = Design.of(*docs, phase="prefill", seq_len=128).max_feasible()
        program = sp.search_max_m(sp.get_model(m), sp.get_device(d), sp.get_quant(q),
                                  sp.PhaseWorkload("prefill", seq_len=128))
        wrong += got != want
        print(f"{m}/{d}/{q:30s}"[:34] + f" {got:7d} {want:9d} {program:8d}")
    for seed, want in ((924, 215), (1146, 109), (1285, 30)):
        model, device, quant, w, reuse = envelope(random.Random(seed))
        got = Design.of(model, device, quant, reuse=reuse, **w).max_feasible()
        wrong += got != want
        print(f"envelope seed {seed:<20d} {got:7d} {want:9d}")
    print("self-test", "FAILED" if wrong else "passed")
    return 1 if wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("search", "points", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--census", action="store_true",
                        help="print the scan lengths that set the search slots")
    args = parser.parse_args()
    if not (SRC / "spatialperf").is_dir():
        print(f"error: no spatialperf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    if args.self_test:
        return self_test()
    if args.census:
        return census()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
