"""The three workloads: seeded inputs, the timed call, and the check of its output.

An Op is one timed call into spatialperf.  Its check compares the output
with bench/oracle.py or with a property of the model, never with a stored
copy of an earlier output.  A workload is a fixed layout of slots.  Every
round fills each slot with a fresh draw of the same kind, seeded by the run's
seed and the round, so no timed call repeats an earlier one's inputs.  The
only exception is the slots of the three ops in KNOWN_FAULTS, which hold the
same fixed op every round; only they are expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import yaml

import spatialperf as sp
from spatialperf import cli
from oracle import BRAM_WIDTHS, Design, close, envelope

KNOWN_FAULTS = {
    "search-nonmonotone": "search_max_m stops at the first infeasible m, below the "
                          "largest feasible one, where port feasibility is not monotone",
    "readme-device-yaml": "the README's device YAML (freq: 2.2e8) is rejected "
                          "when passed with --device-file",
    "rebalance-decode": "search-m --rebalance-decode returns an m that estimate "
                        "with the same flags reports as a capacity FAIL",
}


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]       # None when the output is right
    fault: str | None = None                 # key of KNOWN_FAULTS it is expected to fail on


@dataclass
class Workload:
    seed: int
    slots: int                                # ops per round
    # (rng, round) -> the round's ops in slot order, and its SPATIALPERF_* directories
    draw: Callable[[random.Random, int], tuple[list[Op], dict[str, str]]]
    setup_code: str                           # what a fresh start imports and resolves

    def round(self, number: int) -> tuple[list[Op], dict[str, str]]:
        return self.draw(random.Random(f"{self.seed}:{number}"), number)


BUILTIN_DOCS = {
    "model": {k: v.to_document() for k, v in sp.BUILTIN_MODELS.items()},
    "device": {k: v.to_document() for k, v in sp.BUILTIN_DEVICES.items()},
    "quant": {k: v.to_document() for k, v in sp.BUILTIN_QUANTS.items()},
}
DEVICES = tuple(sp.BUILTIN_DEVICES)
QUANTS = tuple(sp.BUILTIN_QUANTS)
_SETUP_BUILTIN = ("import spatialperf as s; s.get_model('gpt2'); s.get_device('u280'); "
                  "s.get_quant('w4a8')")


def _specs(model: dict, device: dict, quant: dict):
    return (sp.ModelSpec(**model),
            sp.DeviceSpec(**{**device, "sram_widths": tuple(device["sram_widths"])}),
            sp.QuantScheme(**quant))


def _workload(w: dict) -> sp.PhaseWorkload:
    return sp.PhaseWorkload(w["phase"], seq_len=w["seq_len"],
                            layers_on_chip=w.get("layers_on_chip", 1),
                            weights_resident=w.get("weights_resident", "off_chip"),
                            fifo_depth=w.get("fifo_depth", 2))


def _catalog_point(rng: random.Random, models=("bert", "gpt2")) -> tuple:
    model = rng.choice(models)
    lmax = BUILTIN_DOCS["model"][model]["max_seq_len"]
    phase = rng.choice(("prefill", "decode"))
    w = {"phase": phase,
         "seq_len": rng.randint(1, lmax) if phase == "prefill" else rng.randint(0, lmax),
         "layers_on_chip": rng.randint(1, 4),
         "weights_resident": "on_chip" if rng.random() < 0.25 else "off_chip"}
    return (BUILTIN_DOCS["model"][model], BUILTIN_DOCS["device"][rng.choice(DEVICES)],
            BUILTIN_DOCS["quant"][rng.choice(QUANTS)], w)


# --- search ----------------------------------------------------------------

# Answers (largest feasible m) at the midpoints of 29 equal-probability strata
# of the catalog draws that scan, from `python3 bench/run.py --census`
# (seeds 101-110, 250 draws each; see README.md).  Each catalog slot of a
# round holds a fresh draw whose answer lies within SEARCH_WINDOW of its target.
SEARCH_TARGETS = (243, 286, 330, 374, 406, 465, 477, 494, 542, 586, 612, 646, 682, 710, 893, 953,
                  1002, 1116, 1194, 1377, 1471, 1887, 2008, 4926, 8269, 11176, 16905, 23944,
                  43363)
SEARCH_WINDOW = 0.02
SEARCH_INFEASIBLE = 2   # slots where m = 1 is infeasible: 33 % of draws, kept few
SEARCH_ENVELOPES = 8
SEARCH_DRAWS = 200_000  # draws per round and kind before giving up
# ROADMAP item 2: the upward scan returns 96 here, the largest feasible m is 3024.
SEARCH_FAULT = ("bert", "vck5000", "w4a8", {"phase": "prefill", "seq_len": 128})


@dataclass
class SearchPoint:
    model: dict
    device: dict
    quant: dict
    w: dict
    tp: int = 1
    reuse: int = 8

    @property
    def design(self) -> Design:
        return Design.of(self.model, self.device, self.quant, reuse=self.reuse, tp=self.tp,
                         **self.w)


def _catalog_search(rng: random.Random) -> SearchPoint:
    model, device, quant, w = _catalog_point(rng)
    return SearchPoint(model, device, quant, w, tp=rng.choice((1, 1, 2, 4)))


def _search_op(kind: str, point: SearchPoint, expected: int, fault=None) -> Op:
    specs, wl = _specs(point.model, point.device, point.quant), _workload(point.w)

    def run():
        try:
            return sp.search_max_m(*specs, wl, reuse=point.reuse, tp_size=point.tp)
        except sp.InfeasibleError:
            return 0

    def check(out):
        return None if out == expected else f"max_m {out}, largest feasible is {expected}"
    return Op(kind, run, check, fault=fault)


def _fill_targets(rng: random.Random, seen: set) -> list[tuple[SearchPoint, int]]:
    """One unseen catalog point per SEARCH_TARGETS entry.  Each draw goes to the
    first open target whose window holds its answer, or is dropped."""
    windows = [(math.ceil(t * (1 - SEARCH_WINDOW)), math.floor(t * (1 + SEARCH_WINDOW)))
               for t in SEARCH_TARGETS]
    found: list = [None] * len(windows)
    for _ in range(SEARCH_DRAWS):
        point = _catalog_search(rng)
        design = point.design
        # Nothing at or above the ceiling is feasible, and below it compute and
        # capacity hold.  When ports hold all the way up to it, feasibility is
        # monotone to the answer, as the program's scan assumes (draws where it
        # is not are ROADMAP item 2's, and the fault slot carries them).
        answer = design.ceiling() - 1
        slot = next((i for i, (lo, hi) in enumerate(windows)
                     if found[i] is None and lo <= answer <= hi), None)
        if (slot is None or design in seen
                or not all(design.ports_ok(m) for m in range(1, answer + 1))):
            continue
        seen.add(design)
        found[slot] = (point, answer)
        if all(found):
            return found
    raise RuntimeError(f"search targets left open after {SEARCH_DRAWS} draws")


def _draw_unseen(draw: Callable[[], SearchPoint], keep: Callable[[Design], bool],
                 seen: set) -> SearchPoint:
    for _ in range(SEARCH_DRAWS):
        point = draw()
        design = point.design
        if design not in seen and keep(design):
            seen.add(design)
            return point
    raise RuntimeError(f"no new search point kept after {SEARCH_DRAWS} draws")


def _envelope_search(rng: random.Random) -> SearchPoint:
    model, device, quant, w, reuse = envelope(rng)
    return SearchPoint(model, device, quant, w, reuse=reuse)


def search_workload(seed: int) -> Workload:
    layout = (["catalog"] * len(SEARCH_TARGETS) + ["infeasible"] * SEARCH_INFEASIBLE
              + ["envelope"] * SEARCH_ENVELOPES + ["fault"])
    m, d, q, w = SEARCH_FAULT
    fault_point = SearchPoint(BUILTIN_DOCS["model"][m], BUILTIN_DOCS["device"][d],
                              BUILTIN_DOCS["quant"][q], w)
    fault = _search_op("search.fault", fault_point, fault_point.design.max_feasible(),
                       fault="search-nonmonotone")
    seen: set = set()      # no design is searched twice in a run

    def draw(rng: random.Random, _round: int) -> tuple[list[Op], dict]:
        ops = {"catalog": [_search_op("search.catalog", p, a)
                           for p, a in _fill_targets(rng, seen)],
               "infeasible": [], "envelope": []}
        for _ in range(SEARCH_INFEASIBLE):
            point = _draw_unseen(lambda: _catalog_search(rng),
                                 lambda d: not d.feasible(1) and d.max_feasible() == 0, seen)
            ops["infeasible"].append(_search_op("search.infeasible", point, 0))
        for _ in range(SEARCH_ENVELOPES):
            point = _draw_unseen(lambda: _envelope_search(rng),
                                 lambda d: d.first_failure() == d.max_feasible(), seen)
            ops["envelope"].append(_search_op("search.envelope", point,
                                              point.design.max_feasible()))
        pools = {kind: iter(found) for kind, found in ops.items()}
        return [fault if kind == "fault" else next(pools[kind]) for kind in layout], {}
    return Workload(seed, len(layout), draw, _SETUP_BUILTIN)


def search_census(seeds, draws: int) -> dict:
    """Unfiltered catalog draws as the search slots draw them, by outcome."""
    census = {"infeasible": 0, "nonmonotone": 0, "below_ceiling": 0, "answers": []}
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(draws):
            design = _catalog_search(rng).design
            answer = design.max_feasible()
            if design.first_failure() != answer:
                census["nonmonotone"] += 1
            elif answer == 0:
                census["infeasible"] += 1
            else:
                census["answers"].append(answer)
                census["below_ceiling"] += design.ceiling() - 1 != answer
    return census


# --- points ----------------------------------------------------------------

POINTS_PER_BATCH = 250
BATCHES_PER_ROUND = 40


def _draw_point(rng: random.Random) -> dict:
    model, device, quant, w = _catalog_point(rng, tuple(BUILTIN_DOCS["model"]))
    kind = rng.choices(("prefill", "decode", "multi", "even"), (4, 3, 3, 1))[0]
    w["phase"] = "decode" if kind == "decode" else "prefill"
    w["seq_len"] = max(w["seq_len"], 1 if kind != "decode" else 0)
    w["fifo_depth"] = rng.choice((2, 4, 8))
    p = {"model": model, "device": device, "quant": quant, "w": w, "kind": kind,
         "m": rng.randint(1, 4096), "reuse": rng.choice((4, 8, 16)),
         "packed": rng.random() < 0.8, "tp": 1, "pp": 1, "link": 0.0, "eff": 1.0}
    n = model["num_layers"]
    if kind == "multi":
        p["tp"], p["pp"] = rng.choice((1, 2, 4)), rng.choice((1, 2))
        w["layers_on_chip"] = min(w["layers_on_chip"], n // (p["tp"] * p["pp"]))
        p["link"] = rng.choice((25e9, 100e9, 400e9))
        p["eff"] = rng.choice((0.5, 0.8, 1.0))
    elif kind == "even":
        # balanced ratios integral, no weight streaming, C divides N:
        # simplified_prefill must then equal prefill_latency.
        p["m"] = model["hidden_size"] * rng.randint(1, 4)
        w["layers_on_chip"] = rng.choice([c for c in (1, 2, 3, 4) if n % c == 0])
        w["weights_resident"] = "on_chip"
    return p


def _point_call(p: dict) -> tuple[Callable[[], tuple], tuple]:
    """The timed evaluation of one point, and the specs it runs on."""
    model, device, quant = _specs(p["model"], p["device"], p["quant"])
    wl = _workload(p["w"])
    m, reuse, packed, tp = p["m"], p["reuse"], p["packed"], p["tp"]
    plan = sp.ParallelismPlan(tp_size=tp, pp_size=p["pp"], link_bandwidth=p["link"],
                              efficiency=p["eff"]) if p["kind"] == "multi" else None
    decode = wl.phase is sp.Phase.DECODE

    def call():
        alloc = sp.balanced_allocation(m, model, max(1, wl.seq_len), reuse)
        t_mem = sp.t_mem_cycles(model, quant, device, wl.weights_resident)
        if plan is None:
            latency = sp.decode_latency if decode else sp.prefill_latency
            est = latency(model, alloc, wl, device, t_mem)
        else:
            est = sp.multi_prefill_latency(model, alloc, quant, wl, device, plan, t_mem)
        report = sp.constraint_report(model, alloc, quant, wl, device, packed=packed,
                                      tp_size=tp)
        return est, report
    return call, (model, device, quant, wl)


def _check_latency(got: dict, want: dict) -> str | None:
    """got is LatencyEstimate.as_dict() or its JSON form."""
    for key in ("binding_term", "iterations"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r}, expected {want[key]!r}"
    for key in ("head_cycles", "ii_cycles", "total_cycles", "seconds"):
        if not close(got[key], want[key]):
            return f"{key} {got[key]!r}, expected {want[key]!r}"
    return None


def _check_report(report, design: Design, m: int) -> str | None:
    comp, cap, ports, bw = report.compute, report.capacity, report.ports, report.bandwidth
    compute, (sram, dram), blocks = design.compute_required(m), design.capacity(m), design.ports(m)
    expect = (
        ("compute required", comp.required, compute),
        ("compute available", comp.available, design.peak),
        ("sram required", cap.sram_required, sram),
        ("dram required", cap.dram_required, dram),
        ("blocks required", ports.blocks_required, blocks),
        ("compute ok", comp.ok, compute < design.peak),
        ("capacity ok", cap.ok, sram < design.sram and dram < design.dram),
        ("ports ok", ports.ok, blocks < design.blocks),
        ("feasible", report.feasible, comp.ok and cap.ok and ports.ok),
        ("bandwidth bound", bw.bound, bw.required > bw.available),
    )
    for name, got, want in expect:
        if got != want:
            return f"{name} {got!r}, expected {want!r}"
    if not close(bw.required, design.bandwidth_required(m)):
        return f"bandwidth {bw.required!r}, expected {design.bandwidth_required(m)!r}"
    return None


def _check_point(p: dict, args, out) -> str | None:
    est, report = out
    w = p["w"]
    design = Design.of(p["model"], p["device"], p["quant"], reuse=p["reuse"],
                       packed=p["packed"], tp=p["tp"], **w)
    multi = p["kind"] == "multi"
    problem = (_check_latency(vars(est), design.latency(p["m"], p["tp"], p["pp"], p["link"],
                                                  p["eff"], multi))
               or _check_report(report, design, p["m"]))
    if problem or w["phase"] != "prefill":
        return problem
    model, device, quant, wl = args
    alloc = sp.balanced_allocation(p["m"], model, wl.seq_len, p["reuse"])
    t_mem = sp.t_mem_cycles(model, quant, device, wl.weights_resident)
    single = sp.prefill_latency(model, alloc, wl, device, t_mem)
    if not multi or (p["tp"], p["pp"]) == (1, 1):
        one = sp.multi_prefill_latency(model, alloc, quant, wl, device,
                                       sp.ParallelismPlan(), t_mem)
        if one != single:
            return f"1x1 plan {one} differs from the single-device {single}"
    bigger = sp.balanced_allocation(p["m"] + 1 + p["m"] // 3, model, wl.seq_len, p["reuse"])
    if sp.prefill_latency(model, bigger, wl, device, t_mem).total_cycles > single.total_cycles:
        return "prefill latency rose with m"
    if p["kind"] == "even":
        closed = sp.simplified_prefill(model, p["m"], wl.layers_on_chip, device.freq, wl.seq_len)
        if abs(closed - single.seconds) > math.ulp(max(closed, single.seconds)):
            return f"simplified_prefill {closed!r} != prefill_latency {single.seconds!r}"
    return None


def _points_op(points: list[dict]) -> Op:
    calls, args = zip(*(_point_call(p) for p in points))

    def run():
        return [call() for call in calls]

    def check(out):
        for p, arg, result in zip(points, args, out):
            problem = _check_point(p, arg, result)
            if problem:
                return f"{p['model']['name']}/{p['device']['name']} {p['kind']}: {problem}"
        return None
    return Op("points.batch", run, check)


def points_workload(seed: int) -> Workload:
    def draw(rng: random.Random, _round: int) -> tuple[list[Op], dict]:
        return [_points_op([_draw_point(rng) for _ in range(POINTS_PER_BATCH)])
                for _ in range(BATCHES_PER_ROUND)], {}
    return Workload(seed, BATCHES_PER_ROUND, draw, _SETUP_BUILTIN)


# --- cli -------------------------------------------------------------------

_SETUP_CATALOG = ("import spatialperf as s; s.get_model('lab-model-0'); "
                  "s.get_device('lab-dev-0'); s.get_quant('lab-q-0')")

# The device block of the program's README, verbatim.
README_DEVICE_YAML = """\
# mydevice.yaml
name: lab-card
freq: 2.2e8
dsp_count: 6000
mac_per_dsp_base: 1.0
sram_block_capacity: 18432
sram_block_count: 3000
sram_widths: [1, 2, 4, 9, 18, 36, 72]
sram_total: 250000000
dram_total: 64000000000
offchip_bandwidth: 3.2e12
"""
README_DEVICE = {"name": "lab-card", "freq": 2.2e8, "dsp_count": 6000,
                 "mac_per_dsp_base": 1.0, "sram_block_capacity": 18432,
                 "sram_block_count": 3000, "sram_widths": BRAM_WIDTHS,
                 "sram_total": 250000000, "dram_total": 64000000000,
                 "offchip_bandwidth": 3.2e12}

CATALOG_FILES = {"model": 3, "device": 4, "quant": 2}
CLI_MIX = (("estimate", 12), ("estimate-json", 12), ("search", 6), ("sweep-m", 2),
           ("sweep-seq", 2), ("compare", 4))
# Loose-file flags of the estimates, by slot: the same share in every round.
CLI_FILE_FLAGS = ("model", "device", None, None, None)
# Upward-scan answers of search-m and of each sweep row: (target, slack).
CLI_SEARCH_BAND = (250, 10)
CLI_SWEEP_BAND = (120, 20)
CLI_DRAWS = 2000


def _lab_model(rng, name):
    heads = rng.choice((2, 4, 8))
    d = heads * rng.choice((16, 32, 64))
    return {"name": name, "num_layers": rng.randint(2, 12), "num_heads": heads,
            "hidden_size": d, "ffn_size": d * rng.randint(1, 4),
            "max_seq_len": rng.choice((128, 256, 512))}


def _lab_device(rng, name):
    """A small envelope, with enough DSPs and blocks that searches near
    CLI_SEARCH_BAND exist on every seed."""
    _, device, _, _, _ = envelope(rng)
    return {**device, "name": name, "freq": float(rng.choice((1.5e8, 2e8, 2.5e8))),
            "dsp_count": rng.randint(1000, 2000), "sram_block_count": rng.randint(1000, 4000)}


def _lab_quant(rng):
    wbits = rng.choice((2, 4, 8))
    return {"weight_bits": wbits, "activation_bits": 8,
            "pack_count": rng.choice([k for k in (1, 2, 4, 9) if k * wbits <= 72]),
            "dsp_pack_factor": rng.choice((1, 2))}


class Catalog:
    """Generated YAML catalogs: the SPATIALPERF_* directories plus loose files."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.entries = {"model": dict(BUILTIN_DOCS["model"]),
                        "device": dict(BUILTIN_DOCS["device"]),
                        "quant": dict(BUILTIN_DOCS["quant"])}
        self.env = {}
        makers = {"model": lambda i: _lab_model(rng, f"lab-model-{i}"),
                  "device": lambda i: _lab_device(rng, f"lab-dev-{i}"),
                  "quant": lambda i: _lab_quant(rng)}
        for kind, count in CATALOG_FILES.items():
            folder = root / f"{kind}s"
            folder.mkdir(parents=True)
            self.env[f"SPATIALPERF_{kind.upper()}S"] = str(folder)
            for i in range(count):
                doc = makers[kind](i)
                name = doc.get("name", f"lab-q-{i}")    # quant files are named by stem
                (folder / f"{name}.yaml").write_text(yaml.safe_dump(doc))
                self.entries[kind][name] = doc
        self.loose = 0

    def file(self, doc: dict) -> str:
        """A config file outside the catalog directories, for a --*-file flag."""
        self.loose += 1
        path = self.root / f"loose-{self.loose}.yaml"
        path.write_text(yaml.safe_dump(doc))
        return str(path)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


_NUM = r"([-+0-9.eE]+|nan|inf)"
_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def _cycles_match(text: str, want: float) -> bool:
    return abs(float(text) - want) <= 0.05 + 1e-12 * abs(want)


def _seconds_match(text: str, want: float) -> bool:
    value, unit = text.split()
    return abs(float(value) * _SCALE[unit] - want) <= 1e-3 * want


def _check_estimate_text(out, design: Design, m: int, lat: dict) -> str | None:
    code, text = out
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.strip()
    pattern = (rf"(\S+ \S+)\s+\({_NUM} cycles, ii {_NUM}, head {_NUM}, (\d+) iterations\)")
    match = re.fullmatch(pattern, fields.get("latency", ""))
    if not match:
        return f"no latency line in {text!r}"
    seconds, total, ii, head, iters = match.groups()
    if not (_seconds_match(seconds, lat["seconds"]) and _cycles_match(total, lat["total_cycles"])
            and _cycles_match(ii, lat["ii_cycles"]) and _cycles_match(head, lat["head_cycles"])
            and int(iters) == lat["iterations"]):
        return f"latency line {fields['latency']!r}, expected {lat}"
    if fields.get("binding") != lat["binding_term"]:
        return f"binding {fields.get('binding')!r}, expected {lat['binding_term']}"
    sram, dram = design.capacity(m)
    ok = {True: "ok", False: "FAIL"}
    want = {
        "compute": f"{design.compute_required(m)} / {design.peak:.10g} MACs/cycle  "
                   f"{ok[design.compute_ok(m)]}",
        "capacity": f"sram {sram} / {design.sram} bits, dram {dram} / {design.dram} bits  "
                    f"{ok[design.capacity_ok(m)]}",
        "ports": f"{design.ports(m)} / {design.blocks} blocks  {ok[design.ports_ok(m)]}",
        "feasible": "yes" if design.feasible(m) else "no",
    }
    for key, value in want.items():
        if fields.get(key) != value:
            return f"{key} {fields.get(key)!r}, expected {value!r}"
    if code != (0 if design.feasible(m) else 1):
        return f"exit code {code} for feasible={design.feasible(m)}"
    return None


def _monotone_answer(design: Design) -> int | None:
    """The largest feasible m when feasibility is monotone up to it; else None."""
    answer = design.first_failure()
    return answer if answer == design.max_feasible() else None


def _first_failing_family(design: Design, m: int) -> str:
    for family, ok in (("compute", design.compute_ok), ("capacity", design.capacity_ok),
                       ("ports", design.ports_ok)):
        if not ok(m):
            return family
    return "none"


class CliBuilder:
    """Draws CLI commands and knows, for each, what its output must be."""

    def __init__(self, catalog: Catalog, rng: random.Random):
        self.cat, self.rng = catalog, rng

    def _names(self, kind):
        return sorted(self.cat.entries[kind])

    def _point(self, lab=False, file_flag=None, device=True) -> tuple[list[str], dict]:
        """Flags and the documents they resolve to, for one design point.

        lab: generated model and device only, whose small envelopes keep a
        search short.  file_flag: pass "model" or "device" as a loose file.
        """
        rng, cat = self.rng, self.cat
        names = {kind: [n for n in self._names(kind) if not lab or n.startswith("lab")]
                 for kind in ("model", "device")}
        model_name = rng.choice(names["model"])
        device_name = rng.choice(names["device"])
        quant_name = rng.choice(self._names("quant"))
        model = cat.entries["model"][model_name]
        device_doc = cat.entries["device"][device_name]
        quant = cat.entries["quant"][quant_name]
        phase = rng.choice(("prefill", "decode"))
        seq_len = rng.randint(1 if phase == "prefill" else 0, min(model["max_seq_len"], 512))
        c = rng.randint(1, min(4, model["num_layers"]))
        weights = "on_chip" if rng.random() < 0.25 else "off_chip"
        reuse = rng.choice((4, 8, 16))
        flags = ["--quant", quant_name, "--phase", phase, "--seq-len", str(seq_len),
                 "-C", str(c), "--weights", weights, "--reuse", str(reuse)]
        if file_flag == "model":
            flags += ["--model-file", cat.file(model)]
        else:
            flags += ["--model", model_name]
        if file_flag == "device":
            flags += ["--device-file", cat.file(device_doc)]
        elif device:
            flags += ["--device", device_name]
        doc = {"model": model, "device": device_doc, "quant": quant,
               "w": {"phase": phase, "seq_len": seq_len, "layers_on_chip": c,
                     "weights_resident": weights}, "reuse": reuse}
        return flags, doc

    def _design(self, doc, **extra) -> Design:
        return Design.of(doc["model"], doc["device"], doc["quant"], reuse=doc["reuse"],
                         **{**doc["w"], **extra})

    def estimate(self, as_json: bool, file_flag: str | None) -> Op:
        flags, doc = self._point(file_flag=file_flag)
        m = self.rng.randint(1, 2048)
        tp = pp = 1
        extra = []
        if as_json and doc["w"]["phase"] == "prefill" and self.rng.random() < 0.5:
            n, c = doc["model"]["num_layers"], doc["w"]["layers_on_chip"]
            tp, pp = self.rng.choice([(t, p) for t, p in ((2, 1), (1, 2), (2, 2), (4, 1))
                                      if t * p * c <= n] or [(1, 1)])
            extra = ["--tp", str(tp), "--pp", str(pp), "--link-bw", "100 Gb/s",
                     "--alpha", "0.8"]
        argv = ["estimate", *flags, *extra, "--m", str(m)] + (["--json"] if as_json else [])
        design = self._design(doc, tp=tp)
        multi = tp > 1 or pp > 1
        lat = design.latency(m, tp, pp, 100e9, 0.8, multi)

        def check(out):
            if not as_json:
                return _check_estimate_text(out, design, m, lat)
            code, text = out
            try:
                got = json.loads(text)
            except ValueError:
                return f"exit {code}, not JSON: {text[:200]!r}"
            return (_check_latency(got["latency"], lat)
                    or _json_equals_api(got, doc, m, tp, pp, design))
        return Op("cli.estimate-json" if as_json else "cli.estimate",
                  lambda: _run_cli(argv), check)

    def _nearest(self, draw, target: int, slack: int):
        """The first draw whose answers all lie within `slack` of `target`, or
        failing that the nearest of CLI_DRAWS draws.  `draw` returns
        (answers, result) with answers None when feasibility is not monotone."""
        best = None
        for _ in range(CLI_DRAWS):
            answers, result = draw()
            if answers is None or min(answers) < 1:
                continue
            miss = max(abs(a - target) for a in answers)
            if best is None or miss < best[0]:
                best = (miss, result)
            if miss <= slack:
                break
        if best is None:
            raise RuntimeError("no generated point with a monotone search")
        return best[1]

    def search(self) -> Op:
        def draw():
            flags, doc = self._point(lab=True)
            design = self._design(doc)
            answer = _monotone_answer(design)
            return (None if answer is None else [answer]), (flags, design, answer)

        flags, design, answer = self._nearest(draw, *CLI_SEARCH_BAND)
        as_json = self.rng.random() < 0.5
        argv = ["search-m", *flags] + (["--json"] if as_json else [])
        return Op("cli.search", lambda: _run_cli(argv),
                  lambda out: _check_search(out, as_json, design, answer))

    def sweep(self, axis: str) -> Op:
        if axis == "m":
            flags, doc = self._point()
            values = sorted(self.rng.sample(range(1, 2049), 4))
            rows = [(v, v, None, self._design(doc)) for v in values]
        else:
            def draw():
                flags, doc = self._point(lab=True)
                lo = 1 if doc["w"]["phase"] == "prefill" else 0
                values = sorted(self.rng.sample(range(lo, doc["model"]["max_seq_len"] + 1), 3))
                rows = []
                for v in values:
                    point = self._design(doc, seq_len=v)
                    answer = _monotone_answer(point)
                    if answer is None:
                        return None, None
                    rows.append((v, answer, answer, point))
                return [row[1] for row in rows], (flags, values, rows)

            flags, values, rows = self._nearest(draw, *CLI_SWEEP_BAND)
        argv = ["sweep", *flags, "--axis", axis, "--values", ",".join(map(str, values))]
        return Op(f"cli.sweep-{axis}", lambda: _run_cli(argv),
                  lambda out: _check_sweep(out, rows))

    def compare(self) -> Op:
        flags, doc = self._point(device=False)
        devices = self.rng.sample(self._names("device"), 3)
        m = self.rng.randint(1, 2048)
        argv = ["compare", *flags, "--devices", ",".join(devices), "--m", str(m)]
        designs = [(name, Design.of(doc["model"], self.cat.entries["device"][name],
                                    doc["quant"], reuse=doc["reuse"], **doc["w"]))
                   for name in devices]
        return Op("cli.compare", lambda: _run_cli(argv),
                  lambda out: _check_compare(out, designs, m))


def _readme_device_op(folder: Path) -> Op:
    """ROADMAP item 5: the README's own device file is rejected today."""
    path = folder / "readme-device.yaml"
    path.write_text(README_DEVICE_YAML)
    argv = ["estimate", "--model", "gpt2", "--device-file", str(path), "--quant", "w4a8",
            "--phase", "decode", "--seq-len", "128", "--seq-max", "512", "--m", "256"]
    model = {**BUILTIN_DOCS["model"]["gpt2"], "max_seq_len": 512}
    design = Design.of(model, README_DEVICE, BUILTIN_DOCS["quant"]["w4a8"],
                       phase="decode", seq_len=128)
    lat = design.latency(256)
    return Op("cli.readme-device", lambda: _run_cli(argv),
              lambda out: _check_estimate_text(out, design, 256, lat),
              fault="readme-device-yaml")


def _rebalance_decode_op(folder: Path) -> Op:
    """ROADMAP item 3: search-m balances for one token but sizes the FIFO for
    seq_len=1 too, so its answer fails capacity at the real context length."""
    model, quant = BUILTIN_DOCS["model"]["gpt2"], BUILTIN_DOCS["quant"]["w4a8"]
    u280 = BUILTIN_DOCS["device"]["u280"]
    real = Design.of(model, u280, quant, phase="decode", seq_len=1024, balance_len=1)
    # Room for the real context's buffers up to m=1000 only; at the search's
    # m=1503 this lies between what seq_len=1 and seq_len=1024 need.
    device = {**u280, "name": "u280-tight", "sram_total": real.capacity(1000)[0] + 1}
    path = folder / "u280-tight.yaml"
    path.write_text(yaml.safe_dump(device))
    argv = ["search-m", "--model", "gpt2", "--device-file", str(path), "--quant", "w4a8",
            "--phase", "decode", "--seq-len", "1024", "--rebalance-decode"]
    design = Design.of(model, device, quant, phase="decode", seq_len=1024, balance_len=1)
    answer = design.max_feasible()
    return Op("cli.rebalance-decode", lambda: _run_cli(argv),
              lambda out: _check_search(out, False, design, answer),
              fault="rebalance-decode")


def _json_equals_api(got: dict, doc, m, tp, pp, design: Design) -> str | None:
    """estimate --json must equal the Python API called with the same inputs."""
    model, device, quant = _specs(doc["model"], doc["device"], doc["quant"])
    wl = _workload(doc["w"])
    alloc = sp.balanced_allocation(m, model, max(1, wl.seq_len), doc["reuse"])
    t_mem = sp.t_mem_cycles(model, quant, device, wl.weights_resident)
    if tp > 1 or pp > 1:
        plan = sp.ParallelismPlan(tp_size=tp, pp_size=pp, link_bandwidth=100e9, efficiency=0.8)
        est = sp.multi_prefill_latency(model, alloc, quant, wl, device, plan, t_mem)
    elif wl.phase is sp.Phase.DECODE:
        est = sp.decode_latency(model, alloc, wl, device, t_mem)
    else:
        est = sp.prefill_latency(model, alloc, wl, device, t_mem)
    report = sp.constraint_report(model, alloc, quant, wl, device, tp_size=tp)
    want = {"m": m, "seq_len": wl.seq_len, "layers_on_chip": wl.layers_on_chip,
            "weights_resident": wl.weights_resident.value, "tp_size": tp, "pp_size": pp,
            "latency": est.as_dict(), "constraints": report.as_dict(),
            "feasible": report.feasible}
    for key, value in want.items():
        if got.get(key) != value:
            return f"--json {key} {got.get(key)!r} differs from the API's {value!r}"
    if got["feasible"] != design.feasible(m):
        return f"feasible {got['feasible']}, expected {design.feasible(m)}"
    return _check_report(report, design, m)


def _check_search(out, as_json: bool, design: Design, answer: int) -> str | None:
    code, text = out
    if code != 0:
        return f"exit {code}, expected max_m {answer}"
    if as_json:
        doc = json.loads(text)
        best, binding = doc["max_m"], doc["binding_constraint"]
        mp, ms, mf = design.alloc(best)
        want_alloc = {"q": mp, "k": mp, "v": mp, "a1": ms, "a2": ms, "p": mp, "f1": mf, "f2": mf}
        if doc["allocation"] != want_alloc:
            return f"allocation {doc['allocation']}, expected {want_alloc}"
    else:
        match = re.search(r"max_m\s+(\d+)\nbinding\s+(\S+) constraint", text)
        if not match:
            return f"unparsable search-m output {text!r}"
        best, binding = int(match.group(1)), match.group(2)
    if best != answer:
        return f"max_m {best}, largest m that estimate accepts is {answer}"
    expected = _first_failing_family(design, best + 1)
    if binding != expected:
        return f"binding {binding}, expected {expected}"
    return None


def _check_sweep(out, rows) -> str | None:
    code, text = out
    lines = text.strip().splitlines()
    if code != 0 or len(lines) != len(rows) + 1:
        return f"exit {code}, {len(lines)} lines for {len(rows)} points"
    for line, (value, m, max_m, design) in zip(lines[1:], rows):
        cells = line.split(",")
        if m == 0:
            if cells[-1] == "":
                return f"point {value}: no feasible m but no error"
            continue
        lat = design.latency(m)
        if (int(cells[0]) != value or not close(float(cells[1]), lat["seconds"])
                or not _cycles_match(cells[2], lat["total_cycles"])
                or cells[4] != lat["binding_term"]
                or cells[5] != ("true" if design.feasible(m) else "false")
                or (max_m is not None and cells[6] != str(max_m))):
            return f"row {line!r}, expected m={m} {lat} feasible={design.feasible(m)}"
    return None


def _check_compare(out, designs, m) -> str | None:
    code, text = out
    lines = text.strip().splitlines()[1:]
    if len(lines) != len(designs):
        return f"{len(lines)} rows for {len(designs)} devices"
    any_infeasible = False
    for line, (name, design) in zip(lines, designs):
        cells = line.split()
        lat = design.latency(m)
        feasible = design.feasible(m)
        any_infeasible |= not feasible
        if (cells[0] != name or cells[1] != str(m)
                or not _seconds_match(f"{cells[2]} {cells[3]}", lat["seconds"])
                or cells[4] != lat["binding_term"] or cells[5] != ("yes" if feasible else "no")):
            return f"row {line!r}, expected {lat} feasible={feasible}"
    if code != (1 if any_infeasible else 0):
        return f"exit {code}"
    return None


def cli_workload(seed: int, scratch: Path) -> Workload:
    layout = [(kind, i) for kind, count in CLI_MIX for i in range(count)]
    layout += [("readme-device", 0), ("rebalance-decode", 0)]
    fixed = scratch / "fixed"
    fixed.mkdir(parents=True)
    faults = {"readme-device": _readme_device_op(fixed),
              "rebalance-decode": _rebalance_decode_op(fixed)}

    def draw(rng: random.Random, number: int) -> tuple[list[Op], dict]:
        shutil.rmtree(scratch / f"round-{number - 1}", ignore_errors=True)
        catalog = Catalog(scratch / f"round-{number}", rng)
        builder = CliBuilder(catalog, rng)
        makers = {"estimate": lambda i: builder.estimate(False, CLI_FILE_FLAGS[i % 5]),
                  "estimate-json": lambda i: builder.estimate(True, CLI_FILE_FLAGS[i % 5]),
                  "search": lambda i: builder.search(), "sweep-m": lambda i: builder.sweep("m"),
                  "sweep-seq": lambda i: builder.sweep("seq_len"),
                  "compare": lambda i: builder.compare()}
        ops = [faults[kind] if kind in faults else makers[kind](i) for kind, i in layout]
        return ops, catalog.env
    return Workload(seed, len(layout), draw, _SETUP_CATALOG)


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "search":
        return search_workload(seed)
    if name == "points":
        return points_workload(seed)
    return cli_workload(seed, scratch)
