"""Latency estimation and the feasible compute-power search.

A design replicates C layers spatially and streams ceil(N / C) passes
through them.  Latency is the pipeline head time plus C initiation
intervals per pass; the initiation interval is the slowest of the three
compute stages and the weight-streaming time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Mapping

from .catalog import (
    DeviceSpec,
    ModelSpec,
    Phase,
    PhaseWorkload,
    QuantScheme,
    Residency,
    total_compute_power,
)
from .constraints import (
    _packed_blocks,
    check_capacity,
    check_compute,
    check_ports,
    effective_width,
)
from .demand import (
    ALL_OPS,
    SDP_OPS,
    WEIGHT_OPS,
    Allocation,
    OperatorId,
    buffer_plan,
    ceil_div,
    weight_elements,
)
from .errors import InfeasibleError, InvalidValueError, SpatialPerfError


class Binding(str, Enum):
    """Which term sets the initiation interval."""

    QKV = "qkv"
    SDP = "sdp"
    FFN = "ffn"
    MEM = "mem"
    COMM = "comm"


@dataclass
class LatencyEstimate:
    head_cycles: float
    ii_cycles: float
    iterations: int
    total_cycles: float
    seconds: float
    binding_term: Binding

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["binding_term"] = self.binding_term.value
        return doc


def _dominant(terms: list[tuple[Binding, float]]) -> tuple[Binding, float]:
    best_name, best = terms[0]
    for name, value in terms[1:]:
        if value > best:
            best_name, best = name, value
    return best_name, best


# Which entry of _stage_m's triple each operator gets.
_STAGE_OF = {
    OperatorId.Q: 0,
    OperatorId.K: 0,
    OperatorId.V: 0,
    OperatorId.A1: 1,
    OperatorId.A2: 1,
    OperatorId.P: 0,
    OperatorId.F1: 2,
    OperatorId.F2: 2,
}


def _stage_m(m: int, model: ModelSpec, seq_len: int) -> tuple[int, int, int]:
    """Balanced MACs/cycle of a projection, a1/a2 and f1/f2, given m per projection."""
    d = model.hidden_size
    return m, ceil_div(seq_len * m, d), ceil_div(model.ffn_size * m, d)


def balanced_allocation(m: int, model: ModelSpec, seq_len: int,
                        reuse: int | Mapping[OperatorId, int] = 8) -> Allocation:
    """Work-balanced MACs/cycle per operator, given m for each projection.

    The score/context and feed-forward operators are scaled so every stage
    finishes a pass in the same number of cycles, rounding up.
    """
    if m < 1:
        raise InvalidValueError("m", f"must be >= 1, got {m}")
    if seq_len < 1:
        raise InvalidValueError("seq_len", f"balancing needs seq_len >= 1, got {seq_len}")
    m, m_sdp, m_ffn = _stage_m(m, model, seq_len)
    alloc_m = {
        OperatorId.Q: m,
        OperatorId.K: m,
        OperatorId.V: m,
        OperatorId.A1: m_sdp,
        OperatorId.A2: m_sdp,
        OperatorId.P: m,
        OperatorId.F1: m_ffn,
        OperatorId.F2: m_ffn,
    }
    if isinstance(reuse, Mapping):
        reuse_map = {op: reuse.get(op, 8) for op in ALL_OPS}
    else:
        reuse_map = {op: reuse for op in ALL_OPS}
    return Allocation(m=alloc_m, reuse=reuse_map)


def t_mem_cycles(model: ModelSpec, quant: QuantScheme, device: DeviceSpec,
                 residency: Residency = Residency.OFF_CHIP) -> int:
    """Cycles to stream one layer's weights from off-chip memory; 0 if resident."""
    if Residency(residency) is Residency.ON_CHIP:
        return 0
    weight_bits = sum(weight_elements(model)[op] for op in WEIGHT_OPS) * quant.weight_bits
    return math.ceil(weight_bits / device.offchip_bandwidth * device.freq)


def _stage_terms(model: ModelSpec, alloc: Allocation, phase: Phase, seq_len: int,
                 t_mem: float) -> tuple[float, list[tuple[Binding, float]]]:
    for op in (OperatorId.K, OperatorId.A1, OperatorId.F1):
        if op not in alloc.m:
            raise InvalidValueError("alloc", f"missing allocation for operator {op.value}")
    d = model.hidden_size
    if phase is Phase.PREFILL:
        qkv = seq_len * d * d / alloc.m[OperatorId.K]
        sdp = seq_len * seq_len * d / alloc.m[OperatorId.A1]
        ffn = seq_len * d * model.ffn_size / alloc.m[OperatorId.F1]
    else:
        qkv = d * d / alloc.m[OperatorId.K]
        sdp = (model.max_seq_len + 1) * d / alloc.m[OperatorId.A1]
        ffn = d * model.ffn_size / alloc.m[OperatorId.F1]
    terms = [(Binding.QKV, qkv), (Binding.SDP, sdp), (Binding.FFN, ffn),
             (Binding.MEM, float(t_mem))]
    return qkv, terms


def _assemble(head: float, ii: float, binding: Binding, iterations: int,
              stages: int, freq: float) -> LatencyEstimate:
    total = iterations * (head + stages * ii)
    return LatencyEstimate(
        head_cycles=head,
        ii_cycles=ii,
        iterations=iterations,
        total_cycles=total,
        seconds=total / freq,
        binding_term=binding,
    )


def prefill_latency(model: ModelSpec, alloc: Allocation, workload: PhaseWorkload,
                    device: DeviceSpec, t_mem: float = 0) -> LatencyEstimate:
    """End-to-end prefill latency for one prompt of workload.seq_len tokens."""
    if workload.seq_len < 1:
        raise InvalidValueError("seq_len", "prefill needs at least one token")
    head, terms = _stage_terms(model, alloc, Phase.PREFILL, workload.seq_len, t_mem)
    binding, ii = _dominant(terms)
    c = workload.layers_on_chip
    iterations = ceil_div(model.num_layers, c)
    return _assemble(head, ii, binding, iterations, c, device.freq)


def decode_latency(model: ModelSpec, alloc: Allocation, workload: PhaseWorkload,
                   device: DeviceSpec, t_mem: float = 0) -> LatencyEstimate:
    """Latency of generating one token, with KV buffers sized for max_seq_len."""
    head, terms = _stage_terms(model, alloc, Phase.DECODE, workload.seq_len, t_mem)
    binding, ii = _dominant(terms)
    c = workload.layers_on_chip
    iterations = ceil_div(model.num_layers, c)
    return _assemble(head, ii, binding, iterations, c, device.freq)


def simplified_prefill(model: ModelSpec, m: int, layers_on_chip: int, freq: float,
                       seq_len: int) -> float:
    """Closed-form prefill seconds, N * (1 + 1/C) * l * d^2 / (m * freq).

    Matches prefill_latency exactly when the balanced ratios divide evenly,
    t_mem is zero, and layers_on_chip divides num_layers.
    """
    per_stage = seq_len * model.hidden_size * model.hidden_size / m
    cycles = (model.num_layers / layers_on_chip) * (per_stage + layers_on_chip * per_stage)
    return cycles / freq


CONSTRAINT_FAMILIES = ("compute", "capacity", "ports")


def _feasible(m: int, model: ModelSpec, device: DeviceSpec, quant: QuantScheme,
              workload: PhaseWorkload, reuse, packed: bool,
              families: Iterable[str], tp_size: int) -> bool:
    alloc = balanced_allocation(m, model, max(1, workload.seq_len), reuse)
    if "compute" in families:
        if not check_compute(alloc, workload.layers_on_chip, device, quant).ok:
            return False
    if "capacity" in families:
        if not check_capacity(model, alloc, quant, workload, device, tp_size).ok:
            return False
    if "ports" in families:
        if not check_ports(model, alloc, quant, workload, device, packed, tp_size).ok:
            return False
    return True


def _monotone_ceiling(model: ModelSpec, device: DeviceSpec, quant: QuantScheme,
                      workload: PhaseWorkload, families: tuple[str, ...],
                      tp_size: int, m_limit: int) -> int:
    """Largest m <= m_limit that passes the selected compute and capacity
    checks, for a search in which m = 1 passes them.

    Both families are monotone in m.  With l = max(1, seq_len), compute
    needs (4m + 2*ceil(l*m/d) + 2*ceil(f*m/d)) * C MACs/cycle.  With weights
    streamed, SRAM needs 2*ceil((4m + 2*ceil(f*m/d)) * b_W / tp) * C bits
    for the tile plus KV and FIFO terms that do not depend on m; with
    weights on chip neither SRAM nor DRAM depends on m.  Every term is
    non-decreasing in m and each limit is fixed, so the passing m form a
    prefix {1, ..., top} of the integers, and bisection on [1, m_limit]
    finds top exactly.
    """
    l = max(1, workload.seq_len)
    c = workload.layers_on_chip
    compute_limit = sram_limit = None
    if "compute" in families:
        compute_limit = total_compute_power(device, quant)
    if "capacity" in families and workload.weights_resident is Residency.OFF_CHIP:
        plan = buffer_plan(model, quant, workload,
                           balanced_allocation(1, model, l)).scaled(tp_size)
        sram_fixed = (2 * plan.s_kv + plan.s_fifo) * c
        sram_limit = device.sram_total

    def passes(m: int) -> bool:
        _, m_sdp, m_ffn = _stage_m(m, model, l)
        if compute_limit is not None and (4 * m + 2 * m_sdp + 2 * m_ffn) * c >= compute_limit:
            return False
        if sram_limit is not None:
            tile = ceil_div((4 * m + 2 * m_ffn) * quant.weight_bits, tp_size)
            if 2 * tile * c + sram_fixed >= sram_limit:
                return False
        return True

    if passes(m_limit):
        return m_limit
    lo, hi = 1, m_limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _port_probe(model: ModelSpec, device: DeviceSpec, quant: QuantScheme,
                workload: PhaseWorkload, reuse: int | Mapping[OperatorId, int],
                packed: bool, tp_size: int):
    """check_ports(...).blocks_required at the balanced allocation for m, as a
    function of m.

    Everything check_ports derives without m is computed once here: element
    counts, pack caps, block capacity, C and tp, and word widths, memoised
    by packing.  Arrays that share (m_i, r_i) need the same block count:
    q/k/v/p, f1/f2, and a1/a2, which count twice for their read and write
    ports.  So each distinct pair is counted once, weighted by the number
    of arrays that share it.
    """
    l = max(1, workload.seq_len)
    c = workload.layers_on_chip
    reuse = balanced_allocation(1, model, l, reuse).reuse
    on_chip = workload.weights_resident is Residency.ON_CHIP
    weights = weight_elements(model)
    kv_elements = ceil_div(model.max_seq_len * model.hidden_size, tp_size)
    weight_pack = quant.pack_count if packed else 1
    act_pack = (max(1, quant.pack_count * quant.weight_bits // quant.activation_bits)
                if packed else 1)
    capacity = device.sram_block_capacity

    # (stage, r_i, s_i or None for a streamed tile, element bits, pack) -> arrays
    arrays: dict[tuple, int] = {}
    for op in WEIGHT_OPS:
        s_i = ceil_div(weights[op], tp_size) if on_chip else None
        key = (_STAGE_OF[op], reuse[op], s_i, quant.weight_bits, weight_pack)
        arrays[key] = arrays.get(key, 0) + c
    for op in SDP_OPS:
        key = (_STAGE_OF[op], reuse[op], kv_elements, quant.activation_bits, act_pack)
        arrays[key] = arrays.get(key, 0) + 2 * c
    groups = []
    for (stage, r_i, s_i, bits, pack), count in arrays.items():
        if s_i == 0:
            continue
        # _blocks caps the packing at the widest port; the partition cap
        # is applied per m below.
        pack_cap = min(pack, max(1, device.max_width // bits))
        widths: dict[int, int] = {}
        groups.append((stage, r_i, s_i, bits, pack_cap, widths, count))

    def blocks(m: int) -> int:
        stage_m = _stage_m(m, model, l)
        total = 0
        for stage, r_i, s_i, bits, pack_cap, widths, count in groups:
            m_i = stage_m[stage]
            if s_i is None:
                s_i = ceil_div(m_i, tp_size)
                if s_i == 0:    # an empty buffer takes no blocks, as in _blocks
                    continue
            partitions = ceil_div(m_i, r_i)
            pack = pack_cap if pack_cap < partitions else partitions
            word_bits = widths.get(pack)
            if word_bits is None:
                word_bits = widths[pack] = effective_width(bits * pack, device)
            total += count * _packed_blocks(s_i, partitions, pack, word_bits, capacity)
        return total

    return blocks


def search_max_m(model: ModelSpec, device: DeviceSpec, quant: QuantScheme,
                 workload: PhaseWorkload, reuse: int | Mapping[OperatorId, int] = 8,
                 packed: bool = True,
                 families: Iterable[str] = CONSTRAINT_FAMILIES,
                 stride: int = 1, tp_size: int = 1,
                 m_limit: int = 1_000_000) -> int:
    """Largest per-projection MACs/cycle before the first m that fails the
    selected constraints.

    Scans m = 1, 1 + stride, 1 + 2*stride, ... and returns the last
    feasible point before the first infeasible one.  A stride > 1 then
    refines one step at a time inside the final bracket; this matches the
    unit-stride scan whenever feasibility is monotone inside that bracket.

    The scan is bounded.  Compute and capacity are monotone in m (see
    _monotone_ceiling), so the m that pass them are 1..top, and top is
    found once per search.  The first failing m is therefore the first m
    past top or the first m that fails ports, whichever comes first: the
    scan stops at top and evaluates only ports on the way, through a probe
    built once per search.  Without ports there is nothing to scan, and
    the answer is top itself.  m = 1 goes through _feasible, the reference
    evaluator, so input errors that do not depend on m are raised exactly
    as a full check raises them.

    Port feasibility is not monotone: the ceilings in the block count let a
    larger m need fewer blocks.  So with ports selected the result can
    still fall below the largest feasible m.

    Raises InfeasibleError when m = 1 fails, and SpatialPerfError when every
    scanned m up to m_limit is feasible.
    """
    families = tuple(families)
    unknown = set(families) - set(CONSTRAINT_FAMILIES)
    if unknown or not families:
        raise InvalidValueError(
            "families", f"pick a non-empty subset of {CONSTRAINT_FAMILIES}, got {families}"
        )
    if stride < 1:
        raise InvalidValueError("stride", f"must be >= 1, got {stride}")
    limit_error = SpatialPerfError(
        f"still feasible at m_limit={m_limit}; raise m_limit to search further"
    )
    if m_limit < 1:
        raise limit_error
    if not _feasible(1, model, device, quant, workload, reuse, packed, families, tp_size):
        raise InfeasibleError(
            f"m=1 already violates the {'/'.join(families)} constraints "
            f"on {device.name}"
        )

    top = _monotone_ceiling(model, device, quant, workload, families, tp_size, m_limit)
    if "ports" not in families:
        # The grid point after top fails, unless it lies past m_limit.
        if top - (top - 1) % stride + stride > m_limit:
            raise limit_error
        return top

    port_blocks = _port_probe(model, device, quant, workload, reuse, packed, tp_size)
    available = device.sram_block_count
    last_good = 1
    m = 1 + stride
    while m <= m_limit:
        if m > top or port_blocks(m) >= available:
            break
        last_good = m
        m += stride
    else:
        raise limit_error
    for fine in range(last_good + 1, min(m, top + 1)):
        if port_blocks(fine) >= available:
            break
        last_good = fine
    return last_good


def gemm_latency(rows: int, inner: int, cols: int, array_rows: int, array_cols: int,
                 freq: float) -> float:
    """Seconds for one dense (rows x inner) @ (inner x cols) on a systolic array."""
    for name, value in (("rows", rows), ("inner", inner), ("cols", cols),
                        ("array_rows", array_rows), ("array_cols", array_cols)):
        if value < 1:
            raise InvalidValueError(name, f"must be >= 1, got {value}")
    cycles = rows * inner * cols / (array_rows * array_cols)
    return cycles / freq


def steady_state_throughput(ii_cycles: float, layers_on_chip: int, freq: float) -> float:
    """Saturated pipeline rate in passes/s, 1 / (C * II); not the inverse latency."""
    return freq / (layers_on_chip * ii_cycles)
