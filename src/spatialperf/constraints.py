"""Device resource checks: compute, memory capacity, SRAM ports, bandwidth.

All feasibility comparisons are strict; a design that exactly meets a limit
is reported infeasible with the boundary flag set, since a real layout has
no slack left for anything else.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .catalog import DeviceSpec, PhaseWorkload, QuantScheme, Residency, total_compute_power
from .catalog import ModelSpec
from .demand import (
    Allocation,
    SDP_OPS,
    WEIGHT_OPS,
    buffer_plan,
    ceil_div,
    weight_elements,
)
from .errors import WidthOverflowError


def effective_width(bits: int, device: DeviceSpec) -> int:
    """Smallest configurable SRAM port width that holds a word of `bits` bits."""
    for width in device.sram_widths:
        if width >= bits:
            return width
    raise WidthOverflowError(bits, device.max_width)


def _blocks(s_i: int, m_i: int, r_i: int, element_bits: int, pack: int,
            device: DeviceSpec) -> int:
    """SRAM blocks consumed by one operator buffer of s_i elements.

    The buffer feeds ceil(m_i / r_i) MAC partitions; packing stores `pack`
    elements per SRAM word, merging that many partitions into one array.
    """
    if s_i == 0:
        return 0
    partitions = ceil_div(m_i, r_i)
    # Packing cannot merge more partitions than exist, nor build a word wider
    # than the device's widest port configuration.
    pack = min(pack, partitions, max(1, device.max_width // element_bits))
    word_bits = effective_width(element_bits * pack, device)
    return _packed_blocks(s_i, partitions, pack, word_bits, device.sram_block_capacity)


def _packed_blocks(s_i: int, partitions: int, pack: int, word_bits: int,
                   block_capacity: int) -> int:
    """_blocks once the partition count, packing and word width are settled."""
    per_partition = ceil_div(s_i * word_bits, partitions * block_capacity)
    return per_partition * ceil_div(partitions, pack)


def blocks_unpacked(s_i: int, m_i: int, r_i: int, weight_bits: int,
                    device: DeviceSpec) -> int:
    """Block count with one element per SRAM word."""
    return _blocks(s_i, m_i, r_i, weight_bits, 1, device)


def blocks_packed(s_i: int, m_i: int, r_i: int, quant: QuantScheme,
                  device: DeviceSpec) -> int:
    """Block count with quant.pack_count weights per SRAM word."""
    return _blocks(s_i, m_i, r_i, quant.weight_bits, quant.pack_count, device)


@dataclass
class ComputeCheck:
    required: int       # MACs/cycle over all replicated layers
    available: float    # M_tot for this device and quant
    ok: bool
    boundary: bool


@dataclass
class CapacityCheck:
    sram_required: int
    sram_available: int
    dram_required: int
    dram_available: int
    ok: bool
    boundary: bool


@dataclass
class PortCheck:
    blocks_required: int
    blocks_available: int
    ok: bool
    boundary: bool


@dataclass
class BandwidthCheck:
    required: float     # bits/s of weight streaming at full utilization
    available: float
    bound: bool         # True when streaming cannot keep up with compute


@dataclass
class ConstraintReport:
    compute: ComputeCheck
    capacity: CapacityCheck
    ports: PortCheck
    bandwidth: BandwidthCheck

    @property
    def feasible(self) -> bool:
        return self.compute.ok and self.capacity.ok and self.ports.ok

    def as_dict(self) -> dict:
        return asdict(self)


def check_compute(alloc: Allocation, layers_on_chip: int, device: DeviceSpec,
                  quant: QuantScheme) -> ComputeCheck:
    """Total MACs/cycle of the mapped design against the device peak."""
    required = sum(alloc.m.values()) * layers_on_chip
    available = total_compute_power(device, quant)
    return ComputeCheck(
        required=required,
        available=available,
        ok=required < available,
        boundary=required == available,
    )


def check_capacity(model: ModelSpec, alloc: Allocation, quant: QuantScheme,
                   workload: PhaseWorkload, device: DeviceSpec,
                   tp_size: int = 1) -> CapacityCheck:
    """On-chip and off-chip storage against device capacity.

    Tile and KV buffers are double buffered; when weights stay on chip the
    whole parameter set joins the SRAM sum and no tiles are streamed.
    """
    plan = buffer_plan(model, quant, workload, alloc).scaled(tp_size)
    c = workload.layers_on_chip
    if workload.weights_resident is Residency.ON_CHIP:
        sram_required = (plan.s_param + 2 * plan.s_kv + plan.s_fifo) * c
    else:
        sram_required = (2 * plan.s_tile + 2 * plan.s_kv + plan.s_fifo) * c
    dram_required = plan.s_param * c
    return CapacityCheck(
        sram_required=sram_required,
        sram_available=device.sram_total,
        dram_required=dram_required,
        dram_available=device.dram_total,
        ok=sram_required < device.sram_total and dram_required < device.dram_total,
        boundary=(sram_required == device.sram_total
                  or dram_required == device.dram_total),
    )


def check_ports(model: ModelSpec, alloc: Allocation, quant: QuantScheme,
                workload: PhaseWorkload, device: DeviceSpec,
                packed: bool = True, tp_size: int = 1) -> PortCheck:
    """SRAM blocks needed so every MAC partition gets a private port.

    Weight buffers hold full matrices when resident on chip and one tile of
    m_i elements when streamed.  The K and V caches feeding a1/a2 each count
    once per read and once per write port, sized for the full context.
    """
    c = workload.layers_on_chip
    weights = weight_elements(model)
    kv_elements = ceil_div(model.max_seq_len * model.hidden_size, tp_size)
    pack_bits = quant.pack_count * quant.weight_bits
    act_pack = max(1, pack_bits // quant.activation_bits) if packed else 1

    total = 0
    for op in WEIGHT_OPS:
        if op not in alloc.m:
            continue
        if workload.weights_resident is Residency.ON_CHIP:
            s_i = ceil_div(weights[op], tp_size)
        else:
            s_i = ceil_div(alloc.m[op], tp_size)
        if packed:
            r = blocks_packed(s_i, alloc.m[op], alloc.reuse[op], quant, device)
        else:
            r = blocks_unpacked(s_i, alloc.m[op], alloc.reuse[op], quant.weight_bits, device)
        total += c * r
    for op in SDP_OPS:
        if op not in alloc.m:
            continue
        r = _blocks(kv_elements, alloc.m[op], alloc.reuse[op],
                    quant.activation_bits, act_pack, device)
        total += 2 * c * r

    return PortCheck(
        blocks_required=total,
        blocks_available=device.sram_block_count,
        ok=total < device.sram_block_count,
        boundary=total == device.sram_block_count,
    )


def required_bandwidth(alloc: Allocation, quant: QuantScheme, device: DeviceSpec,
                       layers_on_chip: int) -> BandwidthCheck:
    """Weight streaming rate needed to refill every tile as fast as it drains."""
    total = 0.0
    for op in WEIGHT_OPS:
        if op not in alloc.m:
            continue
        partitions = ceil_div(alloc.m[op], alloc.reuse[op])
        total += quant.weight_bits * partitions * device.freq * layers_on_chip
    return BandwidthCheck(
        required=total,
        available=device.offchip_bandwidth,
        bound=total > device.offchip_bandwidth,
    )


def constraint_report(model: ModelSpec, alloc: Allocation, quant: QuantScheme,
                      workload: PhaseWorkload, device: DeviceSpec,
                      packed: bool = True, tp_size: int = 1) -> ConstraintReport:
    """Run all four checks for one design point."""
    return ConstraintReport(
        compute=check_compute(alloc, workload.layers_on_chip, device, quant),
        capacity=check_capacity(model, alloc, quant, workload, device, tp_size),
        ports=check_ports(model, alloc, quant, workload, device, packed, tp_size),
        bandwidth=required_bandwidth(alloc, quant, device, workload.layers_on_chip),
    )
