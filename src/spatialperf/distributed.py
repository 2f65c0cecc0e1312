"""Tensor- and pipeline-parallel extensions of the single-device estimator.

Tensor parallelism shards every operator (and its buffers) across tp_size
devices and adds an all-gather on the sharded activations; pipeline
parallelism spreads layer groups across pp_size devices, multiplying the
spatial replication factor without inter-layer traffic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .catalog import DeviceSpec, ModelSpec, PhaseWorkload, QuantScheme
from .catalog import _read_document, _require_int  # shared document checks
from .demand import Allocation, BufferPlan, OperatorId, ceil_div
from .errors import InvalidValueError, MissingFieldError, UnknownFieldError
from .estimate import Binding, LatencyEstimate, _assemble, _dominant


_BANDWIDTH_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*([kKMGT]?)(b|B)/s\s*$")
_PREFIX_SCALE = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}


def parse_bandwidth(value: float | int | str) -> float:
    """Normalize a link bandwidth to bits/second.

    Accepts plain numbers (already bits/s) or strings with a decimal prefix
    and a bit/byte unit, e.g. "100 Gb/s" or "12.5 GB/s".  An infinite rate
    models an ideal link whose all-gather takes no time; NaN is rejected.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        bits = float(value)
    else:
        match = _BANDWIDTH_RE.match(str(value))
        magnitude, prefix, unit = match.groups() if match else (str(value), "", "b")
        try:
            bits = float(magnitude) * _PREFIX_SCALE[prefix]
        except ValueError:
            raise InvalidValueError(
                "link_bandwidth", f"cannot parse {value!r}; expected e.g. '100 Gb/s'"
            ) from None
        if unit == "B":
            bits *= 8
    if math.isnan(bits):
        raise InvalidValueError("link_bandwidth", f"must not be NaN, got {value!r}")
    return bits


@dataclass(frozen=True)
class ParallelismPlan:
    """How one workload spreads over tp_size * pp_size devices."""

    tp_size: int = 1            # p1, tensor-parallel shards per layer
    pp_size: int = 1            # p2, pipeline stages of layer groups
    link_bandwidth: float = 0.0  # bits/s per link; required when tp_size > 1
    efficiency: float = 1.0     # achievable fraction of the link's peak

    def __post_init__(self):
        _require_int("plan", "tp_size", self.tp_size)
        _require_int("plan", "pp_size", self.pp_size)
        object.__setattr__(self, "link_bandwidth", parse_bandwidth(self.link_bandwidth))
        if self.tp_size > 1 and self.link_bandwidth <= 0:
            raise InvalidValueError(
                "link_bandwidth", "tensor parallelism needs a positive link bandwidth"
            )
        # The range test also rejects NaN and infinities.
        if (isinstance(self.efficiency, bool) or not isinstance(self.efficiency, (int, float))
                or not 0 < self.efficiency <= 1):
            raise InvalidValueError(
                "efficiency", f"must be in (0, 1], got {self.efficiency!r}"
            )

    def to_document(self) -> dict[str, Any]:
        return {
            "tp_size": self.tp_size,
            "pp_size": self.pp_size,
            "link_bandwidth": self.link_bandwidth,
            "efficiency": self.efficiency,
        }


_PLAN_FIELDS = ("tp_size", "pp_size", "link_bandwidth", "efficiency")


def load_parallelism_plan(source: Mapping[str, Any] | str | Path) -> ParallelismPlan:
    """Parse a parallelism plan document; bandwidth strings may carry units."""
    doc = _read_document(source, "parallelism plan")
    for key in doc:
        if key not in _PLAN_FIELDS:
            raise UnknownFieldError(key, "parallelism plan")
    if "tp_size" not in doc:
        raise MissingFieldError("tp_size", "parallelism plan")
    if _require_int("plan", "tp_size", doc["tp_size"]) > 1 and "efficiency" not in doc:
        raise MissingFieldError("efficiency", "parallelism plan")
    return ParallelismPlan(**doc)


def comm_time(seq_len: int, hidden_size: int, activation_bits: int,
              plan: ParallelismPlan) -> float:
    """Seconds to all-gather one layer's sharded activations (seq_len rows)."""
    if plan.tp_size == 1:
        return 0.0
    bits = seq_len * hidden_size * activation_bits
    return bits / (plan.efficiency * plan.link_bandwidth)


def scale_memory_constraints(plan: BufferPlan, tp_size: int) -> BufferPlan:
    """Per-device buffer demand under tensor parallelism; FIFOs do not shard."""
    return plan.scaled(tp_size)


def multi_prefill_latency(model: ModelSpec, alloc: Allocation, quant: QuantScheme,
                          workload: PhaseWorkload, device: DeviceSpec,
                          plan: ParallelismPlan, t_mem: float = 0) -> LatencyEstimate:
    """Prefill latency on tp_size * pp_size devices.

    Every compute stage speeds up by the tensor-parallel factor, the
    pipeline depth grows by pp_size, and the all-gather joins the
    initiation-interval max (it overlaps with compute, so it only binds
    when slower than every compute stage).
    """
    p1, p2 = plan.tp_size, plan.pp_size
    c = workload.layers_on_chip
    if p1 * p2 * c > model.num_layers:
        raise InvalidValueError(
            "plan", f"tp_size * pp_size * layers_on_chip = {p1 * p2 * c} exceeds "
                    f"num_layers = {model.num_layers}"
        )
    for op in (OperatorId.K, OperatorId.A1, OperatorId.F1):
        if op not in alloc.m:
            raise InvalidValueError("alloc", f"missing allocation for operator {op.value}")
    l = workload.seq_len
    if l < 1:
        raise InvalidValueError("seq_len", "prefill needs at least one token")
    d = model.hidden_size
    qkv = l * d * d / (p1 * alloc.m[OperatorId.K])
    sdp = l * l * d / (p1 * alloc.m[OperatorId.A1])
    ffn = l * d * model.ffn_size / (p1 * alloc.m[OperatorId.F1])
    comm_cycles = comm_time(l, d, quant.activation_bits, plan) * device.freq
    terms = [(Binding.QKV, qkv), (Binding.SDP, sdp), (Binding.FFN, ffn),
             (Binding.MEM, float(t_mem)), (Binding.COMM, comm_cycles)]
    binding, ii = _dominant(terms)
    iterations = ceil_div(model.num_layers, p2 * c)
    return _assemble(qkv, ii, binding, iterations, p2 * c, device.freq)
