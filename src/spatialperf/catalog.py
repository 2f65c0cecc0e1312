"""Typed descriptions of models, devices, quantization schemes, and workloads.

Catalog entries can come from three places, in increasing priority:
built-in tables below, directories named by the SPATIALPERF_MODELS /
SPATIALPERF_DEVICES / SPATIALPERF_QUANTS environment variables, and
explicit files passed on the command line.  Config documents are YAML
(or JSON) mappings whose keys match the dataclass field names exactly.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import (
    InputError,
    InvalidValueError,
    MissingFieldError,
    UnknownFieldError,
)

# Clock every built-in device is normalized to, in Hz.  Routing congestion on
# large dataflow designs tends to cap the achievable PL clock well below the
# DSP fabric limit, and 245 MHz is a representative post-route value.
DEFAULT_FREQ_HZ = 245e6

# Port width configurations of the two SRAM block families we model.
BRAM_WIDTHS = (1, 2, 4, 9, 18, 36, 72)
M20K_WIDTHS = (1, 2, 4, 5, 8, 10, 16, 20, 32, 40)

BRAM18K_BITS = 18 * 1024
M20K_BITS = 20 * 1024


class Phase(str, Enum):
    """Generative inference stage."""

    PREFILL = "prefill"
    DECODE = "decode"


class Residency(str, Enum):
    """Where a layer's weights live during steady-state execution."""

    ON_CHIP = "on_chip"
    OFF_CHIP = "off_chip"


def _require_int(kind: str, field: str, value: Any, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValueError(field, f"{kind} field must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidValueError(field, f"must be >= {minimum}, got {value}")
    return value


def _require_number(kind: str, field: str, value: Any, minimum: float = 0.0) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValueError(field, f"{kind} field must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidValueError(field, f"must be finite, got {value}")
    if value <= minimum:
        raise InvalidValueError(field, f"must be > {minimum}, got {value}")
    return float(value)


@dataclass(frozen=True)
class ModelSpec:
    """Geometry of one decoder/encoder stack, uniform across layers."""

    name: str
    num_layers: int     # N, transformer layers
    num_heads: int      # h, attention heads per layer
    hidden_size: int    # d, embedding width
    ffn_size: int       # d_FFN, hidden width of the feed-forward block
    max_seq_len: int    # l_max, longest context the KV buffers are sized for

    def __post_init__(self):
        _require_int("model", "num_layers", self.num_layers)
        _require_int("model", "num_heads", self.num_heads)
        _require_int("model", "hidden_size", self.hidden_size)
        _require_int("model", "ffn_size", self.ffn_size)
        _require_int("model", "max_seq_len", self.max_seq_len)
        if self.hidden_size % self.num_heads != 0:
            raise InvalidValueError(
                "hidden_size",
                f"{self.hidden_size} is not divisible by num_heads={self.num_heads}",
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    def to_document(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class QuantScheme:
    """Fixed-point layout of weights and activations.

    pack_count is the number of weight words packed into one SRAM word;
    dsp_pack_factor is 2 when two narrow multiplies share one DSP slice.
    """

    weight_bits: int        # b_W
    activation_bits: int    # b_A
    pack_count: int = 1     # k, weights per SRAM word
    dsp_pack_factor: int = 1

    def __post_init__(self):
        _require_int("quant", "weight_bits", self.weight_bits)
        _require_int("quant", "activation_bits", self.activation_bits)
        _require_int("quant", "pack_count", self.pack_count)
        if self.weight_bits > 16:
            raise InvalidValueError("weight_bits", f"must be <= 16, got {self.weight_bits}")
        if self.activation_bits > 32:
            raise InvalidValueError(
                "activation_bits", f"must be <= 32, got {self.activation_bits}"
            )
        if self.pack_count * self.weight_bits > 72:
            raise InvalidValueError(
                "pack_count",
                f"pack_count * weight_bits = {self.pack_count * self.weight_bits} "
                "exceeds the 72-bit word limit",
            )
        if self.dsp_pack_factor not in (1, 2):
            raise InvalidValueError(
                "dsp_pack_factor", f"must be 1 or 2, got {self.dsp_pack_factor}"
            )

    def to_document(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class DeviceSpec:
    """Resource envelope of one FPGA card.

    The port model covers the dominant SRAM block family only
    (sram_block_count blocks of sram_block_capacity bits); capacity totals
    include every on-chip memory type, so sram_total may exceed
    sram_block_count * sram_block_capacity on devices that mix families.
    """

    name: str
    freq: float                 # Hz, achievable fabric clock
    dsp_count: int              # multiplier units (DSP slices, AIEs, tensor blocks)
    mac_per_dsp_base: float     # MACs/cycle issued by one unit before DSP packing
    sram_block_capacity: int    # bits per block of the dominant SRAM family
    sram_block_count: int       # Mem_tot, number of such blocks
    sram_widths: tuple[int, ...]  # configurable port widths, ascending, bits
    sram_total: int             # bits of on-chip memory, all families
    dram_total: int             # bits of off-chip memory on the fast lane
    offchip_bandwidth: float    # bits/s of the fast off-chip lane

    def __post_init__(self):
        _require_number("device", "freq", self.freq)
        _require_int("device", "dsp_count", self.dsp_count, minimum=0)
        _require_number("device", "mac_per_dsp_base", self.mac_per_dsp_base)
        _require_int("device", "sram_block_capacity", self.sram_block_capacity)
        _require_int("device", "sram_block_count", self.sram_block_count)
        _require_int("device", "sram_total", self.sram_total)
        _require_int("device", "dram_total", self.dram_total)
        _require_number("device", "offchip_bandwidth", self.offchip_bandwidth)
        widths = tuple(self.sram_widths)
        object.__setattr__(self, "sram_widths", widths)
        if not widths:
            raise InvalidValueError("sram_widths", "must list at least one width")
        if any(w < 1 for w in widths) or list(widths) != sorted(set(widths)):
            raise InvalidValueError(
                "sram_widths", f"must be strictly ascending positive widths, got {widths}"
            )

    @property
    def max_width(self) -> int:
        return self.sram_widths[-1]

    def to_document(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["sram_widths"] = list(self.sram_widths)
        return doc


@dataclass(frozen=True)
class PhaseWorkload:
    """One evaluation point: stage, sequence position, and mapping choices."""

    phase: Phase
    seq_len: int                # l: prompt length (prefill) or context length (decode)
    layers_on_chip: int = 1     # C, layers instantiated spatially
    weights_resident: Residency = Residency.OFF_CHIP
    fifo_depth: int = 2         # s, depth of inter-operator FIFOs

    def __post_init__(self):
        object.__setattr__(self, "phase", Phase(self.phase))
        object.__setattr__(self, "weights_resident", Residency(self.weights_resident))
        min_len = 1 if self.phase is Phase.PREFILL else 0
        if not isinstance(self.seq_len, int) or self.seq_len < min_len:
            raise InvalidValueError(
                "seq_len", f"must be an integer >= {min_len} for {self.phase.value}"
            )
        _require_int("workload", "layers_on_chip", self.layers_on_chip)
        _require_int("workload", "fifo_depth", self.fifo_depth)


def total_compute_power(device: DeviceSpec, quant: QuantScheme) -> float:
    """Peak MACs/cycle of the device under the given quantization (M_tot)."""
    return device.dsp_count * device.mac_per_dsp_base * quant.dsp_pack_factor


# --- built-in catalog -------------------------------------------------------

BUILTIN_MODELS: dict[str, ModelSpec] = {
    "bert": ModelSpec("bert", num_layers=12, num_heads=12,
                      hidden_size=768, ffn_size=3072, max_seq_len=512),
    "gpt2": ModelSpec("gpt2", num_layers=24, num_heads=16,
                      hidden_size=1024, ffn_size=4096, max_seq_len=1024),
    "llama2": ModelSpec("llama2", num_layers=32, num_heads=32,
                        hidden_size=4096, ffn_size=11008, max_seq_len=4096),
    "vicuna": ModelSpec("vicuna", num_layers=40, num_heads=40,
                        hidden_size=5120, ffn_size=13824, max_seq_len=2048),
}

# Published peak INT8 throughput of the AI-optimized parts, used to express
# their compute in MACs/cycle at the normalized clock (1 MAC = 2 ops).
_VCK5000_TOPS = 145e12
_STRATIX10NX_TOPS = 143e12

BUILTIN_DEVICES: dict[str, DeviceSpec] = {
    "u280": DeviceSpec(
        name="u280",
        freq=DEFAULT_FREQ_HZ,
        dsp_count=9024,
        mac_per_dsp_base=1.0,
        sram_block_capacity=BRAM18K_BITS,
        sram_block_count=4032,
        sram_widths=BRAM_WIDTHS,
        sram_total=41_000_000 * 8,          # 41 MB BRAM+URAM
        dram_total=8_000_000_000 * 8,       # 8 GB HBM2
        offchip_bandwidth=460e9 * 8,        # 460 GB/s HBM lane
    ),
    "vck5000": DeviceSpec(
        name="vck5000",
        freq=DEFAULT_FREQ_HZ,
        dsp_count=400,                      # AI engines
        mac_per_dsp_base=_VCK5000_TOPS / (2 * DEFAULT_FREQ_HZ * 400),
        sram_block_capacity=BRAM18K_BITS,
        sram_block_count=967,
        sram_widths=BRAM_WIDTHS,
        sram_total=24_000_000 * 8,          # 24 MB
        dram_total=16_000_000_000 * 8,      # 16 GB DDR
        offchip_bandwidth=102.4e9 * 8,      # 102.4 GB/s DDR
    ),
    "vhk158": DeviceSpec(
        name="vhk158",
        freq=DEFAULT_FREQ_HZ,
        dsp_count=7392,
        mac_per_dsp_base=1.0,
        sram_block_capacity=BRAM18K_BITS,
        sram_block_count=5063,
        sram_widths=BRAM_WIDTHS,
        sram_total=63_620_000 * 8,          # 63.62 MB
        dram_total=32_000_000_000 * 8,      # 32 GB HBM2e
        offchip_bandwidth=819.2e9 * 8,      # 819.2 GB/s HBM2e
    ),
    "stratix10nx": DeviceSpec(
        name="stratix10nx",
        freq=DEFAULT_FREQ_HZ,
        dsp_count=3960,                     # AI tensor blocks
        mac_per_dsp_base=_STRATIX10NX_TOPS / (2 * DEFAULT_FREQ_HZ * 3960),
        sram_block_capacity=M20K_BITS,
        sram_block_count=6847,
        sram_widths=M20K_WIDTHS,
        sram_total=30_000_000 * 8,          # 30 MB M20K+eSRAM
        dram_total=16_000_000_000 * 8,      # 16 GB HBM2
        offchip_bandwidth=512e9 * 8,        # 512 GB/s HBM2
    ),
    "agilex7": DeviceSpec(
        name="agilex7",
        freq=DEFAULT_FREQ_HZ,
        dsp_count=12300,
        mac_per_dsp_base=1.0,
        sram_block_capacity=M20K_BITS,
        sram_block_count=18960,
        sram_widths=M20K_WIDTHS,
        sram_total=46_250_000 * 8,          # 46.25 MB
        dram_total=32_000_000_000 * 8,      # 32 GB HBM2e
        offchip_bandwidth=820e9 * 8,        # 820 GB/s HBM2e
    ),
}

BUILTIN_QUANTS: dict[str, QuantScheme] = {
    "w2a8": QuantScheme(weight_bits=2, activation_bits=8, pack_count=36, dsp_pack_factor=2),
    "w4a8": QuantScheme(weight_bits=4, activation_bits=8, pack_count=18, dsp_pack_factor=2),
    "w8a8": QuantScheme(weight_bits=8, activation_bits=8, pack_count=9, dsp_pack_factor=2),
    "w16a16": QuantScheme(weight_bits=16, activation_bits=16, pack_count=4, dsp_pack_factor=1),
}


# --- config document loading ------------------------------------------------

class _DocumentLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 2.2e8 and 1e9.

    YAML 1.1 needs a dot and a signed exponent, so it leaves `freq: 2.2e8`
    a string; the YAML 1.2 core schema and JSON read it as a number.
    """


_DocumentLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _read_document(source: Mapping[str, Any] | str | Path, kind: str) -> dict[str, Any]:
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_DocumentLoader)
    except yaml.YAMLError as exc:
        raise InputError(f"cannot parse {kind} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{kind} file {path} must contain a key/value mapping")
    return doc


def _check_keys(doc: Mapping[str, Any], cls, kind: str) -> None:
    allowed = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for key in doc:
        if key not in allowed:
            raise UnknownFieldError(key, kind)
    for key in sorted(required):
        if key not in doc:
            raise MissingFieldError(key, kind)


def load_model_spec(source: Mapping[str, Any] | str | Path) -> ModelSpec:
    """Parse a model config document (mapping or path to a YAML/JSON file)."""
    doc = _read_document(source, "model spec")
    _check_keys(doc, ModelSpec, "model spec")
    return ModelSpec(**doc)


def load_quant_scheme(source: Mapping[str, Any] | str | Path) -> QuantScheme:
    """Parse a quantization scheme document."""
    doc = _read_document(source, "quant scheme")
    _check_keys(doc, QuantScheme, "quant scheme")
    return QuantScheme(**doc)


def load_device_spec(source: Mapping[str, Any] | str | Path) -> DeviceSpec:
    """Parse a device config document."""
    doc = _read_document(source, "device spec")
    _check_keys(doc, DeviceSpec, "device spec")
    if isinstance(doc.get("sram_widths"), list):
        doc["sram_widths"] = tuple(doc["sram_widths"])
    return DeviceSpec(**doc)


def _env_entries(env_var: str, loader) -> dict[str, Any]:
    root = os.environ.get(env_var)
    if not root:
        return {}
    path = Path(root)
    if not path.is_dir():
        raise InputError(f"{env_var}={root} is not a directory")
    entries = {}
    for child in sorted(path.iterdir()):
        if child.suffix.lower() in (".yaml", ".yml", ".json"):
            entry = loader(child)
            entries[getattr(entry, "name", child.stem)] = entry
    return entries


def _lookup(name: str, builtin: dict, env_var: str, loader, kind: str):
    merged = dict(builtin)
    merged.update(_env_entries(env_var, loader))
    try:
        return merged[name]
    except KeyError:
        known = ", ".join(sorted(merged))
        raise InputError(f"unknown {kind} '{name}' (known: {known})") from None


def get_model(name: str) -> ModelSpec:
    return _lookup(name, BUILTIN_MODELS, "SPATIALPERF_MODELS", load_model_spec, "model")


def get_device(name: str) -> DeviceSpec:
    return _lookup(name, BUILTIN_DEVICES, "SPATIALPERF_DEVICES", load_device_spec, "device")


def get_quant(name: str) -> QuantScheme:
    merged = dict(BUILTIN_QUANTS)
    root = os.environ.get("SPATIALPERF_QUANTS")
    if root:
        path = Path(root)
        if not path.is_dir():
            raise InputError(f"SPATIALPERF_QUANTS={root} is not a directory")
        for child in sorted(path.iterdir()):
            if child.suffix.lower() in (".yaml", ".yml", ".json"):
                merged[child.stem] = load_quant_scheme(child)
    try:
        return merged[name]
    except KeyError:
        known = ", ".join(sorted(merged))
        raise InputError(f"unknown quant scheme '{name}' (known: {known})") from None
