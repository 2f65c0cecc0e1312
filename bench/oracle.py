"""Independent re-derivation of the spatialperf model, used to check its outputs.

Nothing here imports spatialperf.  Every formula is written out again from
the model description in bench/README.md, on plain numbers, so a fault in the
program cannot hide by being shared with the check that judges it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Initiation-interval terms in tie-break order: the first largest one binds.
TERMS = ("qkv", "sdp", "ffn", "mem", "comm")


def cdiv(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Design:
    """One design question in plain numbers: model, device, quant and mapping."""

    # model
    layers: int
    d: int
    ffn: int
    lmax: int
    # device
    freq: float
    peak: float             # MACs/cycle: dsp_count * mac_per_dsp_base * dsp_pack_factor
    block_bits: int
    blocks: int
    widths: tuple
    sram: int
    dram: int
    offchip_bw: float       # bits/s
    # quant
    wbits: int
    abits: int
    pack: int
    # workload and mapping
    phase: str              # "prefill" or "decode"
    seq_len: int
    C: int = 1
    on_chip: bool = False
    fifo: int = 2
    reuse: int = 8
    packed: bool = True
    tp: int = 1
    balance_len: int | None = None   # length the allocation is balanced for

    @classmethod
    def of(cls, model: dict, device: dict, quant: dict, phase: str, seq_len: int,
           layers_on_chip: int = 1, weights_resident: str = "off_chip",
           fifo_depth: int = 2, reuse: int = 8, packed: bool = True, tp: int = 1,
           balance_len: int | None = None) -> "Design":
        """Build from config documents: mappings keyed like the YAML files."""
        return cls(
            layers=model["num_layers"], d=model["hidden_size"], ffn=model["ffn_size"],
            lmax=model["max_seq_len"], freq=float(device["freq"]),
            peak=device["dsp_count"] * device["mac_per_dsp_base"] * quant.get("dsp_pack_factor", 1),
            block_bits=device["sram_block_capacity"], blocks=device["sram_block_count"],
            widths=tuple(device["sram_widths"]), sram=device["sram_total"],
            dram=device["dram_total"], offchip_bw=float(device["offchip_bandwidth"]),
            wbits=quant["weight_bits"], abits=quant["activation_bits"],
            pack=quant.get("pack_count", 1), phase=phase, seq_len=seq_len,
            C=layers_on_chip, on_chip=weights_resident == "on_chip", fifo=fifo_depth,
            reuse=reuse, packed=packed, tp=tp, balance_len=balance_len)

    # --- allocation --------------------------------------------------------

    def alloc(self, m: int) -> tuple[int, int, int]:
        """(projection, attention, feed-forward) MACs/cycle of a balanced design."""
        length = self.balance_len if self.balance_len is not None else max(1, self.seq_len)
        return m, cdiv(length * m, self.d), cdiv(self.ffn * m, self.d)

    # --- the three feasibility families -----------------------------------

    def compute_required(self, m: int) -> int:
        mp, ms, mf = self.alloc(m)
        return (4 * mp + 2 * ms + 2 * mf) * self.C

    def capacity(self, m: int) -> tuple[int, int]:
        """(SRAM bits, DRAM bits) one device needs for this design."""
        mp, _, mf = self.alloc(m)
        d, t = self.d, self.tp
        param = cdiv((4 * d * d + 2 * d * self.ffn) * self.wbits, t)
        tile = cdiv((4 * mp + 2 * mf) * self.wbits, t)
        kv = cdiv(4 * self.lmax * d * self.abits, t)
        fifo = 16 * self.fifo * self.abits + self.seq_len * d * self.abits
        held = param if self.on_chip else 2 * tile
        return (held + 2 * kv + fifo) * self.C, param * self.C

    def _width(self, bits: int) -> int:
        for width in self.widths:
            if width >= bits:
                return width
        raise ValueError(f"{bits}-bit word is wider than every port")

    def _pack_caps(self) -> tuple[int, int]:
        wpack = self.pack if self.packed else 1
        apack = max(1, self.pack * self.wbits // self.abits) if self.packed else 1
        return wpack, apack

    def _array_blocks(self, elems: int, mi: int, bits: int, pack: int) -> int:
        parts = cdiv(mi, self.reuse)
        pk = min(pack, parts, max(1, self.widths[-1] // bits))
        word = self._width(bits * pk)
        return cdiv(elems * word, parts * self.block_bits) * cdiv(parts, pk)

    def ports(self, m: int) -> int:
        """SRAM blocks so every MAC partition has a private port."""
        mp, ms, mf = self.alloc(m)
        wpack, apack = self._pack_caps()
        total = 0
        for mi, weights, count in ((mp, self.d * self.d, 4), (mf, self.d * self.ffn, 2)):
            elems = cdiv(weights if self.on_chip else mi, self.tp)
            total += count * self._array_blocks(elems, mi, self.wbits, wpack)
        kv = cdiv(self.lmax * self.d, self.tp)
        total += 4 * self._array_blocks(kv, ms, self.abits, apack)  # a1, a2: read + write
        return total * self.C

    def ports_floor(self, m: int) -> int:
        """Lower bound on ports(m) that never falls as m grows.

        Every array holds at least one block per ceil(partitions / pack),
        and pack never exceeds its cap, so blocks >= ceil(partitions / cap).
        """
        mp, ms, mf = self.alloc(m)
        wpack, apack = self._pack_caps()
        maxw = self.widths[-1]
        wcap = min(wpack, max(1, maxw // self.wbits))
        acap = min(apack, max(1, maxw // self.abits))
        r = self.reuse
        return self.C * (4 * cdiv(cdiv(mp, r), wcap) + 2 * cdiv(cdiv(mf, r), wcap)
                         + 4 * cdiv(cdiv(ms, r), acap))

    def compute_ok(self, m: int) -> bool:
        return self.compute_required(m) < self.peak

    def capacity_ok(self, m: int) -> bool:
        sram, dram = self.capacity(m)
        return sram < self.sram and dram < self.dram

    def ports_ok(self, m: int) -> bool:
        return self.ports(m) < self.blocks

    def feasible(self, m: int) -> bool:
        return self.compute_ok(m) and self.capacity_ok(m) and self.ports_ok(m)

    # --- search ------------------------------------------------------------

    def ceiling(self) -> int:
        """Smallest m at which a bound that only grows with m already fails.

        Compute demand and (streamed) SRAM demand grow with m, and
        ports_floor grows with m, so no m at or above the ceiling is feasible.
        """
        def over(m: int) -> bool:
            return (not self.compute_ok(m) or not self.capacity_ok(m)
                    or self.ports_floor(m) >= self.blocks)

        if over(1):
            return 1
        hi = 2
        while not over(hi):
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if over(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def max_feasible(self) -> int:
        """Largest feasible m, scanning down from the ceiling; 0 if none."""
        for m in range(self.ceiling() - 1, 0, -1):
            if self.feasible(m):
                return m
        return 0

    def first_failure(self) -> int:
        """Last feasible m before the first infeasible one, scanning up from 1."""
        m = 1
        while self.feasible(m):
            m += 1
        return m - 1

    # --- latency -----------------------------------------------------------

    def t_mem(self) -> int:
        if self.on_chip:
            return 0
        bits = (4 * self.d * self.d + 2 * self.d * self.ffn) * self.wbits
        return math.ceil(bits / self.offchip_bw * self.freq)

    def latency(self, m: int, tp: int = 1, pp: int = 1, link: float = 0.0,
                eff: float = 1.0, multi: bool = False) -> dict:
        """Stage terms, initiation interval, binding term and total cycles."""
        mp, ms, mf = self.alloc(m)
        d, l = self.d, self.seq_len
        if self.phase == "prefill":
            qkv = l * d * d / (tp * mp)
            sdp = l * l * d / (tp * ms)
            ffn = l * d * self.ffn / (tp * mf)
        else:
            qkv = d * d / mp
            sdp = (self.lmax + 1) * d / ms
            ffn = d * self.ffn / mf
        terms = [qkv, sdp, ffn, float(self.t_mem())]
        if multi:
            comm = 0.0 if tp == 1 else l * d * self.abits / (eff * link) * self.freq
            terms.append(comm)
        ii = max(terms)
        binding = TERMS[terms.index(ii)]
        stages = pp * self.C
        iterations = cdiv(self.layers, stages)
        total = iterations * (qkv + stages * ii)
        return {"head_cycles": qkv, "ii_cycles": ii, "iterations": iterations,
                "total_cycles": total, "seconds": total / self.freq,
                "binding_term": binding}

    def bandwidth_required(self, m: int) -> float:
        mp, _, mf = self.alloc(m)
        parts = 4 * cdiv(mp, self.reuse) + 2 * cdiv(mf, self.reuse)
        return self.wbits * parts * self.freq * self.C


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# --- the acceptance test's random envelopes --------------------------------

BRAM_WIDTHS = [1, 2, 4, 9, 18, 36, 72]


def envelope(rng: random.Random) -> tuple[dict, dict, dict, dict, int]:
    """A small random (model, device, quant, workload, reuse), drawn in the
    order the program's acceptance test draws them, so its seeds name the
    same envelopes."""
    heads = rng.choice([1, 2, 4])
    d = heads * rng.randint(8, 64)
    model = {"name": "env", "num_layers": rng.randint(1, 8), "num_heads": heads,
             "hidden_size": d, "ffn_size": d * rng.randint(1, 4),
             "max_seq_len": rng.randint(16, 256)}
    quant = {"weight_bits": rng.choice([2, 4, 8]), "activation_bits": 8,
             "pack_count": rng.choice([1, 2, 9]), "dsp_pack_factor": rng.choice([1, 2])}
    device = {"name": "env", "freq": 2e8, "dsp_count": rng.randint(20, 2000),
              "mac_per_dsp_base": 1.0, "sram_block_capacity": 18432,
              "sram_block_count": rng.randint(100, 4000), "sram_widths": BRAM_WIDTHS,
              "sram_total": rng.randint(10**6, 3 * 10**8),
              "dram_total": rng.randint(10**8, 10**10), "offchip_bandwidth": 4e11}
    workload = {"phase": rng.choice(["prefill", "decode"]), "seq_len": rng.randint(1, 64),
                "layers_on_chip": rng.randint(1, 3),
                # the program's Residency enum lists on_chip first
                "weights_resident": rng.choice(["on_chip", "off_chip"])}
    return model, device, quant, workload, rng.choice([4, 8])
