"""Multi-device extension: link parsing, all-gather cost, sharded latency."""

import math

import pytest
from hypothesis import given, strategies as st

from spatialperf import (
    Binding,
    InvalidValueError,
    MissingFieldError,
    ParallelismPlan,
    Phase,
    PhaseWorkload,
    UnknownFieldError,
    balanced_allocation,
    buffer_plan,
    comm_time,
    get_device,
    get_model,
    get_quant,
    load_parallelism_plan,
    multi_prefill_latency,
    parse_bandwidth,
    prefill_latency,
    scale_memory_constraints,
)


class TestParseBandwidth:
    @pytest.mark.parametrize("text,bits", [
        ("100 Gb/s", 100e9),
        ("100Gb/s", 100e9),
        ("12.5 GB/s", 100e9),
        ("1 Tb/s", 1e12),
        ("600 Mb/s", 600e6),
        ("8 kB/s", 64e3),
        ("512 b/s", 512.0),
    ])
    def test_units(self, text, bits):
        assert parse_bandwidth(text) == pytest.approx(bits)

    def test_numbers_pass_through(self):
        assert parse_bandwidth(25e9) == 25e9
        assert parse_bandwidth(1024) == 1024.0
        assert parse_bandwidth("1e15") == 1e15

    @pytest.mark.parametrize("text", ["fast", "100 Gb", "Gb/s", "100 Pb/s", ""])
    def test_rejects_garbage(self, text):
        with pytest.raises(InvalidValueError):
            parse_bandwidth(text)


class TestParallelismPlan:
    def test_defaults_to_single_device(self):
        plan = ParallelismPlan()
        assert plan.tp_size == 1 and plan.pp_size == 1

    def test_bandwidth_string_normalized(self):
        plan = ParallelismPlan(tp_size=2, link_bandwidth="100 Gb/s", efficiency=0.8)
        assert plan.link_bandwidth == 100e9

    def test_tensor_parallel_needs_link(self):
        with pytest.raises(InvalidValueError):
            ParallelismPlan(tp_size=2)

    def test_efficiency_range(self):
        with pytest.raises(InvalidValueError):
            ParallelismPlan(tp_size=2, link_bandwidth=1e9, efficiency=0.0)
        with pytest.raises(InvalidValueError):
            ParallelismPlan(tp_size=2, link_bandwidth=1e9, efficiency=1.5)

    def test_document_loading(self):
        plan = load_parallelism_plan(
            {"tp_size": 4, "link_bandwidth": "25 GB/s", "efficiency": 0.9}
        )
        assert plan.tp_size == 4
        assert plan.link_bandwidth == 200e9

    def test_document_requires_tp_size(self):
        with pytest.raises(MissingFieldError):
            load_parallelism_plan({"pp_size": 2})

    def test_document_requires_efficiency_when_sharded(self):
        with pytest.raises(MissingFieldError):
            load_parallelism_plan({"tp_size": 2, "link_bandwidth": 1e9})

    def test_document_rejects_unknown_keys(self):
        with pytest.raises(UnknownFieldError):
            load_parallelism_plan({"tp_size": 1, "devices": 4})


class TestCommTime:
    def test_llama2_all_gather(self, llama2):
        plan = ParallelismPlan(tp_size=2, link_bandwidth=100e9, efficiency=0.5)
        seconds = comm_time(1024, llama2.hidden_size, 8, plan)
        assert seconds == pytest.approx(0.67108864e-3, rel=1e-12)

    def test_single_token(self, llama2):
        plan = ParallelismPlan(tp_size=2, link_bandwidth=100e9, efficiency=0.5)
        assert comm_time(1, llama2.hidden_size, 8, plan) == \
            pytest.approx(0.65536e-6, rel=1e-12)
        assert comm_time(1, llama2.hidden_size, 16, plan) == \
            pytest.approx(1.31072e-6, rel=1e-12)

    def test_single_device_is_free(self, llama2):
        assert comm_time(1024, llama2.hidden_size, 8, ParallelismPlan()) == 0.0

    @given(l=st.integers(1, 4096), mult=st.integers(2, 8))
    def test_linear_in_rows(self, l, mult):
        plan = ParallelismPlan(tp_size=2, link_bandwidth=50e9, efficiency=0.7)
        assert comm_time(mult * l, 4096, 8, plan) == \
            pytest.approx(mult * comm_time(l, 4096, 8, plan), rel=1e-12)

    def test_inverse_in_efficiency(self):
        half = ParallelismPlan(tp_size=2, link_bandwidth=50e9, efficiency=0.5)
        full = ParallelismPlan(tp_size=2, link_bandwidth=50e9, efficiency=1.0)
        assert comm_time(128, 1024, 8, half) == 2 * comm_time(128, 1024, 8, full)


class TestMultiDeviceLatency:
    def test_single_device_plan_is_identical(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=2)
        single = prefill_latency(gpt2, alloc, wl, u280, t_mem=100)
        multi = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280,
                                      ParallelismPlan(), t_mem=100)
        assert multi == single

    def test_two_shards_halve_latency(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=2)
        fat_link = ParallelismPlan(tp_size=2, link_bandwidth=math.inf, efficiency=1.0)
        one = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, ParallelismPlan())
        two = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, fat_link)
        assert two.seconds == one.seconds / 2
        assert two.total_cycles == one.total_cycles / 2

    def test_pipeline_stages_multiply_replication(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=2)
        plan = ParallelismPlan(pp_size=3)
        est = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, plan)
        assert est.iterations == math.ceil(gpt2.num_layers / (3 * 2))
        single = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, ParallelismPlan())
        assert est.seconds < single.seconds

    def test_overlapped_comm_is_free(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=2)
        fat = ParallelismPlan(tp_size=2, link_bandwidth=math.inf, efficiency=1.0)
        fast_enough = ParallelismPlan(tp_size=2, link_bandwidth=1e15, efficiency=1.0)
        assert (multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, fast_enough)
                == multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, fat))

    def test_slow_link_binds(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=2)
        thin = ParallelismPlan(tp_size=2, link_bandwidth=1e6, efficiency=1.0)
        est = multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, thin)
        assert est.binding_term is Binding.COMM
        fat = ParallelismPlan(tp_size=2, link_bandwidth=math.inf, efficiency=1.0)
        assert est.seconds > multi_prefill_latency(gpt2, alloc, w8a8, wl, u280,
                                                   fat).seconds

    def test_device_budget_capped_by_layers(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128, layers_on_chip=4)
        plan = ParallelismPlan(tp_size=4, pp_size=2,
                               link_bandwidth=1e12, efficiency=1.0)
        with pytest.raises(InvalidValueError):
            multi_prefill_latency(gpt2, alloc, w8a8, wl, u280, plan)

    def test_rejects_empty_prompt(self, gpt2, u280, w8a8):
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        with pytest.raises(InvalidValueError):
            multi_prefill_latency(gpt2, alloc, w8a8,
                                  PhaseWorkload(Phase.DECODE, 0), u280,
                                  ParallelismPlan())


class TestScaledBuffers:
    def test_gpt2_param_shards(self, gpt2, w8a8):
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128)
        alloc = balanced_allocation(256, gpt2, seq_len=128)
        plan = buffer_plan(gpt2, w8a8, wl, alloc)
        assert plan.s_param == 100_663_296
        halved = scale_memory_constraints(plan, 2)
        assert halved.s_param == 50_331_648
        assert halved.s_fifo == plan.s_fifo

    @given(tp=st.integers(1, 8))
    def test_shards_at_least_cover_demand(self, tp):
        model = get_model("gpt2")
        quant = get_quant("w8a8")
        wl = PhaseWorkload(Phase.PREFILL, seq_len=128)
        alloc = balanced_allocation(256, model, seq_len=128)
        plan = buffer_plan(model, quant, wl, alloc)
        shard = scale_memory_constraints(plan, tp)
        assert shard.s_param * tp >= plan.s_param
        assert shard.s_kv * tp >= plan.s_kv


class TestPlanInputChecks:
    @pytest.mark.parametrize("value", [float("nan"), "nan", " NaN "])
    def test_nan_bandwidth_rejected(self, value):
        with pytest.raises(InvalidValueError, match="NaN"):
            parse_bandwidth(value)

    def test_unparsable_magnitude_rejected(self):
        with pytest.raises(InvalidValueError, match="cannot parse"):
            parse_bandwidth("1e5e5 Gb/s")

    @pytest.mark.parametrize("efficiency", [float("nan"), float("inf")])
    def test_efficiency_rejected(self, efficiency):
        with pytest.raises(InvalidValueError):
            ParallelismPlan(tp_size=2, link_bandwidth=1e9, efficiency=efficiency)

    @pytest.mark.parametrize("doc", [
        {"tp_size": 2, "link_bandwidth": "1 Gb/s", "efficiency": "0.5"},
        {"tp_size": "2", "link_bandwidth": "1 Gb/s", "efficiency": 0.5},
        {"tp_size": 2.5, "link_bandwidth": "1 Gb/s", "efficiency": 0.5},
    ])
    def test_plan_document_types_checked(self, doc):
        with pytest.raises(InvalidValueError):
            load_parallelism_plan(doc)
