"""The bounded m search against a plain upward scan over _feasible.

search_max_m evaluates compute and capacity as one monotone ceiling and
ports through a per-search block-count probe.  These tests hold both pieces, and the
search built from them, to the reference evaluator on generated envelopes.
"""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from spatialperf import (
    InfeasibleError,
    PhaseWorkload,
    SpatialPerfError,
    balanced_allocation,
    check_ports,
    get_device,
    get_model,
    get_quant,
    search_max_m,
)
from spatialperf.cli import main
from spatialperf.demand import OperatorId
from spatialperf.estimate import (
    CONSTRAINT_FAMILIES,
    _feasible,
    _monotone_ceiling,
    _port_probe,
)
from test_acceptance import _random_envelope

FAMILY_SUBSETS = [subset for k in (1, 2, 3)
                  for subset in itertools.combinations(CONSTRAINT_FAMILIES, k)]


def reference_search(model, device, quant, wl, reuse, packed, families, stride,
                     tp_size, m_limit):
    """The unit-by-unit scan search_max_m must reproduce, result and errors."""
    def ok(m):
        return _feasible(m, model, device, quant, wl, reuse, packed, families, tp_size)

    last_good = 0
    m = 1
    while m <= m_limit:
        if not ok(m):
            break
        last_good = m
        m += stride
    else:
        raise SpatialPerfError(
            f"still feasible at m_limit={m_limit}; raise m_limit to search further"
        )
    if last_good == 0:
        raise InfeasibleError(
            f"m=1 already violates the {'/'.join(families)} constraints "
            f"on {device.name}"
        )
    for fine in range(last_good + 1, m):
        if not ok(fine):
            break
        last_good = fine
    return last_good


def outcome(search, *args, **kwargs):
    try:
        return "ok", search(*args, **kwargs)
    except SpatialPerfError as exc:
        return type(exc), str(exc)


reuse_maps = st.dictionaries(st.sampled_from(list(OperatorId)),
                             st.sampled_from([1, 2, 4, 8, 16]), max_size=8)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6),
       families=st.sampled_from(FAMILY_SUBSETS),
       packed=st.booleans(),
       tp_size=st.sampled_from([1, 2, 4]),
       reuse=st.one_of(st.none(), st.sampled_from([1, 4, 8, 16]), reuse_maps),
       stride=st.one_of(st.just(1), st.integers(2, 40)),
       m_limit=st.one_of(st.integers(0, 200), st.just(2500)))
# Envelopes on which ports are not monotone and the scan stops early.
@example(seed=924, families=CONSTRAINT_FAMILIES, packed=True, tp_size=1,
         reuse=None, stride=1, m_limit=1200)
@example(seed=1146, families=CONSTRAINT_FAMILIES, packed=True, tp_size=1,
         reuse=None, stride=3, m_limit=1200)
@example(seed=1285, families=("ports",), packed=True, tp_size=1,
         reuse=None, stride=1, m_limit=1200)
# The grid point after the compute ceiling is m_limit itself.
@example(seed=0, families=("compute",), packed=True, tp_size=1,
         reuse=None, stride=7, m_limit=197)
# An envelope on which m = 1 already fails.
@example(seed=53, families=CONSTRAINT_FAMILIES, packed=True, tp_size=1,
         reuse=None, stride=1, m_limit=2500)
def test_search_matches_reference_scan(seed, families, packed, tp_size, reuse,
                                       stride, m_limit):
    model, device, quant, wl, envelope_reuse = _random_envelope(random.Random(seed))
    if reuse is None:
        reuse = envelope_reuse
    args = (model, device, quant, wl)

    want = outcome(reference_search, *args, reuse, packed, families, stride,
                   tp_size, m_limit)
    got = outcome(search_max_m, *args, reuse=reuse, packed=packed, families=families,
                  stride=stride, tp_size=tp_size, m_limit=m_limit)
    assert got == want

    top = 1
    monotone = tuple(f for f in families if f != "ports")
    if m_limit >= 1 and _feasible(1, *args, reuse, packed, families, tp_size):
        top = _monotone_ceiling(*args, families, tp_size, m_limit)
        for m in range(1, min(top + 2, m_limit) + 1):
            if monotone:
                assert (m <= top) == _feasible(m, *args, reuse, packed, monotone,
                                               tp_size), m
    port_blocks = _port_probe(*args, reuse, packed, tp_size)
    for m in range(1, min(top, m_limit) + 3):
        alloc = balanced_allocation(m, model, max(1, wl.seq_len), reuse)
        ports = check_ports(model, alloc, quant, wl, device, packed, tp_size)
        assert port_blocks(m) == ports.blocks_required, m
        assert ports.ok == _feasible(m, *args, reuse, packed, ("ports",), tp_size), m


CAPACITY_ONLY = ("search-m", "--model", "gpt2", "--device", "u280", "--quant", "w4a8",
                 "--constraints", "capacity")


@pytest.mark.parametrize("weights", ["off_chip", "on_chip"])
def test_capacity_only_search_stops_at_m_limit_at_once(capsys, weights):
    """Capacity never binds below m_limit here, and the search need not scan
    a million points to say so."""
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*CAPACITY_ONLY, "--weights", weights])
    elapsed = time.perf_counter() - started
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err == ("error: still feasible at m_limit=1000000; "
                   "raise m_limit to search further\n")
    assert elapsed < 1.0


def test_capacity_only_search_returns_the_capacity_ceiling(capsys):
    """Where streamed tiles do fill the SRAM, capacity alone sets the answer."""
    with pytest.raises(SystemExit) as exc:
        main([*CAPACITY_ONLY, "--m-limit", "10000000"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    best = int(out.split()[1])
    assert "capacity constraint fails first" in out
    args = (get_model("gpt2"), get_device("u280"), get_quant("w4a8"),
            PhaseWorkload("prefill", seq_len=128))
    assert _feasible(best, *args, 8, True, ("capacity",), 1)
    assert not _feasible(best + 1, *args, 8, True, ("capacity",), 1)
