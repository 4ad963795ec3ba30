"""Compiled-vs-fallback contract of the exact-order event core.

``repro/gpusim/_event_core.py`` dispatches between the optional C
extension and the pure-Python loop.  The two must be **bit-identical**
on every observable — counters, cycles, and the recorded tape columns
— because engine results are digest-pinned and the compiled core must
never become a cache axis.  These tests fuzz that identity across all
compression modes and engines, pin the compacted tape round-trip
against the per-access oracle, and assert the tape-memory reduction over
the historical list-of-tuples representation.

When the extension is unavailable (or ``REPRO_NO_EXT=1``), the
equivalence tests skip and the fallback-only tests still run — CI
exercises both configurations.
"""

import json
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.cli import main
from repro.core.entry import TargetRatio
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.gpusim.vector_sim import (
    REFERENCE_LINK_GBPS,
    _replay_cycles,
    _replay_pack,
    _resolve_tape,
    _TAPE_MEMO,
    replay_links,
    run_vectorized,
)
from repro.gpusim import _event_core
from repro.gpusim.trace import Op
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot
from sim_oracle import Warp, kernel_trace, run_oracle

needs_ext = pytest.mark.skipif(
    not _event_core.compiled_active(),
    reason="compiled event core not active (build_ext or REPRO_NO_EXT=1)",
)

SMALL_TRACE = TraceConfig(
    sm_count=4,
    warps_per_sm=8,
    memory_instructions_per_warp=24,
    snapshot_config=SnapshotConfig(
        scale=1.0 / 16384, min_footprint_bytes=256 * 1024
    ),
)
SMALL_GPU = scaled_config(sm_count=4, warps_per_sm=8)

RESULT_FIELDS = (
    "cycles",
    "instructions",
    "l1_hit_rate",
    "l2_hit_rate",
    "dram_bytes",
    "link_bytes",
    "metadata_hit_rate",
    "buddy_fills",
    "demand_fills",
)


def small_state(name, mode, trace):
    if mode is CompressionMode.IDEAL:
        return CompressionState.ideal(trace.footprint_bytes)
    snapshot = layout_snapshot(name, SMALL_TRACE)
    selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
    return CompressionState.from_snapshot(snapshot, selection, mode)


def fuzz_trace(seed, n=1024):
    """Random unit trace incl. degenerate 0-sector and 0-cycle rows."""
    rng = np.random.default_rng(seed)
    warps = []
    for w in range(8):
        instructions = []
        for _ in range(96):
            kind = rng.integers(0, 3)
            if kind == 0:
                instructions.append(
                    (int(Op.COMPUTE), int(rng.integers(0, 20)), 0)
                )
            else:
                address = int(rng.integers(0, n * 128))
                sectors = int(rng.integers(0, 5))
                op = Op.LOAD if kind == 1 else Op.STORE
                instructions.append((int(op), address, sectors))
        warps.append(
            Warp(w % 2, instructions, max_outstanding=int(rng.integers(1, 6)))
        )
    return kernel_trace("fuzz", warps, n * 128), rng


def fuzz_state(mode, rng, trace, n=1024):
    if mode is CompressionMode.IDEAL:
        return CompressionState.ideal(trace.footprint_bytes)
    sectors = rng.integers(1, 5, n).astype(np.int8)
    budgets = rng.integers(0, 5, n).astype(np.int8)
    zero_fit = rng.random(n) < 0.2
    return CompressionState(mode, sectors, budgets, zero_fit)


def run_both_cores(trace, state, config):
    """One vectorized run per core; returns (compiled, python) results."""
    compiled = run_vectorized(trace, state, config)
    with _event_core.force_python():
        fallback = run_vectorized(trace, state, config)
    return compiled, fallback


# ---------------------------------------------------------------------------
# Dispatch plumbing.
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_describe_shape(self):
        info = _event_core.describe()
        assert info["event_core"] in ("compiled", "python")
        assert set(info) == {
            "event_core",
            "extension_available",
            "extension_abi",
            "extension_stale",
            "forced_python",
            "detail",
        }
        assert info["extension_abi"] == _event_core.EXT_ABI
        assert info["extension_stale"] is False

    @needs_ext
    def test_extension_abi_matches(self):
        assert _event_core._ext.ABI == _event_core.EXT_ABI

    @needs_ext
    def test_force_python_restores(self):
        assert _event_core.compiled_active()
        with _event_core.force_python():
            assert not _event_core.compiled_active()
            assert _event_core.describe()["event_core"] == "python"
        assert _event_core.compiled_active()


# ---------------------------------------------------------------------------
# Compiled == pure-Python, bit for bit.
# ---------------------------------------------------------------------------
@needs_ext
class TestCompiledMatchesPython:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzzed_unit_traces_all_modes(self, seed):
        """Fuzzed streams agree across cores — and with the per-access
        oracle, closing the mode x engine matrix."""
        trace, rng = fuzz_trace(seed)
        config = scaled_config(sm_count=2, warps_per_sm=4)
        for mode in CompressionMode:
            state = fuzz_state(mode, rng, trace)
            compiled, fallback = run_both_cores(trace, state, config)
            oracle = run_oracle(config, trace, state)
            for field in RESULT_FIELDS:
                value = getattr(compiled, field)
                assert value == getattr(fallback, field), field
                assert value == getattr(oracle, field), field

    def test_host_region_trace(self):
        footprint = 1 << 20
        stores = [(int(Op.STORE), footprint + 128 * i, 4) for i in range(64)]
        loads = [(int(Op.LOAD), footprint + 128 * i, 2) for i in range(32)]
        warps = [
            Warp(0, stores, max_outstanding=1),
            Warp(0, loads, max_outstanding=2),
        ]
        trace = kernel_trace("unit", warps, footprint, host_traffic_fraction=0.5)
        config = scaled_config(sm_count=1, warps_per_sm=2, link_gbps=50)
        compiled, fallback = run_both_cores(
            trace, CompressionState.ideal(footprint), config
        )
        assert compiled.link_bytes > 0
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field

    def test_partial_store_rmw_path(self):
        n = 4096
        instructions = [
            (int(Op.STORE), (i * 128) % (n * 128), 1) for i in range(512)
        ]
        warps = [Warp(0, instructions, max_outstanding=4)]
        trace = kernel_trace("unit", warps, n * 128)
        state = CompressionState(
            CompressionMode.BUDDY,
            np.full(n, 4, dtype=np.int8),
            np.full(n, 2, dtype=np.int8),
            np.zeros(n, dtype=bool),
        )
        config = scaled_config(sm_count=1, warps_per_sm=1)
        compiled, fallback = run_both_cores(trace, state, config)
        assert compiled.demand_fills > 0
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field

    @pytest.mark.parametrize("mode", list(CompressionMode))
    def test_recorded_tapes_are_column_identical(self, mode):
        """Both cores record byte-identical tape columns, and each
        core's replay of that tape gives the same cycles."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = small_state("VGG16", mode, trace)
        config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)

        _TAPE_MEMO.pop(trace, None)
        tape_c, result_c = _resolve_tape(trace, state, config, need_tape=True)
        _TAPE_MEMO.pop(trace, None)
        with _event_core.force_python():
            tape_p, result_p = _resolve_tape(
                trace, state, config, need_tape=True
            )
        _TAPE_MEMO.pop(trace, None)

        assert result_c.cycles == result_p.cycles
        assert tape_c.event_count == tape_p.event_count
        for col_c, col_p in zip(tape_c.cols, tape_p.cols):
            np.testing.assert_array_equal(np.asarray(col_c), np.asarray(col_p))

        off_link = SMALL_GPU.with_link(50.0)
        replay_c = _replay_cycles(tape_c, [off_link])
        with _event_core.force_python():
            replay_p = _replay_cycles(tape_p, [off_link])
        assert replay_c == replay_p

    def test_relaxed_engine_end_to_end(self):
        trace = generate_trace("354.cg", SMALL_TRACE)
        state = small_state("354.cg", CompressionMode.BUDDY, trace)
        config = SMALL_GPU.with_link(50.0)
        _TAPE_MEMO.pop(trace, None)
        compiled = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        _TAPE_MEMO.pop(trace, None)
        with _event_core.force_python():
            fallback = DependencyDrivenSimulator(config, "relaxed").run(
                trace, state
            )
        _TAPE_MEMO.pop(trace, None)
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field


def record_small_tape(benchmark="VGG16", mode=CompressionMode.BUDDY):
    trace = generate_trace(benchmark, SMALL_TRACE)
    state = small_state(benchmark, mode, trace)
    config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)
    _TAPE_MEMO.pop(trace, None)
    tape, result = _resolve_tape(trace, state, config, need_tape=True)
    _TAPE_MEMO.pop(trace, None)
    return trace, state, config, tape, result


# ---------------------------------------------------------------------------
# Tape compaction (runs on whichever core is active).
# ---------------------------------------------------------------------------
class TestTapeCompaction:
    def record_tape(self, benchmark="VGG16", mode=CompressionMode.BUDDY):
        return record_small_tape(benchmark, mode)

    def test_round_trip_replay_matches_oracle(self):
        """record -> compact arrays -> replay == the per-access oracle
        at the recording link (exactly, not within tolerance)."""
        trace, state, config, tape, result = self.record_tape()
        oracle = run_oracle(config, trace, state)
        (cycles,) = _replay_cycles(tape, [config])
        assert cycles == oracle.cycles == result.cycles

    def test_tape_stores_columns_not_tuples(self):
        _trace, _state, _config, tape, _result = self.record_tape()
        assert not hasattr(tape, "events")
        assert len(tape.cols) == 12
        assert all(isinstance(col, np.ndarray) for col in tape.cols)
        kinds = np.asarray(tape.cols[0])
        assert kinds.dtype == np.int8
        assert tape.event_count == kinds.shape[0] > 0
        # One warp-end row per warp, in-tape.
        assert int((kinds == 8).sum()) == tape.warp_count

    def test_tape_memory_reduced_vs_tuple_events(self):
        """Column storage stays below a strict *lower bound* on the
        historical ``events: list[tuple]`` representation.

        The bound counts only the list slot and the bare tuple object
        per event (at the arity the old tape used for that kind), and
        ignores the boxed float payloads the tuples also retained —
        the real historical footprint was larger still.  Uses the
        Fig. 11 default trace geometry — the longest tape the study
        records.
        """
        config = scaled_config()
        trace_config = TraceConfig(
            sm_count=config.sm_count, warps_per_sm=config.warps_per_sm
        )
        trace = generate_trace("VGG16", trace_config)
        snapshot = layout_snapshot("VGG16", trace_config)
        selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
        state = CompressionState.from_snapshot(
            snapshot, selection, CompressionMode.BUDDY
        )
        _TAPE_MEMO.pop(trace, None)
        tape, _result = _resolve_tape(
            trace, state, config.with_link(REFERENCE_LINK_GBPS),
            need_tape=True,
        )
        _TAPE_MEMO.pop(trace, None)
        # kind -> historical tuple arity, from the pre-compaction tape:
        # (2,w,sm,serv,ch,mmiss,mserv,mch,bnum,wbserv,wbch,wbbnum) etc.
        arity = {0: 4, 1: 4, 2: 12, 3: 4, 4: 3, 5: 6, 6: 12, 7: 4, 8: 2}
        kinds = np.asarray(tape.cols[0])
        counts = {k: int((kinds == k).sum()) for k in arity}
        list_slot = 8
        lower_bound = sum(
            count * (sys.getsizeof(tuple(range(arity[k]))) + list_slot)
            for k, count in counts.items()
        )
        assert tape.event_count > 50_000  # a real recording, not a toy
        assert tape.nbytes < lower_bound
        # ~57 B/event for the 12-column pack; pin against regressions.
        assert tape.nbytes / tape.event_count <= 60

    def test_fallback_and_compiled_agree_on_nbytes_shape(self):
        """`nbytes`/`event_count` report the same tape geometry on
        either core (columns differ only in memory provenance)."""
        _trace, _state, _config, tape, _result = self.record_tape(
            benchmark="354.cg"
        )
        assert tape.nbytes == sum(int(c.nbytes) for c in tape.cols)
        per_event = tape.nbytes / tape.event_count
        assert 40 <= per_event <= 60


# ---------------------------------------------------------------------------
# Batched multi-link replay (runs on whichever core is active; the
# compiled-vs-fallback identity tests additionally need the extension).
# ---------------------------------------------------------------------------
def replay_packs(tape, config, links):
    """The (iscalars, fscalars_list) a batched replay of ``links`` uses."""
    iscalars = (tape.warp_count, tape.sm_count, tape.channels)
    packs = [_replay_pack(tape, config.with_link(link)) for link in links]
    return iscalars, packs


#: A wide 8-link sweep around the reference interconnect.
WIDE_LINKS = (25.0, 50.0, 75.0, 100.0, 200.0, 300.0, 600.0, 900.0)


class TestBatchedReplay:
    LINKS = (25.0, 50.0, 120.0, REFERENCE_LINK_GBPS, 300.0, 900.0)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_each_link_is_independent_of_the_batch(self, fallback):
        """replay_tape_many(packs) == [one-pack call per link], bit for
        bit, on the active core and on the pure-Python fallback."""
        _trace, _state, config, tape, _result = record_small_tape()
        off = [link for link in self.LINKS if link != REFERENCE_LINK_GBPS]
        iscalars, packs = replay_packs(tape, SMALL_GPU, off)
        with _event_core.force_python() if fallback else nullcontext():
            batched = _event_core.replay_tape_many(
                tape.cols, tape.warp_mlp, iscalars, packs
            )
            one_by_one = [
                _event_core.replay_tape_many(
                    tape.cols, tape.warp_mlp, iscalars, [pack]
                )[0]
                for pack in packs
            ]
        assert list(batched) == one_by_one

    def test_empty_pack_list_returns_empty(self):
        _trace, _state, _config, tape, _result = record_small_tape("354.cg")
        iscalars = (tape.warp_count, tape.sm_count, tape.channels)
        assert (
            tuple(_event_core.replay_tape_many(
                tape.cols, tape.warp_mlp, iscalars, []
            ))
            == ()
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replay_links_matches_serial_relaxed_loop(self, seed):
        """The batched engine front end is bit-identical to looping
        the one-link relaxed engine over ``config.with_link(link)``."""
        trace, rng = fuzz_trace(seed)
        state = fuzz_state(CompressionMode.BUDDY, rng, trace)
        config = scaled_config(sm_count=2, warps_per_sm=4)
        _TAPE_MEMO.pop(trace, None)
        batched = replay_links(trace, state, config, self.LINKS)
        serial = [
            DependencyDrivenSimulator(
                config.with_link(link), "relaxed"
            ).run(trace, state)
            for link in self.LINKS
        ]
        _TAPE_MEMO.pop(trace, None)
        for link, got, want in zip(self.LINKS, batched, serial):
            for field in RESULT_FIELDS:
                assert getattr(got, field) == getattr(want, field), (
                    link, field,
                )

    @needs_ext
    @pytest.mark.parametrize(
        "name, links",
        [
            ("VGG16", [link for link in LINKS if link != REFERENCE_LINK_GBPS]),
            ("VGG16", WIDE_LINKS),
            ("354.cg", WIDE_LINKS),
        ],
    )
    def test_compiled_and_fallback_batched_replays_agree(self, name, links):
        """Batched replay is identical across builds, link for link —
        the compiled core must never become a cache axis."""
        _trace, _state, config, tape, _result = record_small_tape(name)
        iscalars, packs = replay_packs(tape, SMALL_GPU, links)
        compiled = tuple(
            _event_core.replay_tape_many(
                tape.cols, tape.warp_mlp, iscalars, packs
            )
        )
        with _event_core.force_python():
            fallback = tuple(
                _event_core.replay_tape_many(
                    tape.cols, tape.warp_mlp, iscalars, packs
                )
            )
        assert compiled == fallback


# ---------------------------------------------------------------------------
# repro doctor.
# ---------------------------------------------------------------------------
class TestDoctorCLI:
    def test_text_report(self, capsys, tmp_path):
        assert main(["doctor", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "event core:" in out
        assert ("compiled" in out) or ("python" in out)
        assert "numpy:" in out
        assert str(tmp_path) in out
        assert "tape cache:" in out

    def test_json_report(self, capsys, tmp_path):
        assert main(["doctor", "--json", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["event_core"]["event_core"] in ("compiled", "python")
        assert info["event_core"]["extension_abi"] == _event_core.EXT_ABI
        assert info["numpy"] == np.__version__
        assert info["cache"]["root"] == str(tmp_path)
        from repro.gpusim.vector_sim import TAPE_FORMAT_VERSION

        assert info["tape"] == {
            "format_version": TAPE_FORMAT_VERSION,
            "entries": 0,
            "bytes": 0,
        }

    def test_doctor_reflects_active_core(self, capsys, tmp_path):
        expected = (
            "compiled" if _event_core.compiled_active() else "python"
        )
        assert main(["doctor", "--json", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["event_core"]["event_core"] == expected
