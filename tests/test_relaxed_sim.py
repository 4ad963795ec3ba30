"""The relaxed engine's contract against the per-access oracle.

``engine="relaxed"`` freezes the exact event order of the reference
interconnect (150 GB/s) and replays it at every other link bandwidth.
These tests pin the three-part contract documented in
``docs/engines.md``:

* **exact at the reference interconnect** — bit-identical counters
  and cycles to the oracle on every benchmark x mode point;
* **tolerance-pinned elsewhere** — traffic counters within
  ``RELAXED_COUNTER_TOLERANCE`` and cycles within
  ``RELAXED_CYCLE_TOLERANCE`` of the oracle at every off-reference
  link, with the relaxed counters link-invariant by construction;
* **exact where order is provably immaterial** — single-warp traces,
  warps sharing no memory-system resources, and IDEAL-mode traces
  without host traffic are bit-identical at *every* link.

Plus the ``verify=`` escape hatch, the tape-reuse mechanics, the
columnar ports of the cycle-stepped reference and the metadata study,
and a golden relaxed Fig. 11 digest.
"""

import numpy as np
import pytest

from repro.core.entry import TargetRatio
from repro.engine import ExperimentRunner, result_digest
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import ENGINES, DependencyDrivenSimulator, SimResult
from repro.gpusim.vector_sim import (
    REFERENCE_LINK_GBPS,
    RELAXED_COUNTER_TOLERANCE,
    RELAXED_CYCLE_TOLERANCE,
    RelaxedVerificationError,
    check_relaxed_contract,
    _replay_cycles,
    _resolve_tape,
    _TAPE_MEMO,
    _verify_selected,
)
from repro.gpusim.reference import CycleSteppedReference
from repro.gpusim.trace import Op
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot
from sim_oracle import Warp, decode, kernel_trace, run_oracle

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
    "benchmark",
    "mode",
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
COUNTER_FIELDS = ("dram_bytes", "link_bytes", "buddy_fills", "demand_fills")


def small_state(name, mode, trace):
    if mode is CompressionMode.IDEAL:
        return CompressionState.ideal(trace.footprint_bytes)
    snapshot = layout_snapshot(name, SMALL_TRACE)
    selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
    return CompressionState.from_snapshot(snapshot, selection, mode)


# ---------------------------------------------------------------------------
# Engine selection plumbing.
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_relaxed_is_registered(self):
        assert "relaxed" in ENGINES

    def test_dispatch(self):
        trace = generate_trace("370.bt", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        relaxed = DependencyDrivenSimulator(SMALL_GPU, "relaxed").run(
            trace, state
        )
        oracle = run_oracle(SMALL_GPU, trace, state)
        assert relaxed.cycles == oracle.cycles

    def test_verify_requires_relaxed_engine(self):
        with pytest.raises(ValueError, match="already exact"):
            DependencyDrivenSimulator(SMALL_GPU, "vectorized", verify=0.5)
        DependencyDrivenSimulator(SMALL_GPU, "relaxed", verify=1.0)

    @pytest.mark.parametrize("verify", [-0.5, 1.5])
    def test_verify_must_be_a_fraction(self, verify):
        with pytest.raises(ValueError, match="fraction"):
            DependencyDrivenSimulator(SMALL_GPU, "relaxed", verify=verify)

    def test_legacy_is_no_engine(self):
        """The per-access oracle lives with the tests, not behind an
        engine name; the error names the two engines there are."""
        with pytest.raises(ValueError, match="'vectorized', 'relaxed'"):
            DependencyDrivenSimulator(SMALL_GPU, "legacy")


# ---------------------------------------------------------------------------
# The pinned tolerances are the only contract an off-reference relaxed
# result is checked against.
# ---------------------------------------------------------------------------
def synthetic_result(**fields):
    values = dict(
        benchmark="VGG16",
        mode="buddy",
        cycles=10000.0,
        instructions=1000,
        l1_hit_rate=0.5,
        l2_hit_rate=0.5,
        dram_bytes=10**6,
        link_bytes=10**6,
        metadata_hit_rate=0.9,
        buddy_fills=10**5,
        demand_fills=10**5,
    )
    values.update(fields)
    return SimResult(**values)


class TestPinnedTolerances:
    def test_cycle_tolerance_binds(self):
        oracle = synthetic_result()
        inside = 1 + RELAXED_CYCLE_TOLERANCE / 2
        outside = 1 + 5 * RELAXED_CYCLE_TOLERANCE
        check_relaxed_contract(
            synthetic_result(cycles=oracle.cycles * inside), oracle, exact=False
        )
        with pytest.raises(RelaxedVerificationError, match="cycles"):
            check_relaxed_contract(
                synthetic_result(cycles=oracle.cycles * outside),
                oracle,
                exact=False,
            )

    @pytest.mark.parametrize("field", COUNTER_FIELDS)
    def test_counter_tolerance_binds(self, field):
        oracle = synthetic_result()
        want = getattr(oracle, field)
        inside = round(want * (1 + RELAXED_COUNTER_TOLERANCE / 2))
        outside = round(want * (1 + 5 * RELAXED_COUNTER_TOLERANCE))
        check_relaxed_contract(
            synthetic_result(**{field: inside}), oracle, exact=False
        )
        with pytest.raises(RelaxedVerificationError, match=field):
            check_relaxed_contract(
                synthetic_result(**{field: outside}), oracle, exact=False
            )


# ---------------------------------------------------------------------------
# The contract across modes, benchmarks and links.
# ---------------------------------------------------------------------------
class TestRelaxedContract:
    @pytest.mark.parametrize(
        "name", ["VGG16", "354.cg", "356.sp", "FF_HPGMG", "FF_Lulesh"]
    )
    @pytest.mark.parametrize("mode", list(CompressionMode))
    def test_exact_at_reference_interconnect(self, name, mode):
        """Bit-identical to the oracle at the 150 GB/s reference."""
        trace = generate_trace(name, SMALL_TRACE)
        state = small_state(name, mode, trace)
        config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)
        oracle = run_oracle(config, trace, state)
        relaxed = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        for field in RESULT_FIELDS:
            assert getattr(oracle, field) == getattr(relaxed, field), field

    @pytest.mark.parametrize(
        "name", ["VGG16", "354.cg", "356.sp", "FF_HPGMG", "FF_Lulesh"]
    )
    @pytest.mark.parametrize("mode", list(CompressionMode))
    @pytest.mark.parametrize("link", [50.0, 200.0])
    def test_tolerances_off_reference(self, name, mode, link):
        """Counters and cycles stay within the pinned tolerances, and
        the counters equal the reference-interconnect oracle exactly
        (they are link-invariant by construction)."""
        trace = generate_trace(name, SMALL_TRACE)
        state = small_state(name, mode, trace)
        config = SMALL_GPU.with_link(link)
        relaxed = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        oracle = run_oracle(config, trace, state)
        check_relaxed_contract(relaxed, oracle, exact=False)
        reference_oracle = run_oracle(
            SMALL_GPU.with_link(REFERENCE_LINK_GBPS), trace, state
        )
        for field in COUNTER_FIELDS:
            assert getattr(relaxed, field) == getattr(
                reference_oracle, field
            ), field

    def test_observed_margins_are_comfortable(self):
        """The pinned tolerances carry real headroom: the worst
        observed deviation on the grid is well under the bound."""
        worst_cycles = 0.0
        worst_counters = 0.0
        for name in ("VGG16", "354.cg", "FF_HPGMG"):
            trace = generate_trace(name, SMALL_TRACE)
            state = small_state(name, CompressionMode.BUDDY, trace)
            for link in (50.0, 100.0, 200.0):
                config = SMALL_GPU.with_link(link)
                relaxed = DependencyDrivenSimulator(config, "relaxed").run(
                    trace, state
                )
                oracle = run_oracle(config, trace, state)
                worst_cycles = max(
                    worst_cycles,
                    abs(relaxed.cycles - oracle.cycles) / oracle.cycles,
                )
                for field in COUNTER_FIELDS:
                    want = getattr(oracle, field)
                    if want:
                        worst_counters = max(
                            worst_counters,
                            abs(getattr(relaxed, field) - want) / want,
                        )
        assert worst_cycles <= RELAXED_CYCLE_TOLERANCE
        assert worst_counters <= RELAXED_COUNTER_TOLERANCE


# ---------------------------------------------------------------------------
# Exactness where order is provably immaterial.
# ---------------------------------------------------------------------------
class TestProvableExactness:
    @pytest.mark.parametrize("mode", list(CompressionMode))
    @pytest.mark.parametrize("link", [50.0, 100.0, 150.0, 200.0])
    def test_single_warp_traces_are_exact_everywhere(self, mode, link):
        """One warp, one schedule: no arbitration for the relaxation
        to perturb, so every link point is bit-identical."""
        rng = np.random.default_rng(5)
        n = 512
        instructions = []
        for _ in range(160):
            kind = rng.integers(0, 3)
            if kind == 0:
                instructions.append(
                    (int(Op.COMPUTE), int(rng.integers(1, 12)), 0)
                )
            else:
                op = Op.LOAD if kind == 1 else Op.STORE
                instructions.append(
                    (
                        int(op),
                        int(rng.integers(0, n)) * 128,
                        int(rng.integers(1, 5)),
                    )
                )
        trace = kernel_trace(
            "unit", [Warp(0, instructions, max_outstanding=2)], n * 128
        )
        if mode is CompressionMode.IDEAL:
            state = CompressionState.ideal(trace.footprint_bytes)
        else:
            state = CompressionState(
                mode,
                rng.integers(1, 5, n).astype(np.int8),
                rng.integers(0, 5, n).astype(np.int8),
                rng.random(n) < 0.2,
            )
        config = scaled_config(sm_count=1, warps_per_sm=1).with_link(link)
        oracle = run_oracle(config, trace, state)
        relaxed = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        for field in RESULT_FIELDS:
            assert getattr(oracle, field) == getattr(relaxed, field), field

    @pytest.mark.parametrize("link", [50.0, 150.0, 200.0])
    def test_ideal_mode_without_host_traffic_is_exact(self, link):
        """IDEAL-mode traces never touch the interconnect, so the
        frozen reference-link order *is* the oracle's order at every
        link bandwidth."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        config = SMALL_GPU.with_link(link)
        oracle = run_oracle(config, trace, state)
        relaxed = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        for field in RESULT_FIELDS:
            assert getattr(oracle, field) == getattr(relaxed, field), field

    @pytest.mark.parametrize("link", [50.0, 200.0])
    def test_non_contending_warps_are_exact(self, link):
        """Warps on distinct SMs touching disjoint address ranges
        (distinct L1s, L2 sets, DRAM channels and banks) commute, so
        the relaxed schedule is timing-identical to the oracle's."""
        config = scaled_config(sm_count=2, warps_per_sm=1).with_link(link)
        # Two warps, each striding its own half of the address space;
        # interleaved channel/set parity keeps every resource disjoint.
        warps = []
        for w in range(2):
            instructions = []
            for i in range(64):
                address = (i * config.dram_channels * 2 + w) * 128
                instructions.append((int(Op.LOAD), address, 4))
                instructions.append((int(Op.COMPUTE), 3, 0))
            warps.append(Warp(w, instructions, max_outstanding=2))
        trace = kernel_trace("unit", warps, 1 << 24)
        state = CompressionState.ideal(trace.footprint_bytes)
        oracle = run_oracle(config, trace, state)
        relaxed = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        for field in RESULT_FIELDS:
            assert getattr(oracle, field) == getattr(relaxed, field), field


# ---------------------------------------------------------------------------
# Tape mechanics: recording, replay, reuse.
# ---------------------------------------------------------------------------
class TestTapeMechanics:
    def test_replay_at_reference_is_bit_identical(self):
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = small_state("VGG16", CompressionMode.BUDDY, trace)
        config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)
        tape, reference = _resolve_tape(trace, state, config, need_tape=True)
        assert _replay_cycles(tape, [config]) == (reference.cycles,)

    def test_one_recording_serves_the_link_sweep(self):
        trace = generate_trace("354.cg", SMALL_TRACE)
        state = small_state("354.cg", CompressionMode.BUDDY, trace)
        for link in (50.0, 100.0, 150.0, 200.0):
            DependencyDrivenSimulator(SMALL_GPU.with_link(link), "relaxed").run(
                trace, state
            )
        assert len(_TAPE_MEMO[trace]) == 1

    def test_reference_only_runs_record_no_tape(self):
        """A point only ever simulated at the reference interconnect
        costs what a vectorized run costs: no tape is recorded or
        retained until some other link actually needs one."""
        trace = generate_trace("356.sp", SMALL_TRACE)
        state = small_state("356.sp", CompressionMode.BUDDY, trace)
        reference_config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)
        DependencyDrivenSimulator(reference_config, "relaxed").run(
            trace, state
        )
        ((_, tape, _result),) = _TAPE_MEMO[trace].values()
        assert tape is None
        # The first off-reference run upgrades the memo in place.
        off = DependencyDrivenSimulator(
            SMALL_GPU.with_link(50.0), "relaxed"
        ).run(trace, state)
        ((_, tape, result),) = _TAPE_MEMO[trace].values()
        assert tape is not None
        assert len(_TAPE_MEMO[trace]) == 1
        for field in COUNTER_FIELDS:
            assert getattr(off, field) == getattr(result, field)

    def test_counters_are_link_invariant(self):
        trace = generate_trace("354.cg", SMALL_TRACE)
        state = small_state("354.cg", CompressionMode.BUDDY, trace)
        results = [
            DependencyDrivenSimulator(
                SMALL_GPU.with_link(link), "relaxed"
            ).run(trace, state)
            for link in (50.0, 100.0, 150.0, 200.0)
        ]
        for field in COUNTER_FIELDS + (
            "l1_hit_rate", "l2_hit_rate", "metadata_hit_rate"
        ):
            values = {getattr(result, field) for result in results}
            assert len(values) == 1, field

    def test_cycles_do_respond_to_the_link(self):
        """The replay is a real timing model, not a constant: slower
        links stretch buddy-bound kernels."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = small_state("VGG16", CompressionMode.BUDDY, trace)
        slow = DependencyDrivenSimulator(
            SMALL_GPU.with_link(25.0), "relaxed"
        ).run(trace, state)
        fast = DependencyDrivenSimulator(
            SMALL_GPU.with_link(200.0), "relaxed"
        ).run(trace, state)
        assert slow.cycles > fast.cycles


class TestPlannedTapeRecording:
    def test_cacheless_planned_sweep_records_each_tape_once(self):
        """Stage 1 reads the tapes stage 0 recorded — more of them than
        any in-memory LRU holds — instead of recording them again."""
        from repro.core.profiler import clear_profile_cache
        from repro.engine.planner import execute_plan, plan
        from repro.gpusim.vector_sim import tape_recording_count
        from repro.workloads.catalog import ALL_BENCHMARKS

        benchmarks = tuple(b.name for b in ALL_BENCHMARKS)[:10]
        requests = [
            (
                "perf.fig11",
                {
                    "benchmarks": benchmarks,
                    "config": SMALL_GPU,
                    "trace_config": SMALL_TRACE,
                    "link_sweep": (50.0, 150.0),
                    "profile_config": SnapshotConfig(scale=2.0**-15),
                    "engine": "relaxed",
                    "verify": 0.0,
                },
            )
        ]
        clear_profile_cache()
        runner = ExperimentRunner()
        sweep_plan = plan(requests, runner)
        tapes = [
            node for node in sweep_plan.shared.values()
            if node.kind == "tape" and node.scheduled
        ]
        assert len(tapes) == len(benchmarks)
        before = tape_recording_count()
        result = execute_plan(sweep_plan, runner)
        recorded = tape_recording_count() - before
        assert recorded == result.execution.tape_recordings == len(benchmarks)


# ---------------------------------------------------------------------------
# The verify= escape hatch.
# ---------------------------------------------------------------------------
class TestVerifyEscapeHatch:
    def test_verify_every_run_passes_on_the_grid(self):
        for name in ("VGG16", "354.cg"):
            trace = generate_trace(name, SMALL_TRACE)
            for mode in CompressionMode:
                state = small_state(name, mode, trace)
                for link in (50.0, 150.0):
                    DependencyDrivenSimulator(
                        SMALL_GPU.with_link(link), "relaxed", verify=1.0
                    ).run(trace, state)

    def test_sampling_is_deterministic(self):
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        config = SMALL_GPU.with_link(50.0)
        decisions = {
            _verify_selected(trace, state, config, 0.5) for _ in range(8)
        }
        assert len(decisions) == 1
        assert not _verify_selected(trace, state, config, 0.0)
        assert _verify_selected(trace, state, config, 1.0)

    def test_sampling_fraction_scales_coverage(self):
        """Across many design points, higher fractions check more."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        configs = [
            scaled_config(sm_count=s, warps_per_sm=w).with_link(link)
            for s in (2, 4, 8)
            for w in (4, 8, 16, 32)
            for link in (50.0, 100.0, 150.0, 200.0)
        ]
        hits = {
            fraction: sum(
                _verify_selected(trace, state, config, fraction)
                for config in configs
            )
            for fraction in (0.0, 0.25, 1.0)
        }
        assert hits[0.0] == 0
        assert 0 < hits[0.25] < len(configs)
        assert hits[1.0] == len(configs)

    def test_violation_raises(self, monkeypatch):
        """A tolerance breach surfaces as RelaxedVerificationError."""
        from repro.gpusim import vector_sim

        trace = generate_trace("354.cg", SMALL_TRACE)
        state = small_state("354.cg", CompressionMode.BUDDY, trace)
        config = SMALL_GPU.with_link(50.0)
        # The 50 GB/s point has a real (in-tolerance) deviation; with
        # the tolerance cranked to zero the cross-check must fire.
        monkeypatch.setattr(vector_sim, "RELAXED_CYCLE_TOLERANCE", 0.0)
        monkeypatch.setattr(vector_sim, "RELAXED_COUNTER_TOLERANCE", 0.0)
        with pytest.raises(RelaxedVerificationError):
            DependencyDrivenSimulator(config, "relaxed", 1.0).run(
                trace, state
            )

    @pytest.mark.parametrize("link", [50, 50.0])
    def test_sampling_keys_on_the_link_as_spelled(self, monkeypatch, link):
        """A one-link relaxed run samples on its config's bandwidth
        exactly as given: an int link is not widened to a float, whose
        ``repr`` (and therefore sample) would differ."""
        from repro.gpusim import vector_sim

        seen = []

        def spy(trace, state, config, fraction):
            seen.append(config.link.bandwidth_gbps)
            return False

        monkeypatch.setattr(vector_sim, "_verify_selected", spy)
        trace = generate_trace("354.cg", SMALL_TRACE)
        state = small_state("354.cg", CompressionMode.BUDDY, trace)
        DependencyDrivenSimulator(
            SMALL_GPU.with_link(link), "relaxed", 0.5
        ).run(trace, state)
        assert [repr(value) for value in seen] == [repr(link)]

    def test_verify_plumbs_through_the_perf_study(self):
        """`perf.fig11` under `--engine relaxed:verify=1.0` really
        cross-checks: the sweep completes (contract holds) and the
        parameter is a registered cache axis rather than a silent
        no-op."""
        from repro.cli import _engine_params
        from repro.engine import get_experiment

        assert "verify" in get_experiment("perf.fig11").defaults()
        result = ExperimentRunner().run(
            "perf.fig11",
            {
                "benchmarks": ("VGG16",),
                "trace_config": SMALL_TRACE,
                "link_sweep": (50.0, 150.0),
                "profile_config": SnapshotConfig(scale=1.0 / 65536),
                **_engine_params("relaxed:verify=1.0"),
            },
        )
        assert result.per_benchmark[0].benchmark == "VGG16"

    def test_verify_cli_flag_maps_to_the_experiment(self):
        """`repro run perf.fig11 --engine relaxed:verify=0.5` sets
        both parameters; non-engine experiments warn instead."""
        from repro.cli import _experiment_params, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "perf.fig11", "--engine", "relaxed:verify=0.5"]
        )
        params = _experiment_params("perf.fig11", args)
        assert params["engine"] == "relaxed"
        assert params["verify"] == 0.5
        args = parser.parse_args(
            ["run", "compression.fig7", "--engine", "relaxed:verify=1"]
        )
        assert "verify" not in _experiment_params("compression.fig7", args)

    @pytest.mark.parametrize(
        "spec", ["vectorized:verify=1", "relaxed:tolerance=0.02", "warp"]
    )
    def test_cli_rejects_specs_cached_studies_cannot_take(self, spec, capsys):
        """The exact engine would reject verify deep inside every
        point, tolerance is no option and ``warp`` no engine: all are
        usage errors carrying the ``--engine`` type's own message."""
        import argparse

        from repro.cli import _engine_params, main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "perf.fig11", "--engine", spec, "--no-cache"])
        assert excinfo.value.code == 2
        with pytest.raises(argparse.ArgumentTypeError) as expected:
            _engine_params(spec)
        assert str(expected.value) in capsys.readouterr().err

    def test_contract_checker_rejects_divergence(self):
        trace = generate_trace("VGG16", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        config = SMALL_GPU.with_link(REFERENCE_LINK_GBPS)
        result = DependencyDrivenSimulator(config, "relaxed").run(
            trace, state
        )
        from dataclasses import replace

        forged = replace(result, dram_bytes=result.dram_bytes + 1)
        with pytest.raises(RelaxedVerificationError):
            check_relaxed_contract(forged, result, exact=True)
        forged = replace(
            result, cycles=result.cycles * (1 + 10 * RELAXED_CYCLE_TOLERANCE)
        )
        with pytest.raises(RelaxedVerificationError):
            check_relaxed_contract(forged, result, exact=False)


# ---------------------------------------------------------------------------
# Columnar ports: the cycle-stepped reference and the metadata study
# read the trace columns directly.
# ---------------------------------------------------------------------------
class TestColumnarPorts:
    def test_reference_runs_columnar_native(self):
        trace = generate_trace("370.bt", SMALL_TRACE)
        result = CycleSteppedReference(
            scaled_config(sm_count=4, warps_per_sm=8)
        ).run(trace, CompressionState.ideal(trace.footprint_bytes))
        assert result.cycles > 0

    def test_reference_is_representation_independent(self):
        """Columnar and tuple-built traces simulate identically."""
        config = scaled_config(sm_count=2, warps_per_sm=4)
        trace_config = TraceConfig(
            sm_count=2,
            warps_per_sm=4,
            memory_instructions_per_warp=12,
            snapshot_config=SMALL_TRACE.snapshot_config,
        )
        columnar = generate_trace("VGG16", trace_config)
        rebuilt = kernel_trace(
            columnar.benchmark,
            decode(columnar),
            footprint_bytes=columnar.footprint_bytes,
            allocation_ranges=columnar.allocation_ranges,
            host_traffic_fraction=columnar.host_traffic_fraction,
        )
        state = CompressionState.ideal(columnar.footprint_bytes)
        a = CycleSteppedReference(config).run(columnar, state)
        b = CycleSteppedReference(config).run(rebuilt, state)
        assert a == b

    def test_metadata_stream_is_columnar_native(self):
        from repro.analysis.metadata_study import metadata_access_stream

        config = TraceConfig(
            snapshot_config=SnapshotConfig(scale=1.0 / 2048)
        )
        stream = metadata_access_stream("VGG16", config)
        assert stream.size  # non-empty

    def test_metadata_stream_matches_tuple_interleaving(self):
        """The columnar derivation reproduces the historical
        per-warp round-robin order exactly."""
        from repro.analysis.metadata_study import metadata_access_stream

        config = TraceConfig(
            sm_count=2,
            warps_per_sm=4,
            memory_instructions_per_warp=16,
            snapshot_config=SMALL_TRACE.snapshot_config,
        )
        for name in ("354.cg", "FF_HPGMG"):
            trace = generate_trace(name, config)
            streams = [
                [
                    instr[1] // 128
                    for instr in warp.instructions
                    if instr[0] != Op.COMPUTE
                ]
                for warp in decode(trace)
            ]
            expected = []
            depth = max(len(s) for s in streams)
            for index in range(depth):
                for stream in streams:
                    if index < len(stream):
                        expected.append(stream[index])
            assert metadata_access_stream(name, config).tolist() == expected


# ---------------------------------------------------------------------------
# Golden digest: the relaxed Fig. 11 subset.
# ---------------------------------------------------------------------------
class TestGoldenRelaxedDigest:
    #: Pinned when the relaxed engine landed.  Differs from the
    #: dual-engine golden digest (36fffebd…) only through the
    #: off-reference cycle columns; the 150 GB/s rows are identical.
    GOLDEN = "282a94e822ba19de8b89ec2fa3fcd779"

    def test_fig11_subset_digest(self):
        result = ExperimentRunner().run(
            "perf.fig11",
            {
                "benchmarks": ("VGG16", "354.cg"),
                "trace_config": SMALL_TRACE,
                "link_sweep": (50.0, 150.0),
                "profile_config": SnapshotConfig(scale=1.0 / 65536),
                "engine": "relaxed",
            },
        )
        assert result_digest(result) == self.GOLDEN
