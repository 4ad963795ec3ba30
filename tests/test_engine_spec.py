"""EngineSpec: the unified engine-selection surface.

Pins the API-redesign contract: one place parses and validates engine
name / verify / tolerance, and a custom tolerance threads through to
the relaxed engine's verification contract without ever becoming a
cache axis.
"""

import pytest

from repro.gpusim.config import scaled_config
from repro.gpusim.engine_spec import EngineSpec
from repro.gpusim.simulator import DependencyDrivenSimulator, SimResult
from repro.gpusim.vector_sim import (
    RELAXED_CYCLE_TOLERANCE,
    RelaxedVerificationError,
    check_relaxed_contract,
)


def _sim_result(cycles: float) -> SimResult:
    return SimResult(
        benchmark="VGG16",
        mode="buddy",
        cycles=cycles,
        instructions=1000,
        l1_hit_rate=0.5,
        l2_hit_rate=0.5,
        dram_bytes=10**6,
        link_bytes=10**5,
        metadata_hit_rate=0.9,
        buddy_fills=100,
        demand_fills=100,
    )


class TestParse:
    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(),
            EngineSpec("relaxed", 0.5),
            EngineSpec("relaxed", 1.0, 0.02),
            EngineSpec("relaxed", tolerance=0.05),
        ],
    )
    def test_string_form_round_trips(self, spec):
        assert EngineSpec.parse(str(spec)) == spec

    def test_string_forms(self):
        assert str(EngineSpec()) == "vectorized"
        assert str(EngineSpec("relaxed", 0.5)) == "relaxed:verify=0.5"
        assert (
            str(EngineSpec("relaxed", 0.5, 0.02))
            == "relaxed:verify=0.5,tolerance=0.02"
        )

    @pytest.mark.parametrize(
        "text, spec",
        [
            (" relaxed:verify=0.5 ", EngineSpec("relaxed", 0.5)),
            ("relaxed: verify=0.5", EngineSpec("relaxed", 0.5)),
            ("relaxed:verify=0.5,", EngineSpec("relaxed", 0.5)),
            ("relaxed:", EngineSpec("relaxed")),
        ],
    )
    def test_lenient_spellings(self, text, spec):
        """Hand-typed ``--engine`` values: surrounding blanks, blanks
        before a key, a trailing comma and an empty option list parse
        to the spec they spell."""
        assert EngineSpec.parse(text) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "warp-speed",  # unknown engine
            "relaxed:bogus=1",  # unknown option
            "relaxed:verify",  # missing value
            "relaxed:verify=fast",  # non-numeric
        ],
    )
    def test_bad_strings_raise(self, text):
        with pytest.raises(ValueError):
            EngineSpec.parse(text)

    def test_legacy_is_no_engine(self):
        """The per-access oracle lives with the tests, not behind a
        spec; the error names the two engines there are."""
        with pytest.raises(ValueError, match="'vectorized', 'relaxed'"):
            EngineSpec("legacy")


class TestValidation:
    def test_verify_requires_relaxed(self):
        with pytest.raises(ValueError, match="already exact"):
            EngineSpec("vectorized", verify=0.5)

    def test_verify_must_be_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            EngineSpec("relaxed", verify=1.5)

    def test_tolerance_requires_relaxed(self):
        with pytest.raises(ValueError, match="no tolerances"):
            EngineSpec("vectorized", tolerance=0.05)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EngineSpec("relaxed", tolerance=0.0)


class TestStudyParams:
    def test_name_and_verify_are_the_cache_axes(self):
        assert EngineSpec("relaxed", 0.5).study_params() == {
            "engine": "relaxed",
            "verify": 0.5,
        }

    def test_defaults_match_experiment_defaults(self):
        """The facade's defaults must not fork existing cache keys."""
        from repro.engine import get_experiment

        defaults = get_experiment("perf.fig11").resolve_params(None)
        params = EngineSpec().study_params()
        assert defaults["engine"] == params["engine"]
        assert defaults["verify"] == params["verify"]

    def test_tolerance_never_becomes_a_parameter(self):
        with pytest.raises(ValueError, match="direct-simulation knob"):
            EngineSpec("relaxed", tolerance=0.05).study_params()


class TestSimulatorThreading:
    def test_from_spec_threads_all_fields(self):
        sim = EngineSpec.parse("relaxed:verify=0.25,tolerance=0.05").simulator(
            scaled_config()
        )
        assert sim.engine == "relaxed"
        assert sim.verify == 0.25
        assert sim.tolerance == 0.05

    def test_spec_simulator_matches_from_spec(self):
        spec = EngineSpec("relaxed", 0.25, 0.05)
        sim = spec.simulator(scaled_config())
        assert (sim.engine, sim.verify, sim.tolerance) == (
            "relaxed",
            0.25,
            0.05,
        )

    def test_simulator_rejects_tolerance_for_exact_engines(self):
        with pytest.raises(ValueError, match="no tolerances"):
            DependencyDrivenSimulator(scaled_config(), tolerance=0.05)


class TestContractTolerance:
    def test_custom_tolerance_loosens_the_contract(self):
        oracle = _sim_result(cycles=10000.0)
        relaxed = _sim_result(cycles=10500.0)  # 5% off
        assert 0.05 > RELAXED_CYCLE_TOLERANCE
        with pytest.raises(RelaxedVerificationError, match="cycles"):
            check_relaxed_contract(relaxed, oracle, exact=False)
        check_relaxed_contract(relaxed, oracle, exact=False, tolerance=0.10)

    def test_custom_tolerance_still_binds(self):
        oracle = _sim_result(cycles=10000.0)
        relaxed = _sim_result(cycles=12000.0)  # 20% off
        with pytest.raises(RelaxedVerificationError, match="cycles"):
            check_relaxed_contract(relaxed, oracle, exact=False, tolerance=0.10)
