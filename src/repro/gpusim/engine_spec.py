"""The unified engine-selection surface: :class:`EngineSpec`.

:class:`EngineSpec` is the one place the engine knobs are parsed and
validated, for the CLI's ``--engine``, the timing experiments
(``perf.fig11``, ``correlation.fig10``) and direct simulation alike:

* ``name`` — the simulator core (one of :data:`ENGINES`);
* ``verify`` — the relaxed engine's sampled cross-check fraction
  against the exact vectorized engine (0.0 for ``vectorized``);
* ``tolerance`` — an optional override of the relaxed engine's pinned
  verification tolerances (see :func:`check_relaxed_contract`).

The string form (``"relaxed"``, ``"relaxed:verify=0.5"``,
``"relaxed:verify=1.0,tolerance=0.02"``) is :meth:`EngineSpec.parse`'s
input, and :meth:`EngineSpec.study_params` turns a spec into the
timing experiments' parameters, e.g.
``repro.run("perf.fig11", EngineSpec.parse(s).study_params())``.

``tolerance`` is deliberately *not* an experiment parameter: it only
changes when a verified run raises, never the simulated result, so
threading it into cached design points would fork cache keys for
bit-identical data.  :meth:`EngineSpec.study_params` therefore rejects
it — a custom tolerance is a direct-simulation knob
(:meth:`EngineSpec.simulator`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Engines selectable on :class:`~repro.gpusim.simulator.DependencyDrivenSimulator`.
ENGINES = ("vectorized", "relaxed")

#: Default spec: the exact batched engine, no cross-checking.
DEFAULT_ENGINE = "vectorized"


@dataclass(frozen=True)
class EngineSpec:
    """One validated engine selection (name + verify + tolerance)."""

    name: str = DEFAULT_ENGINE
    verify: float = 0.0
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.name not in ENGINES:
            raise ValueError(
                f"unknown engine {self.name!r}; expected one of {ENGINES}"
            )
        if not 0.0 <= self.verify <= 1.0:
            raise ValueError(
                f"verify must be a fraction in [0, 1], got {self.verify!r}"
            )
        if self.verify and self.name != "relaxed":
            raise ValueError(
                "verify= cross-checking is the relaxed engine's escape "
                f"hatch; engine {self.name!r} is already exact"
            )
        if self.tolerance is not None:
            if self.name != "relaxed":
                raise ValueError(
                    "tolerance= loosens the relaxed engine's verification "
                    f"contract; engine {self.name!r} has no tolerances"
                )
            if self.tolerance <= 0.0:
                raise ValueError(
                    f"tolerance must be positive, got {self.tolerance!r}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> EngineSpec:
        """Parse the string form: ``name[:key=value,...]``.

        Examples: ``"vectorized"``, ``"relaxed:verify=0.5"``,
        ``"relaxed:verify=1.0,tolerance=0.02"``.
        """
        name, _, options = text.strip().partition(":")
        kwargs: dict[str, float] = {}
        for item in filter(None, options.split(",")):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in ("verify", "tolerance"):
                raise ValueError(
                    f"bad engine spec option {item!r} in {text!r}; "
                    "expected verify=FRACTION or tolerance=FRACTION"
                )
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad engine spec value {value!r} for {key} in {text!r}"
                ) from None
        return cls(name, **kwargs)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        options = []
        if self.verify:
            options.append(f"verify={self.verify:g}")
        if self.tolerance is not None:
            options.append(f"tolerance={self.tolerance:g}")
        return self.name + (":" + ",".join(options) if options else "")

    def simulator(self, config):
        """A :class:`DependencyDrivenSimulator` honouring this spec."""
        from repro.gpusim.simulator import DependencyDrivenSimulator

        return DependencyDrivenSimulator(
            config, self.name, self.verify, tolerance=self.tolerance
        )

    def study_params(self) -> dict[str, object]:
        """This spec as cached-experiment parameters.

        Only ``name`` and ``verify`` are cache axes.  A custom
        ``tolerance`` is rejected: it cannot reach the workers without
        becoming a parameter axis, which would fork cache keys for
        results the tolerance provably does not change.
        """
        if self.tolerance is not None:
            raise ValueError(
                "a custom tolerance is a direct-simulation knob "
                "(EngineSpec.simulator); cached studies pin the default "
                "relaxed tolerances so their cache keys stay stable"
            )
        return {"engine": self.name, "verify": self.verify}
