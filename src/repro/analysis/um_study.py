"""Fig. 12 driver plus the Sec. 4.3 Buddy-vs-UM comparison."""

from __future__ import annotations

from dataclasses import dataclass

from repro.um.oversubscription import UMConfig, UMResult, um_curve

#: The paper's Fig. 12 benchmarks and sweep.
FIG12_BENCHMARKS = ("360.ilbdc", "356.sp", "351.palm")
FIG12_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4)
#: Sec. 4.3's oversubscription for the Buddy-vs-UM comparison.
BUDDY_VS_UM_LEVEL = 0.49


@dataclass
class BuddyVsUM:
    """Sec. 4.3's takeaway for one benchmark at 50 % oversubscription."""

    benchmark: str
    um_slowdown: float
    buddy_slowdown: float


def um_benchmark_curve(
    benchmark: str,
    levels=FIG12_LEVELS,
    config: UMConfig | None = None,
) -> list[UMResult]:
    """One benchmark's oversubscription curve (the engine's point unit):
    one stack-distance pass prices every level."""
    return um_curve(benchmark, levels, config)


def fig12_curves(config: UMConfig | None = None, runner=None) -> list[UMResult]:
    """The Fig. 12 dataset (UM + pinned, per benchmark and level)."""
    from repro.engine.runner import default_runner

    runner = runner or default_runner()
    return runner.run("um.fig12", {"config": config})


def buddy_vs_um(
    buddy_relative_performance: dict[str, float],
    config: UMConfig | None = None,
) -> list[BuddyVsUM]:
    """Compare UM's 50 %-oversubscription collapse to Buddy's cost.

    Args:
        buddy_relative_performance: Per-benchmark speedup relative to
            the ideal GPU from the Fig. 11 study at the conservative
            50 GB/s link (values near 1.0; the paper bounds the
            resulting slowdown at 1.67x).
    """
    rows = []
    for name in FIG12_BENCHMARKS:
        (um,) = um_benchmark_curve(name, (BUDDY_VS_UM_LEVEL,), config)
        buddy = 1.0 / buddy_relative_performance.get(name, 1.0)
        rows.append(BuddyVsUM(name, um.um_slowdown, buddy))
    return rows


def format_fig12_table(rows: list[UMResult]) -> str:
    lines = [f"{'benchmark':12s} {'oversub':>8s} {'UM':>8s} {'pinned':>8s}"]
    for row in rows:
        lines.append(
            f"{row.benchmark:12s} {row.oversubscription:8.0%} "
            f"{row.um_slowdown:7.1f}x {row.pinned_slowdown:7.1f}x"
        )
    return "\n".join(lines)
