"""Fig. 12 driver.

Sec. 4.3 compares ``um.fig12`` at :data:`BUDDY_VS_UM_LEVEL` with
``perf.fig11``'s 50 GB/s speedups.
"""

from __future__ import annotations

from repro.um.oversubscription import UMConfig, UMResult, um_curve

#: The paper's Fig. 12 benchmarks and sweep.
FIG12_BENCHMARKS = ("360.ilbdc", "356.sp", "351.palm")
FIG12_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4)
#: Sec. 4.3's oversubscription for the Buddy-vs-UM comparison.
BUDDY_VS_UM_LEVEL = 0.49


def um_benchmark_curve(
    benchmark: str, levels, config: UMConfig
) -> list[UMResult]:
    """One benchmark's oversubscription curve (the engine's point unit):
    one stack-distance pass prices every level."""
    return um_curve(benchmark, levels, config)
