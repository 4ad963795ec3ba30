"""Buddy Compression reproduction.

A production-quality Python reproduction of *Buddy Compression:
Enabling Larger Memory for Deep Learning and HPC Workloads on GPUs*
(Choukse et al., ISCA 2020), including the compression substrate
(BPC and comparison codecs), synthetic workload substrate, the Buddy
Compression engine, a GPU performance simulator, a Unified-Memory
oversubscription model, and the DL-training case-study analytics.

Importing the package loads nothing else: the names below resolve on
first use, each from the module that defines it.  Quickstart::

    >>> import repro
    >>> engine = repro.BuddyCompressor()
    >>> result = engine.run("VGG16")  # the paper's final design point
    >>> print(result.compression_ratio, result.buddy_access_fraction)

Experiments run through the :mod:`repro.api` facade (cached,
optionally parallel, mirroring the ``repro`` CLI)::

    >>> fig7 = repro.run("compression.fig7").value
    >>> results = repro.sweep(["compression.fig7", "perf.fig11"])

Every other name lives in its own module; the subpackages export
nothing.
"""

import importlib

__version__ = "1.0.0"

#: Facade name -> the module that defines it.  Resolved by string, so
#: the package's import graph (and so every code salt) stays free of
#: the modules these names live in.
_LAZY = {
    "api": "repro.api",
    "run": "repro.api",
    "sweep": "repro.api",
    "plan": "repro.api",
    "report": "repro.api",
    "cache_stats": "repro.api",
    "RunResult": "repro.api",
    "SweepResults": "repro.api",
    "CacheStats": "repro.api",
    "BuddyCompressor": "repro.core.controller",
    "BPCCompressor": "repro.compression.bpc",
    "TargetRatio": "repro.core.entry",
    "MEMORY_ENTRY_BYTES": "repro.units",
    "SECTOR_BYTES": "repro.units",
    "SECTORS_PER_ENTRY": "repro.units",
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    """PEP 562: import a facade name's module on first access."""
    if name not in _LAZY:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module = importlib.import_module(_LAZY[name])
    return module if name == "api" else getattr(module, name)
