"""Unified Memory oversubscription substrate (paper Fig. 12).

Models CUDA Unified Memory's behaviour when device memory is
oversubscribed: page-fault-driven migration with LRU eviction, and the
alternative of pinning all allocations in host memory.  The paper
measured this on a Power9 + V100 system (3 NVLink2 bricks, 75 GB/s);
we reproduce the mechanism — fault-serialised migration collapsing
once the hot set exceeds device memory, frequently performing worse
than host-pinned access.
"""
