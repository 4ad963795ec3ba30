"""The process's one artifact store: a memory LRU over the result cache.

Every reusable artifact resolves through one :class:`ArtifactStore` —
profile tensors (``profile.tensor``) and the free bytes their builds
store (``profile.free``), per-entry states (``profile.entries``),
generated kernel traces (``trace.columnar``), the relaxed engine's
recorded tapes (``sim.tape``) and the advisor's answers
(``serve.advice``).  A store is a bounded in-memory LRU over
an optional on-disk :class:`~repro.engine.cache.ResultCache` tier,
speaking the cache's ``get``/``put``/
:class:`~repro.engine.cache.CacheMiss` protocol plus
:meth:`ArtifactStore.get_or_build`.

Values are content-addressed, so the memory tier survives disk-tier
swaps: the engine points the process store at a result cache per
design point (:func:`install`, via
:func:`repro.core.profiler.set_tensor_cache`) without dropping warm
values, and a resident value is written to a newly installed disk
tier the first time it is used there — so the disk tier holds every
artifact used under it, which is how pool workers share them.

A resident entry is its value, its pickled size — the size of its
disk-tier file when there is a disk tier, so admission does not
pickle the value a second time — and a content digest
(:func:`~repro.engine.cache.result_digest`) computed the first time
:meth:`ArtifactStore.digest` asks for it.  A ``put`` that replaces the
value resets the digest; eviction drops it with the entry.  The
advisor answers every request with its answer's digest, so a hot
answer is digested once while it stays resident, not once per hit.

Policy:

* **admission** — writes and disk-tier reads enter memory, except in
  the :data:`DISK_ONLY` namespaces;
* **eviction** — least-recently-used beyond ``max_entries`` and,
  optionally, ``max_bytes`` of pickled payload (the process store
  holds at most :data:`MEMORY_BUDGET_BYTES`; at least one value stays
  resident however large);
* **stats** — an engine :class:`~repro.engine.cache.CacheStats` of
  memory-tier hits/misses/stores with per-namespace rows
  (``stats.per_namespace``), which the advisor service reports.

Single-threaded by design (one store per process, the service calls
its store from one event loop), so there is no locking.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

from repro.engine.cache import (
    CacheKey,
    CacheMiss,
    CacheStats,
    ResultCache,
    result_digest,
)

#: Byte budget of the process store's memory tier (pickled size).
#: A Fig. 11 tape pickles to ~5.5 MB, so a handful stay resident;
#: the rest of a sweep's tapes are read back from the disk tier.
MEMORY_BUDGET_BYTES = 32 * 1024 * 1024

#: Namespaces that resolve through the disk tier only.  A trace is
#: read once per design point, and the simulator memoises the columns
#: it resolves from a trace weakly on the trace object, so a
#: memory-resident trace would keep those columns alive for the whole
#: process instead of letting them die with the point.
DISK_ONLY = frozenset({"trace.columnar"})


class ArtifactStore:
    """Bounded in-memory LRU over an optional on-disk backing cache.

    Args:
        backing: Optional :class:`~repro.engine.cache.ResultCache`
            consulted on memory misses and written through on stores.
        max_entries: Memory residency bound (LRU beyond it).
        max_bytes: Optional bound on the summed pickled size of
            resident values.
    """

    def __init__(
        self,
        backing: ResultCache | None = None,
        max_entries: int = 512,
        max_bytes: int | None = None,
    ) -> None:
        self.backing = backing
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # key -> [value, pickled size, the backing it is known to be in,
        #         result_digest(value) or None until first asked for]
        self._entries: OrderedDict[CacheKey, list] = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        """Resident entry count."""
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        """Approximate pickled size of the resident values."""
        return self._bytes

    def get(self, key: CacheKey):
        """Memory first, then backing; raises :class:`CacheMiss`.

        A memory hit refreshes recency; a backing hit is promoted into
        memory.  ``stats`` count memory-tier hits and misses, so a
        value served from disk counts one miss here.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.bump(key.experiment, 0)
            backing = self.backing
            if backing is not None and entry[2] is not backing:
                if not backing.contains(key):
                    backing.put(key, entry[0])
                entry[2] = backing
            return entry[0]
        self.stats.misses += 1
        self.stats.bump(key.experiment, 1)
        if self.backing is None:
            raise CacheMiss(f"{key.experiment}/{key.digest}")
        value = self.backing.get(key)  # raises CacheMiss when absent
        self._admit(key, value)
        return value

    def put(self, key: CacheKey, value) -> None:
        """Write through to the backing store and admit to memory."""
        if self.backing is not None:
            self.backing.put(key, value)
        self.stats.stores += 1
        self.stats.bump(key.experiment, 2)
        self._admit(key, value)

    def digest(self, key: CacheKey, value) -> str:
        """:func:`~repro.engine.cache.result_digest` of ``value``,
        computed once per resident entry of ``key`` holding it.

        A ``value`` that is not what ``key``'s entry holds (evicted,
        replaced or never admitted) is digested afresh and nothing is
        kept.  Recency and ``stats`` are untouched: the lookup that
        returned ``value`` counted already.
        """
        entry = self._entries.get(key)
        if entry is None or entry[0] is not value:
            return result_digest(value)
        if entry[3] is None:
            entry[3] = result_digest(value)
        return entry[3]

    def get_or_build(self, key: CacheKey, build):
        """The stored value of ``key``, calling ``build()`` (and
        storing its result) only when neither tier holds it."""
        try:
            return self.get(key)
        except CacheMiss:
            pass
        value = build()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the memory tier (the backing store is untouched)."""
        self._entries.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    def _admit(self, key: CacheKey, value) -> None:
        if key.experiment in DISK_ONLY:
            return
        size = self._sizeof(key, value)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = [value, size, self.backing, None]
        self._bytes += size
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted[1]
            self.stats.evictions += 1

    def _sizeof(self, key: CacheKey, value) -> int:
        # The disk tier just wrote or read ``key`` as this very pickle,
        # so its file size is the value's size; pickle only without one.
        if self.backing is not None:
            try:
                return self.backing.path_for(key).stat().st_size
            except OSError:
                pass  # evicted by a concurrent writer: measure it here
        try:
            return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return 0


#: The process store every artifact lookup goes through.
_PROCESS_STORE = ArtifactStore(max_bytes=MEMORY_BUDGET_BYTES)


def process_store() -> ArtifactStore:
    """The store artifact lookups in this process go through."""
    return _PROCESS_STORE


def install(cache):
    """Install ``cache`` for this process; returns what it replaced.

    An :class:`ArtifactStore` (the advisor service's) replaces the
    process store and the previous store is returned.  Anything else —
    a :class:`~repro.engine.cache.ResultCache` or ``None`` — swaps only
    the current store's disk tier and returns the previous tier; the
    memory tier stays warm.  Passing the return value back restores
    the previous state either way.
    """
    global _PROCESS_STORE
    if isinstance(cache, ArtifactStore):
        previous, _PROCESS_STORE = _PROCESS_STORE, cache
        return previous
    previous, _PROCESS_STORE.backing = _PROCESS_STORE.backing, cache
    return previous
