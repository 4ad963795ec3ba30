"""The ``sim.tape`` persistence layer.

Covers the stable serialized tape form (round-trip, foreign-blob
rejection), the content address (link bandwidth and ``verify=`` are
deliberately NOT key axes), the warm paths that skip re-recording,
eviction behaviour, repair of corrupt store entries, and the
per-namespace cache accounting that reports all of it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.entry import TargetRatio
from repro.compression.bpc import BPCCompressor
from repro.core import profiler
from repro.engine.cache import (
    CacheKey,
    CacheMiss,
    CacheStats,
    ResultCache,
    result_digest,
)
from repro.engine.store import process_store
from repro.gpusim import (
    REFERENCE_LINK_GBPS,
    CompressionMode,
    CompressionState,
    scaled_config,
)
from repro.gpusim.vector_sim import (
    _replay_cycles,
    _resolve_tape,
    _TAPE_HEADER,
    _TAPE_MEMO,
    TAPE_FORMAT_VERSION,
    deserialize_tape,
    record_tape,
    replay_links,
    serialize_tape,
    tape_cache_key,
    tape_recording_count,
)
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot

SMALL_TRACE = TraceConfig(
    sm_count=4,
    warps_per_sm=8,
    memory_instructions_per_warp=24,
    snapshot_config=SnapshotConfig(
        scale=1.0 / 16384, min_footprint_bytes=256 * 1024
    ),
)
SMALL_GPU = scaled_config(sm_count=4, warps_per_sm=8)


def small_point(benchmark="VGG16"):
    """A fresh (trace, state, config) triple; state/trace objects are
    new on every call, so the id-keyed tape memo never aliases them."""
    trace = generate_trace(benchmark, SMALL_TRACE)
    snapshot = layout_snapshot(benchmark, SMALL_TRACE)
    selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
    state = CompressionState.from_snapshot(
        snapshot, selection, CompressionMode.BUDDY
    )
    return trace, state, SMALL_GPU.with_link(REFERENCE_LINK_GBPS)


def small_tape():
    trace, state, config = small_point()
    _TAPE_MEMO.pop(trace, None)
    tape, result = _resolve_tape(trace, state, config, need_tape=True)
    _TAPE_MEMO.pop(trace, None)
    return tape, result


@pytest.fixture()
def tape_cache(tmp_path):
    """A disk tier installed under a cold store memory tier."""
    cache = ResultCache(tmp_path)
    previous = profiler.set_tensor_cache(cache)
    process_store().clear()
    try:
        yield cache
    finally:
        profiler.set_tensor_cache(previous)
        process_store().clear()


def resolve(key, trace, state, config):
    """The store lookup a keyed relaxed point performs."""
    return process_store().get_or_build(
        key, lambda: record_tape(trace, state, config)
    )


# ---------------------------------------------------------------------------
# Serialized form.
# ---------------------------------------------------------------------------
class TestSerializedForm:
    def test_round_trip_is_byte_stable_and_replays_identically(self):
        tape, _result = small_tape()
        blob = serialize_tape(tape)
        rebuilt = deserialize_tape(blob)
        assert serialize_tape(rebuilt) == blob
        assert rebuilt.event_count == tape.event_count
        assert rebuilt.warp_count == tape.warp_count
        assert rebuilt.fill_tail == tape.fill_tail
        off_link = SMALL_GPU.with_link(50.0)
        assert _replay_cycles(rebuilt, [off_link]) == _replay_cycles(
            tape, [off_link]
        )

    def test_rejects_short_blob(self):
        with pytest.raises(ValueError, match="shorter than its header"):
            deserialize_tape(b"RTAP")

    def test_rejects_foreign_magic(self):
        tape, _result = small_tape()
        blob = b"NOPE" + serialize_tape(tape)[4:]
        with pytest.raises(ValueError, match="magic"):
            deserialize_tape(blob)

    def test_rejects_unknown_format_version(self):
        tape, _result = small_tape()
        blob = bytearray(serialize_tape(tape))
        blob[4] = TAPE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format"):
            deserialize_tape(bytes(blob))

    def test_rejects_truncated_body(self):
        tape, _result = small_tape()
        blob = serialize_tape(tape)
        with pytest.raises(ValueError, match="header implies"):
            deserialize_tape(blob[:-8])

    def test_rejects_negative_counts(self):
        header = _TAPE_HEADER.pack(b"RTAP", TAPE_FORMAT_VERSION, 0, -1, 4, 4, 0.0)
        with pytest.raises(ValueError, match="negative"):
            deserialize_tape(header)


# ---------------------------------------------------------------------------
# The content address.
# ---------------------------------------------------------------------------
class TestCacheKey:
    def test_link_bandwidth_is_not_a_key_axis(self):
        profile = SnapshotConfig(scale=1.0 / 65536)
        keys = {
            tape_cache_key(
                "VGG16", SMALL_TRACE, profile, SMALL_GPU.with_link(link)
            ).digest
            for link in (25.0, 50.0, REFERENCE_LINK_GBPS, 300.0)
        }
        assert len(keys) == 1

    def test_benchmark_and_geometry_are_key_axes(self):
        profile = SnapshotConfig(scale=1.0 / 65536)
        base = tape_cache_key("VGG16", SMALL_TRACE, profile, SMALL_GPU)
        assert base.experiment == "sim.tape"
        other_bench = tape_cache_key(
            "354.cg", SMALL_TRACE, profile, SMALL_GPU
        )
        other_geometry = tape_cache_key(
            "VGG16",
            SMALL_TRACE,
            profile,
            scaled_config(sm_count=2, warps_per_sm=4),
        )
        assert base.digest != other_bench.digest
        assert base.digest != other_geometry.digest


# ---------------------------------------------------------------------------
# Warm paths: persistent hits and the verify= independence fix.
# ---------------------------------------------------------------------------
LINKS = (50.0, REFERENCE_LINK_GBPS, 300.0)


class TestWarmPaths:
    def test_tape_round_trips_through_disk(self, tape_cache):
        trace, state, config = small_point()
        key = tape_cache_key(
            "VGG16", SMALL_TRACE, SMALL_TRACE.snapshot_config, config
        )
        _TAPE_MEMO.pop(trace, None)
        before = tape_recording_count()
        tape, reference = resolve(key, trace, state, config)
        assert tape_recording_count() == before + 1
        assert tape_cache.contains(key)

        # Fresh objects, cold memo and memory tier: the disk entry
        # must satisfy the request without a second recording.
        trace2, state2, config2 = small_point()
        _TAPE_MEMO.pop(trace2, None)
        process_store().clear()
        warm_tape, warm_reference = resolve(key, trace2, state2, config2)
        assert tape_recording_count() == before + 1
        assert serialize_tape(warm_tape) == serialize_tape(tape)
        assert warm_reference == reference

    def test_flipping_verify_still_hits_the_tape_cache(self, tape_cache):
        """``verify=`` changes oracle sampling, not tape content — a
        verified rerun of the same sweep must replay the cached tape."""
        trace, state, config = small_point()
        key = tape_cache_key(
            "VGG16", SMALL_TRACE, SMALL_TRACE.snapshot_config, config
        )
        _TAPE_MEMO.pop(trace, None)
        before = tape_recording_count()
        plain = replay_links(
            trace, state, config, LINKS, verify=0.0, cache_key=key
        )
        assert tape_recording_count() == before + 1

        trace2, state2, config2 = small_point()
        _TAPE_MEMO.pop(trace2, None)
        process_store().clear()
        verified = replay_links(
            trace2, state2, config2, LINKS, verify=1.0, cache_key=key
        )
        assert tape_recording_count() == before + 1  # no re-record
        assert [r.cycles for r in verified] == [r.cycles for r in plain]

    def test_evicted_tape_is_rerecorded(self, tape_cache):
        trace, state, config = small_point()
        key = tape_cache_key(
            "VGG16", SMALL_TRACE, SMALL_TRACE.snapshot_config, config
        )
        _TAPE_MEMO.pop(trace, None)
        before = tape_recording_count()
        resolve(key, trace, state, config)
        usage = tape_cache.usage()
        entries, size = usage.per_experiment["sim.tape"]
        assert entries == 1 and size > 0

        # Evict everything (sim.tape entries are ordinary LRU citizens),
        # then a cold request must fall through to a fresh recording.
        assert tape_cache.evict(0) == usage.entries
        assert "sim.tape" not in tape_cache.usage().per_experiment
        trace2, state2, config2 = small_point()
        _TAPE_MEMO.pop(trace2, None)
        process_store().clear()
        resolve(key, trace2, state2, config2)
        assert tape_recording_count() == before + 2


# ---------------------------------------------------------------------------
# Corrupt store entries are dropped and rebuilt, never replayed.
# ---------------------------------------------------------------------------
class _Blob:
    """Pickles as the tape a (possibly corrupt) RTAP blob decodes to."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def __reduce__(self):
        return deserialize_tape, (self.blob,)


class TestCorruptEntries:
    def _digest(self, key):
        trace, state, config = small_point()
        return result_digest(
            replay_links(trace, state, config, LINKS, cache_key=key)
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda blob: b"XTAP" + blob[4:], id="wrong-magic"),
            pytest.param(lambda blob: blob[:-8], id="8-bytes-short"),
        ],
    )
    def test_bad_tape_blob_is_rerecorded_once(self, tape_cache, corrupt):
        key = tape_cache_key(
            "VGG16", SMALL_TRACE, SMALL_TRACE.snapshot_config, SMALL_GPU
        )
        cold = self._digest(key)
        path = tape_cache.path_for(key)
        tape, reference = pickle.loads(path.read_bytes())
        good = serialize_tape(tape)
        path.write_bytes(pickle.dumps((_Blob(corrupt(good)), reference)))
        process_store().clear()

        before = tape_recording_count()
        assert self._digest(key) == cold
        assert tape_recording_count() == before + 1
        # The entry was replaced by a good one: the next cold read
        # replays it without recording.
        tape, _ = pickle.loads(path.read_bytes())
        assert serialize_tape(tape) == good
        process_store().clear()
        assert self._digest(key) == cold
        assert tape_recording_count() == before + 1

    def test_truncated_profile_tensor_rebuilds_once(self, tape_cache):
        config = SnapshotConfig(
            scale=1.0 / 262144, min_footprint_bytes=256 * 1024
        )
        first = profiler.profile_tensor("AlexNet", config)
        key = profiler.tensor_cache_key("AlexNet", config, BPCCompressor())
        path = tape_cache.path_for(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        process_store().clear()

        passes = profiler.profile_pass_count()
        rebuilt = profiler.profile_tensor("AlexNet", config)
        assert profiler.profile_pass_count() == passes + 1
        assert (rebuilt.counts == first.counts).all()
        assert path.read_bytes() == blob
        process_store().clear()
        profiler.profile_tensor("AlexNet", config)
        assert profiler.profile_pass_count() == passes + 1


# ---------------------------------------------------------------------------
# Per-namespace accounting.
# ---------------------------------------------------------------------------
class TestPerNamespaceStats:
    def test_get_put_bump_the_namespace_row(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("sim.tape", "d" * 32)
        with pytest.raises(CacheMiss):
            cache.get(key)
        assert cache.stats.per_namespace["sim.tape"] == [0, 1, 0]
        cache.put(key, {"format": TAPE_FORMAT_VERSION})
        assert cache.stats.per_namespace["sim.tape"] == [0, 1, 1]
        assert cache.get(key) == {"format": TAPE_FORMAT_VERSION}
        assert cache.stats.per_namespace["sim.tape"] == [1, 1, 1]

    def test_merge_adds_namespace_rows(self):
        a = CacheStats(per_namespace={"sim.tape": [1, 2, 3]})
        b = CacheStats(
            per_namespace={"sim.tape": [4, 0, 1], "profile.tensor": [1, 0, 0]}
        )
        a.merge(b)
        assert a.per_namespace == {
            "sim.tape": [5, 2, 4],
            "profile.tensor": [1, 0, 0],
        }
