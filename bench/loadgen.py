"""Advisor traffic: a seeded request mix and an asyncio load generator.

The generator speaks the advisor's JSON-lines protocol directly over
two TCP connections, with request bodies encoded before a phase starts,
so the client stays light next to the server on a two-core machine.

* :class:`Traffic` draws the request mix from the workload seed:
  50% repeats (Zipf(1.3) over 256 client profiles), 20% histograms
  never sent before, 30% benchmark-backed ``bpc`` requests (16
  benchmarks x 3 threshold sets).  **The shares and the exponent are
  an assumption, not a measurement**: no advisor traffic has been
  recorded and no public trace of such a service is cited.  They
  decide the hot-cache hit ratio, the eviction rate and the share of
  requests that need an evaluate, so conclusions that depend on them
  (for example whether a cache change helps) hold for this mix only.
* Client profiles are not invented: each is a resampling of one
  catalog benchmark's own profile tensor (:func:`resample_profile`),
  so its allocation count, snapshot count, entry totals and sector
  distribution are the catalog's.
* :func:`closed_loop` keeps a fixed number of requests outstanding and
  times each from send to reply.
* :func:`open_loop` sends on a Poisson schedule regardless of replies
  and times each request from when it was *due*, so a stall also
  charges the requests queued behind it.

The accounting helpers (:func:`percentile`, :func:`summarize_open`)
are pure and covered by ``test_compare.py``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re

import numpy as np

from child import now_ns

#: Distinct client profiles in the repeat working set.
PROFILES = 256
#: Zipf exponent of the repeat draws (assumed, see the module docstring).
ZIPF_S = 1.3
#: Share of repeats / never-seen histograms; the rest are benchmarks
#: (assumed, see the module docstring).
REPEAT_SHARE = 0.5
ONE_OFF_SHARE = 0.2
#: Threshold sets of the benchmark-backed requests (as ``serve --check``).
THRESHOLD_SETS = ((0.10, 0.20, 0.30, 0.40), (0.10, 0.20, 0.30), (0.10, 0.20))
#: Open-loop phases whose generator ran later than this are invalid.
MAX_LATENESS_MS = 5.0

_HEAD = re.compile(rb'^\{"id": (\d+), "ok": (true|false)')
_DIGEST = re.compile(rb'"digest": "([0-9a-f]+)"')


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def resample_profile(base, label: str, rng: np.random.Generator) -> dict:
    """A client profile drawn from a catalog benchmark's profile tensor,
    as a wire request body.

    ``base`` has the tensor's ``names``, ``fractions``, ``counts``
    ``(A, S, 4)`` and ``zero_fit`` ``(A, S)``.  Every (allocation,
    snapshot) keeps its entry total and redraws its sector buckets from
    the benchmark's own bucket shares; zero-page entries are redrawn
    from bucket 0 at the benchmark's zero-fit share.
    """
    counts = np.asarray(base["counts"], dtype=np.int64)
    totals = counts.sum(axis=2)
    shares = counts / np.maximum(totals, 1)[:, :, None]
    drawn = rng.multinomial(totals, shares)
    zero_share = np.asarray(base["zero_fit"]) / np.maximum(counts[:, :, 0], 1)
    zero_fit = rng.binomial(drawn[:, :, 0], zero_share)
    return {
        "histogram": {
            "label": label,
            "names": list(base["names"]),
            "fractions": np.asarray(base["fractions"]).tolist(),
            "counts": drawn.tolist(),
            "zero_fit": zero_fit.tolist(),
        }
    }


class Traffic:
    """The seeded advisor request mix.

    ``profiles`` maps each catalog benchmark to its ``bpc`` profile
    tensor arrays (see :func:`resample_profile`).  Keys name requests:
    ``("p", k)`` repeat profile *k* (Zipf rank *k* + 1), ``("o", j)`` the *j*-th never-seen
    histogram, ``("b", m)`` benchmark request *m*.  :meth:`body`
    returns the encoded wire body of a key.
    """

    def __init__(self, seed: int, profiles: dict) -> None:
        self.seed = seed
        self._draws = np.random.default_rng([seed, 3])
        weights = 1.0 / np.arange(1, PROFILES + 1) ** ZIPF_S
        self._zipf = weights / weights.sum()
        self._one_offs = 0
        self._bodies: dict[tuple, bytes] = {}
        self._profiles = list(profiles.values())
        self.benchmark_bodies = [
            {"benchmark": name, "codec": "bpc", "thresholds": list(thresholds)}
            for name in profiles
            for thresholds in THRESHOLD_SETS
        ]

    def working_set(self) -> list[tuple]:
        """Every key that repeats: the profiles and benchmark requests."""
        return [("p", k) for k in range(PROFILES)] + [
            ("b", m) for m in range(len(self.benchmark_bodies))
        ]

    def draw(self, count: int) -> list[tuple]:
        """The next ``count`` request keys of the seeded stream."""
        kinds = self._draws.random(count)
        ranks = self._draws.choice(PROFILES, size=count, p=self._zipf)
        picks = self._draws.integers(0, len(self.benchmark_bodies), size=count)
        keys = []
        for kind, rank, pick in zip(kinds, ranks, picks):
            if kind < REPEAT_SHARE:
                keys.append(("p", int(rank)))
            elif kind < REPEAT_SHARE + ONE_OFF_SHARE:
                keys.append(("o", self._one_offs))
                self._one_offs += 1
            else:
                keys.append(("b", int(pick)))
        return keys

    def request_json(self, key: tuple) -> dict:
        kind, index = key
        if kind == "b":
            return self.benchmark_bodies[index]
        stream = 1 if kind == "p" else 2
        rng = np.random.default_rng([self.seed, stream, index])
        # Repeat profile k (Zipf rank k + 1) always resamples the same
        # catalog benchmark, so the seed changes its counts but not its
        # shape, and with it the cost of the popular requests; one-offs
        # resample a seeded benchmark each.
        pick = index if kind == "p" else int(rng.integers(len(self._profiles)))
        base = self._profiles[pick % len(self._profiles)]
        return resample_profile(base, f"{kind}{self.seed}-{index}", rng)

    def body(self, key: tuple) -> bytes:
        body = self._bodies.get(key)
        if body is None:
            body = json.dumps(self.request_json(key)).encode()
            if key[0] != "o":  # one-offs are sent once; do not keep them
                self._bodies[key] = body
        return body


class Link:
    """One multiplexed JSON-lines connection to the advisor."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._pump = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Link":
        return cls(*await asyncio.open_connection(host, port))

    def send(self, body: bytes) -> asyncio.Future:
        """Write one request; the future yields ``(ok, digest, recv_ns)``."""
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        self._writer.write(b'{"id": %d, "request": %s}\n' % (self._next_id, body))
        return future

    async def stats(self) -> dict:
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        self._writer.write(b'{"id": %d, "stats": true}\n' % self._next_id)
        return json.loads(await future)["stats"]

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            received = now_ns()
            if not line:
                for future in self._pending.values():
                    if not future.done():
                        future.set_result((False, None, received))
                self._pending.clear()
                return
            head = _HEAD.match(line)
            future = self._pending.pop(int(head.group(1)), None) if head else None
            if future is None or future.done():
                continue
            if b'"stats"' in line[:64]:
                future.set_result(line)
                continue
            ok = head.group(2) == b"true"
            digest = _DIGEST.search(line) if ok else None
            future.set_result((ok, digest and digest.group(1).decode(), received))

    async def aclose(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(links: list[Link], bodies: list[bytes], window: int) -> list:
    """Send ``bodies`` keeping ``window`` outstanding; one
    ``(ok, digest, seconds from send to reply)`` each."""
    results: list = [None] * len(bodies)
    queue = iter(enumerate(bodies))

    async def client(link: Link) -> None:
        for index, body in queue:
            sent = now_ns()
            ok, digest, received = await link.send(body)
            results[index] = (ok, digest, (received - sent) / 1e9)

    await asyncio.gather(*(client(links[i % len(links)]) for i in range(window)))
    return results


async def open_loop(
    links: list[Link], bodies: list[bytes], rate: float, seed: int, timeout: float
) -> list:
    """Send ``bodies`` at Poisson arrivals of ``rate`` per second.

    Returns one ``(due_ns, sent_ns, recv_ns or None, ok, digest)`` per
    request; a request unanswered ``timeout`` seconds after the last
    send is reported with ``recv_ns`` ``None`` (failed).
    """
    gaps = np.random.default_rng([seed, 5]).exponential(1e9 / rate, len(bodies))
    start = now_ns() + 20_000_000
    dues = start + np.cumsum(gaps).astype(np.int64)
    sent: list = []
    futures = []
    for index, (due, body) in enumerate(zip(dues.tolist(), bodies)):
        delay = due - now_ns()
        if delay > 0:
            await asyncio.sleep(delay / 1e9)
        sent.append(now_ns())
        futures.append(links[index % len(links)].send(body))
    done, _ = await asyncio.wait(futures, timeout=timeout) if futures else ((), ())
    records = []
    for due, sent_ns, future in zip(dues.tolist(), sent, futures):
        if future in done:
            ok, digest, received = future.result()
            records.append((due, sent_ns, received if ok else None, ok, digest))
        else:
            records.append((due, sent_ns, None, False, None))
    return records


def summarize_open(records: list, limit_ms: float, fail_ms: float) -> dict:
    """Latency and generator lateness of one open-loop phase.

    Latency is timed from each request's due time.  A failed or
    unanswered request counts as taking ``fail_ms`` (the phase's
    timeout, longer than ``limit_ms``), so it misses the limit and can
    only push the percentiles up.  The phase is invalid when the
    generator's p99 lateness exceeds :data:`MAX_LATENESS_MS`.
    """
    latencies = [
        fail_ms if received is None else (received - due) / 1e6
        for due, _, received, _, _ in records
    ]
    lateness = [(sent - due) / 1e6 for due, sent, _, _, _ in records]
    p99_lateness = percentile(lateness, 99)
    return {
        "requests": len(records),
        "failed": sum(1 for _, _, received, _, _ in records if received is None),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "over_limit": sum(1 for value in latencies if value > limit_ms),
        "lateness_p99_ms": p99_lateness,
        "valid": p99_lateness <= MAX_LATENESS_MS,
    }
