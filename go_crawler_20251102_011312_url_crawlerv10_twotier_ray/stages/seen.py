"""Sharded URL-seen sets — the engine's central stateful stage.

The reference's three dedup structures are mutex-guarded in-process maps:
the normalized-URL seen map (T1, crawler/crawler_twotier.go:23-24,
223-245), colly's raw-URL revisit storage (T2, crawler_twotier.go:200) and
the downloaded∪pending document map (T3, downloader.go:41-44, 280-293).
Here all three become ONE pool of ``SeenShard`` actors, hash-partitioned on
the key (stable blake2b hash, not Python's salted ``hash``), each holding an
exact set per key kind. Calls are atomic per shard (the actor mailbox
serializes them), giving exactly-once accept semantics. ``map_batches``
tasks route their keys to the shards with :func:`offer_min_batch` /
:func:`check_and_add_batch`; the driver never funnels the key stream.

Pool lifetime: shard actors live for the whole Ray session. ``ShardedSeen(n)``
leases a free pool of ``n`` shards (spawning one only when none is free) and
``ShardedSeen.kill`` resets the shards and gives the pool back, so a crawl
call starts no process once the session is warm. Each lease carries a call
token; offers and task-sent ``check_and_add`` calls name it, and a shard
ignores any other token, so a late fire-and-forget offer from an earlier
call never enters the next call's sets. Shards ask ``num_cpus=0``: they
never hold back CPU a fetch task waits for.

Shard count: ``n <= 0`` means one shard per four cluster CPUs, at least one.
Shards keep no snapshot: resume replays the per-epoch checkpoint deltas into
the leased pool (pipelines/crawl.py).
"""

from __future__ import annotations

import threading
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..state.bloom import stable_hash64

KINDS = ("norm", "raw", "doc")


def _call_of(token: str) -> str:
    """The call part of an epoch token ``f"{call_token}-{epoch}"``."""
    return token.split("-", 1)[0]


class SeenShard:
    """One shard of the seen state. Instantiated via ray.remote."""

    def __init__(self, token: str):
        self.reset(token)

    def reset(self, token: str) -> None:
        """Forget every key and make ``token`` the current call."""
        self.token = token
        self.exact: dict[str, set[str]] = {k: set() for k in KINDS}
        self.epoch_buf: dict[str, dict[str, str]] = {}
        # count of current-call offer ENTRIES processed, per kind — the
        # crawl loop fences an epoch by waiting until sum(received) catches
        # up with the entries the (fire-and-forget) fetch tasks reported
        # sending
        self.received: dict[str, int] = {k: 0 for k in KINDS}

    def check_and_add(self, kind: str, keys: list[str],
                      token: str) -> list[bool]:
        """For each key: True if newly added (was not seen), else False.
        Atomic for the whole call (actor model). A stale token adds
        nothing and answers False."""
        if _call_of(token) != self.token:
            return [False] * len(keys)
        s = self.exact[kind]
        out = []
        for k in keys:
            out.append(k not in s)
            s.add(k)
        return out

    def offer_min(self, kind: str, norms: list[str], keys: list[str],
                  token: str) -> int:
        """Within-epoch candidate dedup fused into the shard: buffer the MIN
        key per unseen norm (min is order-independent ⇒ deterministic no
        matter how batches race). The buffered set becomes visible to the
        seen set only at drain_epoch — all offers within an epoch observe
        the pre-epoch state, exactly like the oracle's epoch-batch
        semantics. Offers with a stale token are dropped uncounted."""
        if _call_of(token) != self.token:
            return 0
        s = self.exact[kind]
        buf = self.epoch_buf.setdefault(kind, {})
        self.received[kind] += len(norms)
        n = 0
        for norm, key in zip(norms, keys):
            if norm in s:
                continue
            cur = buf.get(norm)
            if cur is None or key < cur:
                buf[norm] = key
                n += 1
        return n

    def offers_received(self, kind: str) -> int:
        return self.received[kind]

    def drain_epoch_table(self, kind: str) -> pa.Table:
        """drain_epoch as one Arrow table: the dataset-frontier loop reads
        these refs with ``from_arrow_refs``, so the rows never reach the
        crawl loop's own process."""
        norms, keys = self.drain_epoch(kind)
        return pa.table({"url_norm": norms, "key": keys})

    def drain_epoch(self, kind: str):
        """Commit the epoch buffer into the seen set; return accepted
        (norm, min_key) pairs as two Arrow arrays (zero-copy transfer).
        Pairs are returned UNSORTED — the driver-side assemble sorts the
        merged result anyway, so a per-shard sort would be pure waste."""
        buf = self.epoch_buf.pop(kind, {})
        self.exact[kind].update(buf.keys())
        return (pa.array(list(buf.keys()), pa.string()),
                pa.array(list(buf.values()), pa.string()))

    def size(self, kind: str) -> int:
        return len(self.exact[kind])

    def dump_keys(self, kind: str) -> list[str]:
        """Exact keys of ONE kind (dataset-mode checkpoint uses this for
        the tiny 'raw' seed-dispatch set only; norm/doc state is rebuilt
        from the per-epoch parquet instead of being dumped)."""
        return list(self.exact[kind])


# Free shard pools of this process: (session, n_shards) -> [(handles, token)].
# A pool is on this list only between a kill() and the next lease.
_FREE: dict[tuple, list[tuple[list, str]]] = {}
_FREE_LOCK = threading.Lock()


def _session() -> tuple[str, str]:
    """Identity of the Ray session this process is connected to: a new
    local cluster has a new node id, a reconnect has a new job id."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


class ShardedSeen:
    """A lease of one shard pool (see the module docstring)."""

    def __init__(self, n_shards: int = 0):
        if n_shards <= 0:
            cpus = int(ray.cluster_resources().get("CPU", 4))
            n_shards = max(1, cpus // 4)
        self.n_shards = n_shards
        session = _session()
        self._key = (session, n_shards)
        with _FREE_LOCK:
            for key in [k for k in _FREE if k[0] != session]:
                del _FREE[key]  # handles of an ended session
            free = _FREE.get(self._key)
            pool = free.pop() if free else None
        if pool is None:
            token = uuid.uuid4().hex
            actor_cls = ray.remote(num_cpus=0)(SeenShard)
            pool = ([actor_cls.remote(token) for _ in range(n_shards)], token)
        self.shards, self.token = pool

    def handles(self) -> list:
        return self.shards

    def epoch_token(self, epoch: int) -> str:
        return f"{self.token}-{epoch}"

    def check_and_add(self, kind: str, keys: list[str]) -> np.ndarray:
        return check_and_add_batch(self.shards, kind, keys, self.token)

    def total(self, kind: str) -> int:
        return sum(ray.get([s.size.remote(kind) for s in self.shards]))

    def keys(self, kind: str) -> list[str]:
        parts = ray.get([s.dump_keys.remote(kind) for s in self.shards])
        return sorted(k for part in parts for k in part)

    def drain(self, kind: str):
        """Merged accepted (norm, key) pairs from all shards, norm-sorted,
        as a pyarrow Table."""
        return assemble_drain(
            ray.get([s.drain_epoch.remote(kind) for s in self.shards])
        )

    def kill(self) -> None:
        """End the lease: reset the shards under a fresh token and put the
        pool back on the free list. A pool from an ended session, or with
        a dead shard, is dropped instead."""
        shards, self.shards = self.shards, []
        if not (shards and ray.is_initialized()
                and _session() == self._key[0]):
            return
        token = uuid.uuid4().hex
        try:
            # waited for: a fetch task of the next lease must not reach a
            # shard that still holds the old token
            ray.get([s.reset.remote(token) for s in shards])
        except ray.exceptions.RayActorError:
            for s in shards:
                ray.kill(s)
            return
        with _FREE_LOCK:
            _FREE.setdefault(self._key, []).append((shards, token))


def assemble_drain(parts):
    """Merge per-shard (norms, keys) arrow arrays into one norm-sorted table."""
    norms = pa.concat_arrays([p[0] for p in parts])
    keys = pa.concat_arrays([p[1] for p in parts])
    if len(norms) == 0:
        return pa.table({"url_norm": norms, "key": keys})
    idx = pc.sort_indices(norms)
    return pa.table(
        {"url_norm": pc.take(norms, idx), "key": pc.take(keys, idx)}
    )


def _split(n_shards: int, keys: list, *cols) -> dict[int, tuple]:
    """Group ``keys`` and the parallel lists ``cols`` by the shard of each
    key: {shard: (keys, *cols)}. One shard takes the lists as given."""
    if n_shards == 1:
        return {0: (keys, *cols)} if keys else {}
    per: dict[int, list] = {}
    for row in zip(keys, *cols):
        per.setdefault(stable_hash64(row[0]) % n_shards, []).append(row)
    return {sid: tuple(map(list, zip(*rows))) for sid, rows in per.items()}


def offer_min_batch(shard_handles: list, kind: str, norms, keys,
                    token: str) -> int:
    """Route (norm, key) offers to their shards (callable from map_batches
    tasks). FIRE-AND-FORGET: no blocking round-trip in the fetch hot path —
    the driver fences the epoch by polling ``offers_received`` until it
    catches up with the sent-entry count the tasks report in their output
    (pipelines/crawl.py). Returns the number of entries submitted."""
    norms = list(norms)
    for sid, (ns, ks) in _split(len(shard_handles), norms, list(keys)).items():
        shard_handles[sid].offer_min.remote(kind, ns, ks, token)
    return len(norms)


def wait_offers_received(shard_handles: list, kind: str, expected: int,
                         timeout: float = 120.0) -> int:
    """Block until the shard pool has processed ≥ ``expected`` offer
    entries (fire-and-forget sends are reliable but async; a task retry can
    only overshoot, so ``>=`` is the right fence). ``timeout`` is a STALL
    timeout — it resets whenever the received count grows, so a huge but
    draining backlog never false-aborts; only zero progress for the full
    window raises."""
    last = -1
    deadline = time.monotonic() + timeout
    while True:
        got = sum(
            ray.get([s.offers_received.remote(kind) for s in shard_handles])
        )
        if got >= expected:
            return got
        if got > last:
            last = got
            deadline = time.monotonic() + timeout
        elif time.monotonic() > deadline:
            raise TimeoutError(
                f"seen shards received {got}/{expected} offers with no "
                f"progress for {timeout}s — a fetch worker likely died "
                "mid-send"
            )
        time.sleep(0.005)


def check_and_add_batch(shard_handles: list, kind: str, keys,
                        token: str) -> np.ndarray:
    """Route keys to their shards, check-and-add, reassemble the mask in
    input order. Callable from inside map_batches tasks (actor handles are
    serializable) — the hot-path seen probe never goes through the driver."""
    keys = list(keys)
    parts = _split(len(shard_handles), keys, range(len(keys)))
    refs = [shard_handles[sid].check_and_add.remote(kind, ks, token)
            for sid, (ks, _) in parts.items()]
    mask = np.zeros(len(keys), dtype=bool)
    for (_, idxs), res in zip(parts.values(), ray.get(refs)):
        mask[np.asarray(idxs)] = res
    return mask
