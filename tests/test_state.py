"""State-layer tests: bloom filter, seen shards (incl. the fused
within-epoch offer_min/drain dedup and the session-scoped shard pool),
checkpoint atomicity, and the distributed-vs-pandas frontier scheduler
equivalence."""

import os

import numpy as np
import pandas as pd
import pytest

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.state.bloom import (
    BloomFilter,
    stable_hash64,
)


def test_bloom_basic():
    bf = BloomFilter(capacity=10_000, fp_rate=0.01)
    keys = [f"http://h{i}.test/p{i}" for i in range(5_000)]
    for k in keys:
        bf.add(k)
    assert all(bf.might_contain(k) for k in keys)  # no false negatives
    fp = sum(bf.might_contain(f"absent-{i}") for i in range(5_000)) / 5_000
    assert fp < 0.05  # near the configured rate


def test_bloom_roundtrip():
    bf = BloomFilter(capacity=1000)
    for k in ("a", "b", "c"):
        bf.add(k)
    bf2 = BloomFilter.from_bytes(bf.to_bytes(), 1000, bf.fp_rate, bf.n_added)
    assert bf2.might_contain("a") and bf2.might_contain("c")
    assert not bf2.might_contain("zzz")


def test_stable_hash_is_stable():
    assert stable_hash64("http://x.test/") == stable_hash64("http://x.test/")
    # a few pinned values guard against accidental algorithm changes
    assert stable_hash64("a") != stable_hash64("b")


@pytest.mark.usefixtures("ray_session")
def test_seen_shard_offer_min_deterministic():
    """offer_min must pick the min key per norm regardless of call order,
    and drain must commit exactly once."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
        offer_min_batch,
    )

    seen = ShardedSeen(4)
    try:
        h = seen.handles()
        def as_dict(t):
            return dict(zip(t["url_norm"].to_pylist(), t["key"].to_pylist()))

        tok = seen.epoch_token(0)
        offer_min_batch(h, "norm", ["n1", "n2"], ["5|b", "3|x"], tok)
        offer_min_batch(h, "norm", ["n1", "n3"], ["2|a", "9|z"], tok)
        accepted = as_dict(seen.drain("norm"))
        assert accepted == {"n1": "2|a", "n2": "3|x", "n3": "9|z"}
        # second epoch: already-seen norms are rejected at offer time
        offer_min_batch(h, "norm", ["n1", "n4"], ["1|q", "7|w"],
                        seen.epoch_token(1))
        accepted2 = as_dict(seen.drain("norm"))
        assert accepted2 == {"n4": "7|w"}
        assert seen.total("norm") == 4
    finally:
        seen.kill()


def _actor_ids(seen) -> list[str]:
    return [h._actor_id.hex() for h in seen.handles()]


@pytest.mark.usefixtures("ray_session")
def test_seen_shard_check_and_add_and_reset():
    """check_and_add answers first-sight per key (in-call repeats too),
    keys() lists the set, and a pool given back by kill() comes back to
    the next lease empty."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )

    seen = ShardedSeen(4)
    try:
        m1 = seen.check_and_add("raw", ["u1", "u2", "u1"])
        assert m1.tolist() == [True, True, False]
        m2 = seen.check_and_add("raw", ["u2", "u3"])
        assert m2.tolist() == [False, True]
        assert seen.keys("raw") == ["u1", "u2", "u3"]
        ids = _actor_ids(seen)
    finally:
        seen.kill()
    again = ShardedSeen(4)
    try:
        assert _actor_ids(again) == ids  # the same actors, reused
        assert again.total("raw") == 0
        assert again.check_and_add("raw", ["u1"]).tolist() == [True]
    finally:
        again.kill()


@pytest.mark.usefixtures("ray_session")
def test_stale_token_offer_is_neither_buffered_nor_counted():
    """A late fire-and-forget offer (or task-sent check_and_add) carrying
    the previous lease's token must not enter the next lease's sets nor
    count toward its offer fence."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
        check_and_add_batch,
        offer_min_batch,
        wait_offers_received,
    )

    first = ShardedSeen(1)
    stale = first.epoch_token(3)
    ids = _actor_ids(first)
    first.kill()
    seen = ShardedSeen(1)
    try:
        assert _actor_ids(seen) == ids and seen.token != first.token
        h = seen.handles()
        # one shard, one caller: the stale calls are processed first
        offer_min_batch(h, "norm", ["old1", "old2"], ["0|a", "0|b"], stale)
        assert check_and_add_batch(h, "raw", ["r"], stale).tolist() == [False]
        offer_min_batch(h, "norm", ["new"], ["0|c"], seen.epoch_token(0))
        assert wait_offers_received(h, "norm", 1, timeout=5.0) == 1
        drained = seen.drain("norm")
        assert drained["url_norm"].to_pylist() == ["new"]
        assert seen.total("raw") == 0
        assert seen.check_and_add("raw", ["r"]).tolist() == [True]
    finally:
        seen.kill()


@pytest.mark.usefixtures("ray_session")
def test_concurrent_leases_get_disjoint_pools():
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )

    a, b = ShardedSeen(2), ShardedSeen(2)
    try:
        assert not set(_actor_ids(a)) & set(_actor_ids(b))
        assert a.token != b.token
        a.check_and_add("norm", ["x"])
        assert b.check_and_add("norm", ["x"]).tolist() == [True]
    finally:
        a.kill()
        b.kill()


@pytest.mark.usefixtures("ray_session")
def test_threaded_leases_never_share_a_pool():
    """The free list is shared by every thread of the process: threads that
    lease and give back pools concurrently must never hold the same pool
    at once, and each lease must start empty."""
    import sys
    import threading

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )

    held: set[str] = set()
    lock = threading.Lock()
    errors: list[str] = []

    def worker(w: int) -> None:
        for i in range(5):
            seen = ShardedSeen(1)
            try:
                (aid,) = _actor_ids(seen)
                with lock:
                    if aid in held:
                        errors.append(f"pool {aid} leased twice")
                    held.add(aid)
                seen.check_and_add("norm", [f"w{w}-{i}"])
                if seen.total("norm") != 1:
                    errors.append(f"lease {w}/{i} did not start empty")
                with lock:
                    held.discard(aid)
            finally:
                seen.kill()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def _lease_across_restart_main():
    """Subprocess body: give a pool back and hold another across a Ray
    session restart; the next lease must get live actors of the new
    session, and ending the held lease must not touch the new session."""
    import ray

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )

    def start():
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")

    start()
    seen, held = ShardedSeen(1), ShardedSeen(1)
    assert seen.check_and_add("norm", ["a"]).tolist() == [True]
    seen.kill()
    ray.shutdown()
    start()
    held.kill()  # a lease of the ended session is dropped
    seen = ShardedSeen(1)
    assert seen.check_and_add("norm", ["a", "a"]).tolist() == [True, False]
    seen.kill()
    again = ShardedSeen(1)
    assert again.check_and_add("norm", ["a"]).tolist() == [True]
    again.kill()
    ray.shutdown()
    print("ok")


def test_seen_pool_after_session_restart(run_in_child):
    run_in_child("test_state", "_lease_across_restart_main", timeout=180)


def test_checkpoint_atomicity(tmp_path):
    import pyarrow as pa

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.state import (
        checkpoint as ckpt,
    )

    d = str(tmp_path)
    t = pa.table({"a": [1, 2]})
    ckpt.write_epoch(d, 0, {"frontier_next": t}, meta={"epoch": 0})
    ckpt.write_epoch(d, 1, {"frontier_next": t}, meta={"epoch": 1})
    # an epoch dir without _SUCCESS is invisible
    os.makedirs(f"{d}/epoch=2", exist_ok=True)
    assert ckpt.complete_epochs(d) == [0, 1]
    assert ckpt.read_epoch_table(d, 1, "frontier_next").num_rows == 2


@pytest.mark.usefixtures("ray_session")
def test_schedule_distributed_equivalence():
    """The distributed frontier scheduler must produce exactly the pandas
    scheduler's output (order included)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        _schedule_distributed,
        _schedule_pandas,
    )

    rng = np.random.RandomState(5)
    hosts = [f"h{i}.test" for i in range(6)]
    rows = []
    for i in range(500):
        h = hosts[rng.randint(len(hosts))]
        u = f"http://{h}/p{rng.randint(200)}?v={i}"
        rows.append(
            {"url": u, "url_norm": u.split("?")[0].lower(), "host": h,
             "depth": int(rng.randint(5)), "priority": int(rng.randint(2))}
        )
    df = pd.DataFrame(rows).drop_duplicates("url").reset_index(drop=True)
    budgets = {"h0.test": 7, "h1.test": 3}
    sp, dp = _schedule_pandas(df, budgets, 20)
    sd, dd = _schedule_distributed(df, budgets, 20)
    pd.testing.assert_frame_equal(sp, sd)
    pd.testing.assert_frame_equal(
        dp.reset_index(drop=True), dd.reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_offer_fence_raises_loudly_on_stalled_stream():
    """The fire-and-forget offer fence must be a STALL timeout, not
    silence: if fewer offers arrive than the fetch tasks reported sending
    (a worker died post-count pre-flush), the epoch aborts with a
    TimeoutError naming the shortfall — never a silent wrong answer."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
        offer_min_batch,
        wait_offers_received,
    )

    seen = ShardedSeen(2)
    try:
        h = seen.handles()
        offer_min_batch(h, "norm", ["n1", "n2"], ["1|a", "2|b"],
                        seen.epoch_token(0))
        # the happy path fences instantly
        assert wait_offers_received(h, "norm", 2, timeout=5.0) >= 2
        # claim 5 were sent but deliver nothing more -> loud stall abort
        with pytest.raises(TimeoutError, match="2/5"):
            wait_offers_received(h, "norm", 5, timeout=0.3)
    finally:
        seen.kill()


def test_budget_mark_partition_matches_group_spec():
    """The vectorized multi-host partition kernel must reproduce the
    per-host executable spec (_budget_mark_group) exactly — rows, order
    within host, and the sched flag — for every budget shape: explicit
    budget, default budget, and unlimited (b <= 0)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        _budget_mark_group,
        _budget_mark_partition,
    )

    rng = np.random.RandomState(11)
    hosts = [f"h{i}.test" for i in range(9)]
    rows = []
    for i in range(800):
        h = hosts[rng.randint(len(hosts))]
        u = f"http://{h}/p{rng.randint(300)}?v={i}"
        rows.append(
            {"url": u, "url_norm": u.split("?")[0].lower(), "host": h,
             "depth": int(rng.randint(5)), "priority": int(rng.randint(3))}
        )
    df = pd.DataFrame(rows).drop_duplicates("url").reset_index(drop=True)
    for budgets, default in [
        ({"h0.test": 5, "h1.test": 0, "h2.test": 1}, 7),
        ({}, 0),           # unlimited everywhere
        ({}, 3),           # default-only
        ({h: 2 for h in hosts}, 0),
    ]:
        spec = pd.concat(
            [_budget_mark_group(g, budgets, default)
             for _, g in df.groupby("host", sort=True)],
            ignore_index=True,
        )
        got = _budget_mark_partition(df, budgets, default).reset_index(
            drop=True)
        key = ["host", "priority", "url_norm", "url"]
        spec = spec.sort_values(key, ascending=[True, False, True, True],
                                kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, spec)
