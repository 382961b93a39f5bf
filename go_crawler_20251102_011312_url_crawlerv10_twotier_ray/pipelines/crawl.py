"""The frontier crawl pipeline — one depth-epoch loop (``run_crawl``).

Re-expresses the reference's unbounded async colly loop
(crawler/crawler_twotier.go:248-254 + OnResponse at :98-175) as a
deterministic sequence of bounded epochs, each at most one Ray Data job
(SURVEY.md §2.8): the epoch loop is the "stream", each epoch is

    frontier ──(sort + per-host politeness budget + seed revisit
        marking against the driver-held dispatched seed raws)──▶
        scheduled | deferred
    scheduled ──map_batches(FetchAndExtract)──▶ fetched
        [one fused stage: corpus lookup (zero-copy broadcast Arrow index
         or keys-first bucket join), two-tier route+extract,
         candidate explosion with partial dedup, and (norm, min-key)
         offers streamed to the sharded seen actors — min is
         order-independent ⇒ deterministic]
    seen drain("norm") ──▶ survivors (next frontier)   [within-epoch dedup +
        cross-epoch anti-join commit, atomic per shard, no groupby shuffle]
    seen drain("doc") ──▶ download tasks   [doc candidates ride the same
        shard min-offer stream, exploded + offered inside the fetch tasks]
    everything ──▶ per-epoch sinks + checkpoint parquet + _SUCCESS

Scheduling state (the frontier) is URL rows only — thousands of times
smaller than the page bodies, which stream through the fetch/extract/
candidate stages without being materialized on the driver (bar a small
epoch the driver fetches itself, below). The frontier takes one of two
forms, and they differ at exactly two steps:
- a table on the driver (``frontier_mode="driver"``; the rank trace and
  ``collect=True`` need it) is scheduled in pandas (``_schedule_table``)
  and its next frontier is assembled from the shard drains on the driver;
- a Dataset (``frontier_mode="dataset"``) is repartitioned and marked per
  hash(host) partition (``_schedule_dataset``), and its next frontier is
  read from the drain refs with ``from_arrow_refs``, so accepted rows
  never pass through the driver.
Fetch, counts, fence, downloads, sinks, checkpoint and resume are shared,
so either form resumes the other's checkpoint. Page-body stages are
distributed, spread over every CPU from the first task
(``_table_dataset``), except in a broadcast table-form epoch of at most
``DRIVER_FETCH_ROWS`` URLs: a job's fixed cost is more than its work, so
the driver fetches it against the corpus index its download lane already
holds.

Determinism (matches oracle/crawl_sim.py — the shared spec):
- epoch sort key (-priority, host, url_norm, url);
- per-host budget applied in sorted order, over-budget rows deferred with
  priority=1 (they jump the next epoch's line);
- per-epoch candidate dedup by url_norm with min((depth, url)) tie-break;
- cross-epoch dedup through the sharded seen actors (atomic check-and-add).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..config import CrawlConfig
from ..functions.urlnorm import fetch_key
from ..oracle.reference import extract_filename
from ..stages.fetch import (
    FETCHED_SCHEMA,
    FetchAndExtract,
    HttpFetch,
    add_fetch_key,
)
from ..stages.seen import ShardedSeen, wait_offers_received
from ..stages.seen import assemble_drain as _assemble_drain
from ..state import checkpoint as ckpt
from ._schema import collect as _collect, cpu_blocks as _cpu_blocks

FRONTIER_ARROW_SCHEMA = pa.schema([
    ("url", pa.string()), ("url_norm", pa.string()), ("host", pa.string()),
    ("depth", pa.int32()), ("priority", pa.int32()),
])
FRONTIER_COLS = FRONTIER_ARROW_SCHEMA.names


@dataclass
class CrawlRunResult:
    extracted: pa.Table | None = None
    fetch_log: pa.Table | None = None
    order: pa.Table | None = None
    seen: pa.Table | None = None
    downloads: pa.Table | None = None
    n_epochs: int = 0
    pages_fetched: int = 0
    counters: dict = field(default_factory=dict)


def load_politeness(corpus_dir: str):
    """Read the politeness table -> (host_budgets, robots_disallow)."""
    import pyarrow.parquet as pq

    path = os.path.join(corpus_dir, "politeness.parquet")
    if not os.path.exists(path):
        return {}, {}
    t = pq.read_table(path)
    budgets, robots = {}, {}
    for row in t.to_pylist():
        if row["max_fetches_per_epoch"]:
            budgets[row["host"]] = row["max_fetches_per_epoch"]
        if row["robots_disallow"]:
            robots[row["host"]] = list(row["robots_disallow"])
    return budgets, robots


def _seed_frontier(seeds: list[str]) -> pa.Table:
    """Seed validation (main.go:58-66 semantics — scheme defaults to https,
    host required) with ONE parse per seed (bulk-frontier hot path; matches
    oracle.crawl_sim.validate_seed + normalize_url + host_of)."""
    from ..functions.urlnorm import norm_and_host

    rows = []
    seen_raw = set()
    for s in seeds:
        if "://" not in s:
            s = "https://" + s
        nh = norm_and_host(s)
        if nh is None or s in seen_raw:
            continue
        seen_raw.add(s)
        rows.append(
            {"url": s, "url_norm": nh[0], "host": nh[1],
             "depth": 0, "priority": 0}
        )
    return pa.Table.from_pylist(rows, schema=FRONTIER_ARROW_SCHEMA)


def _schedule_pandas(
    frontier: pd.DataFrame, budgets: dict[str, int], default_budget: int
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Sort + apply per-host budget. Returns (scheduled_in_order, deferred)."""
    df = frontier.sort_values(
        ["priority", "host", "url_norm", "url"],
        ascending=[False, True, True, True],
        kind="mergesort",
    ).reset_index(drop=True)
    if budgets or default_budget > 0:
        bud = df["host"].map(lambda h: budgets.get(h, default_budget)).to_numpy()
        cum = df.groupby("host").cumcount().to_numpy()
        mask = (bud <= 0) | (cum < bud)
    else:
        mask = np.ones(len(df), dtype=bool)
    scheduled = df[mask].reset_index(drop=True)
    deferred = df[~mask].reset_index(drop=True).copy()
    if len(deferred):
        deferred["priority"] = 1
    return scheduled, deferred


def _budget_mark_group(g: pd.DataFrame, budgets: dict[str, int],
                       default_budget: int) -> pd.DataFrame:
    """Per-host politeness comparator (the executable SPEC, one host per
    call — shared semantics with oracle/crawl_sim.py): deterministic
    in-host order, first b rows scheduled, the rest deferred. The hot
    paths run ``_budget_mark_partition`` (vectorized over many hosts,
    parity-tested against this function); this stays the single
    readable definition both must match."""
    g = g.sort_values(
        ["priority", "url_norm", "url"],
        ascending=[False, True, True], kind="mergesort",
    )
    b = budgets.get(g["host"].iloc[0], default_budget)
    g = g.copy()
    g["sched"] = True if b <= 0 else (np.arange(len(g)) < b)
    return g


def _budget_mark_partition(g: pd.DataFrame, budgets: dict[str, int],
                           default_budget: int) -> pd.DataFrame:
    """Vectorized politeness marking over one hash(host) partition (the
    partition holds COMPLETE hosts, so per-host decisions are local):
    host-sorted cumcount vs per-host budget — ONE Python call per
    PARTITION, never per host. A real web frontier has 10^6-10^7 hosts;
    a per-host map_groups makes scheduling the epoch bottleneck (the
    reference's analogue is a single global colly LimitRule,
    crawler_twotier.go:64-69, which never does per-host serial work).
    Semantics identical to _budget_mark_group (parity-tested)."""
    g = g.sort_values(
        ["host", "priority", "url_norm", "url"],
        ascending=[True, False, True, True], kind="mergesort",
    )
    if budgets:
        bud = (
            g["host"].map(budgets).fillna(default_budget)
            .to_numpy(dtype=np.int64)
        )
    else:
        bud = np.full(len(g), default_budget, np.int64)
    cum = g.groupby("host", sort=False).cumcount().to_numpy()
    g = g.copy()
    g["sched"] = (bud <= 0) | (cum < bud)
    return g


def _stamp_host_part(n_part: int):
    """Arrow batch stamp: part = hash(host) % n_part (pandas' fixed-key
    siphash — process-stable, same kernel the corpus bucket layout uses)
    so a groupby("part") co-locates complete hosts with bounded fan-in."""
    def fn(t: pa.Table) -> pa.Table:
        from ..sources.pages import key_bucket

        return t.append_column(
            "part", pa.array(key_bucket(t["host"].to_pylist(), n_part)))

    return fn


# Epoch-wide candidate dedup key: "%09d\x1f%s" % (depth, url) — zero-padded
# depth makes lexicographic min == min((depth, url)). The dedup itself is
# fused into the seen shards (SeenShard.offer_min/drain_epoch): min is
# order-independent, so racing candidate batches stay deterministic, and no
# groupby shuffle is needed for the frontier.


def _mark_revisits(scheduled: pd.DataFrame,
                   dispatched_seed_raws: set) -> pd.DataFrame:
    """colly's raw-URL revisit filter (T2) without distributed state: a
    url_norm enters the frontier exactly once globally and url_norm is a
    function of the raw URL, so a raw URL can repeat only if it is a SEED
    (fetched at epoch 0 outside the seen set, then re-discovered). revisit =
    seed already dispatched in a prior epoch, or a duplicate within this
    epoch's schedule (lower rank wins — matches the oracle's sequential
    fetched_raw semantics)."""
    scheduled = scheduled.copy()
    dup = scheduled["url"].duplicated(keep="first")
    scheduled["revisit"] = dup | scheduled["url"].isin(dispatched_seed_raws)
    return scheduled


def _cast_frontier(t: pa.Table) -> pa.Table:
    return t.select(FRONTIER_COLS).cast(FRONTIER_ARROW_SCHEMA)


def _drained_to_frontier(accepted: pa.Table) -> pa.Table:
    """Pure-Arrow split of drain rows (url_norm, "%09d\x1furl" key) into
    frontier rows (priority 0): the depth prefix is fixed-width so
    slice+cast does it, and the host comes from one C regex pass over the
    normalized URL. In the table form this runs on the DRIVER once per
    epoch over every accepted candidate — at 700k rows the old pandas
    str.split chain was ~3 s of single-threaded fixed cost that capped
    scaling; the Arrow kernels do it in ~0.2 s."""
    import pyarrow.compute as pc

    if accepted.num_rows == 0:
        return FRONTIER_ARROW_SCHEMA.empty_table()
    norms = accepted["url_norm"].combine_chunks()
    keys = accepted["key"].combine_chunks()
    return pa.table({
        "url": pc.utf8_slice_codeunits(keys, 10, 2**30),
        "url_norm": norms,
        "host": pc.struct_field(
            pc.extract_regex(norms, r"^[^:/?#]+://(?P<h>[^/?#]*)"), "h"),
        "depth": pc.utf8_slice_codeunits(keys, 0, 9).cast(pa.int32()),
        "priority": pa.array(np.zeros(len(norms), np.int32)),
    })


# A job over a driver-held table cuts it into at most MAX_BLOCKS blocks,
# and into one per CPU only while a block keeps MIN_BLOCK_ROWS rows: a
# task costs ~5-10 ms to launch (sweep in CHANGES.md).
MIN_BLOCK_ROWS = 64
MAX_BLOCKS = 32


def _job_blocks(n_rows: int, max_block_rows: int) -> int:
    """Blocks of a job over ``n_rows`` driver-held rows: one per
    ``max_block_rows`` rows, or ``_schema.cpu_blocks`` with the
    ``MIN_BLOCK_ROWS`` floor, whichever is more, at most ``MAX_BLOCKS``."""
    return min(MAX_BLOCKS, max(-(-n_rows // max_block_rows),
                               _cpu_blocks(n_rows, MIN_BLOCK_ROWS)))


def _table_dataset(t: pa.Table, n_blocks: int) -> tuple[rd.Dataset, int]:
    """A driver-held table as a Dataset of ``n_blocks`` contiguous slices,
    and the rows of its largest block. No ``repartition``: that is an
    all-to-all stage with a barrier. A map over it with ``batch_size`` at
    most the block rows runs one task per block (a larger one bundles
    blocks into fewer tasks).

    The plan's own context (never the global ``DataContext``) turns off
    Ray Data's per-operator object-store reservation. Before a task of an
    operator has finished, Ray 2.49 assumes each pending task outputs
    ``target_max_block_size`` × its generator buffer (256 MiB), which does
    not fit a map operator's reserved share of a small object store: on a
    600 MiB store the first of four tasks ran alone for 0.08-0.14 s."""
    per = max(1, -(-t.num_rows // n_blocks))
    ds = rd.from_arrow([t.slice(i, per)
                        for i in range(0, max(1, t.num_rows), per)])
    ds.context.op_resource_reservation_enabled = False
    return ds, per


def _fetch_dataset(sched_ds: rd.Dataset, n_rows: int, batch_rows: int,
                   mode: str, cfg: CrawlConfig, corpus_ref, pages_path: str,
                   seen_handles: list, robots_disallow: dict,
                   epoch_token: str) -> rd.Dataset:
    """The epoch's lazy fused fetch+extract+offer plan over the ``n_rows``
    scheduled rows (``revisit`` marked), for both frontier forms, mapped
    in batches of ``batch_rows``: the table form passes its blocks' rows
    (``_table_dataset``) capped at ``cfg.extract_batch_size``, so each
    block is one task; the Dataset form passes ``cfg.extract_batch_size``.
    ``broadcast`` looks pages up in the zero-copy corpus broadcast;
    ``http`` fetches live through an autoscaling actor pool (client built
    once per actor); ``join`` is keys-first: the frontier (keys +
    metadata, never bodies) groups by the corpus' persistent hash-bucket
    layout and each task joins against its own bucket's parquet in place
    (stages/fetch.LocalBucketJoin). A table-form broadcast epoch of at
    most ``DRIVER_FETCH_ROWS`` rows runs ``FetchAndExtract`` in the driver
    instead (``run_crawl``)."""
    if mode == "broadcast":
        return sched_ds.map_batches(
            FetchAndExtract(cfg, corpus_ref, seen_handles, robots_disallow,
                            epoch_token),
            batch_format="pyarrow", batch_size=batch_rows,
        )
    if mode == "http":
        from ._schema import auto_pool

        return sched_ds.map_batches(
            HttpFetch,
            fn_constructor_args=(cfg, seen_handles, robots_disallow,
                                 epoch_token),
            batch_format="pyarrow", batch_size=batch_rows,
            concurrency=auto_pool(),
        )
    from ..sources.pages import bucketed_pages, key_bucket
    from ..stages.fetch import LocalBucketJoin

    root, n_buckets = bucketed_pages(pages_path)

    def stamp(t: pa.Table) -> pa.Table:
        t = add_fetch_key(t)
        return t.append_column(
            "bucket",
            pa.array(key_bucket(t["fetch_key"].to_pylist(), n_buckets)),
        )

    kern = LocalBucketJoin(root, cfg, seen_handles, robots_disallow,
                           epoch_token)

    def local_bucket_join(g: pa.Table) -> pa.Table:
        return kern(g)

    stamped = sched_ds.map_batches(stamp, batch_format="pyarrow",
                                   batch_size=batch_rows)
    # the sort behind groupby keeps its input's block count, so a small
    # frontier would read and extract every bucket it hits in ONE task:
    # spread it so up to 2 × CPUs buckets are read in parallel
    n_part = min(n_buckets, 2 * int(ray.cluster_resources().get("CPU", 8)))
    if n_part > -(-n_rows // batch_rows):
        stamped = stamped.repartition(n_part)
    return (
        stamped.groupby("bucket")   # one call per BUCKET, not per key
        .map_groups(local_bucket_join, batch_format="pyarrow")
    )


def _epoch_counts(fetched) -> dict[str, int]:
    """Row, ok and offer-entry counts of an epoch's fetched rows: a table
    (collected rows) is counted in place, a Dataset by ONE tiny stats job
    (one counter row per batch; no page rows pass the driver)."""
    import pyarrow.compute as pc

    if fetched is None:
        stats = None
    elif isinstance(fetched, pa.Table):
        stats = _stat_counts(fetched)
    else:
        stats = _collect(fetched.map_batches(_stat_counts,
                                             batch_format="pyarrow"))
    return {
        k: int(pc.sum(stats[k]).as_py() or 0) if stats is not None else 0
        for k in ("n", "ok_n", "offers", "doc_offers")
    }


def _push_epoch_metrics(metrics, seen, epoch: int, scheduled: int,
                        fetched_ok: int, docs_queued: int, dl_tbl: pa.Table,
                        retries_pending: int, frontier_next: int) -> None:
    """Fire-and-forget per-epoch gauge push to the CrawlMetrics actor."""
    if metrics is None:
        return
    n_dl_ok = int(pa.compute.sum(dl_tbl["ok"]).as_py() or 0)
    metrics.record_epoch.remote({
        "epoch": epoch,
        "scheduled": scheduled,
        "fetched_ok": fetched_ok,
        "fetch_err": scheduled - fetched_ok,
        "docs_queued": docs_queued,
        "downloads_ok": n_dl_ok,
        "download_err": dl_tbl.num_rows - n_dl_ok,
        "retries_pending": retries_pending,
        "seen_total": seen.total("norm"),
        "frontier_next": frontier_next,
    })


# The phases of a crawl call, in epoch order after the one-time set-up.
PHASES = ("setup", "schedule", "fetch", "counts", "fence", "downloads",
          "frontier", "write")


class _PhaseTimer:
    """Summed wall seconds per phase of one crawl call, for both frontier
    forms, returned as ``CrawlRunResult.counters["phases"]``:
    ``lap(name)`` charges the time since the previous lap to ``name``, so
    the phases add up to the call's time up to its last lap."""

    def __init__(self):
        self.phases = dict.fromkeys(PHASES, 0.0)
        self._t = time.perf_counter()

    def lap(self, name: str) -> None:
        t = time.perf_counter()
        self.phases[name] += t - self._t
        self._t = t


# Broadcast corpora of this process, least recently used first: pages
# dir -> (Ray session, pages stamp, ref, bytes, rows). One entry per pages
# directory (a new stamp replaces it), all dropped when the session
# changes, and at most CORPUS_CACHE_SHARE of a node's object store held in
# all (a corpus bigger than that on its own is put on every call).
CORPUS_CACHE_SHARE = 0.25
_CORPUS_REFS: OrderedDict[str, tuple] = OrderedDict()
_CORPUS_LOCK = threading.Lock()


def _pages_stamp(pages_path: str) -> tuple:
    """(path, size, mtime_ns) of every parquet file under ``pages_path``:
    a corpus rewritten in place gets a new stamp."""
    files = []
    for root, _dirs, names in os.walk(pages_path):
        for name in names:
            if name.endswith(".parquet"):
                p = os.path.join(root, name)
                st = os.stat(p)
                files.append((p, st.st_size, st.st_mtime_ns))
    return tuple(sorted(files))


def _corpus_broadcast(pages_path: str):
    """The (url, html) corpus table in the object store, put once per Ray
    session and pages stamp and reused by later crawls: a fresh
    ``ray.put`` per call lands on fresh object-store pages, which the
    driver maps and keeps (its shared RSS grew by the corpus size with
    every call). NO combine_chunks: per-row chunked access costs the same
    (~18 µs), while combining 2.4 GB of binary chunks measured 2-9 s of
    pure allocator churn in a warm session."""
    import pyarrow.parquet as pq

    from ..stages.seen import ray_session_id

    key = os.path.abspath(pages_path)
    session, stamp = ray_session_id(), _pages_stamp(pages_path)
    with _CORPUS_LOCK:
        if any(e[0] != session for e in _CORPUS_REFS.values()):
            _CORPUS_REFS.clear()
        hit = _CORPUS_REFS.pop(key, None)
        if hit is not None and hit[1] == stamp:
            _CORPUS_REFS[key] = hit  # now the most recently used
            return hit[2]
        t = pq.read_table(pages_path, columns=["url", "html"])
        ref, nbytes, nrows = ray.put(t), t.nbytes, t.num_rows
        del t
        # every node that reads a broadcast holds its own copy, so the
        # budget is a share of the smallest node's object store
        budget = CORPUS_CACHE_SHARE * min(
            n["Resources"].get("object_store_memory", 0)
            for n in ray.nodes() if n["Alive"])
        if nbytes > budget:  # never cached: keep the corpora that fit
            return ref
        while sum(e[3] for e in _CORPUS_REFS.values()) + nbytes > budget:
            _CORPUS_REFS.popitem(last=False)
        _CORPUS_REFS[key] = (session, stamp, ref, nbytes, nrows)
    return ref


# The broadcast lanes run in the driver up to these sizes, and only for a
# corpus the session cache holds with at most DRIVER_DOWNLOAD_CORPUS_ROWS
# rows (so the driver builds its url -> row index once per session and
# corpus, never per call). Measured at 4 logical CPUs against the Ray Data
# job each replaces. Downloads, on synthetic corpora (100-byte bodies): a
# 16,384-row batch took 0.14-0.20 s in the driver and 0.20-0.28 s as a
# job, a 100,000-row batch 0.9-1.2 s against 0.56-0.72 s; the driver's
# index took 0.29 s and 42 MB once at 240,000 corpus rows, and 3.2 s and
# 350 MB at 2,000,000. Fetch epochs, on the perfbench crawl_bfs corpora:
# see DRIVER_FETCH_ROWS' sweep in CHANGES.md.
DRIVER_DOWNLOAD_BATCH_ROWS = 16384
DRIVER_DOWNLOAD_CORPUS_ROWS = 240_000
DRIVER_FETCH_ROWS = 192
# The driver fetches on ONE long-lived thread. glibc gives each new thread
# its own malloc arena, and the page bodies a short-lived caller thread
# frees there are not reused: crawl_polite calls made from a new thread
# each (a deadline wrapper) grew the driver by ~7 MB per call, to ~520 MB
# after ~35 calls; on this thread it grew ~0.8 MB per call.
_DRIVER_FETCH_THREAD = ThreadPoolExecutor(1, thread_name_prefix="fetch")


def _in_driver(n_rows: int, limit: int, corpus_ref) -> bool:
    """Whether a broadcast lane runs its ``n_rows`` rows in the driver."""
    if n_rows > limit:
        return False
    with _CORPUS_LOCK:
        return any(e[2] == corpus_ref and e[4] <= DRIVER_DOWNLOAD_CORPUS_ROWS
                   for e in _CORPUS_REFS.values())


class DownloadSim:
    """Simulated document downloader (broadcast corpus mode): success iff
    the fetch key exists in the corpus, else cfg.max_retries failed
    attempts (downloader.go:153-179)."""

    def __init__(self, cfg: CrawlConfig, corpus_ref):
        self.cfg = cfg
        self.corpus_ref = corpus_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.fetch import cached_corpus_index

        idx, _html_col, corpus_lens = cached_corpus_index(self.corpus_ref)
        urls = batch["url"].to_pylist()
        rows = [idx.get(fetch_key(u)) for u in urls]
        oks = [r is not None for r in rows]
        # sizes via the cached per-row length array — page bytes are never
        # touched (a binary-column take here overflowed Arrow's int32
        # offsets once the taken bodies crossed 2 GiB on big doc batches)
        sizes = np.zeros(len(urls), np.int64)
        hit_pos = [i for i, r in enumerate(rows) if r is not None]
        if hit_pos:
            sizes[hit_pos] = corpus_lens[
                np.array([rows[i] for i in hit_pos], np.int64)
            ]
        return pa.table(
            {
                "url": batch["url"],
                "depth": batch["depth"],
                "attempt": batch["attempt"],
                "ok": pa.array(oks, pa.bool_()),
                "bytes": pa.array(sizes, pa.int64()),
                "filename": pa.array([extract_filename(u) for u in urls], pa.string()),
            }
        )


class DownloadHttp:
    """fetch_mode="http" download lane: one real GET per attempt
    (downloader.go:184-222). ok iff HTTP 200; bytes is the (capped) body
    length — the engine records sizes rather than writing files, matching
    DownloadSim's contract. Stateful actor: client built once per actor.
    Filenames honor the reference's Content-Disposition branch
    (utils.go:35-44): an ``attachment; filename=`` response header wins
    over the URL path — the one lane where real headers exist."""

    def __init__(self, cfg: CrawlConfig):
        from ..stages.fetch import default_http_client

        self.cfg = cfg
        factory = cfg.http_client_factory or default_http_client
        self.fetch = factory(cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.fetch import fetch_result

        urls = batch["url"].to_pylist()
        got = [fetch_result(self.fetch(u)) for u in urls]
        oks = [s == 200 and b is not None for s, b, _h in got]
        return pa.table(
            {
                "url": batch["url"],
                "depth": batch["depth"],
                "attempt": batch["attempt"],
                "ok": pa.array(oks, pa.bool_()),
                "bytes": pa.array(
                    [len(b) if ok else 0
                     for ok, (_, b, _h) in zip(oks, got)],
                    pa.int64(),
                ),
                "filename": pa.array(
                    [extract_filename(
                        u, content_disposition=(h or {}).get(
                            "content-disposition"))
                     for u, (_, _, h) in zip(urls, got)],
                    pa.string(),
                ),
            }
        )


def _seen_rows(survivors: pa.Table, epoch: int) -> pa.Table:
    """An epoch's accepted norms as ``CrawlRunResult.seen`` rows."""
    return pa.table({
        "url_norm": survivors["url_norm"],
        "first_depth": survivors["depth"],
        "url": survivors["url"],
        "epoch": pa.array(np.full(survivors.num_rows, epoch, np.int32)),
    })


def _rank_trace(scheduled: pd.DataFrame, epoch: int) -> pa.Table:
    """An epoch's scheduled rows in rank order as ``CrawlRunResult.order``
    rows."""
    return pa.table({
        "epoch": pa.array(np.full(len(scheduled), epoch, np.int32)),
        "rank": pa.array(range(len(scheduled)), pa.int64()),
        "url": pa.array(scheduled["url"], pa.string()),
        "host": pa.array(scheduled["host"], pa.string()),
        "depth": pa.array(scheduled["depth"], pa.int32()),
        "priority": pa.array(scheduled["priority"], pa.int32()),
    })


def _schedule_table(frontier: pa.Table, epoch: int, cfg: CrawlConfig,
                    host_budgets: dict, dispatched: set, seed_raws):
    """Table-form scheduling on the driver: sort + per-host budget in
    pandas, the rank trace, and T2 revisit marking (``_mark_revisits``)
    against the seed raws dispatched so far, which it extends. Returns
    (scheduled rows with ``revisit``, deferred rows, rank trace or None)."""
    df = frontier.to_pandas()
    if cfg.record_order or host_budgets or cfg.default_host_budget > 0:
        scheduled, deferred = _schedule_pandas(
            df, host_budgets, cfg.default_host_budget)
    else:
        # trace off + unlimited budgets: scheduling is the identity (no
        # deterministic rank needed) — skip the big sort
        scheduled, deferred = df, df.iloc[:0]
    order_tbl = _rank_trace(scheduled, epoch) if cfg.record_order else None
    scheduled = _mark_revisits(scheduled, dispatched)
    dispatched.update(set(scheduled["url"]) & seed_raws)
    return (
        pa.Table.from_pandas(scheduled[FRONTIER_COLS + ["revisit"]],
                             preserve_index=False),
        _cast_frontier(pa.Table.from_pandas(deferred, preserve_index=False)),
        order_tbl,
    )


def _schedule_dataset(frontier: rd.Dataset, frontier_count: int, epoch: int,
                      cfg: CrawlConfig, host_budgets: dict, dispatched: set,
                      seed_raws, seed_ref):
    """Dataset-form scheduling: repartition the frontier over the CPUs,
    mark the per-host budget with one ``_budget_mark_partition`` pass per
    hash(host) partition, and mark T2 revisits in the fetch tasks against
    this epoch's seed winners (``_resolve_seed_revisits``), which extend
    the dispatched seed raws. Returns (scheduled Dataset with ``revisit``,
    scheduled rows, deferred Dataset or None, deferred rows)."""
    from functools import partial

    # one parquet-table/from_arrow frontier = ONE block = one serial fetch
    # task: spread the epoch's rows so fetch parallelism matches the CPUs
    n_cpu = int(ray.cluster_resources().get("CPU", 8))
    n_blocks = max(1, min(max(32, 2 * n_cpu),
                          -(-frontier_count // cfg.extract_batch_size)))
    sched_ds = frontier.repartition(n_blocks)
    deferred, n_deferred = None, 0
    budgets_on = bool(host_budgets) or cfg.default_host_budget > 0
    if budgets_on:
        # hash(host) co-partition + ONE vectorized marking pass per
        # partition — never a Python call per host (a web frontier has
        # millions of hosts)
        n_part = max(8, min(512, frontier_count // 25_000 + 2))
        marked = (
            sched_ds.map_batches(_stamp_host_part(n_part),
                                 batch_format="pyarrow")
            .groupby("part")
            .map_groups(partial(_budget_mark_partition, budgets=host_budgets,
                                default_budget=cfg.default_host_budget),
                        batch_format="pandas")
        ).materialize()
        sched_ds = marked.filter(expr="sched == True").map_batches(
            _cast_frontier, batch_format="pyarrow")
        deferred = marked.filter(expr="sched == False").map_batches(
            lambda t: _cast_frontier(t.set_column(
                t.schema.get_field_index("priority"), "priority",
                pa.array(np.ones(t.num_rows, np.int32)))),
            batch_format="pyarrow",
        ).materialize()
        n_deferred = deferred.count()
    if epoch == 0 and not budgets_on:
        # bulk-seed fast path: epoch 0's schedule is exactly the
        # (driver-deduped) seed list and nothing was dispatched — every row
        # is its own winner; skip the contest scan (at 240k seeds it cost
        # ~3 s of driver collect+sort for a trivial result)
        winners = dict.fromkeys(seed_raws, (0, 0))
    elif len(dispatched) >= len(seed_raws):
        # every seed raw is already dispatched: all seed-matching rows are
        # revisits — skip the frontier scan entirely
        winners = {}
    else:
        winners = _resolve_seed_revisits(sched_ds, seed_ref, dispatched)
    dispatched.update(winners)
    sched_ds = sched_ds.map_batches(
        MarkRevisitsInTask(seed_ref, ray.put(winners)),
        batch_format="pyarrow")
    return sched_ds, frontier_count - n_deferred, deferred, n_deferred


class _KeepSeedRows:
    """Filter a frontier batch down to rows whose raw url is a seed (the
    only urls that can repeat — pipelines/crawl._mark_revisits proof)."""

    def __init__(self, seed_ref):
        self.seed_ref = seed_ref

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..stages.fetch import cached_broadcast

        return t.select(["url", "url_norm", "host", "depth", "priority"]).filter(
            pc.is_in(t["url"], value_set=cached_broadcast(self.seed_ref))
        )


def _resolve_seed_revisits(sched_ds, seed_ref, dispatched: set) -> dict:
    """T2 raw-revisit decisions for one Dataset-form epoch, resolved
    DETERMINISTICALLY on the driver: the seed-matching rows (≤ n_seeds —
    bounded regardless of frontier size) are collected, ordered by the
    schedule comparator (-priority, host, url_norm, url; depth ascending
    as the final tie-break), and the first occurrence per raw url not yet
    dispatched becomes the winner. A first-come check inside the fetch
    tasks would instead resolve same-epoch duplicates by race (and a Ray
    task retry would turn a genuine first dispatch into a 304)."""
    seed_hits = _collect(sched_ds.map_batches(
        _KeepSeedRows(seed_ref), batch_format="pyarrow"))
    if seed_hits is None or seed_hits.num_rows == 0:
        return {}
    shp = seed_hits.to_pandas().sort_values(
        ["priority", "host", "url_norm", "url", "depth"],
        ascending=[False, True, True, True, True], kind="mergesort",
    ).drop_duplicates("url", keep="first")
    return {
        u: (int(d), int(p))
        for u, d, p in zip(shp["url"], shp["depth"], shp["priority"])
        if u not in dispatched
    }


class MarkRevisitsInTask:
    """Dataset-form revisit marking (T2): pure broadcast-lookup against
    the per-epoch winner decisions (_resolve_seed_revisits) — no driver
    or shard call in the fetch path, deterministic under task retries. A
    seed-raw row is a revisit unless it IS the winner row."""

    def __init__(self, seed_ref, winners_ref):
        self.seed_ref = seed_ref
        self.winners_ref = winners_ref

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..stages.fetch import cached_broadcast

        seeds = cached_broadcast(self.seed_ref)
        winners = cached_broadcast(self.winners_ref)
        mask = pc.is_in(t["url"], value_set=seeds).to_numpy(
            zero_copy_only=False
        )
        revisit = np.zeros(t.num_rows, dtype=bool)
        idx = np.nonzero(mask)[0]
        if len(idx):
            take = pa.array(idx)
            urls = pc.array_take(t["url"].combine_chunks(), take).to_pylist()
            depths = pc.array_take(t["depth"].combine_chunks(), take).to_pylist()
            prios = pc.array_take(
                t["priority"].combine_chunks(), take).to_pylist()
            for j, (u, d, pr) in enumerate(zip(urls, depths, prios)):
                revisit[idx[j]] = winners.get(u) != (int(d), int(pr))
        return t.append_column("revisit", pa.array(revisit))


def run_crawl(
    corpus_dir: str,
    cfg: CrawlConfig | None = None,
    seeds: list[str] | None = None,
    host_budgets: dict[str, int] | None = None,
    robots_disallow: dict[str, list[str]] | None = None,
    use_politeness_table: bool = False,
    max_epochs: int | None = None,
    resume: bool = False,
    collect: bool = True,
    seen_sink: str | None = None,
    extracted_sink: str | None = None,
) -> CrawlRunResult:
    """Run the full crawl over a corpus directory (pages/seeds/politeness
    parquet as written by corpus.write_corpus). Ray must already be
    initialised by the caller.

    Data contract: the pages table is keyed by ``url`` and MUST be unique
    per url (corpus.write_corpus guarantees it). Every fetch mode assumes
    it — the broadcast index keeps one row per key, and the bucket join
    would emit duplicate fetches on a corpus with dup urls.

    The frontier is a table on the driver (``cfg.frontier_mode="driver"``;
    needed by the rank trace and ``collect=True``) or a Dataset end to end
    (``"dataset"``; the driver holds counters, the retry lane and the seed
    raws only). ``"auto"`` picks the Dataset form when neither is asked
    for. The two forms differ in scheduling and in next-frontier assembly;
    the rest of the epoch, the sinks, the checkpoint and resume are one
    code path, so either form resumes the other's checkpoint.

    ``collect=False`` keeps page-scale outputs distributed: extracted rows
    go to ``extracted_sink``, one parquet directory per epoch, or are just
    counted. ``seen_sink`` gets each epoch's accepted frontier rows.
    Broadcast mode puts the corpus in the object store once per Ray
    session and corpus stamp (``_corpus_broadcast``), so back-to-back
    crawls share it."""
    import pyarrow.parquet as pq

    timer = _PhaseTimer()
    cfg = cfg or CrawlConfig()
    if seeds is None:
        seeds = pq.read_table(os.path.join(corpus_dir, "seeds.parquet"))[
            "url"
        ].to_pylist()
    if use_politeness_table:
        tb, tr = load_politeness(corpus_dir)
        host_budgets = {**tb, **(host_budgets or {})}
        if cfg.respect_robots:
            robots_disallow = {**tr, **(robots_disallow or {})}
    host_budgets = host_budgets or {}
    robots_disallow = robots_disallow if cfg.respect_robots else {}

    pages_path = os.path.join(corpus_dir, "pages")
    mode = cfg.fetch_mode
    if mode == "auto":
        import pyarrow.dataset as pads

        n_corpus_rows = pads.dataset(pages_path).count_rows()
        mode = "broadcast" if n_corpus_rows <= cfg.broadcast_row_limit else "join"

    # broadcast as an Arrow table: zero-copy page bytes in plasma, shared
    # by every worker process (stages/fetch.cached_corpus_index)
    corpus_ref = _corpus_broadcast(pages_path) if mode == "broadcast" else None

    as_table = cfg.frontier_mode == "driver" or (
        cfg.frontier_mode == "auto" and (collect or cfg.record_order))
    if not as_table and (collect or cfg.record_order):
        raise ValueError(
            "frontier_mode='dataset' supports neither collect nor the "
            "rank trace — use frontier_mode='driver'"
        )

    seen = ShardedSeen(cfg.seen_shards)
    offers_expected = 0  # cumulative fence targets for fire-and-forget offers
    doc_offers_expected = 0
    metrics = None
    if cfg.live_metrics:
        from ..state.metrics import get_or_create_metrics

        metrics = get_or_create_metrics(reset=True)
    res = CrawlRunResult()
    dl_acc: list[pa.Table] = []
    # the table form also keeps every epoch's seen rows, the rank trace
    # when recorded and the extracted rows when collected
    tables: dict[str, list[pa.Table]] = {"seen": []} if as_table else {}
    if cfg.record_order:
        tables["order"] = []
    if collect:
        tables["extracted"] = []
    # T8 retry lane (downloader.go:153-179): failed download tasks re-queue
    # for the next epoch with priority, up to cfg.max_retries attempts
    pending_retry: list[tuple[str, int, int]] = []  # (url, depth, attempt)

    frontier = _seed_frontier(seeds)
    frontier_count = frontier.num_rows
    seed_raws = frozenset(frontier["url"].to_pylist())
    # T2 state: the seed raws dispatched so far (_mark_revisits proof)
    dispatched: set[str] = set()
    epoch = scheduled_total = 0
    if resume and cfg.checkpoint_dir:
        try:
            st = _resume_dataset_state(cfg.checkpoint_dir, seen, res,
                                       dl_acc, pending_retry, tables,
                                       as_table)
        except BaseException:
            seen.kill()  # give the leased shard pool back
            raise
        if st is not None:
            epoch = st["epoch"]
            frontier_count = st["frontier_count"]
            scheduled_total = st["scheduled_total"]
            dispatched.update(st["raw_keys"])
            frontier = st["frontier"]
    seed_ref = None
    if not as_table:
        seed_ref = ray.put(pa.array(sorted(seed_raws), pa.string()))
        if isinstance(frontier, pa.Table):
            frontier = rd.from_arrow(frontier)
    start_epoch = epoch
    fetch_epochs = {"driver": 0, "job": 0}
    timer.lap("setup")
    try:
        while frontier_count > 0 or pending_retry:
            # max_epochs counts epochs run in THIS invocation (a resumed
            # run asked for N epochs does N more)
            if max_epochs is not None and epoch - start_epoch >= max_epochs:
                break
            epoch_token = seen.epoch_token(epoch)
            # the epoch's fetched rows: None in a retry-drain epoch, a
            # table when the driver fetched them, else a Dataset
            fetched = order_tbl = deferred = None
            n_deferred = 0
            in_driver = False
            if frontier_count:
                if as_table:
                    sched, deferred, order_tbl = _schedule_table(
                        frontier, epoch, cfg, host_budgets, dispatched,
                        seed_raws)
                    n_sched, n_deferred = sched.num_rows, deferred.num_rows
                    in_driver = mode == "broadcast" and _in_driver(
                        n_sched, DRIVER_FETCH_ROWS, corpus_ref)
                    if not in_driver:
                        sched, per = _table_dataset(
                            sched, _job_blocks(n_sched,
                                               cfg.extract_batch_size))
                        # a batch no larger than a block splits it and
                        # never bundles blocks: still one task per block
                        batch_rows = min(per, cfg.extract_batch_size)
                else:
                    sched, n_sched, deferred, n_deferred = _schedule_dataset(
                        frontier, frontier_count, epoch, cfg, host_budgets,
                        dispatched, seed_raws, seed_ref)
                    batch_rows = cfg.extract_batch_size
                fetch_epochs["driver" if in_driver else "job"] += 1
                if not in_driver:
                    fetched = _fetch_dataset(
                        sched, n_sched, batch_rows, mode, cfg, corpus_ref,
                        pages_path, seen.handles(), robots_disallow,
                        epoch_token,
                    )
            if cfg.record_order:
                if order_tbl is None:
                    # a retry-drain epoch ranks nothing: its checkpoint
                    # still holds a trace, an empty one
                    order_tbl = _rank_trace(
                        FRONTIER_ARROW_SCHEMA.empty_table().to_pandas(), epoch)
                tables["order"].append(order_tbl)
            timer.lap("schedule")
            if in_driver:
                # less work than a job's fixed cost: the driver holds the
                # same corpus index for its download lane
                fetched = _DRIVER_FETCH_THREAD.submit(FetchAndExtract(
                    cfg, corpus_ref, seen.handles(), robots_disallow,
                    epoch_token), sched).result()
            elif fetched is not None:
                # materialize barriers the epoch: every fetch task has
                # extracted AND submitted its candidate offers
                # (fire-and-forget) before the fence below
                fetched = fetched.materialize()
            timer.lap("fetch")

            # counters (doc offers are fused into the fetch tasks):
            # collected rows are counted in place, a Dataset by ONE tiny
            # stats job
            if collect and isinstance(fetched, rd.Dataset):
                fetched = _collect(fetched)
            counts = _epoch_counts(fetched)
            res.pages_fetched += counts["ok_n"]
            scheduled_total += counts["n"]
            timer.lap("counts")

            # fence both offer streams, then drain: norm drains run async
            # while the download section below executes; the doc drain is
            # tiny (accepted NEW doc urls only) and feeds it
            offers_expected += counts["offers"]
            doc_offers_expected += counts["doc_offers"]
            wait_offers_received(seen.handles(), "norm", offers_expected)
            wait_offers_received(seen.handles(), "doc", doc_offers_expected)
            drain_refs = [
                sh.drain_epoch.remote("norm") for sh in seen.handles()
            ]
            new_tasks = _doc_drain_to_tasks(seen.drain("doc"))
            timer.lap("fence")

            # --- documents -> simulated download (dedup already happened
            # in the shards' doc min-offer stream; retry lane first with
            # priority, then new tasks — T8) ---
            dl_tbl, pending_retry, n_new_docs = _download_lane(
                new_tasks, pending_retry, cfg, mode, corpus_ref,
                pages_path, epoch,
            )
            dl_acc.append(dl_tbl)
            timer.lap("downloads")

            # next frontier: deferred rows first, then the accepted
            # candidates, on the driver or as a Dataset whose rows never
            # pass through it
            if as_table:
                survivors = _drained_to_frontier(
                    _assemble_drain(ray.get(drain_refs)))
                n_new = survivors.num_rows
                frontier = pa.concat_tables([deferred, survivors]) \
                    if n_deferred else survivors
                tables["seen"].append(_seen_rows(survivors, epoch))
            else:
                survivors = rd.from_arrow_refs(drain_refs).map_batches(
                    _drained_to_frontier, batch_format="pyarrow"
                ).materialize()
                n_new = survivors.count()
                frontier = deferred.union(survivors).materialize() \
                    if n_deferred else survivors
            frontier_count = n_new + n_deferred
            if collect:
                # the epoch's extracted rows for the result and the
                # checkpoint (a collect=True resume reads them back)
                ext = fetched if fetched is not None else \
                    FETCHED_SCHEMA.empty_table()
                ext = ext.append_column("epoch", pa.array(
                    np.full(ext.num_rows, epoch, np.int32)))
                tables["extracted"].append(ext)
            timer.lap("frontier")

            _push_epoch_metrics(
                metrics, seen, epoch, counts["n"], counts["ok_n"],
                n_new_docs, dl_tbl, len(pending_retry), frontier_count,
            )
            # resumable outputs: one parquet directory per epoch, replaced
            # when a resumed run re-runs the epoch
            if extracted_sink:
                _write_part(fetched,
                            os.path.join(extracted_sink, f"epoch={epoch}"))
            if seen_sink:
                _write_part(survivors if n_new else None,
                            os.path.join(seen_sink, f"epoch={epoch}"))
            if cfg.checkpoint_dir:
                _ckpt_dataset_epoch(
                    cfg.checkpoint_dir, epoch,
                    frontier if frontier_count else None, dl_tbl,
                    {
                        "pending_retry": [list(x) for x in pending_retry],
                        "scheduled_total": scheduled_total,
                        "pages_fetched": res.pages_fetched,
                        "raw_keys": sorted(dispatched),
                        "frontier_count": frontier_count,
                    },
                    order=order_tbl, extracted=ext if collect else None,
                )
            timer.lap("write")
            epoch += 1
    finally:
        seen.kill()

    # --- assemble result tables ---
    if tables.get("extracted"):
        ext_all = pa.concat_tables(tables["extracted"])
        if "offers_sent" in ext_all.column_names:
            ext_all = ext_all.drop_columns(["offers_sent"])  # fence-internal
        res.extracted = ext_all.filter(
            pa.compute.equal(ext_all["status"], 200))
        res.fetch_log = ext_all.select(
            ["url", "epoch", "depth", "status", "bytes", "ok"])
    for name in ("order", "seen"):
        if tables.get(name):
            setattr(res, name, pa.concat_tables(tables[name]))
    res.downloads = pa.concat_tables(dl_acc) if dl_acc else None
    res.n_epochs = epoch
    res.counters = {
        "epochs": epoch,
        "pages_fetched": res.pages_fetched,
        "scheduled_total": scheduled_total,
        # the Dataset form's seen set stays sharded and distributed
        "seen": res.seen.num_rows if res.seen is not None else None,
        "phases": timer.phases,
        "fetch_epochs": fetch_epochs,
    }
    if metrics is not None:
        res.counters["metrics"] = ray.get(metrics.snapshot.remote())
    return res


def _write_part(rows, path: str) -> None:
    """Replace the parquet directory ``path`` with ``rows``: a driver-held
    table is written by the driver, a Dataset by its own write job, and
    None leaves no directory. A re-run epoch thus never appends a second
    copy (``Dataset.write_parquet`` appends by default)."""
    import shutil

    import pyarrow.parquet as pq

    shutil.rmtree(path, ignore_errors=True)
    if isinstance(rows, pa.Table):
        os.makedirs(path)
        pq.write_table(rows, os.path.join(path, "part-0.parquet"))
    elif rows is not None:
        rows.write_parquet(path)


def _ckpt_dataset_epoch(ckpt_dir: str, epoch: int, frontier,
                        dl_tbl: pa.Table, meta: dict,
                        order: pa.Table | None = None,
                        extracted=None) -> None:
    """The epoch checkpoint of both frontier forms. The next frontier (and
    a collect=True run's extracted rows) go to parquet directories, written
    distributed when they are Datasets; the downloads table, the rank
    trace and ``meta.json`` (retry lane, counters, dispatched seed raws)
    pass through the driver. ``_SUCCESS`` is written last — an
    interrupted epoch is simply re-run and its directory replaced."""
    import json
    import shutil

    import pyarrow.parquet as pq

    d = ckpt.epoch_dir(ckpt_dir, epoch)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    _write_part(frontier, os.path.join(d, "frontier_next"))
    _write_part(extracted, os.path.join(d, "extracted"))
    pq.write_table(dl_tbl, os.path.join(d, "downloads.parquet"))
    if order is not None:
        pq.write_table(order, os.path.join(d, "order.parquet"))
    with open(os.path.join(d, "meta.json"), "w") as f:
        json.dump(meta, f)
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        f.write("ok")


class _ReplayNorms:
    """Resume kernel: re-commit prior epochs' survivor norms into the
    leased seen shards (check_and_add is idempotent and order-independent
    for membership, so the distributed replay needs no coordination)."""

    def __init__(self, handles: list, token: str):
        self.handles = handles
        self.token = token

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..stages.seen import check_and_add_batch

        norms = t.filter(pc.equal(t["priority"], 0))["url_norm"].to_pylist()
        if norms:
            check_and_add_batch(self.handles, "norm", norms, self.token)
        return pa.table({"n": pa.array([len(norms)], pa.int64())})


def _resume_dataset_state(ckpt_dir: str, seen, res, dl_acc: list,
                          pending_retry: list, tables: dict,
                          as_table: bool) -> dict | None:
    """Rebuild crawl state from the last `_SUCCESS` epoch, whichever
    frontier form wrote it: norm set ← one distributed replay of every
    epoch's frontier_next priority-0 (survivor) rows — seeds are never in
    the seen set and deferred rows re-appear with priority 1, so the
    replay is exact; doc set ← distinct urls of the per-epoch downloads
    tables and the retry lane; retry lane, counters and dispatched seed
    raws ← meta.json; the next frontier in the form ``as_table`` names
    (None when empty). ``tables`` (the table form's per-epoch lists) gets
    the seen rows rebuilt from the same survivor rows, and the rank trace
    and extracted rows it asks for; a checkpoint without them (written
    with record_order or collect off) raises rather than return a partial
    result."""
    import glob
    import json

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    done = ckpt.complete_epochs(ckpt_dir)
    if not done:
        return None
    last = done[-1]
    with open(os.path.join(ckpt.epoch_dir(ckpt_dir, last), "meta.json")) as f:
        meta = json.load(f)
    pending_retry.extend(tuple(x) for x in meta["pending_retry"])
    res.pages_fetched = meta["pages_fetched"]
    doc_urls: set[str] = set()
    frontier_files = []
    for k in done:
        d = ckpt.epoch_dir(ckpt_dir, k)
        t = pq.read_table(os.path.join(d, "downloads.parquet"))
        dl_acc.append(t)
        doc_urls.update(t["url"].to_pylist())
        fdir = os.path.join(d, "frontier_next")
        if os.path.isdir(fdir):
            frontier_files += sorted(glob.glob(f"{fdir}/*.parquet"))
        if "seen" in tables:
            f = (pq.read_table(fdir) if os.path.isdir(fdir)
                 else FRONTIER_ARROW_SCHEMA.empty_table())
            tables["seen"].append(_seen_rows(
                _cast_frontier(f.filter(pc.equal(f["priority"], 0))), k))
        for name, path in (("order", "order.parquet"),
                           ("extracted", "extracted")):
            if name not in tables:
                continue
            if not os.path.exists(os.path.join(d, path)):
                raise ValueError(
                    f"checkpoint epoch {k} holds no {name} rows (it was "
                    "written without them): resume with record_order="
                    "False and collect=False")
            tables[name].append(pq.read_table(os.path.join(d, path)))
    # a doc deferred over the download budget was doc-seen-added in its
    # discovery epoch but has no downloads row yet — the retry lane alone
    # carries it, so re-add it or a later link double-queues it
    doc_urls.update(u for u, _, _ in pending_retry)
    if doc_urls:
        seen.check_and_add("doc", sorted(doc_urls))
    if frontier_files:
        rd.read_parquet(frontier_files,
                        columns=["url_norm", "priority"]).map_batches(
            _ReplayNorms(seen.handles(), seen.token), batch_format="pyarrow"
        ).count()
    fdir = os.path.join(ckpt.epoch_dir(ckpt_dir, last), "frontier_next")
    frontier = None
    if meta["frontier_count"] and as_table:
        frontier = _cast_frontier(pq.read_table(fdir))
    elif meta["frontier_count"]:
        frontier = rd.read_parquet(fdir).map_batches(
            _cast_frontier, batch_format="pyarrow").materialize()
    return {
        "epoch": last + 1,
        "frontier": frontier,
        "frontier_count": meta["frontier_count"],
        "scheduled_total": meta["scheduled_total"],
        "raw_keys": meta["raw_keys"],
    }


def _stat_counts(batch: pa.Table) -> pa.Table:
    """ONE counter row per fetched batch (``_epoch_counts``): row/ok
    counts plus the fire-and-forget offer-entry counts the fetch task
    stamped into its output — the driver sums these to fence both offer
    streams. Document rows themselves never pass the driver (they ride the
    shards' doc min-offer stream, see stages/fetch.offer_documents)."""
    return pa.table(
        {
            "n": pa.array([batch.num_rows], pa.int64()),
            "ok_n": pa.array(
                [int(pa.compute.sum(batch["ok"]).as_py() or 0)], pa.int64()
            ),
            "offers": pa.array(
                [int(pa.compute.sum(batch["offers_sent"]).as_py() or 0)],
                pa.int64(),
            ),
            "doc_offers": pa.array(
                [int(pa.compute.sum(batch["doc_offers_sent"]).as_py() or 0)],
                pa.int64(),
            ),
        }
    )


def _doc_drain_to_tasks(drained: pa.Table) -> list[tuple[str, int, int]]:
    """Accepted (url, min comparator key) doc rows from the shard drain ->
    fresh download tasks (url, depth, attempt=0), url-sorted. The drain IS
    the T3 dedup + winner selection: the lexicographic min of
    stages/fetch.doc_offer_key equals the old driver-side sort by
    (p_priority DESC, p_host, p_norm, p_url ASC); the winning parent's
    depth rides in the key's fixed-width tail. assemble_drain already
    norm-sorts, so the task order is deterministic."""
    from ..stages.fetch import doc_key_depth

    return [
        (u, doc_key_depth(k), 0)
        for u, k in zip(drained["url_norm"].to_pylist(),
                        drained["key"].to_pylist())
    ]


def _empty_downloads() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "depth": pa.array([], pa.int32()),
            "attempt": pa.array([], pa.int32()),
            "ok": pa.array([], pa.bool_()),
            "bytes": pa.array([], pa.int64()),
            "filename": pa.array([], pa.string()),
            "epoch": pa.array([], pa.int32()),
        }
    )


def _download_lane(new_tasks, pending_retry, cfg, mode, corpus_ref,
                   pages_path, epoch):
    """T5 global budget → download → T8 retry requeue: the SHARED
    deterministic lane of the crawl epoch (spec mirrored in
    oracle/crawl_sim.py).
    T3 dedup + winner selection happened upstream in the seen shards' doc
    min-offer stream (``new_tasks`` comes from _doc_drain_to_tasks).
    Returns (dl_tbl, next_pending_retry, n_new)."""
    work = sorted(pending_retry) + new_tasks
    next_retry: list[tuple[str, int, int]] = []
    if cfg.download_budget_per_epoch > 0:
        # T5 global limiter (downloader.go:82 analogue): the over-budget
        # tail carries to the next epoch's priority lane unchanged
        next_retry = work[cfg.download_budget_per_epoch:]
        work = work[: cfg.download_budget_per_epoch]
    dl_tbl = _empty_downloads()
    if work:
        d_tbl = pa.table(
            {
                "url": pa.array([w[0] for w in work], pa.string()),
                "depth": pa.array([w[1] for w in work], pa.int32()),
                "attempt": pa.array([w[2] for w in work], pa.int32()),
            }
        )
        if mode == "broadcast" and _in_driver(
                d_tbl.num_rows, DRIVER_DOWNLOAD_BATCH_ROWS, corpus_ref):
            # in the driver: a corpus-index lookup per url, microseconds
            # against a Ray Data job's launch (the driver's ray.get of the
            # corpus is zero-copy)
            dl_out = DownloadSim(cfg, corpus_ref)(d_tbl)
        elif mode in ("broadcast", "http"):
            from ._schema import auto_pool

            n = d_tbl.num_rows
            d_ds, _ = _table_dataset(
                d_tbl, 1 if n <= 16384 else max(2, n // 8192))
            if mode == "broadcast":
                d_ds = d_ds.map_batches(DownloadSim(cfg, corpus_ref),
                                        batch_format="pyarrow")
            else:
                d_ds = d_ds.map_batches(
                    DownloadHttp, fn_constructor_args=(cfg,),
                    batch_format="pyarrow", concurrency=auto_pool(),
                )
            dl_out = _collect(d_ds)
        else:
            dl_out = _download_local(d_tbl, pages_path, cfg)
        if dl_out is not None:
            ddl = dl_out.to_pandas().sort_values(
                ["url", "attempt"], kind="mergesort"
            )
            failed = ddl[~ddl["ok"] & (ddl["attempt"] < cfg.max_retries)]
            next_retry.extend(
                (u, int(d), int(a) + 1)
                for u, d, a in zip(failed["url"], failed["depth"],
                                   failed["attempt"])
            )
            dl_tbl = pa.Table.from_pandas(
                ddl, preserve_index=False
            ).append_column(
                "epoch", pa.array([epoch] * len(ddl), pa.int32())
            )
    return dl_tbl, next_retry, len(new_tasks)


def _download_local(d_tbl: pa.Table, pages_path: str,
                    cfg: CrawlConfig) -> pa.Table | None:
    """Join-mode download simulation via the corpus' hash-bucket
    layout: each task reads ONLY its doc keys' buckets' (url, blen)
    columns, never a whole-corpus scan (a scan measured 5.4 s/epoch at
    sf0.1 for a few hundred docs). A key absent from its bucket is a
    failed download.

    NO shuffle: the doc keys already live on the driver (the retry lane
    assembles them there), so bucket grouping is one driver-side argsort
    over the tiny key table + a contiguous split — a
    groupby("bucket").map_groups here paid a full Ray all-to-all plus
    ~n_buckets task launches per epoch for a few hundred rows (measured
    8-19 s/epoch at sf0.1)."""
    from ..sources.pages import bucketed_pages, key_bucket

    root, n_buckets = bucketed_pages(pages_path)
    fks = [fetch_key(u) or "" for u in d_tbl["url"].to_pylist()]
    t = d_tbl.append_column("fetch_key", pa.array(fks, pa.string()))
    buckets = np.asarray(key_bucket(fks, n_buckets))
    t = t.append_column("bucket", pa.array(buckets))
    order = np.argsort(buckets, kind="stable")
    t = t.take(pa.array(order, pa.int64()))
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # contiguous slices of the bucket-sorted rows: a block reads each
    # bucket of its key range once
    d_ds, _ = _table_dataset(t, max(1, min(ncpu, t.num_rows // 64 + 1,
                                           len(np.unique(buckets)) or 1)))

    def fetch_blen(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        # a batch holds a CONTIGUOUS bucket range (bucket-sorted upstream):
        # per unique bucket, one pruned parquet read + the vectorized
        # index_in → null-propagating take lookup (LocalBucketJoin pattern)
        parts = []
        for b in pc.unique(g["bucket"]).to_pylist():
            sub = g.filter(pc.equal(g["bucket"], b))
            d = os.path.join(root, f"bucket={b}")
            if os.path.isdir(d):
                pb = pq.read_table(d, columns=["url", "blen"])
                idx = pc.index_in(sub["fetch_key"], value_set=pb["url"])
                blen = pb["blen"].combine_chunks().take(idx)
                ok = pc.is_valid(idx)
                nbytes = pc.fill_null(blen, 0).cast(pa.int64())
            else:
                ok = pa.array(np.zeros(sub.num_rows, bool))
                nbytes = pa.array(np.zeros(sub.num_rows, np.int64))
            urls = sub["url"].to_pylist()
            parts.append(pa.table(
                {
                    "url": sub["url"],
                    "depth": sub["depth"],
                    "attempt": sub["attempt"],
                    "ok": ok.combine_chunks() if isinstance(
                        ok, pa.ChunkedArray) else ok,
                    "bytes": nbytes.combine_chunks() if isinstance(
                        nbytes, pa.ChunkedArray) else nbytes,
                    "filename": pa.array(
                        [extract_filename(u) for u in urls], pa.string()
                    ),
                }
            ))
        if not parts:
            return _empty_downloads().drop_columns(["epoch"])
        return pa.concat_tables(parts, promote_options="default")

    return _collect(d_ds.map_batches(fetch_blen, batch_format="pyarrow"))
