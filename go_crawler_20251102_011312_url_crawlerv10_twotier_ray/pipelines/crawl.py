"""The frontier crawl pipeline — depth-epoch driver loop.

Re-expresses the reference's unbounded async colly loop
(crawler/crawler_twotier.go:248-254 + OnResponse at :98-175) as a
deterministic sequence of bounded Ray Data pipelines, one per epoch
(SURVEY.md §2.8): the driver loop is the "stream", each epoch is

    frontier ──(sort + per-host politeness budget + seed-set revisit
        marking, pandas below / Dataset ops above a size threshold)──▶
        scheduled | deferred
    scheduled ──map_batches(FetchAndExtract)──▶ fetched
        [one fused stage: corpus lookup (zero-copy broadcast Arrow index or
         Dataset.join), two-tier route+extract, candidate explosion with
         partial dedup, and (norm, min-key) offers streamed to the sharded
         seen actors — min is order-independent ⇒ deterministic]
    seen.drain("norm") ──▶ survivors (next frontier)   [within-epoch dedup +
        cross-epoch anti-join commit, atomic per shard, no groupby shuffle]
    seen.drain("doc") ──▶ download tasks   [doc candidates ride the same
        shard min-offer stream, exploded + offered inside the fetch tasks]
    everything ──▶ per-epoch checkpoint parquet + _SUCCESS

Scheduling state (the frontier) is URL rows only — thousands of times
smaller than the page bodies, which stream through the fetch/extract/
candidate stages without ever being materialized on the driver. The
frontier itself is handled driver-side in Arrow/pandas below a size
threshold and via distributed Dataset ops above it (same semantics; see
``_schedule_pandas``); page-body stages are ALWAYS distributed.

Determinism (matches oracle/crawl_sim.py — the shared spec):
- epoch sort key (-priority, host, url_norm, url);
- per-host budget applied in sorted order, over-budget rows deferred with
  priority=1 (they jump the next epoch's line);
- per-epoch candidate dedup by url_norm with min((depth, url)) tie-break;
- cross-epoch dedup through the sharded seen actors (atomic check-and-add).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..config import CrawlConfig
from ..functions.urlnorm import fetch_key, host_of, normalize_url
from ..oracle.crawl_sim import validate_seed
from ..oracle.reference import extract_filename
from ..stages.fetch import (
    FETCHED_SCHEMA,
    ExtractJoined,
    FetchAndExtract,
    HttpFetch,
    ScanFetch,
    add_fetch_key,
)
from ..stages.seen import ShardedSeen, wait_offers_received
from ..stages.seen import assemble_drain as _assemble_drain
from ..state import checkpoint as ckpt

FRONTIER_COLS = ["url", "url_norm", "host", "depth", "priority"]


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


def _seed_frontier(seeds: list[str]) -> pd.DataFrame:
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
    return pd.DataFrame(rows, columns=FRONTIER_COLS)


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


def _schedule_distributed(
    frontier: pd.DataFrame, budgets: dict[str, int], default_budget: int
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Distributed twin of _schedule_pandas for huge frontiers: rows
    co-partition by hash(host), each partition marks its budgets in one
    vectorized pass (_budget_mark_partition), then a distributed sort
    gives the deterministic global order. Semantics identical to the
    pandas path (equivalence-tested). NOTE: this driver-mode path still
    funnels the scheduled frontier back into a driver pandas frame at the
    end — dataset mode (frontier_mode="dataset") is the loop that keeps
    the frontier distributed end-to-end; use it for truly huge frontiers."""

    from functools import partial

    mark = partial(_budget_mark_partition, budgets=budgets,
                   default_budget=default_budget)

    n_part = max(2, min(64, len(frontier) // 50_000 + 1))
    ds = rd.from_pandas(frontier).repartition(n_part)
    marked = (
        ds.map_batches(_stamp_host_part(max(8, 4 * n_part)),
                       batch_format="pyarrow")
        .groupby("part")
        .map_groups(mark, batch_format="pandas")
    )

    def keep(flag: bool):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pa.compute.equal(t["sched"], flag)).drop_columns(
                ["sched", "part"]
            )

        return fn

    sched_ds = marked.map_batches(keep(True), batch_format="pyarrow").sort(
        ["priority", "host", "url_norm", "url"],
        descending=[True, False, False, False],
    )
    scheduled_tbl = _collect(sched_ds)
    deferred_tbl = _collect(marked.map_batches(keep(False), batch_format="pyarrow"))
    scheduled = (
        scheduled_tbl.to_pandas()[FRONTIER_COLS].reset_index(drop=True)
        if scheduled_tbl is not None
        else pd.DataFrame(columns=FRONTIER_COLS)
    )
    if deferred_tbl is not None:
        deferred = deferred_tbl.to_pandas()[FRONTIER_COLS].sort_values(
            ["priority", "host", "url_norm", "url"],
            ascending=[False, True, True, True], kind="mergesort",
        ).reset_index(drop=True)
        deferred["priority"] = 1
    else:
        deferred = pd.DataFrame(columns=FRONTIER_COLS)
    return scheduled, deferred


# Epoch-wide candidate dedup key: "%09d\x1f%s" % (depth, url) — zero-padded
# depth makes lexicographic min == min((depth, url)). The dedup itself is
# fused into the seen shards (SeenShard.offer_min/drain_epoch): min is
# order-independent, so racing candidate batches stay deterministic, and no
# groupby shuffle is needed for the frontier.


def _mark_revisits(
    scheduled: pd.DataFrame, seed_raw_set: frozenset,
    dispatched_seed_raws: set,
) -> pd.DataFrame:
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


def _accepted_to_table(accepted: pa.Table) -> pa.Table | None:
    """Pure-Arrow split of the drain table (url_norm, "%09d\x1furl" key):
    the depth prefix is fixed-width so slice+cast does it, and the host
    comes from one C regex pass over the normalized URL. This runs on the
    DRIVER once per epoch over every accepted candidate — at 700k rows the
    old pandas str.split chain was ~3 s of single-threaded fixed cost that
    capped scaling; the Arrow kernels do it in ~0.2 s."""
    import pyarrow.compute as pc

    if accepted.num_rows == 0:
        return None
    norms = accepted["url_norm"].combine_chunks()
    keys = accepted["key"].combine_chunks()
    depth = pc.utf8_slice_codeunits(keys, 0, 9).cast(pa.int32())
    url = pc.utf8_slice_codeunits(keys, 10, 2**30)
    host = pc.struct_field(
        pc.extract_regex(norms, r"^[^:/?#]+://(?P<h>[^/?#]*)"), "h"
    )
    return pa.table(
        {"url": url, "url_norm": norms, "host": host, "depth": depth}
    )


def _join_fetched(marked_ds: rd.Dataset, pages_path: str, cfg: CrawlConfig,
                  seen_handles: list, robots_disallow: dict,
                  epoch_token: str, n_parts: int) -> rd.Dataset:
    """fetch_mode="join" body access, shared by both frontier loops.

    join_strategy="local" (default): keys-first — the frontier (keys +
    metadata, never bodies) shuffles into the corpus' persistent
    hash-bucket layout and each task joins against its own bucket's
    parquet in place (stages/fetch.LocalBucketJoin). "shuffle": legacy
    Dataset.join that re-exchanges the whole corpus every epoch. The two
    are output-equality-tested twins."""
    from ..stages.fetch import ExtractJoined, LocalBucketJoin, add_fetch_key

    marked = marked_ds.map_batches(
        add_fetch_key, batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )
    if cfg.join_strategy == "local":
        from ..sources.pages import bucketed_pages, key_bucket

        root, n_buckets = bucketed_pages(pages_path)

        def stamp(t: pa.Table) -> pa.Table:
            return t.append_column(
                "bucket",
                pa.array(key_bucket(t["fetch_key"].to_pylist(), n_buckets)),
            )

        kern = LocalBucketJoin(root, cfg, seen_handles, robots_disallow,
                               epoch_token)

        def local_bucket_join(g: pa.Table) -> pa.Table:
            return kern(g)

        return (
            marked.map_batches(stamp, batch_format="pyarrow")
            .groupby("bucket")   # one call per BUCKET (~100k pages), not key
            .map_groups(local_bucket_join, batch_format="pyarrow")
        )
    from ..sources.pages import read_pages

    pages_ds = read_pages(pages_path, columns=["url", "html"]).map_batches(
        lambda t: t.rename_columns(["fetch_key", "html"]),
        batch_format="pyarrow",
    )
    joined = marked.join(
        pages_ds, join_type="left_outer",
        num_partitions=max(2, n_parts), on=("fetch_key",),
    )
    return joined.map_batches(
        ExtractJoined(cfg, seen_handles, robots_disallow, epoch_token),
        batch_format="pyarrow", batch_size=cfg.extract_batch_size,
    )


def _collect(ds: rd.Dataset) -> pa.Table:
    def to_table(t):
        if isinstance(t, pa.Table):
            return t
        if isinstance(t, pd.DataFrame):  # pandas blocks (e.g. map_groups)
            return pa.Table.from_pandas(t, preserve_index=False)
        return pa.Table.from_batches([t])

    tables = [to_table(t) for t in ray.get(ds.to_arrow_refs())]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="permissive")


class DownloadSim:
    """Simulated document downloader (broadcast corpus mode): success iff
    the fetch key exists in the corpus, else cfg.max_retries failed attempts
    (downloader.go:153-179)."""

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
    corpus_ref=None,
    seen_sink: str | None = None,
    extracted_sink: str | None = None,
) -> CrawlRunResult:
    """Run the full crawl over a corpus directory (pages/seeds/politeness
    parquet as written by corpus.write_corpus). Ray must already be
    initialised by the caller.

    Data contract: the pages table is keyed by ``url`` and MUST be unique
    per url (corpus.write_corpus guarantees it). Every fetch mode assumes
    it — the broadcast index keeps one row per key, the hash join and the
    scan path would both emit duplicate fetches (and the scan's
    count-based miss detection would be masked) on a corpus with dup urls.

    ``collect=False`` keeps page-scale outputs distributed (extracted rows
    are written per-epoch via ``Dataset.write_parquet`` when a checkpoint
    dir is set, or just counted) — the 100 TB mode; the driver only ever
    holds frontier rows and counters. ``corpus_ref`` lets callers reuse an
    already-broadcast corpus table (e.g. across bench runs)."""
    import pyarrow.parquet as pq

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
    import sys as _sys0
    import time as _time0

    _setup_t = _time0.perf_counter()

    def _setup_tick(label):
        nonlocal _setup_t
        if os.environ.get("GRAFT_CRAWL_DEBUG"):
            print(f"[crawl setup] {label}: "
                  f"{_time0.perf_counter()-_setup_t:.2f}s at "
                  f"{_time0.time():.3f}", file=_sys0.stderr, flush=True)
        _setup_t = _time0.perf_counter()

    import pyarrow.dataset as pads

    n_corpus_rows = pads.dataset(pages_path).count_rows()
    mode = cfg.fetch_mode
    if mode == "auto":
        mode = "broadcast" if n_corpus_rows <= cfg.broadcast_row_limit else "join"

    if mode == "broadcast" and corpus_ref is None:
        # broadcast as an Arrow table: zero-copy page bytes in plasma,
        # shared by every worker process (stages/fetch.cached_corpus_index).
        # NO combine_chunks: per-row chunked access costs the same (~18 µs),
        # while combining 2.4 GB of binary chunks measured 2-9 s of pure
        # allocator churn in a warm session
        t = pq.read_table(pages_path, columns=["url", "html"])
        corpus_ref = ray.put(t)
    _setup_tick("corpus-broadcast")

    # dataset-frontier dispatch: the steady/scale loop keeps the frontier
    # distributed end-to-end (no driver materialization of candidates)
    want_dataset = cfg.frontier_mode == "dataset" or (
        cfg.frontier_mode == "auto" and not collect and not cfg.record_order
        and cfg.checkpoint_dir is None and not resume
    )
    if want_dataset:
        if collect or cfg.record_order:
            raise ValueError(
                "frontier_mode='dataset' supports neither collect nor the "
                "rank trace — use frontier_mode='driver'"
            )
        return _run_crawl_dataset_frontier(
            corpus_dir, cfg, seeds, host_budgets, robots_disallow,
            max_epochs, corpus_ref, mode, seen_sink=seen_sink,
            extracted_sink=extracted_sink, resume=resume,
        )

    seen = ShardedSeen(cfg.seen_shards)
    _setup_tick("seen-shards")
    offers_expected = 0  # cumulative fence targets for fire-and-forget offers
    doc_offers_expected = 0
    metrics = None
    if cfg.live_metrics:
        from ..state.metrics import get_or_create_metrics

        metrics = get_or_create_metrics(
            echo=bool(os.environ.get("GRAFT_CRAWL_DEBUG")), reset=True,
        )
    dispatched_seed_raws: set[str] = set()
    # T8 retry lane (downloader.go:153-179): failed download tasks re-queue
    # for the next epoch with priority, up to cfg.max_retries attempts
    pending_retry: list[tuple[str, int, int]] = []  # (url, depth, attempt)
    res = CrawlRunResult()
    acc: dict[str, list[pa.Table]] = {
        "extracted": [], "order": [], "downloads": [], "seen": []
    }

    start_epoch = 0
    frontier = _seed_frontier(seeds)
    seed_raw_set = frozenset(frontier["url"]) if len(frontier) else frozenset()
    if resume and cfg.checkpoint_dir:
        done = ckpt.complete_epochs(cfg.checkpoint_dir)
        if done:
            for k in done:
                try:
                    ext = ckpt.read_epoch_table(cfg.checkpoint_dir, k, "extracted")
                    acc["extracted"].append(ext)
                except FileNotFoundError:
                    pass  # collect=False runs sink extracted via write_parquet
                acc["order"].append(ckpt.read_epoch_table(cfg.checkpoint_dir, k, "order"))
                dl = ckpt.read_epoch_table(cfg.checkpoint_dir, k, "downloads")
                acc["downloads"].append(dl)
                sd = ckpt.read_epoch_table(cfg.checkpoint_dir, k, "seen_delta")
                acc["seen"].append(sd)
                # rebuild shard state from deltas (raw-revisit state is
                # the driver-side dispatched-seed set — see _mark_revisits)
                dispatched_seed_raws.update(
                    set(acc["order"][-1]["url"].to_pylist()) & seed_raw_set
                )
                seen.check_and_add("norm", sd["url_norm"].to_pylist())
                seen.check_and_add("doc", dl["url"].to_pylist())
            start_epoch = done[-1] + 1
            frontier = ckpt.read_epoch_table(
                cfg.checkpoint_dir, done[-1], "frontier_next"
            ).to_pandas()
            try:
                rt = ckpt.read_epoch_table(
                    cfg.checkpoint_dir, done[-1], "retries_next"
                )
                pending_retry = [
                    (u, int(d), int(a))
                    for u, d, a in zip(rt["url"].to_pylist(),
                                       rt["depth"].to_pylist(),
                                       rt["attempt"].to_pylist())
                ]
            except FileNotFoundError:
                pending_retry = []
            if pending_retry:
                # a doc deferred over the download budget was doc-seen-added
                # in its discovery epoch but has no downloads row yet — the
                # retry lane alone carries it, so re-add it to the doc set
                # or a later link to the same doc double-queues it
                seen.check_and_add(
                    "doc", sorted({u for u, _, _ in pending_retry}))
            # restore the fetched counter (collect=True recomputes it from
            # the restored extracted tables after the loop; collect=False
            # has no tables, so sum the per-epoch metas)
            import json as _json

            for k in done:
                try:
                    with open(os.path.join(
                            ckpt.epoch_dir(cfg.checkpoint_dir, k),
                            "meta.json")) as f:
                        res.pages_fetched += int(
                            _json.load(f).get("fetched_ok") or 0)
                except FileNotFoundError:
                    pass

    import sys as _sys
    import time as _time

    debug = bool(os.environ.get("GRAFT_CRAWL_DEBUG"))

    def _tick(label, t0):
        if debug:
            print(f"[crawl e{epoch}] {label}: {_time.perf_counter()-t0:.2f}s"
                  f" at {_time.time():.3f}",
                  file=_sys.stderr, flush=True)
        return _time.perf_counter()

    epoch = start_epoch
    try:
        while len(frontier) > 0 or pending_retry:
            if max_epochs is not None and epoch - start_epoch >= max_epochs:
                break
            _t = _time.perf_counter()
            if (not cfg.record_order and not host_budgets
                    and cfg.default_host_budget <= 0):
                # trace off + unlimited budgets: scheduling is the identity
                # (no deterministic rank needed) — skip the big sort
                scheduled, deferred = (
                    frontier.reset_index(drop=True),
                    pd.DataFrame(columns=FRONTIER_COLS),
                )
            else:
                _sched_fn = (
                    _schedule_distributed
                    if len(frontier) > cfg.frontier_distributed_threshold
                    else _schedule_pandas
                )
                scheduled, deferred = _sched_fn(
                    frontier, host_budgets, cfg.default_host_budget
                )
            order_tbl = pa.table(
                {
                    "epoch": pa.array([epoch] * len(scheduled), pa.int32()),
                    "rank": pa.array(range(len(scheduled)), pa.int64()),
                    "url": pa.array(scheduled["url"], pa.string()),
                    "host": pa.array(scheduled["host"], pa.string()),
                    "depth": pa.array(scheduled["depth"], pa.int32()),
                    "priority": pa.array(scheduled["priority"], pa.int32()),
                }
            )

            # raw-revisit (T2) is a pure driver-side computation against
            # the seed set — see stages/fetch.py docstring for the proof
            scheduled = _mark_revisits(
                scheduled, seed_raw_set, dispatched_seed_raws
            )
            dispatched_seed_raws.update(set(scheduled["url"]) & seed_raw_set)

            sched_tbl = pa.Table.from_pandas(
                scheduled[FRONTIER_COLS + ["revisit"]], preserve_index=False
            )
            n_blocks = max(1, min(32, (len(scheduled) + cfg.extract_batch_size - 1)
                                  // cfg.extract_batch_size))
            sched_ds = rd.from_arrow(sched_tbl).repartition(n_blocks)

            epoch_token = seen.epoch_token(epoch)
            if len(scheduled) == 0:
                # retry-drain epoch: only pending download retries remain
                fetched = None
            elif mode == "broadcast":
                fetched = sched_ds.map_batches(
                    FetchAndExtract(cfg, corpus_ref, seen.handles(),
                                    robots_disallow, epoch_token),
                    batch_format="pyarrow",
                    batch_size=cfg.extract_batch_size,
                )
            elif mode == "http":
                # live network: autoscaling actor pool, client built once
                # per actor (stages/fetch.HttpFetch)
                from ._schema import auto_pool

                fetched = sched_ds.map_batches(
                    HttpFetch,
                    fn_constructor_args=(cfg, seen.handles(),
                                         robots_disallow, epoch_token),
                    batch_format="pyarrow",
                    batch_size=cfg.extract_batch_size,
                    concurrency=auto_pool(),
                )
            elif mode == "scan":
                # corpus scan + broadcast frontier index: bodies never
                # shuffle, no process holds the corpus — right whenever
                # frontier ≪ corpus (misses synthesized after the barrier)
                from ..sources.pages import read_pages

                sched_ref = ray.put(add_fetch_key(sched_tbl))
                fetched = read_pages(pages_path, columns=["url", "html"]).map_batches(
                    ScanFetch(sched_ref, cfg, seen.handles(),
                              robots_disallow, epoch_token),
                    batch_format="pyarrow",
                    batch_size=cfg.extract_batch_size,
                )
            else:
                fetched = _join_fetched(
                    sched_ds, pages_path, cfg, seen.handles(),
                    robots_disallow, epoch_token, n_blocks,
                )
            _t = _tick("schedule", _t)
            # materialize barriers the epoch: every fetch task has extracted
            # AND submitted its candidate offers (fire-and-forget) before
            # the fence below
            if fetched is not None:
                fetched = fetched.materialize()
            if mode == "scan" and fetched is not None and len(scheduled):
                # scan emits only corpus hits — synthesize the 404/304 rows
                # for scheduled keys the whole corpus lacks (keys-only
                # collect; the driver frontier is already driver-resident)
                hit_df = fetched.select_columns(["url"]).to_pandas()
                hit_urls = set(hit_df["url"]) if len(hit_df) else set()
                miss = scheduled[~scheduled["url"].isin(hit_urls)]
                if len(miss):
                    miss_tbl = add_fetch_key(pa.Table.from_pandas(
                        miss[FRONTIER_COLS + ["revisit"]],
                        preserve_index=False))
                    miss_tbl = miss_tbl.append_column(
                        "html", pa.array([None] * len(miss), pa.binary()))
                    miss_out = ExtractJoined(
                        cfg, seen.handles(), robots_disallow, epoch_token
                    )(miss_tbl)
                    fetched = fetched.union(rd.from_arrow(miss_out))
            _t = _tick("fetch+extract+offer", _t)

            # --- counters (doc offers are fused into the fetch tasks) ---
            # collect=True (test/bench scale): sums over the collected
            # batch; collect=False (steady/100 TB): ONE tiny stats pipeline
            # (one counter row per batch; no doc rows pass the driver).
            ext_tbl = None
            epoch_offers = 0
            epoch_doc_offers = 0
            epoch_ok = 0
            if fetched is not None:
                if collect:
                    ext_tbl = _collect(fetched) or FETCHED_SCHEMA.empty_table()
                    epoch_offers = int(
                        pa.compute.sum(ext_tbl["offers_sent"]).as_py() or 0
                    )
                    epoch_doc_offers = int(
                        pa.compute.sum(ext_tbl["doc_offers_sent"]).as_py() or 0
                    )
                    epoch_ok = int(
                        pa.compute.sum(ext_tbl["ok"]).as_py() or 0
                    )
                else:
                    stats = _collect(
                        fetched.map_batches(_stat_counts,
                                            batch_format="pyarrow")
                    )
                    if stats is not None:
                        import pyarrow.compute as _pc

                        epoch_ok = int(_pc.sum(stats["ok_n"]).as_py() or 0)
                        res.pages_fetched += epoch_ok
                        epoch_offers = int(
                            _pc.sum(stats["offers"]).as_py() or 0
                        )
                        epoch_doc_offers = int(
                            _pc.sum(stats["doc_offers"]).as_py() or 0
                        )
            _t = _tick("stat-counts", _t)

            # fence both offer streams, then drain: norm drains run async
            # while the download section below executes; the doc drain is
            # tiny (accepted NEW doc urls only) and feeds it
            offers_expected += epoch_offers
            doc_offers_expected += epoch_doc_offers
            wait_offers_received(seen.handles(), "norm", offers_expected)
            wait_offers_received(seen.handles(), "doc", doc_offers_expected)
            drain_refs = [
                sh.drain_epoch.remote("norm") for sh in seen.handles()
            ]
            new_tasks = _doc_drain_to_tasks(seen.drain("doc"))
            _t = _tick("offer-fence+drain-submit", _t)

            # --- documents -> simulated download (dedup already happened
            # in the shards' doc min-offer stream; retry lane first with
            # priority, then new tasks — T8) ---
            dl_tbl, pending_retry, n_new_docs = _download_lane(
                new_tasks, pending_retry, cfg, mode, corpus_ref,
                pages_path, epoch,
            )

            _t = _tick("documents+downloads", _t)
            accepted = _assemble_drain(ray.get(drain_refs))
            survivors = _accepted_to_table(accepted)
            _t = _tick("drain-assemble", _t)
            if collect:
                if ext_tbl is None:
                    ext_tbl = FETCHED_SCHEMA.empty_table()
                ext_tbl = ext_tbl.append_column(
                    "epoch", pa.array([epoch] * ext_tbl.num_rows, pa.int32())
                )
                acc["extracted"].append(ext_tbl)
                # (res.pages_fetched is set from the concatenated extracted
                # table after the loop in collect mode)
            else:
                ext_tbl = None
                if fetched is not None and cfg.checkpoint_dir:
                    # distributed sink: per-epoch partition dir
                    fetched.write_parquet(
                        os.path.join(
                            cfg.checkpoint_dir, f"epoch={epoch}", "extracted"
                        )
                    )
                if fetched is not None and extracted_sink:
                    fetched.write_parquet(
                        os.path.join(extracted_sink, f"epoch={epoch}")
                    )
                # (pages_fetched was tallied from the explode pipeline's
                # stat rows above — no separate counts pipeline)
            acc["order"].append(order_tbl)
            acc["downloads"].append(dl_tbl)

            if survivors is not None and survivors.num_rows:
                # accepted pairs are norm-sorted (assemble_drain sorts)
                sdf = survivors.to_pandas()
                seen_delta = pa.table(  # zero-copy column reuse
                    {
                        "url_norm": survivors["url_norm"],
                        "first_depth": survivors["depth"],
                        "url": survivors["url"],
                        "epoch": pa.array(
                            np.full(survivors.num_rows, epoch, np.int32)
                        ),
                    }
                )
            else:
                sdf = pd.DataFrame(columns=["url", "url_norm", "host", "depth"])
                seen_delta = pa.table(
                    {
                        "url_norm": pa.array([], pa.string()),
                        "first_depth": pa.array([], pa.int32()),
                        "url": pa.array([], pa.string()),
                        "epoch": pa.array([], pa.int32()),
                    }
                )
            acc["seen"].append(seen_delta)

            new_frontier = sdf.assign(priority=0)[FRONTIER_COLS] if len(sdf) else \
                pd.DataFrame(columns=FRONTIER_COLS)
            next_frontier = pd.concat([deferred, new_frontier], ignore_index=True)

            if metrics is not None:
                n_dl_ok = int(pa.compute.sum(dl_tbl["ok"]).as_py() or 0)
                metrics.record_epoch.remote(  # fire-and-forget gauge push
                    {
                        "epoch": epoch,
                        "scheduled": len(scheduled),
                        "fetched_ok": epoch_ok,
                        "fetch_err": len(scheduled) - epoch_ok,
                        "docs_queued": n_new_docs,
                        "downloads_ok": n_dl_ok,
                        "download_err": dl_tbl.num_rows - n_dl_ok,
                        "retries_pending": len(pending_retry),
                        "seen_total": seen.total("norm"),
                        "frontier_next": len(next_frontier),
                    }
                )

            if cfg.checkpoint_dir:
                ckpt_tables = {
                        "frontier_next": pa.Table.from_pandas(
                            next_frontier, preserve_index=False
                        ) if len(next_frontier) else pa.table(
                            {c: pa.array([], pa.string() if c not in
                                         ("depth", "priority") else pa.int32())
                             for c in FRONTIER_COLS}
                        ),
                        "order": order_tbl,
                        "downloads": dl_tbl,
                        "seen_delta": seen_delta,
                        "retries_next": pa.table(
                            {
                                "url": pa.array([w[0] for w in pending_retry],
                                                pa.string()),
                                "depth": pa.array([w[1] for w in pending_retry],
                                                  pa.int32()),
                                "attempt": pa.array(
                                    [w[2] for w in pending_retry], pa.int32()
                                ),
                            }
                        ),
                }
                if ext_tbl is not None:
                    # collect=False writes extracted distributed instead
                    ckpt_tables["extracted"] = ext_tbl
                ckpt.write_epoch(
                    cfg.checkpoint_dir,
                    epoch,
                    ckpt_tables,
                    meta={
                        "epoch": epoch,
                        "scheduled": len(scheduled),
                        "fetched_ok": epoch_ok,
                        "seen_total": seen.total("norm"),
                    },
                )

            _t = _tick("collect+checkpoint", _t)
            frontier = next_frontier
            epoch += 1
    finally:
        seen.kill()

    # --- assemble result tables ---
    ext_all = pa.concat_tables(acc["extracted"]) if acc["extracted"] else None
    if ext_all is not None and "offers_sent" in ext_all.column_names:
        ext_all = ext_all.drop_columns(["offers_sent"])  # fence-internal
    res.extracted = (
        ext_all.filter(pa.compute.equal(ext_all["status"], 200))
        if ext_all is not None else None
    )
    if ext_all is not None:
        res.fetch_log = ext_all.select(
            ["url", "epoch", "depth", "status", "bytes", "ok"]
        )
        res.pages_fetched = res.extracted.num_rows
    res.order = pa.concat_tables(acc["order"]) if acc["order"] else None
    res.downloads = pa.concat_tables(acc["downloads"]) if acc["downloads"] else None
    res.seen = pa.concat_tables(acc["seen"]) if acc["seen"] else None
    res.n_epochs = epoch
    res.counters = {
        "epochs": epoch,
        "pages_fetched": res.pages_fetched,
        "seen": res.seen.num_rows if res.seen is not None else 0,
    }
    if metrics is not None:
        res.counters["metrics"] = ray.get(metrics.snapshot.remote())
    return res


FRONTIER_ARROW_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_norm", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
    ]
)


def _cast_frontier(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            f.name: t[f.name].cast(f.type)
            for f in FRONTIER_ARROW_SCHEMA
        }
    )


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


def _resolve_seed_revisits(sched_ds, seed_ref, seen) -> dict:
    """T2 raw-revisit decisions for one dataset-mode epoch, resolved
    DETERMINISTICALLY on the driver: the seed-matching rows (≤ n_seeds —
    bounded regardless of frontier size) are collected, ordered by the
    schedule comparator (-priority, host, url_norm, url; depth ascending
    as the final tie-break), and the first occurrence per raw url that the
    shards' ``raw`` state accepts becomes the winner. A shard-side
    first-come check_and_add inside the fetch tasks would instead resolve
    same-epoch duplicates by actor-call race (and a Ray task retry would
    re-ask and corrupt a genuine first dispatch into a 304)."""
    seed_hits = _collect(sched_ds.map_batches(
        _KeepSeedRows(seed_ref), batch_format="pyarrow"))
    if seed_hits is None or seed_hits.num_rows == 0:
        return {}
    shp = seed_hits.to_pandas().sort_values(
        ["priority", "host", "url_norm", "url", "depth"],
        ascending=[False, True, True, True, True], kind="mergesort",
    ).drop_duplicates("url", keep="first")
    fresh = seen.check_and_add("raw", shp["url"].tolist())
    return {
        u: (int(d), int(p))
        for u, d, p, ok in zip(shp["url"], shp["depth"], shp["priority"],
                               fresh)
        if ok
    }


class MarkRevisitsInTask:
    """Dataset-frontier revisit marking (T2): pure broadcast-lookup
    against the per-epoch winner decisions (_resolve_seed_revisits) — no
    shard RPC in the fetch path, deterministic under task retries. A
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


def _run_crawl_dataset_frontier(
    corpus_dir: str,
    cfg: CrawlConfig,
    seeds: list[str],
    host_budgets: dict[str, int],
    robots_disallow: dict[str, list[str]],
    max_epochs: int | None,
    corpus_ref,
    mode: str,
    seen_sink: str | None = None,
    extracted_sink: str | None = None,
    resume: bool = False,
) -> CrawlRunResult:
    """The 100 TB steady loop: the frontier is a ``ray.data.Dataset`` from
    seed to sink. Per epoch: (budget map_groups →) in-task revisit marking
    → fused fetch+extract+offer → offer fence → per-shard drain TABLE refs
    → ``from_arrow_refs`` → pure-Arrow key split → next frontier. Accepted
    candidates never pass through the driver; driver state is counters,
    the retry lane and the (tiny) seed set. No rank trace, no checkpoint
    (use frontier_mode="driver" for those)."""
    import pyarrow.compute as pc

    debug = bool(os.environ.get("GRAFT_CRAWL_DEBUG"))

    def _tick(label, t0):
        if debug:
            t1 = time.perf_counter()
            print(f"  [ds-epoch] {label}: {t1 - t0:.2f}s", file=sys.stderr)
            return t1
        return t0

    pages_path = os.path.join(corpus_dir, "pages")
    seen = ShardedSeen(cfg.seen_shards)
    metrics = None
    if cfg.live_metrics:
        from ..state.metrics import get_or_create_metrics

        metrics = get_or_create_metrics(
            echo=bool(os.environ.get("GRAFT_CRAWL_DEBUG")), reset=True,
        )
    offers_expected = 0
    doc_offers_expected = 0
    res = CrawlRunResult()
    dl_acc: list[pa.Table] = []
    pending_retry: list[tuple[str, int, int]] = []

    seed_df = _seed_frontier(seeds)
    seed_ref = ray.put(pa.array(sorted(set(seed_df["url"])), pa.string()))
    n_seed_urls = len(set(seed_df["url"]))
    raws_claimed = 0  # seed raws committed so far (drives the scan skip)
    frontier_ds = rd.from_arrow(
        _cast_frontier(pa.Table.from_pandas(seed_df, preserve_index=False))
    ) if len(seed_df) else None
    frontier_count = len(seed_df)
    default_budget = cfg.default_host_budget
    budgets_on = bool(host_budgets) or default_budget > 0

    from functools import partial

    mark_budget = partial(_budget_mark_partition, budgets=host_budgets,
                          default_budget=default_budget)

    epoch = 0
    scheduled_total = 0
    if resume and cfg.checkpoint_dir:
        st = _resume_dataset_state(cfg.checkpoint_dir, seen, res, dl_acc,
                                   pending_retry)
        if st is not None:
            epoch = st["epoch"]
            frontier_ds = st["frontier_ds"]
            frontier_count = st["frontier_count"]
            scheduled_total = st["scheduled_total"]
            raws_claimed = st["raws_claimed"]
    start_epoch = epoch
    try:
        while frontier_count > 0 or pending_retry:
            # max_epochs counts epochs run in THIS invocation (driver-loop
            # parity: a resumed run asked for N epochs does N more)
            if max_epochs is not None and epoch - start_epoch >= max_epochs:
                break
            _t = time.perf_counter()
            deferred_ds = None
            deferred_count = 0
            fetched = None
            if frontier_count > 0:
                # one parquet-table/from_arrow frontier = ONE block = one
                # serial fetch task (round-1 lesson): spread the epoch's
                # rows so fetch parallelism matches the CPU budget
                n_cpu = int(ray.cluster_resources().get("CPU", 8))
                n_blocks = max(1, min(
                    max(32, 2 * n_cpu),
                    (frontier_count + cfg.extract_batch_size - 1)
                    // cfg.extract_batch_size,
                ))
                sched_ds = frontier_ds.repartition(n_blocks)
                if budgets_on:
                    # hash(host) co-partition + ONE vectorized marking pass
                    # per partition — never a Python call per host (a web
                    # frontier has millions of hosts)
                    n_part_pol = max(8, min(
                        512, frontier_count // 25_000 + 2))
                    marked = (
                        sched_ds.map_batches(
                            _stamp_host_part(n_part_pol),
                            batch_format="pyarrow")
                        .groupby("part")
                        .map_groups(mark_budget, batch_format="pandas")
                    ).materialize()
                    sched_ds = marked.filter(expr="sched == True").map_batches(
                        lambda t: _cast_frontier(t), batch_format="pyarrow"
                    )
                    deferred_ds = (
                        marked.filter(expr="sched == False")
                        .map_batches(
                            lambda t: _cast_frontier(
                                t.set_column(
                                    t.schema.get_field_index("priority"),
                                    "priority",
                                    pa.array(
                                        np.ones(t.num_rows, np.int32)
                                    ),
                                )
                            ),
                            batch_format="pyarrow",
                        )
                        .materialize()
                    )
                    deferred_count = deferred_ds.count()
                if epoch == start_epoch == 0 and not budgets_on:
                    # bulk-seed fast path: epoch 0's schedule is exactly
                    # the (driver-deduped) seed list, nothing is deferred
                    # and the raw set is empty — every row is its own
                    # winner; skip the contest scan (at 240k seeds it cost
                    # ~3 s of driver collect+sort for a trivial result)
                    urls = sorted(set(seed_df["url"]))
                    seen.check_and_add("raw", urls)
                    raws_claimed = len(urls)
                    winners = {u: (0, 0) for u in urls}
                elif raws_claimed >= n_seed_urls:
                    # every seed raw is already dispatched: the contest
                    # would return {} (all seed-matching rows are
                    # revisits) — skip the frontier scan entirely
                    winners = {}
                else:
                    winners = _resolve_seed_revisits(sched_ds, seed_ref,
                                                     seen)
                    raws_claimed += len(winners)
                winners_ref = ray.put(winners)
                sched_ds = sched_ds.map_batches(
                    MarkRevisitsInTask(seed_ref, winners_ref),
                    batch_format="pyarrow",
                )
                _t = _tick("schedule+revisits", _t)
                epoch_token = seen.epoch_token(epoch)
                if mode == "broadcast":
                    fetched = sched_ds.map_batches(
                        FetchAndExtract(cfg, corpus_ref, seen.handles(),
                                        robots_disallow, epoch_token),
                        batch_format="pyarrow",
                        batch_size=cfg.extract_batch_size,
                    ).materialize()
                elif mode == "http":
                    from ._schema import auto_pool

                    fetched = sched_ds.map_batches(
                        HttpFetch,
                        fn_constructor_args=(cfg, seen.handles(),
                                             robots_disallow, epoch_token),
                        batch_format="pyarrow",
                        batch_size=cfg.extract_batch_size,
                        concurrency=auto_pool(),
                    ).materialize()
                elif mode == "scan":
                    # corpus scan + frontier broadcast FROM BLOCK REFS (the
                    # scheduled set never touches the driver); misses get a
                    # keys-only anti-join, and only when the row counts say
                    # some scheduled key found no page
                    from ..sources.pages import read_pages

                    marked2 = sched_ds.map_batches(
                        add_fetch_key, batch_format="pyarrow",
                        batch_size=cfg.extract_batch_size,
                    ).materialize()
                    sched_refs = marked2.to_arrow_refs()
                    fetched = read_pages(
                        pages_path, columns=["url", "html"]
                    ).map_batches(
                        ScanFetch(sched_refs, cfg, seen.handles(),
                                  robots_disallow, epoch_token),
                        batch_format="pyarrow",
                        batch_size=cfg.extract_batch_size,
                    ).materialize()
                    if fetched.count() < marked2.count():
                        fetched = fetched.union(
                            _scan_misses_dataset(
                                marked2, fetched, cfg, seen.handles(),
                                robots_disallow, epoch_token,
                            )
                        ).materialize()
                else:
                    fetched = _join_fetched(
                        sched_ds, pages_path, cfg, seen.handles(),
                        robots_disallow, epoch_token,
                        int(ray.cluster_resources().get("CPU", 8)),
                    ).materialize()

            _t = _tick("fetch+extract+offer", _t)
            if fetched is not None and extracted_sink:
                # resumable output: one parquet directory per epoch,
                # written distributed (extracted rows never pass through
                # the driver) — a downstream consumer or a re-run can skip
                # finished epoch partitions
                fetched.write_parquet(
                    os.path.join(extracted_sink, f"epoch={epoch}")
                )

            # counters (ONE tiny stats pipeline — doc offers are fused into
            # the fetch tasks, no doc rows pass the driver), then fence +
            # drain refs
            epoch_ok = 0
            epoch_offers = 0
            epoch_doc_offers = 0
            epoch_sched = 0
            if fetched is not None:
                stats = _collect(
                    fetched.map_batches(_stat_counts,
                                        batch_format="pyarrow")
                )
                if stats is not None:
                    epoch_ok = int(pc.sum(stats["ok_n"]).as_py() or 0)
                    epoch_sched = int(pc.sum(stats["n"]).as_py() or 0)
                    epoch_offers = int(pc.sum(stats["offers"]).as_py() or 0)
                    epoch_doc_offers = int(
                        pc.sum(stats["doc_offers"]).as_py() or 0)
            res.pages_fetched += epoch_ok
            scheduled_total += epoch_sched
            offers_expected += epoch_offers
            doc_offers_expected += epoch_doc_offers
            _t = _tick("stat-counts", _t)
            wait_offers_received(seen.handles(), "norm", offers_expected)
            wait_offers_received(seen.handles(), "doc", doc_offers_expected)
            drain_refs = [
                sh.drain_epoch_table.remote("norm") for sh in seen.handles()
            ]
            new_tasks = _doc_drain_to_tasks(seen.drain("doc"))
            _t = _tick("fence+drain-submit", _t)

            # downloads (the SHARED deterministic lane — _download_lane)
            dl_tbl, pending_retry, n_new_docs = _download_lane(
                new_tasks, pending_retry, cfg, mode, corpus_ref,
                pages_path, epoch,
            )
            dl_acc.append(dl_tbl)
            _t = _tick("downloads", _t)

            # next frontier: drain tables → Dataset, key split in tasks
            surv_ds = rd.from_arrow_refs(drain_refs).map_batches(
                _drained_to_frontier, batch_format="pyarrow"
            ).materialize()
            n_new = surv_ds.count()
            if seen_sink is not None and n_new:
                # distributed partitioned sink for the seen/frontier log
                # (one dir per epoch — the resumable-output layout)
                surv_ds.write_parquet(
                    os.path.join(seen_sink, f"epoch={epoch}")
                )
            if deferred_ds is not None and deferred_count:
                frontier_ds = deferred_ds.union(surv_ds).materialize()
            else:
                frontier_ds = surv_ds
            frontier_count = n_new + deferred_count
            _t = _tick("frontier-assemble", _t)

            if metrics is not None:
                n_dl_ok = int(pa.compute.sum(dl_tbl["ok"]).as_py() or 0)
                metrics.record_epoch.remote(
                    {
                        "epoch": epoch,
                        "scheduled": epoch_sched,
                        "fetched_ok": epoch_ok,
                        "fetch_err": epoch_sched - epoch_ok,
                        "docs_queued": n_new_docs,
                        "downloads_ok": n_dl_ok,
                        "download_err": dl_tbl.num_rows - n_dl_ok,
                        "retries_pending": len(pending_retry),
                        "seen_total": seen.total("norm"),
                        "frontier_next": frontier_count,
                    }
                )
            if cfg.checkpoint_dir:
                _ckpt_dataset_epoch(
                    cfg.checkpoint_dir, epoch,
                    frontier_ds if frontier_count else None, dl_tbl,
                    {
                        "pending_retry": [list(x) for x in pending_retry],
                        "scheduled_total": scheduled_total,
                        "pages_fetched": res.pages_fetched,
                        "raw_keys": seen.keys("raw"),
                        "frontier_count": frontier_count,
                    },
                )
            _t = _tick("checkpoint", _t)
            epoch += 1
    finally:
        seen.kill()

    res.downloads = pa.concat_tables(dl_acc) if dl_acc else None
    res.n_epochs = epoch
    res.counters = {
        "epochs": epoch,
        "pages_fetched": res.pages_fetched,
        "scheduled_total": scheduled_total,
        "seen": None,  # stays sharded/distributed in this mode
    }
    if metrics is not None:
        res.counters["metrics"] = ray.get(metrics.snapshot.remote())
    return res


def _ckpt_dataset_epoch(ckpt_dir: str, epoch: int, frontier_ds,
                        dl_tbl: pa.Table, meta: dict) -> None:
    """Dataset-frontier checkpoint: the (possibly huge) next frontier is
    written DISTRIBUTED as a parquet directory; only the downloads table,
    the tiny seed-dispatch raw-key set and counters pass through the
    driver. `_SUCCESS` is written last — an interrupted epoch is simply
    re-run and its directory overwritten."""
    import json
    import shutil

    import pyarrow.parquet as pq

    d = ckpt.epoch_dir(ckpt_dir, epoch)
    if os.path.exists(d):
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    if frontier_ds is not None:
        frontier_ds.write_parquet(os.path.join(d, "frontier_next"))
    pq.write_table(dl_tbl, os.path.join(d, "downloads.parquet"))
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
                          pending_retry: list) -> dict | None:
    """Rebuild dataset-frontier state from the last `_SUCCESS` epoch:
    norm set ← distributed replay of every prior frontier_next's
    priority-0 (survivor) rows — seeds are never in the seen set and
    deferred rows re-appear with priority 1, so the replay is exact;
    doc set ← distinct urls of the per-epoch downloads tables;
    raw set + retry lane + counters ← meta.json."""
    import json

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
    for k in done:
        t = pq.read_table(
            os.path.join(ckpt.epoch_dir(ckpt_dir, k), "downloads.parquet"))
        dl_acc.append(t)
        doc_urls.update(t["url"].to_pylist())
    doc_urls.update(u for u, _, _ in pending_retry)  # budget-deferred
    # docs live only in the retry lane until attempted — see driver resume
    if doc_urls:
        seen.check_and_add("doc", sorted(doc_urls))
    if meta["raw_keys"]:
        seen.check_and_add("raw", meta["raw_keys"])
    for k in done:
        fdir = os.path.join(ckpt.epoch_dir(ckpt_dir, k), "frontier_next")
        if not os.path.isdir(fdir):
            continue
        rd.read_parquet(fdir, columns=["url_norm", "priority"]).map_batches(
            _ReplayNorms(seen.handles(), seen.token), batch_format="pyarrow"
        ).count()
    frontier_ds = None
    if meta["frontier_count"]:
        fdir = os.path.join(ckpt.epoch_dir(ckpt_dir, last), "frontier_next")
        frontier_ds = rd.read_parquet(fdir).map_batches(
            _cast_frontier, batch_format="pyarrow"
        ).materialize()
    return {
        "epoch": last + 1,
        "frontier_ds": frontier_ds,
        "frontier_count": meta["frontier_count"],
        "scheduled_total": meta["scheduled_total"],
        "raws_claimed": len(meta["raw_keys"]),
    }


def _drained_to_frontier(t: pa.Table) -> pa.Table:
    """(url_norm, key) drain rows -> frontier rows (priority 0), using the
    same pure-Arrow split as _accepted_to_table."""
    out = _accepted_to_table(t)
    if out is None:
        return FRONTIER_ARROW_SCHEMA.empty_table()
    return out.append_column(
        "priority", pa.array(np.zeros(out.num_rows, np.int32))
    )


def _stat_counts(batch: pa.Table) -> pa.Table:
    """ONE counter row per fetched batch (collect=False path): row/ok
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


def _empty_downloads(epoch: int) -> pa.Table:
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


class _NullHtmlExtract:
    """Run the join-mode extract kernel over scheduled rows with no corpus
    page (scan-mode misses): html=None → 404 (or 304 for revisit rows)."""

    def __init__(self, cfg, seen_handles, robots_disallow, epoch_token):
        self.inner = ExtractJoined(cfg, seen_handles, robots_disallow,
                                   epoch_token)

    def __call__(self, t: pa.Table) -> pa.Table:
        if "hit" in t.column_names:
            t = t.drop_columns(["hit"])
        t = t.append_column(
            "html", pa.array([None] * t.num_rows, pa.binary()))
        return self.inner(t)


def _scan_misses_dataset(marked2, fetched, cfg, seen_handles,
                         robots_disallow, epoch_token):
    """Dataset-frontier scan mode: synthesize 404/304 rows for scheduled
    keys absent from the corpus via a KEYS-ONLY left anti-join (scheduled
    rows vs the fetched url column) — no bodies, no driver pass."""
    import pyarrow.compute as _pc

    if fetched.count() == 0:
        # nothing hit: every scheduled row is a miss, and an all-empty
        # materialized dataset loses its schema (a zero-column block would
        # crash the Acero join below)
        return marked2.map_batches(
            _NullHtmlExtract(cfg, seen_handles, robots_disallow,
                             epoch_token),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )

    hit_keys = fetched.select_columns(["url"]).map_batches(
        lambda t: t.append_column(
            "hit", pa.array(np.ones(t.num_rows, dtype=np.int8))),
        batch_format="pyarrow",
    )
    missed = marked2.join(
        hit_keys, join_type="left_outer", num_partitions=4, on=("url",),
    ).map_batches(
        lambda t: t.filter(_pc.is_null(t["hit"])), batch_format="pyarrow",
    )
    return missed.map_batches(
        _NullHtmlExtract(cfg, seen_handles, robots_disallow, epoch_token),
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )



def _download_lane(new_tasks, pending_retry, cfg, mode, corpus_ref,
                   pages_path, epoch):
    """T5 global budget → download → T8 retry requeue: the SHARED
    deterministic lane for both frontier loops (one definition so driver
    and dataset modes cannot drift; spec mirrored in oracle/crawl_sim.py).
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
    dl_tbl = _empty_downloads(epoch)
    if work:
        d_tbl = pa.table(
            {
                "url": pa.array([w[0] for w in work], pa.string()),
                "depth": pa.array([w[1] for w in work], pa.int32()),
                "attempt": pa.array([w[2] for w in work], pa.int32()),
            }
        )
        if mode == "broadcast":
            d_ds = rd.from_arrow(d_tbl)  # ONE block — split before mapping
            if d_tbl.num_rows > 16384:
                d_ds = d_ds.repartition(max(2, d_tbl.num_rows // 8192))
            dl_out = _collect(
                d_ds.map_batches(
                    DownloadSim(cfg, corpus_ref), batch_format="pyarrow",
                )
            )
        elif mode == "http":
            from ._schema import auto_pool

            d_ds = rd.from_arrow(d_tbl)
            if d_tbl.num_rows > 16384:
                d_ds = d_ds.repartition(max(2, d_tbl.num_rows // 8192))
            dl_out = _collect(
                d_ds.map_batches(
                    DownloadHttp, fn_constructor_args=(cfg,),
                    batch_format="pyarrow", concurrency=auto_pool(),
                )
            )
        elif mode == "join" and cfg.join_strategy == "shuffle":
            # the legacy shuffle twin measures its own download path too —
            # without this dispatch the shuffle bench leg would silently
            # borrow the locality-bucket lookups
            dl_out = _download_join(d_tbl, pages_path, cfg)
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
    """Join/scan-mode download simulation via the corpus' hash-bucket
    layout: each task reads ONLY its doc keys' buckets' (url, blen)
    columns — replacing the whole-corpus scan ``_download_join`` paid
    every epoch (measured 5.4 s/epoch at sf0.1 for a few hundred docs).
    Same left-outer semantics: a key absent from its bucket is a failed
    download.

    NO shuffle: the doc keys already live on the driver (the retry lane
    assembles them there), so bucket grouping is one driver-side argsort
    over the tiny key table + a contiguous split — a
    groupby("bucket").map_groups here paid a full Ray all-to-all plus
    ~n_buckets task launches per epoch for a few hundred rows (measured
    8-19 s/epoch at sf0.1: the r4 crawl_scan_steady regression)."""
    from ..sources.pages import bucketed_pages, key_bucket

    root, n_buckets = bucketed_pages(pages_path)
    fks = [fetch_key(u) or "" for u in d_tbl["url"].to_pylist()]
    t = d_tbl.append_column("fetch_key", pa.array(fks, pa.string()))
    buckets = np.asarray(key_bucket(fks, n_buckets))
    t = t.append_column("bucket", pa.array(buckets))
    order = np.argsort(buckets, kind="stable")
    t = t.take(pa.array(order, pa.int64()))
    d_ds = rd.from_arrow(t)
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    n_blocks = max(1, min(ncpu, t.num_rows // 64 + 1,
                          len(np.unique(buckets)) or 1))
    if n_blocks > 1:
        d_ds = d_ds.repartition(n_blocks)

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
            return _empty_downloads(0).drop_columns(["epoch"])
        return pa.concat_tables(parts, promote_options="default")

    return _collect(d_ds.map_batches(fetch_blen, batch_format="pyarrow"))


def _download_join(d_tbl: pa.Table, pages_path: str, cfg: CrawlConfig) -> pa.Table | None:
    """Join-mode download simulation: anti/left join docs against the corpus
    keyed on fetch_key (no process holds the corpus). Legacy twin of
    ``_download_local`` (kept for the shuffle-strategy comparison)."""
    fks = [fetch_key(u) or "" for u in d_tbl["url"].to_pylist()]
    d_ds = rd.from_arrow(d_tbl.append_column("fetch_key", pa.array(fks, pa.string())))
    from ..sources.pages import read_pages

    pages_ds = read_pages(pages_path, columns=["url", "html"]).map_batches(
        lambda t: pa.table({"fetch_key": t["url"],
                            "blen": pa.compute.binary_length(t["html"])}),
        batch_format="pyarrow",
    )
    joined = d_ds.join(pages_ds, join_type="left_outer", num_partitions=2,
                       on=("fetch_key",))

    def finish(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        blens = batch["blen"].to_pylist()
        oks = [b is not None for b in blens]
        return pa.table(
            {
                "url": batch["url"],
                "depth": batch["depth"],
                "attempt": batch["attempt"],
                "ok": pa.array(oks, pa.bool_()),
                "bytes": pa.array(
                    [b if b is not None else 0 for b in blens], pa.int64()
                ),
                "filename": pa.array(
                    [extract_filename(u) for u in urls], pa.string()
                ),
            }
        )

    return _collect(joined.map_batches(finish, batch_format="pyarrow"))
