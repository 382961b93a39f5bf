"""Typed crawl configuration.

Mirrors the reference's compile-time constants (reference:
config/config.go:6-40) plus the scheduling knobs our deterministic epoch
model adds (per-host politeness budget, robots flag). All defaults match
the reference where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FETCH_MODES = ("auto", "broadcast", "join", "http")
FRONTIER_MODES = ("auto", "driver", "dataset")


@dataclass(frozen=True)
class CrawlConfig:
    # reference config/config.go:7 (MaxDepth = 13)
    max_depth: int = 13
    # reference crawler/crawler_twotier.go:57 (colly.MaxBodySize 5 MB).
    # colly caps the body via a limited reader, so oversized bodies are
    # TRUNCATED at the cap, not dropped.
    max_body_bytes: int = 5 * 1024 * 1024
    # reference crawler/crawler_twotier.go:84 (docExtensions := []string{".pdf"})
    doc_extensions: tuple[str, ...] = (".pdf",)
    # tokenizer/coordinator.go:37-38 (100 KB fast / 500 KB slow thresholds)
    fast_path_size_limit: int = 100 * 1024
    slow_path_size_limit: int = 500 * 1024
    # Our deterministic analogue of the reference's politeness limiter
    # (crawler_twotier.go:64-69: 20 parallel slots + 30 ms delay per domain):
    # max fetches per host per epoch. 0 or negative = unlimited (an epoch
    # then equals a BFS depth level exactly). Per-host overrides come from
    # the politeness table.
    default_host_budget: int = 0
    # The reference explicitly ignores robots.txt
    # (colly.IgnoreRobotsTxt, crawler_twotier.go:56). Kept as a flag; when
    # True, candidate URLs matching a host's robots_disallow path prefixes
    # are dropped before scheduling.
    respect_robots: bool = False
    # reference config/config.go:35 (MaxRetries = 3) — download retry cap.
    max_retries: int = 3
    # T5 — deterministic analogue of the reference's GLOBAL download rate
    # limiter (downloader.go:82: rate.NewLimiter(Every(10µs), 2400)): at
    # most this many download ATTEMPTS per epoch; over-budget tasks carry
    # to the next epoch's priority retry lane unchanged. 0 = unlimited.
    download_budget_per_epoch: int = 0

    # ---- engine execution knobs (no reference analogue) ----
    # number of URL-seen shard actors (hash-partitioned on url_norm);
    # 0 or negative = one per four cluster CPUs, at least one. The shard
    # pool lives for the Ray session and is reused by every crawl call
    # (stages/seen.ShardedSeen)
    seen_shards: int = 0
    # most rows per fetch+extract batch. The table frontier form cuts an
    # epoch into one block per this many rows, or one per CPU when that is
    # more (at most 32 blocks), and maps each block as one task in batches
    # of at most this many rows; the Dataset form maps batches of this size
    extract_batch_size: int = 256
    # fetch mode: "broadcast" (corpus index via ray.put — small corpora),
    # "join" (keys-first: frontier keys group by the corpus' persistent
    # hash-bucket layout, each task reads its bucket's parquet locally;
    # bodies never ride an exchange and no process holds the corpus),
    # "http" (live network), or "auto" (broadcast below
    # broadcast_row_limit, else join)
    fetch_mode: str = "auto"
    # above this many corpus rows, "auto" switches broadcast -> join
    broadcast_row_limit: int = 2_000_000
    # ---- real-network fetch (fetch_mode="http") ----
    # The live analogue of the parquet-corpus modes (reference:
    # crawler/crawler_twotier.go:52-80 colly collector; downloader.go:
    # 184-222 http.Get). The client is built ONCE per fetch actor
    # (stages/fetch.default_http_client); tests inject a loopback-server
    # factory since this sandbox has no external network.
    http_timeout_s: float = 10.0
    http_user_agent: str = "graft-crawler/1.0"
    # pluggable factory: cfg -> (url -> (status, body|None)); None uses
    # the urllib default client
    http_client_factory: object = None
    # record the (epoch, rank, url) golden ordering trace (costs a sort)
    record_order: bool = True
    # frontier representation: "driver" keeps the frontier as a table on
    # the driver (needed by the rank trace and collect=True); "dataset"
    # keeps it as a ray.data.Dataset END-TO-END — drain refs →
    # from_arrow_refs → next epoch's fetch, driver RSS flat at any
    # frontier size. Both forms write one checkpoint layout, and either
    # resumes the other's. "auto" picks dataset unless collect=True or
    # record_order asks for the table
    frontier_mode: str = "auto"
    # checkpoint directory; None disables checkpointing
    checkpoint_dir: str | None = None
    # T7 — live metrics actor (reference monitor.go:110-196 analogue):
    # when True, run_crawl pushes per-epoch gauges to the named
    # CrawlMetrics actor (state/metrics.py) and attaches its snapshot to
    # CrawlRunResult.counters["metrics"]
    live_metrics: bool = False

    def __post_init__(self):
        if self.fetch_mode not in FETCH_MODES:
            raise ValueError(f"fetch_mode must be one of {FETCH_MODES}, "
                             f"not {self.fetch_mode!r}")
        if self.frontier_mode not in FRONTIER_MODES:
            raise ValueError(f"frontier_mode must be one of "
                             f"{FRONTIER_MODES}, not {self.frontier_mode!r}")


DEFAULT_CONFIG = CrawlConfig()
