"""Live crawl metrics actor — the reference's monitor goroutine analogue.

The reference prints live counters from a dedicated monitor goroutine
(reference monitor.go:110-196: pages, links, documents, queue depths,
rates). Here a single named Ray actor holds the same gauges; run_crawl
pushes one update per epoch (fire-and-forget — never on the hot path) and
any process in the cluster can read ``snapshot()`` while a crawl runs.
"""

from __future__ import annotations

import ray

METRICS_ACTOR_NAME = "graft_crawl_metrics"


class CrawlMetrics:
    """Per-epoch gauges + lifetime totals. Instantiated via ray.remote."""

    def __init__(self):
        self.epochs: list[dict] = []
        self.totals = {
            "scheduled": 0, "fetched_ok": 0, "fetch_err": 0,
            "docs_queued": 0, "downloads_ok": 0, "download_err": 0,
            "retries_pending": 0, "seen_total": 0, "frontier_next": 0,
        }

    def record_epoch(self, gauges: dict) -> None:
        self.epochs.append(dict(gauges))
        for k in ("scheduled", "fetched_ok", "fetch_err", "docs_queued",
                  "downloads_ok", "download_err"):
            self.totals[k] += int(gauges.get(k, 0))
        for k in ("retries_pending", "seen_total", "frontier_next"):
            self.totals[k] = int(gauges.get(k, self.totals[k]))

    def reset(self) -> None:
        """Start-of-run reset: the actor is NAMED and outlives run_crawl
        calls (so external observers keep one address), but each run's
        attached snapshot must describe that run only."""
        self.epochs = []
        for k in self.totals:
            self.totals[k] = 0

    def snapshot(self) -> dict:
        return {
            "totals": dict(self.totals),
            "n_epochs": len(self.epochs),
            "epochs": list(self.epochs),
        }


def get_or_create_metrics(reset: bool = False):
    """Named handle (lifetime = driver session). Observers get the handle
    untouched; a crawl STARTING a run passes ``reset=True`` so its
    attached snapshot describes that run only — the getter itself must
    never clobber a running crawl's gauges."""
    try:
        h = ray.get_actor(METRICS_ACTOR_NAME)
    except ValueError:
        cls = ray.remote(num_cpus=0.01)(CrawlMetrics)
        try:
            h = cls.options(name=METRICS_ACTOR_NAME).remote()
        except ValueError:  # raced another creator
            h = ray.get_actor(METRICS_ACTOR_NAME)
    if reset:
        ray.get(h.reset.remote())
    return h
