"""Spans around calls into the package's layers, and the per-layer metrics
derived from them.

The program itself is not instrumented: :meth:`Tracer.install` wraps the
public functions each layer exposes (for the lifetime of one traced run,
in this process only) and every call becomes a span with a name, start,
end and parent. Spans stay in memory and are written out once, at the
end of the run. Standalone probes time single layers on the workload's
own inputs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import time
from collections import defaultdict

PKG = "go_crawler_20251102_011312_url_crawlerv10_twotier_ray"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        # one stack for the process: operations run in a deadline thread
        # while the caller waits, so spans nest across the two threads
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack
        rec = {"id": next(self._ids), "name": name,
               "parent": stack[-1] if stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.perf_counter()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, after=None, before=None,
             attrs_fn=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per
        call; ``before(span, *args)`` and ``after(span, result, *args)``
        run inside it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = attrs_fn(*args, **kwargs) if attrs_fn else {}
            with self.span(name, **extra) as rec:
                if before is not None:
                    before(rec, *args)
                out = original(*args, **kwargs)
                if after is not None:
                    after(rec, out, *args)
                return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the layer boundaries the per-layer metrics are built on."""
        import importlib

        import ray
        import ray.data as rd

        crawl = importlib.import_module(f"{PKG}.pipelines.crawl")
        seen = importlib.import_module(f"{PKG}.stages.seen")
        pages = importlib.import_module(f"{PKG}.sources.pages")

        fresh: set = set()  # handles of shard pools not yet fenced

        def norm_total(handles) -> int:
            return sum(ray.get([s.size.remote("norm") for s in handles]))

        def shards_answer(rec, out, obj, *args):
            # spawn ends when every shard actor answers a call
            norm_total(obj.shards)
            fresh.add(id(obj.shards[0]))

        def fence_start(rec, handles, kind, *args):
            # keys restored before the first fence were not accepted by
            # this call: remember the set size there
            if id(handles[0]) in fresh:
                fresh.discard(id(handles[0]))
                rec["norms_before"] = norm_total(handles)

        def shard_totals(rec, obj):
            hs = obj.shards
            rec["offered"] = sum(ray.get(
                [s.offers_received.remote("norm") for s in hs]))
            rec["norms"] = norm_total(hs)

        # rows of each materialized job: jobs over a few rows give the
        # fixed cost of a job (MaterializedDataset.count reads metadata)
        self.wrap(rd.Dataset, "materialize", "ray.materialize",
                  after=lambda rec, out, *a: rec.update(rows=out.count()))
        self.wrap(rd.Dataset, "write_parquet", "ray.write_parquet")
        # pipelines.crawl binds the fence by name at import
        self.wrap(crawl, "wait_offers_received", "seen.fence",
                  before=fence_start,
                  attrs_fn=lambda handles, kind, *a, **k: {"kind": kind})
        self.wrap(seen.ShardedSeen, "__init__", "seen.spawn",
                  after=shards_answer)
        self.wrap(seen.ShardedSeen, "drain", "seen.drain")
        self.wrap(seen.ShardedSeen, "kill", "seen.kill", before=shard_totals)
        # the dataset-frontier loop calls its epoch checkpoint by name
        self.wrap(crawl, "_ckpt_dataset_epoch", "checkpoint.write_epoch")
        self.wrap(pages, "bucketed_pages", "pages.bucketed_pages")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"metrics": metrics,
                       "spans": sorted(self.spans, key=lambda s: s["id"])},
                      f)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a set of rounds
# ---------------------------------------------------------------------------


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.children: dict = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)

    def descendants(self, root: dict) -> list[dict]:
        out, todo = [], [root["id"]]
        while todo:
            for c in self.children.get(todo.pop(), []):
                out.append(c)
                todo.append(c["id"])
        return out

    def self_time(self, s: dict) -> float:
        return _dur(s) - sum(_dur(c) for c in self.children.get(s["id"], []))


def _within(spans, outer: dict, name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name
            and outer["start"] <= s["start"] <= outer["end"]]


# a Ray Data job over at most this many rows does next to no work: its
# time is the fixed cost of launching and finishing a job
SMALL_JOB_ROWS = 8


def crawl_metrics(idx: SpanIndex, rounds: list[dict]) -> dict:
    """crawl.* and seen.* over the rounds that ran the crawl loop; each
    is the median over rounds of that round's total."""
    per = defaultdict(list)
    gaps: list[float] = []
    offered = accepted = 0
    crawled = [(r, idx.descendants(r)) for r in rounds]
    crawled = [(r, spans) for r, spans in crawled
               if any(s["name"] == "crawl.run_crawl" for s in spans)]
    job_fixed = _median(
        _dur(s) for _, spans in crawled for s in spans
        if s["name"] == "ray.materialize"
        and s.get("rows", SMALL_JOB_ROWS + 1) <= SMALL_JOB_ROWS)
    for r, spans in crawled:
        runs = [s for s in spans if s["name"] == "crawl.run_crawl"]
        fences = [s for s in spans if s["name"] == "seen.fence"]
        norm_fences = [s for s in fences if s.get("kind") == "norm"]
        for run in runs:
            starts = sorted(f["start"] for f in norm_fences
                            if run["start"] <= f["start"] <= run["end"])
            gaps += [b - a for a, b in zip(starts, starts[1:])]
        mats = [s for s in spans if s["name"] == "ray.materialize"]
        kills = [s for s in spans if s["name"] == "seen.kill"]
        round_off = sum(k.get("offered", 0) for k in kills)
        # accepted by the round's calls: set sizes at kill minus what a
        # resumed call restored before its first fence
        round_acc = (sum(k.get("norms", 0) for k in kills)
                     - sum(f.get("norms_before", 0) for f in fences))
        offered += round_off
        accepted += round_acc
        per["crawl.epochs"].append(len(norm_fences))
        per["crawl.driver_self_s"].append(sum(idx.self_time(s) for s in runs))
        per["crawl.ray_jobs"].append(len(mats))
        per["crawl.materialize_s"].append(sum(map(_dur, mats)))
        # what the jobs did beyond their fixed cost: in the driver loop's
        # broadcast mode that is fetch + extract + offer of the epoch
        per["crawl.job_work_s"].append(
            sum(max(0.0, _dur(m) - job_fixed) for m in mats))
        per["seen.fence_wait_s"].append(sum(map(_dur, fences)))
        per["seen.drain_s"].append(sum(
            _dur(s) for s in spans if s["name"] == "seen.drain"))
        per["seen.spawn_s"].append(sum(
            _dur(s) for s in spans if s["name"] == "seen.spawn"))
        per["seen.offered"].append(round_off)
        per["seen.accepted"].append(round_acc)
    if not per:
        return {}
    out = {k: _median(v) for k, v in per.items()}
    out["crawl.epoch_s"] = _median(gaps)
    out["crawl.job_fixed_s"] = job_fixed
    out["seen.accept_ratio"] = accepted / offered if offered else 0.0
    return out


def checkpoint_metrics(idx: SpanIndex, rounds: list[dict]) -> dict:
    """checkpoint.* over rounds made of a checkpointed leg (leg=1) and a
    resume=True leg (leg=2)."""
    per = defaultdict(list)
    for r in rounds:
        spans = idx.descendants(r)
        legs = {s.get("leg"): s for s in spans
                if s["name"] == "crawl.run_crawl" and s.get("leg")}
        if 1 not in legs or 2 not in legs:
            continue
        # the epoch checkpoints (their frontier write_parquet included)
        # and the seen/extracted sinks' write_parquet
        ckpts = _within(spans, legs[1], "checkpoint.write_epoch")
        inner = {c["id"] for c in ckpts}
        writes = ckpts + [s for s in _within(spans, legs[1],
                                             "ray.write_parquet")
                          if s["parent"] not in inner]
        per["checkpoint.write_s"].append(sum(map(_dur, writes)))
        per["checkpoint.bytes"].append(legs[1].get("bytes_written", 0))
        fences = _within(spans, legs[2], "seen.fence")
        if fences:
            per["checkpoint.restore_s"].append(
                min(f["start"] for f in fences) - legs[2]["start"])
    return {k: _median(v) for k, v in per.items()}


def dedup_metrics(spans: list[dict]) -> dict:
    """``<op>_s`` (mode auto) and ``<op>.<mode>_s`` for the forced tails."""
    per = defaultdict(list)
    for s in spans:
        if s["name"].startswith("dedup.op."):
            op = s["name"][len("dedup.op."):]
            mode = s.get("mode", "auto")
            tail = {"driver": "driver", "distributed": "dist"}.get(mode)
            key = f"{op}.{tail}_s" if tail else f"{op}_s"
            per[key].append(_dur(s))
    return {k: _median(v) for k, v in per.items()}


# ---------------------------------------------------------------------------
# standalone layer probes
# ---------------------------------------------------------------------------


PROBE_KEYS = 100_000


def probe_keys(norms: list[str]) -> list[str]:
    """PROBE_KEYS distinct keys in the shape of the corpus' seen norms:
    the norms, then each again with ``?probe=<i>`` for i = 1, 2, … (a
    few thousand keys would time eight actor round trips, not probes)."""
    out = list(norms)
    i = 1
    while len(out) < PROBE_KEYS:
        out += [f"{n}?probe={i}" for n in norms]
        i += 1
    return out[:PROBE_KEYS]


def probe_layers(tracer: Tracer, oracle) -> dict:
    """Time single layers on one crawl corpus and its oracle answers:
    the seen shards' check_and_add and the Bloom front on PROBE_KEYS keys
    grown from the seen norms, route+extract over the corpus, URL
    normalisation over the extracted link strings, and a rebuild of the
    hash-bucket page layout."""
    import glob
    import importlib
    import shutil

    import ray

    seen = importlib.import_module(f"{PKG}.stages.seen")
    bloom = importlib.import_module(f"{PKG}.state.bloom")
    pages = importlib.import_module(f"{PKG}.sources.pages")
    extract = importlib.import_module(f"{PKG}.stages.extract")
    urlnorm = importlib.import_module(f"{PKG}.functions.urlnorm")
    config = importlib.import_module(f"{PKG}.config")

    out = {}
    keys = probe_keys(oracle.seen["url_norm"].to_pylist())
    with tracer.span("probe.seen_check_and_add", keys=len(keys)) as rec:
        shards = seen.ShardedSeen(config.CrawlConfig().seen_shards)
        ray.get([s.size.remote("norm") for s in shards.shards])
        t0 = time.perf_counter()
        shards.check_and_add("norm", keys)
        rec["busy_s"] = time.perf_counter() - t0
        shards.kill()
    out["seen.check_and_add_keys_per_s"] = len(keys) / rec["busy_s"]

    with tracer.span("probe.bloom", keys=len(keys)) as rec:
        bf = bloom.BloomFilter()
        t0 = time.perf_counter()
        for k in keys:  # the shard's front: probe, then add when new
            if not bf.might_contain(k):
                bf.add(k)
        rec["busy_s"] = time.perf_counter() - t0
    out["bloom.probe_keys_per_s"] = len(keys) / rec["busy_s"]

    with tracer.span("probe.extract") as rec:
        ds = pages.read_pages(oracle.corpus_dir, columns=["url", "html"])
        n = ds.map_batches(extract.RouteAndExtract(config.CrawlConfig()),
                           batch_format="pyarrow", batch_size=256
                           ).materialize().count()
    out["extract.pages_per_s"] = n / _dur(rec)

    links = oracle.links["link"].to_pylist()
    with tracer.span("probe.urlnorm", urls=len(links)) as rec:
        for link in links:
            urlnorm.norm_and_host(link)
    out["urlnorm.urls_per_s"] = len(links) / _dur(rec)

    for d in glob.glob(os.path.join(oracle.corpus_dir, "pages_by_key-*")):
        shutil.rmtree(d)
    with tracer.span("probe.bucket_layout") as rec:
        pages.bucketed_pages(oracle.corpus_dir)
    out["pages.bucket_layout_s"] = _dur(rec)
    return out
