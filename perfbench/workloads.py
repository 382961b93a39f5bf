"""The four workloads: each runs rounds of the same operations through the
package's public API and checks every output against its oracle."""

from __future__ import annotations

import glob
import importlib
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

import checks
import inputs
import tracing
from session import DeadlineExceeded, call_with_deadline

PKG = inputs.PKG


@dataclass
class Round:
    items: int = 0         # frontier rows scheduled, or documents × ops
    busy_s: float = 0.0    # wall time the items took
    call_s: float = 0.0    # one crawl, the set, or the resume=True call
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class StopRun(Exception):
    """An operation missed its deadline: the run stops measuring. Carries
    the round it interrupted."""

    def __init__(self, msg: str, rnd: Round | None = None):
        super().__init__(msg)
        self.round = rnd


class Context:
    """What a round needs from the run: spans and per-call deadlines."""

    def __init__(self, tracer: tracing.Tracer | None, deadline_at: float,
                 op_deadline_s: float):
        self.tracer = tracer
        self.deadline_at = deadline_at
        self.op_deadline_s = op_deadline_s

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return _NullSpan(attrs)
        return self.tracer.span(name, **attrs)

    def attempt(self, rnd: Round, fn):
        """One operation of ``rnd``: its result, or None if it raised (a
        failed operation). A missed deadline ends the run's measuring."""
        rnd.ops += 1
        left = min(self.op_deadline_s, self.deadline_at - time.monotonic())
        try:
            return call_with_deadline(fn, left)
        except DeadlineExceeded as e:
            rnd.failed += 1
            raise StopRun(str(e), rnd) from e
        except Exception as e:
            rnd.failed += 1
            print(f"operation failed: {type(e).__name__}: {e}",
                  file=sys.stderr)
            return None


class _NullSpan(dict):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(
        os.path.join(path, "**", "*"), recursive=True) if os.path.isfile(p))


def _read_sinks(*paths: str) -> pa.Table | None:
    """Union of the per-epoch parquet directories under crawl sinks (an
    epoch that adds nothing writes no directory)."""
    parts = [pq.read_table(d) for p in paths
             for d in sorted(glob.glob(os.path.join(p, "epoch=*")))]
    return pa.concat_tables(parts, promote_options="permissive") \
        if parts else None


class CrawlWorkload:
    """One full driver-frontier crawl per round (``crawl_bfs`` without a
    host budget, ``crawl_polite`` with one), rotating over the seed's
    corpora."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.oracles = inputs.crawl_oracles(inputs.asset_dir(name, seed))
        self.oracle = self.oracles[0]
        self._rounds = 0
        self.work_dir = work_dir
        self.crawl = importlib.import_module(f"{PKG}.pipelines.crawl")
        self.config = importlib.import_module(f"{PKG}.config")

    def prepare(self) -> None:
        pass

    def round(self, ctx: Context) -> Round:
        oracle = self.oracles[self._rounds % len(self.oracles)]
        self._rounds += 1
        cfg = self.config.CrawlConfig(
            frontier_mode="driver", fetch_mode="broadcast",
            record_order=True, default_host_budget=oracle.meta["budget"])

        def crawl():
            with ctx.span("crawl.run_crawl"):
                return self.crawl.run_crawl(oracle.corpus_dir, cfg,
                                            collect=True)

        rnd = Round()
        t0 = time.perf_counter()
        res = ctx.attempt(rnd, crawl)
        if res is not None:
            rnd.busy_s = rnd.call_s = time.perf_counter() - t0
            rnd.items = res.order.num_rows
            rnd.errors = checks.check_crawl(res, oracle)
        return rnd


class ResumeWorkload(CrawlWorkload):
    """The dataset-frontier loop with the keys-first bucket join: a
    checkpointed call stops two epochs before the end, then a
    ``resume=True`` call finishes the crawl. One round = both calls, on
    the seed's first corpus."""

    def prepare(self) -> None:
        # the hash-bucket page layout is derived from the corpus: rebuilt
        # by every run, inside set-up, so its cost shows in setup_s
        pages = importlib.import_module(f"{PKG}.sources.pages")
        for d in glob.glob(os.path.join(self.oracle.corpus_dir,
                                        "pages_by_key-*")):
            shutil.rmtree(d)
        pages.bucketed_pages(self.oracle.corpus_dir)

    def round(self, ctx: Context) -> Round:
        base = os.path.join(self.work_dir, f"resume-{os.getpid()}")
        shutil.rmtree(base, ignore_errors=True)
        ck, s1, s2, e1, e2 = (os.path.join(base, n) for n in
                              ("ckpt", "seen1", "seen2", "ext1", "ext2"))
        cfg = self.config.CrawlConfig(
            frontier_mode="dataset", fetch_mode="join", record_order=False,
            checkpoint_dir=ck)
        first_epochs = max(1, self.oracle.meta["n_epochs"] - 2)

        spans = {}

        def leg(n, **kw):
            with ctx.span("crawl.run_crawl", leg=n) as spans[n]:
                return self.crawl.run_crawl(self.oracle.corpus_dir, cfg,
                                            collect=False, **kw)

        rnd = Round()
        try:
            t0 = time.perf_counter()
            first = ctx.attempt(rnd, lambda: leg(
                1, max_epochs=first_epochs, seen_sink=s1, extracted_sink=e1))
            if first is None:
                return rnd
            t1 = time.perf_counter()
            spans[1]["bytes_written"] = sum(map(_dir_bytes, (ck, s1, e1)))
            t1b = time.perf_counter()
            res = ctx.attempt(rnd, lambda: leg(
                2, resume=True, seen_sink=s2, extracted_sink=e2))
            if res is None:
                return rnd
            rnd.call_s = time.perf_counter() - t1b
            rnd.busy_s = t1 - t0
            rnd.items = first.counters["scheduled_total"]
            if first.n_epochs != first_epochs:
                rnd.errors.append(f"first leg: {first.n_epochs} epochs, "
                                  f"asked for {first_epochs}")
            rnd.errors += checks.check_resumed(
                res, _read_sinks(s1, s2), _read_sinks(e1, e2), self.oracle)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        return rnd


class DedupWorkload:
    """The dedup/text operation set in ``mode="auto"`` over one seeded
    documents table; one round = every operation once."""

    # operations with both a driver and a distributed tail; the forced
    # distributed clusters tail is left out (see README)
    TWINS = (("dedup_minhash_lsh", "driver"),
             ("dedup_minhash_lsh", "distributed"),
             ("dedup_substring", "driver"),
             ("dedup_substring", "distributed"),
             ("dedup_clusters", "driver"))

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.oracle = inputs.DocsOracle(inputs.asset_dir(name, seed))
        dedup = importlib.import_module(f"{PKG}.pipelines.dedup")
        text = importlib.import_module(f"{PKG}.pipelines.text")
        self.fns = {op: getattr(dedup, op, None) or getattr(text, op)
                    for op in inputs.DEDUP_OPS}

    def prepare(self) -> None:
        pass

    def _op(self, ctx: Context, rnd: Round, op: str, mode: str | None):
        kwargs = {"mode": mode} if mode else {}

        def call():
            with ctx.span(f"dedup.op.{op}", mode=mode or "auto"):
                return self.fns[op](self.oracle.docs_dir, **kwargs)

        t0 = time.perf_counter()
        out = ctx.attempt(rnd, call)
        if out is None:
            return 0.0
        dt = time.perf_counter() - t0
        rnd.errors += checks.check_dedup(op, out, self.oracle)
        return dt

    def round(self, ctx: Context) -> Round:
        rnd = Round()
        for op in inputs.DEDUP_OPS:
            rnd.busy_s += self._op(ctx, rnd, op, None)
        rnd.items = self.oracle.meta["n_docs"] * (rnd.ops - rnd.failed)
        rnd.call_s = rnd.busy_s
        return rnd

    def twins(self, ctx: Context) -> Round:
        """Each forced tail once (traced runs only)."""
        rnd = Round()
        for op, mode in self.TWINS:
            self._op(ctx, rnd, op, mode)
        return rnd


WORKLOADS = {
    "crawl_bfs": CrawlWorkload,
    "crawl_polite": CrawlWorkload,
    "crawl_resume": ResumeWorkload,
    "dedup_docs": DedupWorkload,
}

# in a traced run, one round of these fills the layer metrics that the
# workload itself does not exercise
FILLERS = {
    "crawl_bfs": ("crawl_resume", "dedup_docs"),
    "crawl_polite": ("crawl_resume", "dedup_docs"),
    "crawl_resume": ("dedup_docs",),
    "dedup_docs": ("crawl_resume",),
}


def make(name: str, seed: int, work_dir: str):
    return WORKLOADS[name](name, seed, work_dir)
