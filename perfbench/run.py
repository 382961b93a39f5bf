"""Crawl-engine benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crawl_bfs --seed 1 --seconds 25 --trace 0

Runs rounds of the workload's operations for ``--seconds`` after an
untimed warm-up round, checks every output against the oracle answers,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run ends well inside 180 s: measuring stops here (from process start)
# and every operation gets at most OP_DEADLINE_S
RUN_BUDGET_S = 140.0
OP_DEADLINE_S = 60.0
# building a seed's inputs takes seconds; a build past this is a fault
BUILD_DEADLINE_S = 600.0


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section ("end_to_end" or "per_layer")
    of the benchmark's spec at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("crawl_bfs", "crawl_polite", "crawl_resume",
                             "dedup_docs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import go_crawler_20251102_011312_url_crawlerv10_twotier_ray  # noqa
    except ImportError as e:
        print(f"the package under test is not importable: {e}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    from session import RaySession, RssSampler, psutil

    started_at = psutil.Process().create_time()  # wall clock, process start
    deadline_at = time.monotonic() + RUN_BUDGET_S - (time.time() - started_at)
    work_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_dir, exist_ok=True)

    # missing assets are built in a child process before anything is timed
    names = [args.workload] + (
        list(workloads.FILLERS[args.workload]) if args.trace else [])
    build_s = build_assets(names, args.seed)
    wl = workloads.make(args.workload, args.seed, work_dir)
    fillers = [workloads.make(f, args.seed, work_dir) for f in names[1:]]

    tracer = tracing.Tracer() if args.trace else None
    ctx = workloads.Context(None, deadline_at, OP_DEADLINE_S)
    attempted = failed = 0
    errors: list[str] = []
    rounds: list = []
    layer: dict = {}
    setup_s = None
    memory = (0.0, 0.0)

    def account(rnd):
        nonlocal attempted, failed
        attempted += rnd.ops
        failed += rnd.failed
        errors.extend(rnd.errors)

    marks = {"assets": time.time()}
    with RaySession(ROOT, work_dir) as session:
        marks["ray"] = time.time()
        with RssSampler() as rss:
            try:
                for w in [wl] + fillers:
                    w.prepare()
                marks["prepare"] = time.time()
                # one untimed, checked round: first-call costs (worker
                # imports, actor pools, the first shuffle) belong to set-up
                account(wl.round(ctx))
                setup_s = time.time() - started_at - build_s
                marks["warm-up"] = time.time()
                if tracer is not None:
                    tracer.install()
                    ctx.tracer = tracer
                t0 = time.perf_counter()
                while True:
                    with ctx.span("round", phase="main"):
                        rnd = wl.round(ctx)
                    account(rnd)
                    rounds.append(rnd)
                    if len(rounds) == 1:
                        # memory over a fixed amount of work: set-up and
                        # one timed round
                        memory = (rss.main_peak_mb(), rss.cluster_peak_mb())
                    print(f"round: {rnd.items} items in {rnd.busy_s:.3f} s,"
                          f" call {rnd.call_s:.3f} s, driver rss "
                          f"{psutil.Process().memory_info().rss >> 20} MB",
                          file=sys.stderr)
                    if time.perf_counter() - t0 >= args.seconds:
                        break
                if tracer is not None:
                    layer = traced_extras(wl, fillers, ctx, tracer, account)
            except workloads.StopRun as e:
                print(f"stopped: {e}", file=sys.stderr)
                account(e.round)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            session.snapshot_processes()
            marks["rounds"] = time.time()

    marks["shutdown"] = time.time()
    prev = started_at
    for k, t in marks.items():
        print(f"phase {k}: {t - prev:.2f} s", file=sys.stderr)
        prev = t
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if setup_s is None:  # the warm-up round missed its deadline
        setup_s = time.time() - started_at - build_s
    done = [r for r in rounds if r.busy_s > 0]
    e2e = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(
            r.items / r.busy_s for r in done) if done else 0.0,
        "main_rss_peak_mb": memory[0],
        "cluster_rss_peak_mb": memory[1],
    }
    if tracer is not None:
        tracer.dump(os.path.join(
            work_dir, "traces",
            f"{args.workload}-seed{args.seed}-{os.getpid()}.json"),
            {**layer, **{f"traced.{k}": v for k, v in e2e.items()}})
        names = metric_units("per_layer")
        values = layer
    else:
        names = metric_units("end_to_end")
        values = e2e
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u}
                    for k, u in names.items()},
    }
    print(json.dumps(result))
    return 0


def build_assets(names: list[str], seed: int) -> float:
    """Build the inputs and oracle answers of ``names`` that are not
    cached yet, in a child process, and return its wall time (0 when all
    are cached). This process never imports what only the build needs
    (the oracles, DuckDB), so its set-up time and memory read the same
    whether the cache was cold or warm."""
    import inputs

    missing = [n for n in names if not inputs.is_built(n, seed)]
    if not missing:
        return 0.0
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
           "--seed", str(seed)]
    for n in missing:
        cmd += ["--workload", n]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=BUILD_DEADLINE_S)
    return time.perf_counter() - t0


def traced_extras(wl, fillers, ctx, tracer, account) -> dict:
    """After the traced main rounds: the forced dedup tails, one round of
    each filler workload, and the standalone layer probes. Returns the
    per-layer metrics, each taken from the main rounds when they exercise
    that layer and from a filler round otherwise."""
    import tracing
    import workloads

    phases = [("main", wl)] + [(f.name, f) for f in fillers]
    for phase, w in phases:
        with ctx.span("round", phase=phase):
            if phase != "main":
                account(w.round(ctx))
            if isinstance(w, workloads.DedupWorkload):
                account(w.twins(ctx))
    crawl_wl = next(w for _, w in phases if hasattr(w.oracle, "corpus_dir"))
    rnd = workloads.Round()
    probes = ctx.attempt(
        rnd, lambda: tracing.probe_layers(tracer, crawl_wl.oracle)) or {}
    account(rnd)

    idx = tracing.SpanIndex(tracer.spans)
    out: dict = {}
    for phase, _ in phases:
        rounds = [s for s in tracer.spans
                  if s["name"] == "round" and s["phase"] == phase]
        spans = [d for r in rounds for d in idx.descendants(r)]
        for k, v in {**tracing.crawl_metrics(idx, rounds),
                     **tracing.checkpoint_metrics(idx, rounds),
                     **tracing.dedup_metrics(spans)}.items():
            out.setdefault(k, v)
    out.update(probes)
    return out


if __name__ == "__main__":
    sys.exit(main())
