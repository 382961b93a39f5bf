"""End-to-end replay: the Ray engine crawl vs the pinned oracle simulator.

Gates (SURVEY.md §5 / BASELINE north rule):
(a) byte-identical extracted text per url,
(b) final URL-seen set equality (norm key + first_depth + representative raw),
(c) per-epoch crawl-ordering equality under the deterministic tie-break,
(d) download log equality,
under the same seed list + politeness budget — in broadcast and join fetch
modes, with and without per-host budgets and robots rules."""

import os

import pyarrow.parquet as pq
import pytest

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.config import CrawlConfig
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
    load_corpus_dict,
    write_corpus,
)
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.oracle import crawl_sim
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
    run_crawl,
)


def _seeds(corpus_dir):
    return pq.read_table(corpus_dir + "/seeds.parquet")["url"].to_pylist()


def assert_matches_oracle(e, o):
    o_seen = {(k, v[0], v[1]) for k, v in o.seen.items()}
    e_seen = set(
        zip(
            e.seen["url_norm"].to_pylist(),
            e.seen["first_depth"].to_pylist(),
            e.seen["url"].to_pylist(),
        )
    )
    assert o_seen == e_seen

    o_ord = [(r["epoch"], r["rank"], r["url"]) for r in o.order]
    e_ord = list(
        zip(
            e.order["epoch"].to_pylist(),
            e.order["rank"].to_pylist(),
            e.order["url"].to_pylist(),
        )
    )
    assert o_ord == e_ord

    o_text = {r["url"]: r["text"] for r in o.extracted}
    e_text = dict(zip(e.extracted["url"].to_pylist(), e.extracted["text"].to_pylist()))
    assert o_text == e_text  # byte-identical per url

    o_dl = sorted(
        (r["url"], r["epoch"], r["attempt"], r["ok"], r["filename"])
        for r in o.downloads
    )
    e_dl = sorted(
        zip(
            e.downloads["url"].to_pylist(),
            e.downloads["epoch"].to_pylist(),
            e.downloads["attempt"].to_pylist(),
            e.downloads["ok"].to_pylist(),
            e.downloads["filename"].to_pylist(),
        )
    )
    assert o_dl == e_dl
    assert e.n_epochs == o.n_epochs


@pytest.mark.usefixtures("ray_session")
def test_crawl_matches_oracle_default(smoke_corpus_dir):
    cfg = CrawlConfig()
    o = crawl_sim.crawl(load_corpus_dict(smoke_corpus_dir), _seeds(smoke_corpus_dir), cfg)
    e = run_crawl(smoke_corpus_dir, cfg)
    assert e.pages_fetched > 50
    assert_matches_oracle(e, o)
    # sanity: dual-key dedup observed — some 304 (raw revisit) and 404 rows
    statuses = set(e.fetch_log["status"].to_pylist())
    assert {200, 404}.issubset(statuses)
    # T8 retry lane: a missing document is attempted in 4 consecutive
    # epochs (attempts 0..max_retries) then dropped
    dl = e.downloads.to_pandas()
    failed = dl[~dl["ok"]]
    assert len(failed), "corpus should contain dangling document links"
    worst = failed.groupby("url")["attempt"].agg(["min", "max", "count"])
    assert (worst["max"] == 3).all() and (worst["count"] == 4).all()
    per_url = failed.sort_values(["url", "attempt"]).groupby("url")["epoch"]
    assert (per_url.apply(lambda s: (s.diff().dropna() == 1).all())).all()


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus") / "tiny")
    return write_corpus(d, n_pages=60, n_hosts=3, seed=7, include_huge=False)


@pytest.mark.usefixtures("ray_session")
def test_crawl_with_politeness_budget(tiny_corpus_dir):
    """Per-host budget defers over-budget URLs to later epochs with
    priority=1; engine must reproduce the oracle's schedule exactly."""
    cfg = CrawlConfig()
    budgets = {"host00.test": 4, "host01.test": 3}
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg,
        host_budgets=budgets,
    )
    e = run_crawl(tiny_corpus_dir, cfg, host_budgets=budgets)
    assert o.n_epochs > 3  # budget actually forced deferrals
    assert 1 in set(e.order["priority"].to_pylist())  # deferred rows jumped the line
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_with_robots(tiny_corpus_dir):
    cfg = CrawlConfig(respect_robots=True)
    robots = {"host00.test": ["/q/", "/tag/"]}
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg,
        robots_disallow=robots,
    )
    e = run_crawl(tiny_corpus_dir, cfg, robots_disallow=robots)
    assert_matches_oracle(e, o)
    for norm in o.seen:
        assert not norm.startswith("http://host00.test/q/")


@pytest.mark.usefixtures("ray_session")
def test_crawl_join_mode(tiny_corpus_dir):
    """Keys-first bucket-join fetch path (both sides huge: no process
    holds the corpus) must be semantically identical to broadcast mode."""
    cfg = CrawlConfig(fetch_mode="join")
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir),
                        CrawlConfig())
    e = run_crawl(tiny_corpus_dir, cfg)
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_join_mode_with_budgets(tiny_corpus_dir):
    """The bucket join composed with per-host politeness budgets
    (deferrals + priority lanes) on the driver loop must equal the
    oracle."""
    cfg = CrawlConfig(fetch_mode="join", frontier_mode="driver")
    budgets = {"host00.test": 4, "host01.test": 3}
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir),
        CrawlConfig(), host_budgets=budgets,
    )
    e = run_crawl(tiny_corpus_dir, cfg, host_budgets=budgets)
    assert 1 in set(e.order["priority"].to_pylist())
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_join_mode_many_buckets(tmp_path, monkeypatch):
    """A corpus small enough for one bucket says nothing about routing
    frontier keys and download keys to the right bucket: spread the
    60-page corpus over 16 buckets and the join must still equal the
    oracle (both frontier loops)."""
    import json

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.sources import (
        pages,
    )

    monkeypatch.setattr(pages, "_bucket_count", lambda n_rows: 16)
    d = write_corpus(str(tmp_path / "tiny16"), n_pages=60, n_hosts=3,
                     seed=7, include_huge=False)
    o = crawl_sim.crawl(load_corpus_dict(d), _seeds(d), CrawlConfig())
    e = run_crawl(d, CrawlConfig(fetch_mode="join"))
    root, n_buckets = pages.bucketed_pages(os.path.join(d, "pages"))
    with open(os.path.join(root, "meta.json")) as f:
        assert n_buckets == 16 and json.load(f)["buckets_written"] > 8
    assert_matches_oracle(e, o)
    ds = run_crawl(d, CrawlConfig(fetch_mode="join", record_order=False,
                                  frontier_mode="dataset"), collect=False)
    assert ds.pages_fetched == e.pages_fetched
    assert ds.counters["scheduled_total"] == len(o.order)
    by = [("url", "ascending"), ("attempt", "ascending")]
    assert ds.downloads.sort_by(by).equals(e.downloads.sort_by(by))


@pytest.mark.parametrize("n_rows,n_buckets", [
    (60, 1), (6_000, 7), (240_000, 241), (13_000_000, 261),
])
def test_bucket_count_follows_corpus_rows(n_rows, n_buckets):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.sources.pages import (  # noqa: E501
        _bucket_count,
    )

    assert _bucket_count(n_rows) == n_buckets


@pytest.mark.parametrize("field,value", [
    ("fetch_mode", "scan"), ("fetch_mode", "shuffle"),
    ("frontier_mode", "scan"), ("frontier_mode", "pandas"),
])
def test_config_rejects_unknown_modes(field, value):
    with pytest.raises(ValueError, match=field):
        CrawlConfig(**{field: value})


@pytest.mark.usefixtures("ray_session")
def test_both_loops_report_the_same_phases(tiny_corpus_dir):
    """Each crawl call reports summed seconds per phase; both frontier
    loops report the same phase keys and count their fetch epochs by
    placement (the dataset loop never fetches in the driver), and the
    phases add up to no more than the call's wall time."""
    import time

    calls = [
        (CrawlConfig(), {}),
        (CrawlConfig(record_order=False, frontier_mode="dataset"),
         {"collect": False}),
    ]
    keys, placements = [], []
    for cfg, kw in calls:
        t0 = time.perf_counter()
        e = run_crawl(tiny_corpus_dir, cfg, **kw)
        wall = time.perf_counter() - t0
        phases = e.counters["phases"]
        keys.append(list(phases))
        placements.append(e.counters["fetch_epochs"])
        assert all(v >= 0 for v in phases.values())
        assert phases["fetch"] > 0 and phases["setup"] > 0
        assert sum(phases.values()) <= wall
    assert keys[0] == keys[1]
    assert [sorted(p) for p in placements] == [["driver", "job"]] * 2
    assert placements[1]["driver"] == 0 and placements[1]["job"] > 0


@pytest.mark.usefixtures("ray_session")
def test_crawl_politeness_table(tiny_corpus_dir):
    """use_politeness_table=True reads budgets + robots rules from the
    corpus's politeness parquet; result must match the oracle fed the same
    dicts."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        load_politeness,
    )

    budgets, robots = load_politeness(tiny_corpus_dir)
    assert budgets  # the generator writes a budget for host00
    cfg = CrawlConfig(respect_robots=True)
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg,
        host_budgets=budgets, robots_disallow=robots,
    )
    e = run_crawl(tiny_corpus_dir, cfg, use_politeness_table=True)
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_multi_seed_and_custom_extensions(tiny_corpus_dir):
    """Multiple seeds (incl. a schemeless one, a duplicate, and an invalid
    one) and a widened doc-extension list must still match the oracle."""
    import pyarrow.parquet as pq_

    pages = pq_.read_table(tiny_corpus_dir + "/pages", columns=["url"])
    urls = pages["url"].to_pylist()
    second = next(u for u in urls if "/sitemap/hub" in u)
    seeds = [
        urls[0],
        second,
        second.split("://", 1)[1],  # schemeless → https:// prefixed → 404
        urls[0],                    # duplicate raw seed
        "not a url",               # invalid → dropped
    ]
    cfg = CrawlConfig(doc_extensions=(".pdf", ".html"))
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir), seeds, cfg)
    e = run_crawl(tiny_corpus_dir, cfg, seeds=seeds)
    assert_matches_oracle(e, o)
    # widened extension list detected .html documents too
    exts = {d["filename"].rsplit(".", 1)[-1]
            for d in e.downloads.to_pylist() if d["ok"]}
    assert "html" in exts or any(
        ".html" in u for u in e.downloads["url"].to_pylist()
    )


@pytest.mark.usefixtures("ray_session")
def test_dataset_frontier_checkpoint_resume(tiny_corpus_dir, tmp_path):
    """Dataset-frontier checkpoint/resume: kill after 2 epochs, resume,
    and the completed run must equal a straight run — counters, download
    history, and the seen log (norm set rebuilt by distributed replay of
    the per-epoch frontier parquet)."""
    ck = str(tmp_path / "ck")
    s1 = str(tmp_path / "seen1")
    s2 = str(tmp_path / "seen2")

    straight = run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode="dataset"),
        collect=False, seen_sink=s1,
    )
    # partial run (killed after epoch 1), then resume to completion
    run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode="dataset",
                    checkpoint_dir=ck),
        collect=False, max_epochs=2,
    )
    resumed = run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode="dataset",
                    checkpoint_dir=ck),
        collect=False, resume=True, seen_sink=s2,
    )
    assert resumed.n_epochs == straight.n_epochs
    assert resumed.pages_fetched == straight.pages_fetched
    assert (resumed.counters["scheduled_total"]
            == straight.counters["scheduled_total"])
    assert resumed.downloads.num_rows == straight.downloads.num_rows
    assert resumed.downloads.sort_by("url").equals(
        straight.downloads.sort_by("url"))
    # the post-resume seen log must be exactly the straight run's log for
    # epochs >= 2 (epochs 0-1 were committed before the kill)
    full = _read_seen_sink(s1)
    tail = _read_seen_sink(s2)
    assert tail <= full
    straight_tail = set()
    for name in sorted(os.listdir(s1)):
        if int(name.split("=", 1)[1]) >= 2:
            straight_tail |= _read_seen_sink(os.path.join(s1, name))
    assert tail == straight_tail


def _sink_rows(sink: str, cols: list[str]) -> list[tuple]:
    """Every row of a per-epoch sink, with its epoch, sorted."""
    t = pq.read_table(sink)
    return sorted(zip(*(t[c].to_pylist() for c in cols + ["epoch"])))


SEEN_COLS = ["url", "url_norm", "host", "depth", "priority"]


@pytest.mark.usefixtures("ray_session")
def test_both_forms_write_the_seen_sink(tiny_corpus_dir, tmp_path):
    """Both frontier forms write each epoch's accepted frontier rows to
    seen_sink; the two sinks are equal, and equal the oracle's seen set
    (regression: the table form ignored seen_sink)."""
    cfg = CrawlConfig(record_order=False)
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir),
                        _seeds(tiny_corpus_dir), cfg)
    sinks = {}
    for form in ("driver", "dataset"):
        sinks[form] = str(tmp_path / form)
        run_crawl(tiny_corpus_dir,
                  CrawlConfig(record_order=False, frontier_mode=form),
                  collect=False, seen_sink=sinks[form])
    assert (_sink_rows(sinks["driver"], SEEN_COLS)
            == _sink_rows(sinks["dataset"], SEEN_COLS))
    o_seen = {(k, v[0], v[1]) for k, v in o.seen.items()}
    assert _read_seen_sink(sinks["driver"]) == o_seen


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("form", ["driver", "dataset"])
def test_rerun_epoch_replaces_its_sink_partitions(tiny_corpus_dir, tmp_path,
                                                  form):
    """A crawl that stops after an epoch's sink writes but before its
    _SUCCESS re-runs that epoch on resume: the epoch's sink partitions
    are replaced, never appended to, so the sinks equal a straight run's
    (regression: write_parquet appended a second copy)."""
    ext_cols = ["url", "status", "depth"]
    kw = dict(collect=False)
    cfg = CrawlConfig(record_order=False, frontier_mode=form)
    s0, e0 = str(tmp_path / "seen0"), str(tmp_path / "ext0")
    run_crawl(tiny_corpus_dir, cfg, seen_sink=s0, extracted_sink=e0, **kw)

    ck, s, e = (str(tmp_path / n) for n in ("ck", "seen", "ext"))
    ckcfg = CrawlConfig(record_order=False, frontier_mode=form,
                        checkpoint_dir=ck)
    run_crawl(tiny_corpus_dir, ckcfg, max_epochs=2, seen_sink=s,
              extracted_sink=e, **kw)
    os.remove(os.path.join(ck, "epoch=1", "_SUCCESS"))
    run_crawl(tiny_corpus_dir, ckcfg, resume=True, seen_sink=s,
              extracted_sink=e, **kw)
    assert _sink_rows(s, SEEN_COLS) == _sink_rows(s0, SEEN_COLS)
    assert _sink_rows(e, ext_cols) == _sink_rows(e0, ext_cols)
    norms = pq.read_table(s)["url_norm"].to_pylist()
    assert len(norms) == len(set(norms))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("first,then", [("driver", "dataset"),
                                        ("dataset", "driver")])
def test_resume_across_frontier_forms(tiny_corpus_dir, tmp_path, first,
                                      then):
    """Both frontier forms write one checkpoint layout: a crawl stopped
    after 2 epochs in one form and resumed in the other equals a straight
    run — counters, downloads and the seen sink. A collect=True resume of
    a checkpoint without extracted rows raises."""
    straight_sink, sink = str(tmp_path / "seen0"), str(tmp_path / "seen")
    ck = str(tmp_path / "ck")
    straight = run_crawl(
        tiny_corpus_dir, CrawlConfig(record_order=False, frontier_mode=then),
        collect=False, seen_sink=straight_sink)
    run_crawl(tiny_corpus_dir,
              CrawlConfig(record_order=False, frontier_mode=first,
                          checkpoint_dir=ck),
              collect=False, max_epochs=2, seen_sink=sink)
    # no extracted rows in the checkpoint: collect=True cannot resume
    with pytest.raises(ValueError, match="no extracted rows"):
        run_crawl(tiny_corpus_dir,
                  CrawlConfig(record_order=False, checkpoint_dir=ck),
                  resume=True)
    resumed = run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode=then,
                    checkpoint_dir=ck),
        collect=False, resume=True, seen_sink=sink)
    assert straight.n_epochs > 2
    assert resumed.n_epochs == straight.n_epochs
    assert resumed.pages_fetched == straight.pages_fetched
    assert (resumed.counters["scheduled_total"]
            == straight.counters["scheduled_total"])
    by = [("url", "ascending"), ("attempt", "ascending")]
    assert resumed.downloads.sort_by(by).equals(straight.downloads.sort_by(by))
    assert _sink_rows(sink, SEEN_COLS) == _sink_rows(straight_sink, SEEN_COLS)


@pytest.mark.usefixtures("ray_session")
def test_dataset_resume_with_download_budget(tiny_corpus_dir, tmp_path):
    """A doc deferred over the download budget lives only in the retry
    lane at checkpoint time; resume must re-add it to the doc seen set or
    a later link double-queues it (code-review regression)."""
    ck = str(tmp_path / "ckb")
    cfg_kw = dict(record_order=False, frontier_mode="dataset",
                  download_budget_per_epoch=2)
    straight = run_crawl(tiny_corpus_dir, CrawlConfig(**cfg_kw),
                         collect=False)
    run_crawl(tiny_corpus_dir, CrawlConfig(checkpoint_dir=ck, **cfg_kw),
              collect=False, max_epochs=2)
    resumed = run_crawl(tiny_corpus_dir, CrawlConfig(checkpoint_dir=ck,
                                                     **cfg_kw),
                        collect=False, resume=True)
    assert resumed.downloads.num_rows == straight.downloads.num_rows
    assert resumed.downloads.sort_by("url").equals(
        straight.downloads.sort_by("url"))
    # no url may appear twice at the same attempt (the double-queue shape)
    dl = resumed.downloads.to_pandas()
    assert not dl.duplicated(["url", "attempt"]).any()


@pytest.mark.usefixtures("ray_session")
def test_resume_readds_budget_deferred_docs_to_doc_set(tmp_path):
    """Unit check of the rebuild: a doc url living ONLY in the checkpoint's
    pending_retry lane (no downloads row yet) must be back in the doc seen
    set after _resume_dataset_state, or a later link double-queues it."""
    import json

    import pyarrow as pa

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        CrawlRunResult,
        _resume_dataset_state,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )

    ck = tmp_path / "ck"
    d = ck / "epoch=0"
    d.mkdir(parents=True)
    pq.write_table(
        pa.table({"url": pa.array([], pa.string()),
                  "depth": pa.array([], pa.int32()),
                  "attempt": pa.array([], pa.int32()),
                  "ok": pa.array([], pa.bool_()),
                  "bytes": pa.array([], pa.int64()),
                  "filename": pa.array([], pa.string()),
                  "epoch": pa.array([], pa.int32())}),
        str(d / "downloads.parquet"))
    (d / "meta.json").write_text(json.dumps({
        "pending_retry": [["http://h.test/deferred.pdf", 1, 0]],
        "scheduled_total": 5, "pages_fetched": 5,
        "raw_keys": [], "frontier_count": 0,
    }))
    (d / "_SUCCESS").write_text("ok")

    seen = ShardedSeen(2)
    try:
        pending = []
        st = _resume_dataset_state(str(ck), seen, CrawlRunResult(), [],
                                   pending, {}, False)
        assert st is not None and pending
        fresh = seen.check_and_add("doc", ["http://h.test/deferred.pdf"])
        assert not fresh[0], "deferred doc must already be doc-seen"
    finally:
        seen.kill()


@pytest.mark.usefixtures("ray_session")
def test_dataset_frontier_extracted_sink(tiny_corpus_dir, tmp_path):
    """extracted_sink writes one parquet directory per epoch (distributed
    write — extracted rows never pass through the driver): the sinked
    text must equal the collect=True run's per-url text byte-for-byte,
    and the per-epoch partition layout must cover every epoch."""
    import os

    sink = str(tmp_path / "extracted")
    cfg = CrawlConfig(record_order=False)
    e = run_crawl(tiny_corpus_dir, cfg, collect=False, extracted_sink=sink)
    ref = run_crawl(tiny_corpus_dir, CrawlConfig())
    epochs = sorted(os.listdir(sink))
    assert len(epochs) == e.n_epochs
    t = pq.read_table(sink, columns=["url", "status", "text"])
    assert t.num_rows == e.counters["scheduled_total"]
    got = {u: x for u, s, x in zip(t["url"].to_pylist(),
                                   t["status"].to_pylist(),
                                   t["text"].to_pylist()) if s == 200}
    want = {u: x for u, s, x in zip(ref.extracted["url"].to_pylist(),
                                    ref.extracted["status"].to_pylist(),
                                    ref.extracted["text"].to_pylist())
            if s == 200}
    assert got == want


def _read_seen_sink(sink: str):
    t = pq.read_table(sink)
    return set(
        zip(t["url_norm"].to_pylist(), t["depth"].to_pylist(),
            t["url"].to_pylist())
    )


@pytest.mark.usefixtures("ray_session")
def test_dataset_frontier_matches_oracle(tiny_corpus_dir, tmp_path):
    """frontier_mode=dataset (the driver-RSS-flat scale loop): accepted
    candidates never pass through the driver, yet the seen set (via the
    distributed seen sink), downloads, page counts and epoch count must
    equal the oracle exactly."""
    sink = str(tmp_path / "seen_ds")
    cfg = CrawlConfig(record_order=False)
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg
    )
    e = run_crawl(tiny_corpus_dir, cfg, collect=False, seen_sink=sink)
    assert e.counters["scheduled_total"] == len(o.order)
    assert e.pages_fetched == len(o.extracted)
    assert e.n_epochs == o.n_epochs
    o_seen = {(k, v[0], v[1]) for k, v in o.seen.items()}
    assert _read_seen_sink(sink) == o_seen
    o_dl = sorted(
        (r["url"], r["epoch"], r["attempt"], r["ok"], r["filename"])
        for r in o.downloads
    )
    e_dl = sorted(
        zip(
            e.downloads["url"].to_pylist(),
            e.downloads["epoch"].to_pylist(),
            e.downloads["attempt"].to_pylist(),
            e.downloads["ok"].to_pylist(),
            e.downloads["filename"].to_pylist(),
        )
    )
    assert o_dl == e_dl


@pytest.mark.usefixtures("ray_session")
def test_dataset_frontier_with_budget_matches_oracle(tiny_corpus_dir, tmp_path):
    """Dataset mode with per-host politeness budgets: the budget runs as a
    distributed groupby(host).map_groups; deferred rows rejoin with
    priority=1. Seen set + downloads + counts must equal the oracle."""
    sink = str(tmp_path / "seen_ds_b")
    cfg = CrawlConfig(record_order=False)
    budgets = {"host00.test": 4, "host01.test": 3}
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg,
        host_budgets=budgets,
    )
    e = run_crawl(tiny_corpus_dir, cfg, host_budgets=budgets,
                  collect=False, seen_sink=sink)
    assert e.n_epochs == o.n_epochs
    assert e.counters["scheduled_total"] == len(o.order)
    assert e.pages_fetched == len(o.extracted)
    o_seen = {(k, v[0], v[1]) for k, v in o.seen.items()}
    assert _read_seen_sink(sink) == o_seen


@pytest.mark.usefixtures("ray_session")
def test_crawl_download_budget(tiny_corpus_dir):
    """T5 global download limiter (downloader.go:82 analogue): at most N
    download attempts per epoch, tail deferred to the next epoch's priority
    lane; engine must replay the oracle exactly and never exceed N."""
    cfg = CrawlConfig(download_budget_per_epoch=3)
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir), cfg
    )
    e = run_crawl(tiny_corpus_dir, cfg)
    assert_matches_oracle(e, o)
    per_epoch = e.downloads.to_pandas().groupby("epoch").size()
    assert (per_epoch <= 3).all()
    # the budget actually bit: an unlimited run needs fewer epochs
    un = run_crawl(tiny_corpus_dir, CrawlConfig())
    assert e.n_epochs > un.n_epochs


@pytest.mark.usefixtures("ray_session")
def test_crawl_live_metrics(tiny_corpus_dir):
    """T7 metrics actor (monitor.go:110-196 analogue): per-epoch gauges
    land in the named actor and the snapshot's totals agree with the run
    result."""
    cfg = CrawlConfig(live_metrics=True)
    e = run_crawl(tiny_corpus_dir, cfg)
    snap = e.counters["metrics"]
    # the named actor is reset per run: the snapshot describes THIS run
    assert snap["n_epochs"] == e.n_epochs
    tail = snap["epochs"]
    assert snap["totals"]["fetched_ok"] == e.pages_fetched
    assert sum(g["fetched_ok"] for g in tail) == e.pages_fetched
    assert sum(g["scheduled"] for g in tail) == e.order.num_rows
    assert tail[-1]["seen_total"] == e.seen.num_rows
    dl = e.downloads.to_pandas()
    assert sum(g["downloads_ok"] for g in tail) == int(dl["ok"].sum())


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume(tiny_corpus_dir, tmp_path):
    """Kill after 2 epochs, resume from checkpoint: final state must equal
    an uninterrupted run (per-partition lineage, north rule)."""
    _check_resume_matches_straight_run(tiny_corpus_dir, tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume_from_fetch_jobs(tiny_corpus_dir, tmp_path,
                                           monkeypatch):
    """The same resume when every epoch is fetched by a Ray Data job, not
    in the driver: the checkpoint writes the fetched Dataset."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    monkeypatch.setattr(crawl_mod, "DRIVER_FETCH_ROWS", 0)
    resumed = _check_resume_matches_straight_run(tiny_corpus_dir, tmp_path)
    assert resumed.counters["fetch_epochs"]["driver"] == 0


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume_after_retry_drain_epoch(tiny_corpus_dir, tmp_path):
    """The same resume when the checkpoint's last epoch only drains the
    download lane: the frontier is empty, so the epoch ranks nothing, yet
    its checkpoint holds an (empty) rank trace like every other epoch."""
    un = run_crawl(tiny_corpus_dir, CrawlConfig(record_order=False),
                   collect=False)
    _check_resume_matches_straight_run(
        tiny_corpus_dir, tmp_path, stop=un.n_epochs + 1,
        download_budget_per_epoch=3)


def _check_resume_matches_straight_run(tiny_corpus_dir, tmp_path, stop=2,
                                       **cfg_kw):
    ck = str(tmp_path / "ckpt")
    cfg = CrawlConfig(checkpoint_dir=ck, **cfg_kw)
    full = run_crawl(tiny_corpus_dir, CrawlConfig(**cfg_kw))

    partial = run_crawl(tiny_corpus_dir, cfg, max_epochs=stop)
    assert partial.n_epochs == stop < full.n_epochs
    resumed = run_crawl(tiny_corpus_dir, cfg, resume=True)
    assert resumed.n_epochs == full.n_epochs

    for name in ("seen", "order", "downloads"):
        f = getattr(full, name).to_pandas().sort_values(
            list(getattr(full, name).column_names)
        ).reset_index(drop=True)
        r = getattr(resumed, name).to_pandas().sort_values(
            list(getattr(resumed, name).column_names)
        ).reset_index(drop=True)
        assert f.equals(r), name
    ftext = dict(zip(full.extracted["url"].to_pylist(),
                     full.extracted["text"].to_pylist()))
    rtext = dict(zip(resumed.extracted["url"].to_pylist(),
                     resumed.extracted["text"].to_pylist()))
    assert ftext == rtext
    return resumed


@pytest.mark.usefixtures("ray_session")
def test_dataset_frontier_join_local(tiny_corpus_dir):
    """Keys-first locality join in the dataset-frontier loop (the 100 TB
    both-sides-huge shape): counters must equal the broadcast-mode run."""
    base = run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode="dataset"),
        collect=False,
    )
    local = run_crawl(
        tiny_corpus_dir,
        CrawlConfig(record_order=False, frontier_mode="dataset",
                    fetch_mode="join"),
        collect=False,
    )
    assert local.n_epochs == base.n_epochs
    assert local.pages_fetched == base.pages_fetched
    assert (local.counters["scheduled_total"]
            == base.counters["scheduled_total"])
    assert local.downloads.sort_by("url").equals(
        base.downloads.sort_by("url"))


@pytest.mark.usefixtures("ray_session")
def test_back_to_back_crawls_reuse_seen_pool(smoke_corpus_dir, tiny_corpus_dir,
                                            monkeypatch):
    """Two crawls on different corpora in one session both match the
    oracle, and the second leases the first one's shard actors instead of
    spawning new ones."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    leases = []

    class RecordingSeen(crawl_mod.ShardedSeen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            leases.append([h._actor_id.hex() for h in self.shards])

    monkeypatch.setattr(crawl_mod, "ShardedSeen", RecordingSeen)
    for d in (smoke_corpus_dir, tiny_corpus_dir):
        o = crawl_sim.crawl(load_corpus_dict(d), _seeds(d), CrawlConfig())
        assert_matches_oracle(run_crawl(d, CrawlConfig()), o)
    assert len(leases) == 2 and leases[0] == leases[1]


def _one_cpu_crawls_main(corpus_dir: str) -> None:
    """Subprocess body: two successive crawls on a 1-CPU Ray node, each
    checked against the oracle."""
    import time

    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    o = crawl_sim.crawl(load_corpus_dict(corpus_dir), _seeds(corpus_dir),
                        CrawlConfig())
    for call in (1, 2):
        t0 = time.perf_counter()
        assert_matches_oracle(run_crawl(corpus_dir, CrawlConfig()), o)
        print(f"call {call}: {time.perf_counter() - t0:.1f} s", flush=True)
    ray.shutdown()
    print("ok")


def test_crawl_on_one_cpu_node(smoke_corpus_dir, run_in_child):
    """Regression: the seen shards must not hold CPU a fetch task needs —
    on a 1-CPU node the crawl used to hang in epoch 0. Runs in a child
    process under a hard timeout so a hang fails instead of stalling."""
    run_in_child("test_crawl_e2e", "_one_cpu_crawls_main", smoke_corpus_dir)


@pytest.mark.usefixtures("ray_session")
def test_collect_runs_its_pipeline_once(tmp_path):
    """Regression: ``_collect`` went through ``Dataset.to_arrow_refs()``,
    which in Ray 2.49 runs an unmaterialized plan twice (once more for
    ``schema()``). Every call of the mapped function leaves a file."""
    import ray.data as rd

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        _collect,
    )

    calls = str(tmp_path)

    def record(t):
        import uuid

        open(os.path.join(calls, uuid.uuid4().hex), "w").close()
        return t

    ds = rd.range(10, override_num_blocks=1).map_batches(
        record, batch_format="pyarrow")
    assert _collect(ds)["id"].to_pylist() == list(range(10))
    assert len(os.listdir(calls)) == 1
    mds = ds.materialize()
    assert len(os.listdir(calls)) == 2
    assert _collect(mds).num_rows == 10  # a materialized input never re-runs
    assert len(os.listdir(calls)) == 2


def _count_jobs(monkeypatch) -> list[str]:
    """Ray Data jobs the crawl starts, counted at ``Dataset.materialize``
    and at ``_collect`` of an unmaterialized dataset, whose plan it runs
    itself."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    jobs: list[str] = []
    in_collect: list[int] = []
    materialize, collect = rd.Dataset.materialize, crawl_mod._collect

    def counting_materialize(self):
        if not in_collect:
            jobs.append("materialize")
        return materialize(self)

    def counting_collect(ds):
        if not isinstance(ds, MaterializedDataset):
            jobs.append("collect")
        in_collect.append(1)
        try:
            return collect(ds)
        finally:
            in_collect.pop()

    monkeypatch.setattr(rd.Dataset, "materialize", counting_materialize)
    monkeypatch.setattr(crawl_mod, "_collect", counting_collect)
    return jobs


@pytest.fixture(scope="module")
def bfs_corpus_dir(tmp_path_factory):
    """A 700-page corpus shaped like the benchmark's breadth-first crawl:
    its epochs schedule 1, 23, 651, 1,083, 65 and 3 URLs."""
    d = str(tmp_path_factory.mktemp("corpus") / "bfs")
    return write_corpus(d, n_pages=700, n_hosts=20, chain_len=4,
                        hub_fanout=400, include_huge=False, mint_text=False,
                        seed=1503)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("zero_limit", [None, "DRIVER_DOWNLOAD_CORPUS_ROWS",
                                        "DRIVER_DOWNLOAD_BATCH_ROWS",
                                        "DRIVER_FETCH_ROWS"])
def test_broadcast_crawl_starts_one_job_per_epoch(bfs_corpus_dir,
                                                  monkeypatch, zero_limit):
    """A broadcast-mode driver-loop epoch runs at most one Ray Data job
    (fetch + extract + offer): none when it schedules at most
    DRIVER_FETCH_ROWS URLs, which the driver fetches, and none for its
    downloads. Past a limit of the driver lanes (the corpus limit covers
    both) that work runs as a job in each epoch that has it, with the same
    result."""
    from collections import Counter

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    if zero_limit is not None:
        monkeypatch.setattr(crawl_mod, zero_limit, 0)
    jobs = _count_jobs(monkeypatch)
    cfg = CrawlConfig(fetch_mode="broadcast")
    e = run_crawl(bfs_corpus_dir, cfg)
    assert e.downloads.num_rows > 0  # the download lane ran
    assert_matches_oracle(e, crawl_sim.crawl(
        load_corpus_dict(bfs_corpus_dir), _seeds(bfs_corpus_dir), cfg))
    scheduled = Counter(e.order["epoch"].to_pylist()).values()
    n_fetch_jobs = sum(
        1 for n in scheduled
        if n > crawl_mod.DRIVER_FETCH_ROWS
        or zero_limit == "DRIVER_DOWNLOAD_CORPUS_ROWS")
    if zero_limit is None:  # the corpus has epochs on both sides
        assert 0 < n_fetch_jobs < len(scheduled)
    assert e.counters["fetch_epochs"] == {
        "driver": len(scheduled) - n_fetch_jobs, "job": n_fetch_jobs}
    n_download_jobs = (len(set(e.downloads["epoch"].to_pylist()))
                       if zero_limit in ("DRIVER_DOWNLOAD_CORPUS_ROWS",
                                         "DRIVER_DOWNLOAD_BATCH_ROWS")
                       else 0)
    assert sorted(jobs) == (["collect"] * n_download_jobs
                            + ["materialize"] * n_fetch_jobs)


@pytest.mark.usefixtures("ray_session")
def test_fetch_job_spreads_an_epoch_over_every_cpu(bfs_corpus_dir,
                                                   monkeypatch):
    """An epoch of ~600 URLs runs as one fetch task per CPU (4) or more,
    not as a few blocks of extract_batch_size rows, and the crawl leaves
    the global DataContext as it found it (the object-store reservation
    switch goes on each fetch plan's own context)."""
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = (ctx.op_resource_reservation_enabled, ctx.target_max_block_size)
    fetched = []  # (rows, blocks) of each materialized fetch
    materialize = rd.Dataset.materialize

    def recording_materialize(self):
        out = materialize(self)
        fetched.append((out.count(), out.num_blocks()))
        return out

    monkeypatch.setattr(rd.Dataset, "materialize", recording_materialize)
    run_crawl(bfs_corpus_dir, CrawlConfig(fetch_mode="broadcast"))
    big = [blocks for rows, blocks in fetched if 500 <= rows <= 700]
    assert big and all(blocks >= 4 for blocks in big)
    assert (ctx.op_resource_reservation_enabled,
            ctx.target_max_block_size) == before
    assert DataContext.get_current() is ctx


@pytest.mark.usefixtures("ray_session")
def test_fetch_batches_keep_extract_batch_size(bfs_corpus_dir, tmp_path,
                                               monkeypatch):
    """A fetch job maps batches of at most cfg.extract_batch_size rows even
    where MAX_BLOCKS makes its blocks larger: with 16, the 651-row epoch
    is cut into 32 blocks of 21 rows."""
    import uuid

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    sizes = str(tmp_path / "batch_rows")
    os.makedirs(sizes)

    class RecordingFetch(crawl_mod.FetchAndExtract):
        def __call__(self, batch):
            open(os.path.join(sizes, f"{batch.num_rows}-{uuid.uuid4().hex}"),
                 "w").close()
            return super().__call__(batch)

    monkeypatch.setattr(crawl_mod, "DRIVER_FETCH_ROWS", 0)
    monkeypatch.setattr(crawl_mod, "FetchAndExtract", RecordingFetch)
    cfg = CrawlConfig(fetch_mode="broadcast", extract_batch_size=16)
    e = run_crawl(bfs_corpus_dir, cfg)
    assert_matches_oracle(e, crawl_sim.crawl(
        load_corpus_dict(bfs_corpus_dir), _seeds(bfs_corpus_dir), cfg))
    rows = [int(f.split("-")[0]) for f in os.listdir(sizes)]
    assert sum(rows) == e.order.num_rows
    assert max(rows) == 16


@pytest.mark.usefixtures("ray_session")
def test_broadcast_caches_are_bounded():
    """A process keeps one corpus index (a new corpus ref replaces it) and
    at most BROADCAST_CACHE_MAX other broadcasts, least recently used
    dropped first."""
    import pyarrow as pa
    import ray

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages import (
        fetch,
    )

    refs = [ray.put(i) for i in range(fetch.BROADCAST_CACHE_MAX + 3)]
    for r in refs:
        assert fetch.cached_broadcast(r) == refs.index(r)
        fetch.cached_broadcast(refs[0])  # most recently used: stays
    keep = {r.hex() for r in refs[-(fetch.BROADCAST_CACHE_MAX - 1):]}
    assert set(fetch._WORKER_CACHE) == keep | {refs[0].hex()}

    corpora = [ray.put(pa.table({"url": [f"https://h/{i}"],
                                 "html": [b"<p>x</p>"]})) for i in range(2)]
    for i, c in enumerate(corpora):
        idx, _html, lens = fetch.cached_corpus_index(c)
        assert idx == {f"https://h/{i}": 0} and list(lens) == [8]
        assert list(fetch._CORPUS_INDEX) == [c.hex()]


def _rss_shmem_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("RssShmem:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no RssShmem line in /proc/self/status")


def _crawl_signature(e) -> tuple:
    return (
        sorted(zip(e.seen["url_norm"].to_pylist(),
                   e.seen["first_depth"].to_pylist(),
                   e.seen["url"].to_pylist())),
        list(zip(e.order["epoch"].to_pylist(), e.order["rank"].to_pylist(),
                 e.order["url"].to_pylist())),
        sorted(zip(e.extracted["url"].to_pylist(),
                   e.extracted["text"].to_pylist())),
        sorted(zip(*(e.downloads[c].to_pylist() for c in (
            "url", "epoch", "attempt", "ok", "bytes", "filename")))),
        e.n_epochs,
    )


def _repeat_crawls_main(corpus_dir: str) -> None:
    """Subprocess body: six crawls of one corpus at 4 CPUs. Each result
    equals the first; the driver's shared memory stops growing after the
    second call; the worker broadcast caches stay bounded; and after a
    session restart the crawl is not served the old session's corpus."""
    import ray

    def session():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")

    def cache_sizes():
        from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages import (
            fetch,
        )

        return len(fetch._CORPUS_INDEX), len(fetch._WORKER_CACHE)

    session()
    first, rss = None, []
    for call in range(6):
        sig = _crawl_signature(run_crawl(corpus_dir, CrawlConfig()))
        first = first or sig
        assert sig == first, f"call {call + 1} differs from call 1"
        rss.append(_rss_shmem_mb())
        print(f"call {call + 1}: RssShmem {rss[-1]:.1f} MB", flush=True)
    growth = (rss[-1] - rss[1]) / (len(rss) - 2)
    assert growth < 5, f"RssShmem grew {growth:.1f} MB per call: {rss}"
    sizes = ray.get([ray.remote(cache_sizes).remote() for _ in range(8)])
    print(f"worker (corpus index, other broadcasts): {sizes}", flush=True)
    assert all(n <= 1 and m <= 8 for n, m in sizes), sizes
    ray.shutdown()
    session()
    assert _crawl_signature(run_crawl(corpus_dir, CrawlConfig())) == first
    ray.shutdown()
    print("ok")


def _restart_new_corpus_main(corpus_a: str, corpus_b: str) -> None:
    """Subprocess body: crawl corpus A, restart Ray, crawl corpus B; B's
    downloads must be B's. A fresh local cluster in the same process
    reuses the job id, so an object id may repeat across sessions (Ray
    2.49 keeps counting put indices, so here the collision is planted):
    an entry cached in an earlier session is never served."""
    import pyarrow as pa
    import ray

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages import (
        fetch,
    )

    def session():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")

    cfg = CrawlConfig(fetch_mode="broadcast")
    for d in (corpus_a, corpus_b):
        session()
        e = run_crawl(d, cfg)
        ray.shutdown()
    o = crawl_sim.crawl(load_corpus_dict(corpus_b), _seeds(corpus_b), cfg)
    assert_matches_oracle(e, o)
    assert sorted(zip(e.downloads["url"].to_pylist(),
                      e.downloads["attempt"].to_pylist(),
                      e.downloads["bytes"].to_pylist())) == sorted(
        (r["url"], r["attempt"], r["bytes"]) for r in o.downloads)

    stale_index = next(iter(fetch._CORPUS_INDEX.values()))  # corpus B's
    session()
    c = ray.put(pa.table({"url": ["https://h/c"], "html": [b"<p>c</p>"]}))
    r = ray.put("new")
    fetch._CORPUS_INDEX.clear()
    fetch._CORPUS_INDEX[c.hex()] = stale_index
    fetch._WORKER_CACHE[r.hex()] = "stale"
    assert fetch.cached_corpus_index(c)[0] == {"https://h/c": 0}
    assert fetch.cached_broadcast(r) == "new"
    ray.shutdown()
    print("ok")


def test_restart_then_new_corpus_uses_new_corpus(smoke_corpus_dir, tmp_path,
                                                 run_in_child):
    """Regression: the per-process broadcast caches were keyed on the
    ref's hex alone and outlived a Ray session restart."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
        write_corpus,
    )

    other = write_corpus(str(tmp_path / "other"), n_pages=90, n_hosts=5,
                         seed=7)
    run_in_child("test_crawl_e2e", "_restart_new_corpus_main",
                 smoke_corpus_dir, other)


def test_repeat_crawls_hold_driver_memory(smoke_corpus_dir, run_in_child):
    """Regression: every broadcast-mode call put the corpus in the object
    store again, and the driver's shared RSS grew by its size per call."""
    run_in_child("test_crawl_e2e", "_repeat_crawls_main", smoke_corpus_dir)
