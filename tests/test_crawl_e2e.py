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
    """Dataset.join fetch path (both sides huge: no process holds the
    corpus) must be semantically identical to broadcast mode."""
    cfg = CrawlConfig(fetch_mode="join")
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir),
                        CrawlConfig())
    e = run_crawl(tiny_corpus_dir, cfg)
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_scan_mode(tiny_corpus_dir):
    """Corpus-scan fetch path (frontier ≪ corpus: bodies never shuffle,
    no process holds the corpus, misses synthesized driver-side) must be
    semantically identical to broadcast mode — including 404s for
    scheduled keys the corpus lacks and 304s for seed revisits."""
    cfg = CrawlConfig(fetch_mode="scan")
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir),
                        CrawlConfig())
    e = run_crawl(tiny_corpus_dir, cfg)
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_scan_mode_with_budgets(tiny_corpus_dir):
    """Scan mode composed with per-host politeness budgets (deferrals +
    priority lanes) must still equal the oracle."""
    cfg = CrawlConfig(fetch_mode="scan")
    budgets = {"host00.test": 4, "host01.test": 3}
    o = crawl_sim.crawl(
        load_corpus_dict(tiny_corpus_dir), _seeds(tiny_corpus_dir),
        CrawlConfig(), host_budgets=budgets,
    )
    e = run_crawl(tiny_corpus_dir, cfg, host_budgets=budgets)
    assert_matches_oracle(e, o)


@pytest.mark.usefixtures("ray_session")
def test_scan_fetch_multi_match(ray_session):
    """Two scheduled rows sharing one fetch_key (a seed-revisit twin) must
    BOTH be emitted from the single matching corpus row."""
    import pyarrow as pa

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.fetch import (
        ScanFetch,
        add_fetch_key,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.seen import (
        ShardedSeen,
    )
    import ray as _ray

    seen = ShardedSeen(2)
    try:
        sched = add_fetch_key(pa.table(
            {
                "url": ["http://h.test/a", "http://h.test/a#frag"],
                "url_norm": ["http://h.test/a"] * 2,
                "host": ["h.test"] * 2,
                "depth": pa.array([0, 0], pa.int32()),
                "priority": pa.array([0, 0], pa.int32()),
                "revisit": [False, True],
            }
        ))
        assert len(set(sched["fetch_key"].to_pylist())) == 1
        ref = _ray.put(sched)
        sf = ScanFetch(ref, CrawlConfig(), seen.handles(), {}, "tok-mm")
        corpus_batch = pa.table(
            {
                "url": [sched["fetch_key"][0].as_py(), "http://other.test/x"],
                "html": [b"<html><a href=\"/b\">b</a></html>", b"<html></html>"],
            }
        )
        out = sf(corpus_batch)
        assert out.num_rows == 2
        statuses = sorted(out["status"].to_pylist())
        assert statuses == [200, 304]  # primary fetched, twin revisit-304
    finally:
        seen.kill()


@pytest.mark.usefixtures("ray_session")
def test_crawl_scan_mode_dataset_frontier(tiny_corpus_dir):
    """Scan fetch under the Dataset-native frontier (block-ref frontier
    broadcast + keys-only anti-join for misses) must produce the same
    counters as the broadcast run."""
    ref = run_crawl(tiny_corpus_dir, CrawlConfig(record_order=False),
                    collect=False)
    e = run_crawl(tiny_corpus_dir,
                  CrawlConfig(record_order=False, fetch_mode="scan"),
                  collect=False)
    for k in ("epochs", "pages_fetched", "scheduled_total"):
        assert e.counters.get(k) == ref.counters.get(k), k
    assert e.downloads.num_rows == ref.downloads.num_rows
    assert e.downloads.sort_by("url").equals(ref.downloads.sort_by("url"))


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
                                   pending)
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
    ck = str(tmp_path / "ckpt")
    cfg = CrawlConfig(checkpoint_dir=ck)
    full = run_crawl(tiny_corpus_dir, CrawlConfig())

    partial = run_crawl(tiny_corpus_dir, cfg, max_epochs=2)
    assert partial.n_epochs == 2
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


@pytest.mark.usefixtures("ray_session")
def test_crawl_join_shuffle_strategy(tiny_corpus_dir):
    """The legacy shuffle join (whole corpus re-exchanged) must equal the
    oracle too — it is the equality twin of the default local bucket
    join."""
    cfg = CrawlConfig(fetch_mode="join", join_strategy="shuffle")
    o = crawl_sim.crawl(load_corpus_dict(tiny_corpus_dir),
                        _seeds(tiny_corpus_dir), CrawlConfig())
    e = run_crawl(tiny_corpus_dir, cfg)
    assert_matches_oracle(e, o)


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
                    fetch_mode="join", join_strategy="local"),
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
