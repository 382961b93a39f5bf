"""Sink tests: visited/download txt exports (S4/S5), partitioned document
store (S6), and the collect=False distributed extracted sink."""

import os

import pyarrow.parquet as pq
import pytest

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.config import CrawlConfig
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
    run_crawl,
)
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.sinks import (
    export_downloads_txt,
    export_visited_txt,
    write_document_store,
)


@pytest.fixture(scope="module")
def crawl_result(ray_session, tiny2_dir):
    return run_crawl(tiny2_dir, CrawlConfig()), tiny2_dir


@pytest.fixture(scope="module")
def tiny2_dir(tmp_path_factory):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
        write_corpus,
    )

    d = str(tmp_path_factory.mktemp("corpus") / "tiny2")
    return write_corpus(d, n_pages=60, n_hosts=3, seed=9, include_huge=False)


def test_visited_txt(crawl_result, tmp_path):
    res, _ = crawl_result
    p = str(tmp_path / "visited.txt")
    n = export_visited_txt(res, p)
    lines = open(p).read().splitlines()
    assert n == len(lines) == res.seen.num_rows
    assert all(l == l.lower() for l in lines)  # normalized keys


def test_downloads_txt(crawl_result, tmp_path):
    res, _ = crawl_result
    p = str(tmp_path / "downloads.txt")
    n = export_downloads_txt(res, p)
    ok_rows = sum(res.downloads["ok"].to_pylist())
    assert n == ok_rows == len(open(p).read().splitlines())


def test_document_store(crawl_result, tmp_path):
    res, cdir = crawl_result
    out = str(tmp_path / "docstore")
    n = write_document_store(cdir, res, out)
    ok_rows = sum(res.downloads["ok"].to_pylist())
    assert n == ok_rows
    total = 0
    for d in os.listdir(out):
        assert os.path.exists(os.path.join(out, d, "_SUCCESS"))
        t = pq.read_table(os.path.join(out, d, "documents.parquet"))
        assert t.schema.names == ["url", "filename", "payload"]
        assert all(len(p) > 0 for p in t["payload"].to_pylist())
        total += t.num_rows
    assert total == n


@pytest.mark.usefixtures("ray_session")
def test_collect_false_distributed_sink(tiny2_dir, tmp_path):
    """collect=False: extracted rows land in per-epoch parquet dirs via
    Dataset.write_parquet; counters still correct. Every epoch of this
    corpus is small enough to be fetched in the driver."""
    res = _check_distributed_sink(tiny2_dir, tmp_path)
    assert res.counters["fetch_epochs"]["job"] == 0


@pytest.mark.usefixtures("ray_session")
def test_collect_false_distributed_sink_from_fetch_jobs(tiny2_dir, tmp_path,
                                                        monkeypatch):
    """The same sink when every epoch is fetched by a Ray Data job: the
    per-epoch stats job over the fetched Dataset and its write_parquet."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl as crawl_mod,
    )

    monkeypatch.setattr(crawl_mod, "DRIVER_FETCH_ROWS", 0)
    res = _check_distributed_sink(tiny2_dir, tmp_path)
    assert res.counters["fetch_epochs"]["driver"] == 0


def _check_distributed_sink(tiny2_dir, tmp_path):
    ck = str(tmp_path / "ck")
    sink = str(tmp_path / "extracted")
    cfg = CrawlConfig(checkpoint_dir=ck)
    full = run_crawl(tiny2_dir, CrawlConfig())
    res = run_crawl(tiny2_dir, cfg, collect=False, extracted_sink=sink)
    assert res.extracted is None
    assert res.pages_fetched == full.pages_fetched
    # seen/order/downloads identical to the collect=True run
    assert res.seen.to_pydict() == full.seen.to_pydict()
    assert res.order.to_pydict() == full.order.to_pydict()
    # extracted rows are on disk, distributed
    n_rows = 0
    for d in sorted(os.listdir(sink)):
        ext_dir = os.path.join(sink, d)
        if os.path.isdir(ext_dir):
            n_rows += pq.read_table(ext_dir).num_rows
    full_all = full.fetch_log.num_rows
    assert n_rows == full_all
    return res
