"""The benchmark's output checks pass on oracle-shaped output and fail on
each kind of corruption they exist to catch. No Ray session is needed:
the "engine output" is the oracle answer itself, then corrupted.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

import checks  # noqa: E402
import inputs  # noqa: E402


def _crawl_oracle(tmp_path, budget: int) -> inputs.CrawlOracle:
    out = str(tmp_path / f"crawl-b{budget}")
    os.makedirs(out)
    inputs._build_crawl(out, seed=3, n_pages=80, n_hosts=4, chain_len=4,
                        hub_fanout=400, budget=budget)
    return inputs.CrawlOracle(out)


@pytest.fixture(scope="module")
def bfs(tmp_path_factory):
    return _crawl_oracle(tmp_path_factory.mktemp("bfs"), budget=0)


@pytest.fixture(scope="module")
def polite(tmp_path_factory):
    return _crawl_oracle(tmp_path_factory.mktemp("polite"), budget=3)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("docs") / "a")
    os.makedirs(out)
    inputs._build_docs(out, seed=5, n_docs=60, vocab=300)
    return inputs.DocsOracle(out)


def _result(o, **override):
    """An engine-shaped driver-frontier crawl result equal to the oracle."""
    fields = dict(n_epochs=o.meta["n_epochs"], order=o.order, seen=o.seen,
                  extracted=o.text, fetch_log=o.fetch_log,
                  downloads=o.downloads)
    fields.update(override)
    return SimpleNamespace(**fields)


def _drop_row(t: pa.Table, i: int = 0) -> pa.Table:
    return pa.concat_tables([t.slice(0, i), t.slice(i + 1)])


def _flip_text_byte(t: pa.Table) -> pa.Table:
    texts = t["text"].to_pylist()
    i = next(k for k, x in enumerate(texts) if x)
    b = bytearray(texts[i].encode())
    b[len(b) // 2] ^= 0x01
    texts[i] = b.decode("utf-8", errors="replace")
    return t.set_column(t.schema.get_field_index("text"), "text",
                        pa.array(texts, pa.string()))


def test_unmodified_outputs_pass(bfs, polite, docs):
    assert checks.check_crawl(_result(bfs), bfs) == []
    assert checks.check_crawl(_result(polite), polite) == []
    for op in inputs.DEDUP_OPS:
        assert checks.check_dedup(op, docs.frames[op], docs) == [], op


def test_dropped_seen_row_fails(bfs):
    errs = checks.check_crawl(_result(bfs, seen=_drop_row(bfs.seen, 3)), bfs)
    assert any(e.startswith("seen:") for e in errs)


def test_changed_text_byte_fails(bfs):
    errs = checks.check_crawl(
        _result(bfs, extracted=_flip_text_byte(bfs.text)), bfs)
    assert any(e.startswith("text:") for e in errs)


def test_extra_url_over_host_budget_fails(polite):
    order = polite.order
    counts = checks.row_counter(order, ["epoch", "host"])
    (epoch, host), n = max(counts.items(), key=lambda kv: kv[1])
    assert n == polite.meta["budget"]  # a host at its budget this epoch
    extra = pa.table({
        "epoch": pa.array([epoch], pa.int32()),
        "rank": pa.array([order.num_rows], pa.int64()),
        "url": pa.array([f"http://{host}/one-too-many"], pa.string()),
        "host": pa.array([host], pa.string()),
        "depth": pa.array([1], pa.int32()),
        "priority": pa.array([0], pa.int32())})
    errs = checks.check_crawl(
        _result(polite, order=pa.concat_tables([order, extra])), polite)
    assert any(e.startswith("budget:") for e in errs)
    assert any(e.startswith("statuses:") for e in errs)


def test_removed_dedup_row_fails(docs):
    for op in inputs.DEDUP_OPS:
        got = _drop_row(docs.frames[op], docs.frames[op].num_rows // 2)
        assert checks.check_dedup(op, got, docs), op


def test_minhash_pair_below_threshold_fails(docs):
    pairs = docs.frames["dedup_minhash_lsh"]
    ids = docs.docs["doc_id"].to_pylist()
    bogus = pa.table({"doc_a": pa.array([ids[0]], pa.int64()),
                      "doc_b": pa.array([ids[1]], pa.int64()),
                      "jaccard_pct": pa.array([99], pa.int64())})
    errs = checks.check_jaccard(pa.concat_tables([pairs, bogus]), docs.docs)
    assert errs and errs[0].startswith("minhash:")


def test_resumed_sink_checks(bfs):
    seen = bfs.seen.rename_columns(["url_norm", "depth", "url"])
    ext = bfs.text.append_column(
        "status", pa.array([200] * bfs.text.num_rows, pa.int32()))
    res = SimpleNamespace(
        n_epochs=bfs.meta["n_epochs"],
        pages_fetched=bfs.meta["pages_fetched"],
        counters={"scheduled_total": bfs.meta["scheduled"]},
        downloads=bfs.downloads)
    assert checks.check_resumed(res, seen, ext, bfs) == []
    errs = checks.check_resumed(res, _drop_row(seen, 1), ext, bfs)
    assert any(e.startswith("seen:") for e in errs)
    errs = checks.check_resumed(res, seen, _flip_text_byte(ext), bfs)
    assert any(e.startswith("text:") for e in errs)
