"""The one read-block rule (pipelines/_schema.read_parquet_bounded): at
most one block per CPU and none under READ_MIN_BLOCK_ROWS rows. Small
fixtures now read as one block, so the operators that merge per-block
partials are also run here with the floor at 1 row (one block per CPU)
against their DuckDB oracles. An empty file's typed empty results are
test_text_edge_cases.test_ops_on_empty_documents'."""

import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.oracle import (
    textops,
)
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
    _schema,
    crawl,
    dedup,
    text,
)
from test_queries_vs_duckdb import SF_DIR, _canon

SF_SMALL = os.path.join(os.path.dirname(SF_DIR), "sf0.001")


def _write_docs(d, n: int) -> str:
    path = os.path.join(d, "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"w{i} w{i % 7}" for i in range(n)], pa.string()),
    }), path)
    return path


def _blocks(path: str) -> int:
    return _schema.read_parquet_bounded(path).materialize().num_blocks()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("rows", [1, 300, 5000])
def test_read_blocks_follow_rows_and_cpus(tmp_path, rows):
    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus == 4
    n = _blocks(_write_docs(tmp_path, rows))
    assert 1 <= n <= min(cpus, rows)
    assert n == max(1, min(cpus, math.ceil(rows / _schema.READ_MIN_BLOCK_ROWS)))


@pytest.mark.parametrize("cpus, rows, want", [
    (32, 0, (1, 1)), (32, 300, (2, 5)), (32, 5000, (20, 32)),
    (4, 651, (3, 4)), (4, 100_000, (4, 4))])
def test_reads_and_crawl_jobs_share_cpu_blocks(monkeypatch, cpus, rows,
                                               want):
    """One formula, two floors: a read block holds READ_MIN_BLOCK_ROWS
    rows, a crawl job block crawl.MIN_BLOCK_ROWS (up to MAX_BLOCKS)."""
    monkeypatch.setattr(_schema.ray, "cluster_resources",
                        lambda: {"CPU": float(cpus)})
    assert (_schema.cpu_blocks(rows, _schema.READ_MIN_BLOCK_ROWS),
            crawl._job_blocks(rows, 10**9)) == want


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """sf0.001's documents plus exact copies of its first 20 texts under
    new doc_ids: read one block per CPU, the copies sit in the last block
    and their originals in the first, so every merge has cross-block
    duplicates to join."""
    docs = pq.read_table(f"{SF_SMALL}/documents.parquet")
    n = docs.num_rows
    copies = docs.slice(0, 20).set_column(
        0, "doc_id", pa.array(range(n, n + 20), pa.int64()))
    d = str(tmp_path_factory.mktemp("planted"))
    pq.write_table(pa.concat_tables([docs, copies]),
                   os.path.join(d, "documents.parquet"))
    return d


@pytest.fixture
def one_block_per_cpu(monkeypatch, planted_dir):
    monkeypatch.setattr(_schema, "READ_MIN_BLOCK_ROWS", 1)
    assert _blocks(f"{planted_dir}/documents.parquet") == 4


@pytest.fixture(scope="module")
def planted_oracles(planted_dir, tmp_path_factory):
    """DuckDB answers for the ops that merge per-block partials (the
    minted winnowing table lives in a temp dir)."""
    mint = str(tmp_path_factory.mktemp("mint"))
    docs = pq.read_table(f"{planted_dir}/documents.parquet")
    pq.write_table(textops.expected_winnowing(docs),
                   os.path.join(mint, "oracle_winnowing.parquet"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textops, "mint_text_oracles", lambda sf_dir: mint)
        tsql = textops.oracle_sqls(planted_dir)
    sqls = {
        "dedup_exact": dedup.DEDUP_EXACT_SQL,
        "top_ngrams": text.TOP_NGRAMS_SQL,
        "tfidf_top_terms": text.TFIDF_SQL,
        "dedup_substring": dedup.substr_sql(
            dedup.mint_substr_oracle(planted_dir, base=mint)),
        "dedup_winnow_pairs": tsql["dedup_winnow_pairs"],
    }
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{planted_dir}/documents.parquet')")
    return {name: con.execute(sql).df() for name, sql in sqls.items()}


MERGING_OPS = {
    "dedup_exact": dedup.dedup_exact,
    "top_ngrams": text.top_ngrams,
    "tfidf_top_terms": text.tfidf_top_terms,
    "dedup_substring": lambda sf: dedup.dedup_substring(sf, mode="driver"),
    "dedup_winnow_pairs": dedup.dedup_winnow_pairs,
}


@pytest.mark.usefixtures("ray_session", "one_block_per_cpu")
@pytest.mark.parametrize("name", sorted(MERGING_OPS))
def test_cross_block_merges_match_oracles(planted_dir, planted_oracles,
                                          name):
    got = MERGING_OPS[name](planted_dir)
    want = planted_oracles[name]
    assert len(want) > 0
    if name == "dedup_exact":
        assert (want["n_dupes"] > 1).sum() == 20
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


@pytest.mark.usefixtures("ray_session")
def test_keep_best_reads_documents_twice(monkeypatch):
    """The token counts ride in dedup_clusters' md5 map: one read for it
    and one for the winnow pairs, no third read for token_counts."""
    paths = []
    read = _schema.read_parquet_bounded

    def counting(path, columns=None):
        paths.append(path)
        return read(path, columns)

    monkeypatch.setattr(_schema, "read_parquet_bounded", counting)
    out = dedup.dedup_keep_best(SF_SMALL)
    assert len(out) == 500
    assert paths == [f"{SF_SMALL}/documents.parquet"] * 2
