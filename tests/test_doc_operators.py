"""Execution shape of the document operators (pipelines/dedup.py,
pipelines/text.py) and the graph queries (pipelines/graph.py): they run
as tasks and sort-shuffle exchanges only — no actor per call — so the
document operators also finish on a 2-CPU node; actor pools that
remain never take every CPU; and the tf-idf partial top-k merge is exact
at any partition count."""

import time

import duckdb
import numpy as np
import pandas as pd
import pytest

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
    _schema,
    dedup,
    graph,
    text,
)
from test_queries_vs_duckdb import _canon

SF_DIR = "/root/testdata/sf0.01"
SF_SMALL = "/root/testdata/sf0.001"

# the dedup/text operation set of the benchmark's dedup_docs workload,
# plus the two converted signature/scoring ops it does not time
NO_ACTOR_OPS = ("dedup_exact", "dedup_minhash_lsh", "dedup_substring",
                "dedup_clusters", "dedup_keep_best", "top_ngrams",
                "tfidf_top_terms", "dedup_simhash", "lang_id")
GRAPH_OPS = ("link_pagerank", "link_degree_stats", "link_components",
             "link_bfs_depth")
TWO_CPU_OPS = ("dedup_minhash_lsh", "dedup_simhash", "tfidf_top_terms",
               "lang_id")


def _op(name: str):
    return getattr(dedup, name, None) or getattr(text, name)


def _documents_con(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    return con


@pytest.mark.parametrize("cpus, want", [(1, (1, 1)), (2, (1, 1)),
                                        (4, (2, 3)), (32, (2, 16))])
def test_auto_pool_leaves_a_cpu_free(monkeypatch, cpus, want):
    monkeypatch.setattr(_schema.ray, "cluster_resources",
                        lambda: {"CPU": float(cpus)})
    assert _schema.auto_pool() == want


@pytest.mark.usefixtures("ray_session")
def test_document_ops_start_no_actor():
    """After one warm-up round, no call of these operations adds an entry
    to the GCS actor table: signatures and scoring are stateless tasks,
    and every exchange is a groupby (sort shuffle), never a
    Dataset.join (whose hash shuffle starts aggregator actors per call).
    The graph queries join only while deriving the per-corpus graph,
    which the warm-up round caches."""
    from ray._private.state import actors

    calls = [(name, _op(name), SF_DIR) for name in NO_ACTOR_OPS] + [
        ("dedup_clusters(mode='distributed')",
         lambda sf: dedup.dedup_clusters(sf, mode="distributed"), SF_DIR),
        ("dedup_simhash(mode='distributed')",
         lambda sf: dedup.dedup_simhash(sf, mode="distributed"), SF_DIR),
        ("dedup_minhash_lsh(mode='distributed')",
         lambda sf: dedup.dedup_minhash_lsh(sf, mode="distributed"), SF_DIR),
        ("dedup_embedding_cosine(method='lsh', mode='distributed')",
         lambda sf: dedup.dedup_embedding_cosine(sf, method="lsh",
                                                 mode="distributed"),
         SF_DIR),
    ] + [(name, getattr(graph, name), SF_SMALL) for name in GRAPH_OPS]
    for _name, call, sf in calls:
        call(sf)
    for name, call, sf in calls:
        before = set(actors())
        call(sf)
        assert set(actors()) == before, name


@pytest.mark.usefixtures("ray_session")
def test_tfidf_merge_at_64_partitions(monkeypatch):
    """64 term partitions over 500 docs split almost every doc's terms
    across partitions; the driver's merge of the per-partition top-k must
    still equal the SQL reference exactly."""
    monkeypatch.setattr(text, "_n_parts", lambda n_rows, floor=4: 64)
    got = text.tfidf_top_terms(SF_SMALL)
    want = _documents_con(SF_SMALL).execute(text.TFIDF_SQL).df()
    pd.testing.assert_frame_equal(_canon(got), _canon(want))
    # the case the merge exists for: a doc whose top-k terms come from
    # more than one partition (same hash as the co-partition stamp)
    part = (pd.util.hash_pandas_object(got["term"], index=False).to_numpy()
            % np.uint64(64))
    spread = pd.Series(part).groupby(got["doc_id"].to_numpy()).nunique()
    assert (spread > 1).any()


def _two_cpu_ops_main() -> None:
    """Subprocess body: each op on a 2-CPU node, checked against its
    oracle."""
    import ray
    from ray.data import DataContext

    import __ray_entry__ as entrymod

    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    sqls = entrymod.oracle_sql()
    con = _documents_con(SF_DIR)
    for name in TWO_CPU_OPS:
        t0 = time.perf_counter()
        got = entrymod.queries()[name](SF_DIR)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
        want = con.execute(sqls[name]).df()
        pd.testing.assert_frame_equal(_canon(got), _canon(want))
    ray.shutdown()
    print("ok")


def test_document_ops_on_two_cpu_node(run_in_child):
    """Regression: the per-call signature actor pool asked for two whole
    CPUs plus the read tasks, so dedup_minhash_lsh never returned on a
    2-CPU node. Runs in a child process under a hard timeout so a hang
    fails instead of stalling."""
    run_in_child("test_doc_operators", "_two_cpu_ops_main")
