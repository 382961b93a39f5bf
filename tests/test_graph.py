"""Integer PageRank over the crawl link graph (pipelines/graph.py)."""

import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (  # noqa: E402
    graph,
)

SF = "/root/testdata/sf0.001"


def test_pagerank_driver_hand_example(monkeypatch):
    """2-node chain a→b, 2 iterations, every value hand-derived from the
    integer spec (catches any drift in the recurrence constants)."""
    monkeypatch.setattr(graph, "PR_ITERS", 2)
    out = graph._pagerank_driver(
        ["a", "b"], pd.DataFrame({"src": ["a"], "dst": ["b"]})
    )
    scale = graph.PR_SCALE
    r0 = scale // 2                      # 500_000_000_000
    base = (15 * r0) // 100              # 75_000_000_000
    # iter 1: S(a)=0, S(b)=r0//1
    ra1, rb1 = base, base + (85 * r0) // 100
    # iter 2: S(a)=0, S(b)=ra1//1
    ra2, rb2 = base, base + (85 * ra1) // 100
    assert out.loc[out.url_norm == "a", "pr_scaled"].item() == ra2
    assert out.loc[out.url_norm == "b", "pr_scaled"].item() == rb2
    assert rb2 == 75_000_000_000 + (85 * 75_000_000_000) // 100


def test_pagerank_driver_dangling_and_isolated():
    """Dangling node drops its mass; an isolated node decays to base."""
    out = graph._pagerank_driver(
        ["a", "b", "iso"], pd.DataFrame({"src": ["a"], "dst": ["b"]})
    )
    base = (15 * (graph.PR_SCALE // 3)) // 100
    assert out.loc[out.url_norm == "iso", "pr_scaled"].item() == base
    assert out["pr_scaled"].sum() < graph.PR_SCALE  # mass strictly decays


@pytest.mark.usefixtures("ray_session")
def test_pagerank_matches_duckdb_oracle():
    import duckdb

    got = graph.link_pagerank(SF)
    assert len(got) > 0
    assert got["pr_scaled"].dtype == np.int64
    odir = graph.mint_graph_oracle(SF)
    want = duckdb.connect().execute(graph.pagerank_sql(odir)).df()
    want["pr_scaled"] = want["pr_scaled"].astype("int64")
    pd.testing.assert_frame_equal(got, want, check_dtype=True)


# property test: the vectorized driver recurrence vs a naive per-node
# dict implementation of the SAME integer spec, on random small graphs
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _naive_pagerank(nodes, edge_pairs, iters):
    nodes = sorted(set(nodes))
    n = len(nodes)
    r0 = graph.PR_SCALE // n
    base = (15 * r0) // 100
    out_adj = {}
    for s, d in edge_pairs:
        out_adj.setdefault(s, []).append(d)
    r = {u: r0 for u in nodes}
    for _ in range(iters):
        sums = {u: 0 for u in nodes}
        for s, dsts in out_adj.items():
            c = r[s] // len(dsts)
            for d in dsts:
                sums[d] += c
        r = {u: base + (85 * sums[u]) // 100 for u in nodes}
    return {u: r[u] for u in nodes}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
def test_pagerank_driver_matches_naive_on_random_graphs(n, raw_edges):
    nodes = [f"n{i}" for i in range(n)]
    pairs = sorted(
        {(f"n{a % n}", f"n{b % n}") for a, b in raw_edges if a % n != b % n}
    )
    out = graph._pagerank_driver(
        nodes,
        pd.DataFrame(
            {"src": [p[0] for p in pairs], "dst": [p[1] for p in pairs]}
        ),
    )
    want = _naive_pagerank(nodes, pairs, graph.PR_ITERS)
    got = dict(zip(out["url_norm"], out["pr_scaled"]))
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_degree_stats_match_duckdb_and_pagerank_consistency():
    import duckdb

    got = graph.link_degree_stats(SF)
    odir = graph.mint_graph_oracle(SF)
    want = duckdb.connect().execute(graph.degree_stats_sql(odir)).df()
    for c in ("out_deg", "in_deg"):
        want[c] = want[c].astype("int64")
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    # totals balance: every edge contributes one out and one in
    assert got["out_deg"].sum() == got["in_deg"].sum() > 0


@pytest.mark.usefixtures("ray_session")
def test_components_match_duckdb():
    import duckdb

    drv = graph.link_components(SF)
    odir = graph.mint_graph_oracle(SF)
    want = duckdb.connect().execute(graph.components_sql(odir)).df()
    want["component_size"] = want["component_size"].astype("int64")
    pd.testing.assert_frame_equal(drv, want, check_dtype=True)
    # every component id is a member of its own component
    ids = set(drv["url_norm"])
    assert set(drv["component_id"]) <= ids


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=30),
)
def test_components_union_find_matches_bfs(n, raw_edges):
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = [(f"n{a % n:02d}", f"n{b % n:02d}") for a, b in raw_edges
             if a % n != b % n]
    got = dict(zip(nodes, graph._components_driver(nodes, pairs)))
    # naive BFS reference
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    want = {}
    for u in nodes:
        if u in want:
            continue
        comp, stack = [], [u]
        seen = {u}
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v] - seen:
                seen.add(w)
                stack.append(w)
        root = min(comp)
        for v in comp:
            want[v] = root
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_bfs_depth_match_duckdb():
    import duckdb

    drv = graph.link_bfs_depth(SF)
    odir = graph.mint_graph_oracle(SF)
    want = duckdb.connect().execute(graph.bfs_depth_sql(odir)).df()
    want["depth"] = want["depth"].astype("int64")
    pd.testing.assert_frame_equal(drv, want, check_dtype=True)
    # seeds sit at depth 0; depths are contiguous from 0
    assert (drv["depth"] >= 0).all()
    assert drv["depth"].min() == 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    st.integers(min_value=0, max_value=11),
)
def test_bfs_driver_matches_naive_relaxation(n, raw_edges, seed_i):
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = [(f"n{a % n:02d}", f"n{b % n:02d}") for a, b in raw_edges
             if a % n != b % n]
    seeds = [nodes[seed_i % n]]
    got = graph._bfs_driver(seeds, pairs)
    # naive Bellman-Ford-style relaxation to fixpoint
    import math

    d = {u: math.inf for u in nodes}
    for s in seeds:
        d[s] = 0
    for _ in range(n + 1):
        for a, b in pairs:
            if d[a] + 1 < d[b]:
                d[b] = d[a] + 1
    want = {u: int(v) for u, v in d.items() if v < math.inf}
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_persisted_graph_equals_fresh_derive():
    """A fresh session reading the persisted derived-graph parquet must
    rank identically to a full re-derivation (and the _SUCCESS stamp must
    exist after a derive)."""
    import shutil

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl_queries import (
        corpus_for,
    )

    gdir = graph._derived_graph_dir(corpus_for(SF))
    shutil.rmtree(gdir, ignore_errors=True)
    graph._GRAPH_CACHE.clear()
    fresh = graph.link_pagerank(SF)
    assert os.path.exists(os.path.join(gdir, "_SUCCESS"))
    graph._GRAPH_CACHE.clear()  # force the parquet load path
    warm = graph.link_pagerank(SF)
    pd.testing.assert_frame_equal(
        fresh.reset_index(drop=True), warm.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_edgeless_corpus(tmp_path, monkeypatch):
    """A corpus whose pages link only off-corpus has nodes but no edges:
    every node keeps the PageRank base, is its own component, and only
    the seeds have a depth."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl_queries,
    )

    cdir = tmp_path / "corpus"
    (cdir / "pages").mkdir(parents=True)
    urls = [f"http://a.test/p{i}" for i in range(3)]
    html = b'<html><body><a href="http://off.test/x">x</a></body></html>'
    pq.write_table(pa.table({"url": urls, "html": [html] * 3}),
                   str(cdir / "pages" / "part-0.parquet"))
    pq.write_table(pa.table({"url": urls[:1]}), str(cdir / "seeds.parquet"))
    monkeypatch.setattr(crawl_queries, "corpus_for", lambda s: str(cdir))
    monkeypatch.setattr(graph, "_GRAPH_CACHE", {})

    assert graph.link_degree_stats("edgeless")["out_deg"].tolist() == [0] * 3
    pr = graph.link_pagerank("edgeless")
    assert pr["url_norm"].tolist() == urls
    assert pr["pr_scaled"].tolist() == [(15 * (graph.PR_SCALE // 3)) // 100] * 3
    comp = graph.link_components("edgeless")
    assert comp["component_id"].tolist() == urls
    assert comp["component_size"].tolist() == [1] * 3
    bfs = graph.link_bfs_depth("edgeless")
    assert bfs["url_norm"].tolist() == urls[:1]
    assert bfs["depth"].tolist() == [0]
