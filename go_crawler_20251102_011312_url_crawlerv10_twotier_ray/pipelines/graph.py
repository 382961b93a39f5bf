"""PageRank over the crawl link graph — deterministic INTEGER arithmetic.

The webtext operator the reference's link extraction naturally feeds: rank
every corpus page by the link structure the extractors discover
(reference link surface: crawler/crawler_twotier.go OnHTML handlers; our
engine side reuses the same vectorized RouteAndExtract kernels the
byte-identical text gate pins).

Float PageRank is NOT reproducible across summation orders, so the spec
is integer end-to-end (the house rule that made the money sums and
tf-idf hash-checkable):

- node set   = { normalize_url(u) : u ∈ corpus pages }
- edge set   = distinct (norm(src), norm(link)) for every extracted link
               whose norm is a corpus node, self-loops dropped
- R₀(v)      = SCALE // n            (all int64)
- iterate ITERS times:
    S(u)  = Σ_{v→u}  R(v) // outdeg(v)        (order-independent int sum)
    R'(u) = (15·(SCALE // n)) // 100  +  (85·S(u)) // 100
- dangling mass is dropped (documented; both sides agree by construction)

Every operation is int64 floor-division/addition, so the driver numpy
path and the DuckDB chained-CTE oracle are bit-identical regardless of
summation order.

Scale shape: edges are derived inside ``map_batches`` (per-batch distinct
partial before the global distinct groupby), the node-membership filter is
a hash JOIN (never a broadcast of the node set), and the derived graph is
persisted next to the corpus. The iterative tails (PageRank, components,
BFS depth) collect the distinct edge list once and iterate in driver
memory. Size bound, measured on a synthetic 400k-node URL graph: driver
peak RSS 0.74 GB at 2M edges and 1.3 GB at 4.9M edges, of which the
materialized input took 0.6 and 1.0 GB. A join-per-iteration Dataset tail
lost to these by 140-200x at 2M edges (BASELINE.md), so none is kept.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..config import CrawlConfig

PR_SCALE = 10**12
PR_ITERS = 10
GRAPH_ORACLE_ROOT = "/tmp/graft_graphoracle"
GRAPH_ORACLE_VERSION = "v2"   # v2: + seeds.parquet (link_bfs_depth)
# persisted engine-derived graph: bump when the extraction/normalization
# spec changes (RouteAndExtract kernels or normalize_url) — same pinning
# discipline as GRAPH_ORACLE_VERSION, but for the ENGINE side
GRAPH_DERIVE_VERSION = "v1"


# ---------------------------------------------------------------------------
# engine side: nodes + edges from the vectorized extraction kernels
# ---------------------------------------------------------------------------


# the graph queries share one derived (nodes, edges) pair per corpus —
# extraction over the whole corpus is the expensive part (same pattern as
# crawl_queries._CRAWL_CACHE; at most one corpus cached). Entries are
# (corpus_stamp, (nodes, edges, n_nodes)): the stamp is re-checked on every
# hit so an in-place corpus regeneration invalidates the in-memory cache
# the same way it invalidates the on-disk derived layout.
_GRAPH_CACHE: dict[str, tuple] = {}


def _derived_graph_dir(cdir: str) -> str:
    """On-disk home of the persisted (nodes, edges) parquet for a corpus."""
    return os.path.join(cdir, f"derived_graph-{GRAPH_DERIVE_VERSION}")


def _load_derived_graph(cdir: str):
    """(nodes, edges, n_nodes) from the persisted parquet, or None if no
    complete (_SUCCESS-stamped) derivation exists for this spec version."""
    import json

    from ._schema import read_parquet_bounded

    from ..sources.pages import corpus_stamp

    gdir = _derived_graph_dir(cdir)
    if not os.path.exists(os.path.join(gdir, "_SUCCESS")):
        return None
    with open(os.path.join(gdir, "meta.json")) as f:
        meta = json.load(f)
    # a graph derived from a corpus that was since regenerated in place
    # (different parameter stamp) is stale — force re-derivation
    if meta.get("corpus_stamp", "") != corpus_stamp(cdir):
        return None
    n_nodes = int(meta["n_nodes"])
    nodes = read_parquet_bounded(
        os.path.join(gdir, "nodes"), columns=["node"]).materialize()
    edges = read_parquet_bounded(
        os.path.join(gdir, "edges"), columns=["src", "dst"]).materialize()
    return nodes, edges, n_nodes


def _persist_derived_graph(cdir: str, nodes: rd.Dataset,
                           edges: rd.Dataset, n_nodes: int) -> None:
    """Write the derived graph next to the corpus so a FRESH session never
    repays full-corpus extraction (6.8 s cold vs sub-second warm at sf0.1).
    _SUCCESS is written LAST inside a tmp dir that is renamed into place —
    a killed run leaves either nothing or a complete stamp, never a
    half-written dir a later session would trust."""
    import json
    import shutil

    from ..sources.pages import corpus_stamp

    if n_nodes == 0 or edges.count() == 0:
        return  # an empty parquet read-back would be zero-column (unusable)
    gdir = _derived_graph_dir(cdir)
    tmp = f"{gdir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        nodes.write_parquet(os.path.join(tmp, "nodes"))
        edges.write_parquet(os.path.join(tmp, "edges"))
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({"n_nodes": n_nodes,
                       "corpus_stamp": corpus_stamp(cdir)}, f)
        open(os.path.join(tmp, "_SUCCESS"), "w").close()
        shutil.rmtree(gdir, ignore_errors=True)
        os.rename(tmp, gdir)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner keeps gdir


def _edge_tables(sf_dir: str) -> tuple[rd.Dataset, rd.Dataset, int]:
    """(nodes, distinct edges, n_nodes) — engine-derived, MATERIALIZED and
    cached per corpus. Nodes/edges are normalized inside map_batches with
    the per-worker memo cache (stages/candidates._norm_cached — hub links
    repeat massively)."""
    from ..sources.pages import corpus_stamp, read_pages
    from ..stages.candidates import _norm_cached
    from ..stages.extract import RouteAndExtract
    from .crawl_queries import corpus_for
    from ._schema import heal_blocks

    cdir = corpus_for(sf_dir)
    stamp = corpus_stamp(cdir)
    cached = _GRAPH_CACHE.get(cdir)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    loaded = _load_derived_graph(cdir)
    if loaded is not None:
        _GRAPH_CACHE.clear()
        _GRAPH_CACHE[cdir] = (stamp, loaded)
        return loaded
    cfg = CrawlConfig()

    def node_batch(t: pa.Table) -> pa.Table:
        out = {_norm_cached(u) for u in t["url"].to_pylist()}
        out.discard(None)
        return pa.table({"node": pa.array(sorted(out), pa.string())})

    nodes = (
        read_pages(cdir, columns=["url"])
        .map_batches(node_batch, batch_format="pyarrow")
        .groupby("node")
        .count()
        .select_columns(["node"])
    )
    nodes = heal_blocks(nodes) or nodes

    def edge_batch(t: pa.Table) -> pa.Table:
        # per-batch DISTINCT partial — shrinks the global distinct shuffle
        pairs: set[tuple[str, str]] = set()
        urls = t["url"].to_pylist()
        links_col = t["links"].to_pylist()
        for u, links in zip(urls, links_col):
            s = _norm_cached(u)
            if s is None:
                continue
            for link in links or ():
                d = _norm_cached(link)
                if d is not None and d != s:
                    pairs.add((s, d))
        ordered = sorted(pairs)
        return pa.table(
            {
                "src": pa.array([p[0] for p in ordered], pa.string()),
                "dst": pa.array([p[1] for p in ordered], pa.string()),
            }
        )

    edges = (
        read_pages(cdir, columns=["url", "html"])
        .map_batches(
            RouteAndExtract(cfg), batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )
        .select_columns(["url", "links"])
        .map_batches(edge_batch, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .count()
        .select_columns(["src", "dst"])
    )
    edges = heal_blocks(edges) or edges
    # membership filter: dst must be a corpus node — a hash JOIN, never a
    # broadcast of the (at scale, huge) node set. src ∈ nodes holds by
    # construction (src IS a corpus page norm).
    n_nodes = nodes.count()
    n_part = max(2, min(1024, edges.count() // 250_000 + 1))
    edges = edges.join(
        nodes.rename_columns({"node": "dst"}),
        join_type="inner", num_partitions=n_part, on=("dst",),
    )
    edges = heal_blocks(edges) or edges
    nodes = nodes.materialize()
    edges = edges.materialize()
    _persist_derived_graph(cdir, nodes, edges, n_nodes)
    _GRAPH_CACHE.clear()
    _GRAPH_CACHE[cdir] = (stamp, (nodes, edges, n_nodes))
    return nodes, edges, n_nodes


def _pr_base(n_nodes: int) -> tuple[int, int]:
    r0 = PR_SCALE // n_nodes
    return r0, (15 * r0) // 100


def _edge_frame(edges: rd.Dataset) -> pd.DataFrame:
    """The distinct edges as one (src, dst) string frame, typed even at 0
    rows: an edgeless corpus leaves a zero-column edge dataset."""
    df = edges.to_pandas()
    if df.empty:
        return pd.DataFrame({"src": [], "dst": []}, dtype=object)
    return df[["src", "dst"]]


def _pagerank_driver(nodes: list[str], edges: pd.DataFrame) -> pd.DataFrame:
    """The module docstring's integer recurrence, vectorized over node
    indices."""
    order = sorted(nodes)
    idx = {u: i for i, u in enumerate(order)}
    n = len(order)
    s_idx = edges["src"].map(idx).to_numpy(dtype=np.int64)
    d_idx = edges["dst"].map(idx).to_numpy(dtype=np.int64)
    deg = np.bincount(s_idx, minlength=n).astype(np.int64)
    r0, base = _pr_base(n)
    r = np.full(n, r0, dtype=np.int64)
    for _ in range(PR_ITERS):
        sums = np.zeros(n, dtype=np.int64)
        if len(s_idx):
            np.add.at(sums, d_idx, r[s_idx] // deg[s_idx])
        r = base + (85 * sums) // 100
    return pd.DataFrame({"url_norm": order, "pr_scaled": r})


def link_pagerank(sf_dir: str) -> pd.DataFrame:
    """(url_norm, pr_scaled): integer PageRank of every corpus page after
    PR_ITERS iterations, pr_scaled summing to ≤ PR_SCALE (dangling mass
    decays). Collects the distinct edge list once and iterates in driver
    memory (size bound: module docstring)."""
    nodes_ds, edges_ds, n_nodes = _edge_tables(sf_dir)
    if n_nodes == 0:
        return pd.DataFrame(
            {"url_norm": [], "pr_scaled": []}
        ).astype({"url_norm": "object", "pr_scaled": "int64"})
    nodes = [r["node"] for r in nodes_ds.take_all()]
    return _pagerank_driver(nodes, _edge_frame(edges_ds))


# ---------------------------------------------------------------------------
# oracle: pinned naive edge derivation + DuckDB chained-CTE PageRank
# ---------------------------------------------------------------------------


def mint_graph_oracle(sf_dir: str) -> str:
    """Mint (nodes, edges) parquet via the PINNED per-page reference
    extraction (oracle/reference.py extract_page + shared-spec
    normalize_url) — naive Python, independent of the vectorized engine
    kernels, cached like oracle/textops minting."""
    from ..corpus import read_pages_table
    from ..functions.urlnorm import normalize_url
    from ..oracle.reference import extract_page
    from .crawl_queries import corpus_for

    sf = os.path.basename(os.path.normpath(sf_dir)) or "sf0.01"
    out_dir = os.path.join(
        GRAPH_ORACLE_ROOT, f"{sf}-{GRAPH_ORACLE_VERSION}")
    stamp = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(stamp):
        return out_dir
    cdir = corpus_for(sf_dir)
    cfg = CrawlConfig()
    t = read_pages_table(cdir, columns=["url", "html"])
    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    nodes = {normalize_url(u) for u in urls}
    nodes.discard(None)
    edges: set[tuple[str, str]] = set()
    for u, h in zip(urls, htmls):
        src = normalize_url(u)
        if src is None:
            continue
        ext = extract_page(u, h[: cfg.max_body_bytes], cfg.doc_extensions)
        for link in ext.links:
            dst = normalize_url(link)
            if dst is not None and dst in nodes and dst != src:
                edges.add((src, dst))
    os.makedirs(out_dir, exist_ok=True)
    ns = sorted(nodes)
    pq.write_table(
        pa.table({"node": pa.array(ns, pa.string())}),
        os.path.join(out_dir, "nodes.parquet"),
    )
    es = sorted(edges)
    pq.write_table(
        pa.table(
            {
                "src": pa.array([e[0] for e in es], pa.string()),
                "dst": pa.array([e[1] for e in es], pa.string()),
            }
        ),
        os.path.join(out_dir, "edges.parquet"),
    )
    st = pq.read_table(os.path.join(cdir, "seeds.parquet"))
    seeds = {normalize_url(u) for u in st["url"].to_pylist()}
    seeds.discard(None)
    pq.write_table(
        pa.table({"node": pa.array(sorted(seeds), pa.string())}),
        os.path.join(out_dir, "seeds.parquet"),
    )
    with open(stamp, "w"):
        pass
    return out_dir


def pagerank_sql(oracle_dir: str) -> str:
    """Chained-CTE integer PageRank — the relational mirror of the exact
    recurrence above (DuckDB ``//`` is integer division on BIGINT)."""
    parts = [
        f"WITH nodes AS (SELECT node FROM read_parquet('{oracle_dir}/nodes.parquet')),",
        f"edges AS (SELECT src, dst FROM read_parquet('{oracle_dir}/edges.parquet')),",
        "nn AS (SELECT count(*) AS n FROM nodes),",
        "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY src),",
        f"it0 AS (SELECT node, CAST({PR_SCALE} // nn.n AS BIGINT) AS r FROM nodes, nn),",
    ]
    for i in range(1, PR_ITERS + 1):
        parts.append(
            f"s{i} AS (SELECT e.dst AS node, CAST(sum(p.r // dg.d) AS BIGINT) AS s "
            f"FROM edges e JOIN it{i-1} p ON p.node = e.src "
            f"JOIN deg dg ON dg.src = e.src GROUP BY e.dst),"
        )
        parts.append(
            f"it{i} AS (SELECT n.node, CAST((15 * ({PR_SCALE} // nn.n)) // 100 "
            f"+ (85 * COALESCE(s{i}.s, 0)) // 100 AS BIGINT) AS r "
            f"FROM nodes n CROSS JOIN nn LEFT JOIN s{i} ON s{i}.node = n.node),"
        )
    parts[-1] = parts[-1].rstrip(",")
    parts.append(
        f"SELECT node AS url_norm, r AS pr_scaled FROM it{PR_ITERS} "
        "ORDER BY url_norm"
    )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# per-node degree stats
# ---------------------------------------------------------------------------


def link_degree_stats(sf_dir: str) -> pd.DataFrame:
    """(url_norm, out_deg, in_deg) for EVERY node (zero-degree included).
    One shuffle: edges are exploded to (node, o, i) unit rows, unioned
    with an all-nodes zero row, and groupby-summed — in/out degrees in a
    single all-to-all pass, never a driver-side edge collect."""
    from ray.data.aggregate import Sum

    from ._schema import heal_blocks

    nodes, edges, n_nodes = _edge_tables(sf_dir)
    if n_nodes == 0:
        return pd.DataFrame(
            {"url_norm": [], "out_deg": [], "in_deg": []}
        ).astype({"url_norm": "object", "out_deg": "int64", "in_deg": "int64"})

    def unit_rows(t: pa.Table) -> pa.Table:
        k = t.num_rows
        one = np.ones(k, dtype=np.int64)
        zero = np.zeros(k, dtype=np.int64)
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]),
                "o": pa.array(np.concatenate([one, zero])),
                "i": pa.array(np.concatenate([zero, one])),
            }
        )

    def zero_rows(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, dtype=np.int64)
        return pa.table(
            {"node": t["node"], "o": pa.array(z), "i": pa.array(z)}
        )

    out = (
        edges.map_batches(unit_rows, batch_format="pyarrow")
        .union(nodes.map_batches(zero_rows, batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Sum("o", alias_name="out_deg"),
                   Sum("i", alias_name="in_deg"))
    )
    out = heal_blocks(out) or out
    df = out.to_pandas().rename(columns={"node": "url_norm"})
    df["out_deg"] = df["out_deg"].astype("int64")
    df["in_deg"] = df["in_deg"].astype("int64")
    return df.sort_values("url_norm").reset_index(drop=True)[
        ["url_norm", "out_deg", "in_deg"]
    ]


def degree_stats_sql(oracle_dir: str) -> str:
    return f"""
WITH nodes AS (SELECT node FROM read_parquet('{oracle_dir}/nodes.parquet')),
edges AS (SELECT src, dst FROM read_parquet('{oracle_dir}/edges.parquet')),
o AS (SELECT src AS node, count(*) AS c FROM edges GROUP BY src),
i AS (SELECT dst AS node, count(*) AS c FROM edges GROUP BY dst)
SELECT n.node AS url_norm,
       CAST(COALESCE(o.c, 0) AS BIGINT) AS out_deg,
       CAST(COALESCE(i.c, 0) AS BIGINT) AS in_deg
FROM nodes n LEFT JOIN o ON o.node = n.node LEFT JOIN i ON i.node = n.node
ORDER BY url_norm
"""


# ---------------------------------------------------------------------------
# connected components (undirected view of the link graph)
# ---------------------------------------------------------------------------


def _components_driver(nodes: list, edge_pairs) -> list:
    """min-id union-find with path compression over any ordered node type
    (URL strings here, doc ids in dedup.dedup_clusters) — pure function,
    property-tested against a naive BFS on random graphs."""
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in edge_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(u) for u in nodes]


def link_components(sf_dir: str) -> pd.DataFrame:
    """(url_norm, component_id, component_size): undirected connected
    components of the link graph; component_id = lexicographically
    smallest url_norm in the component (ASCII URLs ⇒ Python/pandas/DuckDB
    string mins agree). One union-find pass over the collected edge list
    in driver memory (size bound: module docstring)."""
    nodes_ds, edges_ds, n_nodes = _edge_tables(sf_dir)
    if n_nodes == 0:
        return pd.DataFrame(
            {"url_norm": [], "component_id": [], "component_size": []}
        ).astype({"url_norm": "object", "component_id": "object",
                  "component_size": "int64"})
    nodes = [r["node"] for r in nodes_ds.take_all()]
    e = _edge_frame(edges_ds)
    df = pd.DataFrame({"url_norm": nodes})
    df["component_id"] = _components_driver(nodes, zip(e["src"], e["dst"]))
    sizes = df.groupby("component_id")["url_norm"].transform("size")
    df["component_size"] = sizes.astype("int64")
    return df.sort_values("url_norm").reset_index(drop=True)


def components_sql(oracle_dir: str) -> str:
    """Recursive-CTE reachability → min label per node (terminates: the
    UNION-dedup'd (node, root) pair set is finite)."""
    return f"""
WITH RECURSIVE
nodes AS (SELECT node FROM read_parquet('{oracle_dir}/nodes.parquet')),
edges AS (SELECT src, dst FROM read_parquet('{oracle_dir}/edges.parquet')),
bidir AS (SELECT src, dst FROM edges UNION SELECT dst, src FROM edges),
reach AS (
  SELECT node, node AS root FROM nodes
  UNION
  SELECT b.dst AS node, reach.root
  FROM reach JOIN bidir b ON b.src = reach.node
),
comp AS (SELECT node, min(root) AS component_id FROM reach GROUP BY node)
SELECT c.node AS url_norm, c.component_id,
       CAST(count(*) OVER (PARTITION BY c.component_id) AS BIGINT)
         AS component_size
FROM comp c ORDER BY url_norm
"""


# ---------------------------------------------------------------------------
# BFS depth from the crawl seeds (directed min-hop distance)
# ---------------------------------------------------------------------------

BFS_MAX_ROUNDS = 99   # shared with the SQL oracle's path-length cap: both
                      # stop there, so results agree at any eccentricity


def _seed_norms(sf_dir: str) -> list[str]:
    """Normalized corpus seed URLs (shared urlnorm spec)."""
    from ..functions.urlnorm import normalize_url
    from .crawl_queries import corpus_for

    cdir = corpus_for(sf_dir)
    t = pq.read_table(os.path.join(cdir, "seeds.parquet"))
    out = {normalize_url(u) for u in t["url"].to_pylist()}
    out.discard(None)
    return sorted(out)


def _bfs_driver(seeds: list[str], edge_pairs) -> dict[str, int]:
    """Plain BFS (pure function; property-tested vs naive relaxation)."""
    adj: dict[str, list[str]] = {}
    for a, b in edge_pairs:
        adj.setdefault(a, []).append(b)
    depth = {s: 0 for s in seeds}
    frontier = list(seeds)
    d = 0
    while frontier and d < BFS_MAX_ROUNDS:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in depth:
                    depth[v] = d
                    nxt.append(v)
        frontier = nxt
    return depth


def link_bfs_depth(sf_dir: str) -> pd.DataFrame:
    """(url_norm, depth): minimum DIRECTED hop count from any crawl seed
    over the extracted link graph — the idealized depth map the crawler's
    depth gate approximates (reference depth context:
    crawler_twotier.go:194). Unreachable pages are omitted (matching the
    SQL oracle's recursive reachability). One BFS over the collected edge
    list in driver memory, up to BFS_MAX_ROUNDS hops (size bound: module
    docstring)."""
    _, edges_ds, n_nodes = _edge_tables(sf_dir)
    seeds = _seed_norms(sf_dir)
    if n_nodes == 0 or not seeds:
        return pd.DataFrame({"url_norm": [], "depth": []}).astype(
            {"url_norm": "object", "depth": "int64"})
    e = _edge_frame(edges_ds)
    depth = _bfs_driver(seeds, zip(e["src"], e["dst"]))
    out = pd.DataFrame(
        {"url_norm": list(depth), "depth": list(depth.values())})
    out["depth"] = out["depth"].astype("int64")
    return out.sort_values("url_norm").reset_index(drop=True)


def bfs_depth_sql(oracle_dir: str) -> str:
    """Recursive reachability with the SHARED path-length cap; min(d) per
    node. Terminates: the UNION-dedup'd (node, d ≤ cap) set is finite."""
    return f"""
WITH RECURSIVE
edges AS (SELECT src, dst FROM read_parquet('{oracle_dir}/edges.parquet')),
seeds AS (SELECT node FROM read_parquet('{oracle_dir}/seeds.parquet')),
reach AS (
  SELECT node, 0 AS d FROM seeds
  UNION
  SELECT e.dst AS node, reach.d + 1 AS d
  FROM reach JOIN edges e ON e.src = reach.node
  WHERE reach.d < {BFS_MAX_ROUNDS}
)
SELECT node AS url_norm, CAST(min(d) AS BIGINT) AS depth
FROM reach GROUP BY node ORDER BY url_norm
"""
