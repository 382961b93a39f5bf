"""Seeded benchmark inputs and their oracle answers, cached on disk.

Every input is a pure function of (workload parameters, seed): the crawl
corpora come from ``corpus.write_corpus`` and the documents table from
:func:`make_documents`. The oracle answers are computed by implementations
that share no code path with the engine under test:

- crawls: the sequential simulator ``oracle/crawl_sim.crawl``;
- dedup/text: DuckDB over the same SQL the package publishes for its
  queries (``DEDUP_EXACT_SQL``, ``substr_sql``, ``textops.oracle_sqls``,
  ``TOP_NGRAMS_SQL``, ``TFIDF_SQL``), fed by the pinned pure-Python mints.

Assets live under ``<checkout>/.perfbench/assets/<key>/`` where the key
holds the parameters, the seed and a digest of the oracle sources, and a
``_SUCCESS`` marker is written last. Rebuild them with::

    python3 perfbench/inputs.py --rebuild --workload crawl_bfs --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "go_crawler_20251102_011312_url_crawlerv10_twotier_ray"
WORK_DIR = os.path.join(ROOT, ".perfbench")
ASSET_DIR = os.path.join(WORK_DIR, "assets")
ASSETS_VERSION = "v1"

# The seed list of every corpus is write_corpus's single root URL.
CRAWLS = {
    # no host budget: an epoch is one BFS level, so extraction dominates
    "crawl_bfs": dict(n_pages=700, n_hosts=20, chain_len=4,
                      hub_fanout=400, budget=0),
    # tight per-host budget: many small epochs, so fixed per-epoch cost
    # (job launches, scheduling, offer fence, download lane) dominates
    "crawl_polite": dict(n_pages=300, n_hosts=8, chain_len=4,
                         hub_fanout=400, budget=25),
    # the crawl_bfs corpus, crawled by the dataset-frontier loop
    "crawl_resume": dict(n_pages=700, n_hosts=20, chain_len=4,
                         hub_fanout=400, budget=0),
}
DOCS = {"dedup_docs": dict(n_docs=300, vocab=3000)}
# a crawl workload's seed names this many corpora; its rounds rotate over
# them, so a run's median spans several link graphs, not one
CORPORA_PER_SEED = 3

# files whose code defines an oracle answer: a change re-keys the cache
_ORACLE_SOURCES = (
    "corpus.py", "config.py", "oracle/crawl_sim.py", "oracle/reference.py",
    "functions/urlnorm.py", "oracle/textops.py", "pipelines/dedup.py",
    "pipelines/text.py",
)


def _sources_digest() -> str:
    h = hashlib.sha256(ASSETS_VERSION.encode())
    for rel in _ORACLE_SOURCES + ("perfbench/inputs.py",):
        path = (os.path.join(ROOT, rel) if rel.startswith("perfbench")
                else os.path.join(ROOT, PKG, rel))
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def asset_key(workload: str, seed: int) -> str:
    params = CRAWLS.get(workload) or DOCS[workload]
    p = "-".join(f"{k}{v}" for k, v in sorted(params.items()))
    kind = "docs" if workload in DOCS else "crawl"
    return f"{kind}-{p}-seed{seed}-{_sources_digest()}"


def asset_dir(workload: str, seed: int) -> str:
    return os.path.join(ASSET_DIR, asset_key(workload, seed))


def is_built(workload: str, seed: int) -> bool:
    return os.path.exists(os.path.join(asset_dir(workload, seed), "_SUCCESS"))


def ensure(workload: str, seed: int, rebuild: bool = False) -> tuple[str, float]:
    """Return (asset dir, seconds spent building it). A complete cached
    directory costs nothing; an incomplete one is rebuilt."""
    out = asset_dir(workload, seed)
    if is_built(workload, seed) and not rebuild:
        return out, 0.0
    t0 = time.perf_counter()
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload in DOCS:
        _build_docs(tmp, seed, **DOCS[workload])
    else:
        for i in range(CORPORA_PER_SEED):
            sub = os.path.join(tmp, f"c{i}")
            os.makedirs(sub)
            _build_crawl(sub, seed * CORPORA_PER_SEED + i,
                         **CRAWLS[workload])
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# crawl corpora + oracle crawl
# ---------------------------------------------------------------------------


def _build_crawl(out: str, seed: int, n_pages: int, n_hosts: int,
                 chain_len: int, hub_fanout: int, budget: int) -> None:
    import importlib

    corpus = importlib.import_module(f"{PKG}.corpus")
    config = importlib.import_module(f"{PKG}.config")
    crawl_sim = importlib.import_module(f"{PKG}.oracle.crawl_sim")

    cdir = corpus.write_corpus(
        os.path.join(out, "corpus"), n_pages=n_pages, n_hosts=n_hosts,
        seed=seed, mint_text=False, include_huge=False,
        chain_len=chain_len, hub_fanout=hub_fanout)
    seeds = pq.read_table(os.path.join(cdir, "seeds.parquet"))["url"]
    cfg = config.CrawlConfig(default_host_budget=budget)
    res = crawl_sim.crawl(corpus.load_corpus_dict(cdir), seeds.to_pylist(),
                          cfg)
    odir = os.path.join(out, "oracle")
    os.makedirs(odir)
    write = lambda name, rows, schema: pq.write_table(  # noqa: E731
        pa.Table.from_pylist(rows, schema=schema),
        os.path.join(odir, f"{name}.parquet"))
    write("order", res.order, ORDER_SCHEMA)
    write("fetch_log", res.fetch_log, FETCH_LOG_SCHEMA)
    write("downloads", res.downloads, DOWNLOADS_SCHEMA)
    write("seen", [{"url_norm": n, "first_depth": d, "url": u}
                   for n, (d, u) in sorted(res.seen.items())], SEEN_SCHEMA)
    write("text", [{"url": r["url"], "text": r["text"]}
                   for r in res.extracted], TEXT_SCHEMA)
    write("links", [{"link": link} for r in res.extracted
                    for link in r["links"]], LINKS_SCHEMA)
    with open(os.path.join(odir, "meta.json"), "w") as f:
        json.dump({"n_epochs": res.n_epochs, "budget": budget,
                   "pages_fetched": len(res.extracted),
                   "scheduled": len(res.order)}, f)


ORDER_SCHEMA = pa.schema([
    ("epoch", pa.int32()), ("rank", pa.int64()), ("url", pa.string()),
    ("host", pa.string()), ("depth", pa.int32()), ("priority", pa.int32())])
FETCH_LOG_SCHEMA = pa.schema([
    ("url", pa.string()), ("epoch", pa.int32()), ("depth", pa.int32()),
    ("status", pa.int32()), ("bytes", pa.int64()), ("ok", pa.bool_())])
DOWNLOADS_SCHEMA = pa.schema([
    ("url", pa.string()), ("epoch", pa.int32()), ("depth", pa.int32()),
    ("attempt", pa.int32()), ("ok", pa.bool_()), ("bytes", pa.int64()),
    ("filename", pa.string())])
SEEN_SCHEMA = pa.schema([
    ("url_norm", pa.string()), ("first_depth", pa.int32()),
    ("url", pa.string())])
TEXT_SCHEMA = pa.schema([("url", pa.string()), ("text", pa.string())])
LINKS_SCHEMA = pa.schema([("link", pa.string())])


def crawl_oracles(adir: str) -> list["CrawlOracle"]:
    return [CrawlOracle(os.path.join(adir, f"c{i}"))
            for i in range(CORPORA_PER_SEED)]


class CrawlOracle:
    """The cached oracle answers of one crawl corpus."""

    def __init__(self, adir: str):
        self.corpus_dir = os.path.join(adir, "corpus")
        odir = os.path.join(adir, "oracle")
        read = lambda n: pq.read_table(  # noqa: E731
            os.path.join(odir, f"{n}.parquet"))
        self.order = read("order")
        self.fetch_log = read("fetch_log")
        self.downloads = read("downloads")
        self.seen = read("seen")
        self.text = read("text")
        self.links = read("links")
        with open(os.path.join(odir, "meta.json")) as f:
            self.meta = json.load(f)


# ---------------------------------------------------------------------------
# documents table + DuckDB oracle answers
# ---------------------------------------------------------------------------

DEDUP_OPS = ("dedup_exact", "dedup_minhash_lsh", "dedup_substring",
             "dedup_clusters", "dedup_keep_best", "top_ngrams",
             "tfidf_top_terms")


def make_documents(seed: int, n_docs: int, vocab: int) -> pa.Table:
    """Zipf-worded documents with planted exact copies (every 12th doc)
    and near copies (every 15th doc: a copy with 2 tokens replaced), in
    the shape of the testdata ``documents`` table."""
    rng = np.random.RandomState(seed % 2**32)  # any int seed
    words = np.array([f"w{i:04d}" for i in range(vocab)])
    p = 1.0 / np.arange(1, vocab + 1) ** 0.8
    p /= p.sum()
    texts = [" ".join(words[rng.choice(vocab, rng.randint(30, 150), p=p)])
             for _ in range(n_docs)]
    for i in range(5, n_docs, 12):
        texts[i] = texts[rng.randint(0, i)]
    for i in range(9, n_docs, 15):
        toks = texts[rng.randint(0, i)].split()
        for _ in range(2):
            toks[rng.randint(0, len(toks))] = words[rng.randint(0, vocab)]
        texts[i] = " ".join(toks)
    langs = rng.choice(["en", "de", "fr", "es"], n_docs)
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"src{i % 10}" for i in range(n_docs)],
                           pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def dedup_oracle_frames(docs_dir: str, mint_dir: str) -> dict:
    """Expected output of every operation of the dedup set, by DuckDB."""
    import importlib
    from unittest import mock

    import duckdb

    dedup = importlib.import_module(f"{PKG}.pipelines.dedup")
    text = importlib.import_module(f"{PKG}.pipelines.text")
    textops = importlib.import_module(f"{PKG}.oracle.textops")

    docs = pq.read_table(os.path.join(docs_dir, "documents.parquet"))
    os.makedirs(mint_dir, exist_ok=True)
    pq.write_table(textops.expected_winnowing(docs),
                   os.path.join(mint_dir, "oracle_winnowing.parquet"))
    pq.write_table(textops.expected_minhash_pairs(docs),
                   os.path.join(mint_dir, "oracle_minhash_pairs.parquet"))
    # oracle_sqls mints into a shared temp dir; point it at this asset
    with mock.patch.object(textops, "mint_text_oracles",
                           lambda sf_dir: mint_dir):
        tsql = textops.oracle_sqls(docs_dir)
    sqls = {
        "dedup_exact": dedup.DEDUP_EXACT_SQL,
        "dedup_minhash_lsh": tsql["dedup_minhash_lsh"],
        "dedup_substring": dedup.substr_sql(
            dedup.mint_substr_oracle(docs_dir, base=mint_dir)),
        "dedup_clusters": tsql["dedup_clusters"],
        "dedup_keep_best": tsql["dedup_keep_best"],
        "top_ngrams": text.TOP_NGRAMS_SQL,
        "tfidf_top_terms": text.TFIDF_SQL,
    }
    con = duckdb.connect()
    try:
        con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                    f"'{docs_dir}/documents.parquet')")
        out = {name: con.execute(sql).arrow() for name, sql in sqls.items()}
        out["distinct_md5"] = con.execute(
            "SELECT count(DISTINCT md5(text)) FROM documents").fetchone()[0]
    finally:
        con.close()
    return out


def _build_docs(out: str, seed: int, n_docs: int, vocab: int) -> None:
    docs_dir = os.path.join(out, "docs")
    os.makedirs(docs_dir)
    pq.write_table(make_documents(seed, n_docs, vocab),
                   os.path.join(docs_dir, "documents.parquet"))
    frames = dedup_oracle_frames(docs_dir, os.path.join(out, "mint"))
    odir = os.path.join(out, "oracle")
    os.makedirs(odir)
    for name in DEDUP_OPS:
        pq.write_table(frames[name], os.path.join(odir, f"{name}.parquet"))
    with open(os.path.join(odir, "meta.json"), "w") as f:
        json.dump({"n_docs": n_docs,
                   "distinct_md5": int(frames["distinct_md5"])}, f)


class DocsOracle:
    """The cached documents table and its expected dedup/text outputs."""

    def __init__(self, adir: str):
        self.docs_dir = os.path.join(adir, "docs")
        odir = os.path.join(adir, "oracle")
        self.frames = {n: pq.read_table(os.path.join(odir, f"{n}.parquet"))
                       for n in DEDUP_OPS}
        self.docs = pq.read_table(
            os.path.join(self.docs_dir, "documents.parquet"),
            columns=["doc_id", "text"])
        with open(os.path.join(odir, "meta.json")) as f:
            self.meta = json.load(f)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted({**CRAWLS, **DOCS}),
                    help="workload whose assets to build (repeatable; "
                         "default all)")
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--rebuild", action="store_true",
                    help="rebuild even if a complete cache exists")
    args = ap.parse_args()
    sys.path.insert(0, ROOT)
    for w in args.workload or sorted({**CRAWLS, **DOCS}):
        for s in args.seed:
            path, secs = ensure(w, s, rebuild=args.rebuild)
            print(f"{w} seed={s}: {path} ({secs:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
