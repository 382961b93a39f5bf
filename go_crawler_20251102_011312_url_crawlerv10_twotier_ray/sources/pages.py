"""Pages-corpus reader (BASELINE input_hint shape).

A single parquet file is one read task in Ray Data, and the streaming
executor will happily FUSE a one-task read with downstream map_batches —
serializing the whole pipeline. ``read_pages`` therefore reads through
``pipelines._schema.read_parquet_bounded``, the one read-block rule: a
block per CPU (row-group granularity: the corpus writer uses small row
groups on purpose), fewer on a corpus too small to fill them.
"""

from __future__ import annotations

import os

import ray.data as rd


def read_pages(corpus_dir: str, columns: list[str] | None = None) -> rd.Dataset:
    from ..pipelines._schema import read_parquet_bounded

    path = corpus_dir
    sub = os.path.join(corpus_dir, "pages")
    if os.path.isdir(sub):
        path = sub
    return read_parquet_bounded(path, columns=columns)


# ---------------------------------------------------------------------------
# hash-bucketed corpus layout (locality join, fetch_mode="join")
# ---------------------------------------------------------------------------

BUCKETED_PAGES_VERSION = "v1"  # bump when key_bucket or the layout changes


def corpus_stamp(corpus_dir: str) -> str:
    """Content of the corpus writer's ``_SUCCESS`` parameter stamp, or ''
    for externally-produced corpora. Derived layouts (the hash-bucket
    pages and the persisted link graph) record this in their meta and
    rebuild on mismatch — ``corpus.write_corpus`` regenerates pages/ IN
    PLACE when its parameters change, which would otherwise leave a
    derived layout silently serving stale page bodies."""
    try:
        with open(os.path.join(corpus_dir, "_SUCCESS")) as f:
            return f.read().strip()
    except OSError:
        return ""


def key_bucket(keys, n_buckets: int):
    """Deterministic bucket id per fetch key — pandas' fixed-key siphash,
    bit-stable across processes, sessions and nodes (the property the
    frontier-side stamp and the corpus-side layout both rely on)."""
    import numpy as np
    import pandas as pd

    h = pd.util.hash_array(np.asarray(list(keys), dtype=object))
    return (h % np.uint64(n_buckets)).astype(np.int64)


def _bucket_count(n_rows: int) -> int:
    """At most ~50k pages per bucket (a group task reads+extracts one
    bucket serially, so bucket size bounds both straggler skew and task
    heap), and about one bucket per 1,000 pages up to 256: measured at
    sf0.1/32 CPUs, 32 buckets straggled the fetch to 18.5 s where 256 ran
    it in 4.2 s, while on a 6,000-page corpus 256 near-empty buckets cost
    a full-frontier epoch ~1.2 s of group tasks against 7 buckets. Rows
    only, never the CPU count: the layout persists and is reused across
    cluster sizes."""
    return min(65536, max(min(256, n_rows // 1000 + 1),
                          n_rows // 50_000 + 1))


def bucketed_pages(corpus_dir: str) -> tuple[str, int]:
    """One-time hash-bucket layout of the pages corpus: (url, html) rows
    re-written into ``<corpus>/pages_by_key-vN/bucket=K/`` — ONE parquet
    file per bucket, ``_SUCCESS``-last so a killed layout job is invisible.

    This is the locality half of the keys-first join (fetch_mode="join"):
    per epoch only the frontier KEYS shuffle into
    this bucketing, each fetch task reads its own bucket's file, and page
    bodies never ride an all-to-all exchange. Amortized once per corpus
    across every subsequent epoch/run. Returns (root, n_buckets)."""
    import json
    import shutil

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    pages = corpus_dir
    sub = os.path.join(corpus_dir, "pages")
    if os.path.isdir(sub):
        pages = sub
    root = os.path.join(
        os.path.dirname(pages), f"pages_by_key-{BUCKETED_PAGES_VERSION}")
    meta_path = os.path.join(root, "meta.json")
    cstamp = corpus_stamp(os.path.dirname(pages))
    if os.path.exists(os.path.join(root, "_SUCCESS")):
        with open(meta_path) as f:
            meta = json.load(f)
        # a layout minted from a corpus that was since regenerated in
        # place (different parameter stamp) is stale — rebuild
        if meta.get("corpus_stamp", "") == cstamp:
            return root, int(meta["n_buckets"])

    n_rows = pads.dataset(pages).count_rows()
    n_buckets = _bucket_count(n_rows)
    tmp = f"{root}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    def stamp(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # blen rides along so the download lane can price a doc body
        # without reading html (columns=["url", "blen"] bucket reads)
        t = t.append_column(
            "blen", pc.cast(pc.binary_length(t["html"]), pa.int64()))
        return t.append_column(
            "bucket", pa.array(key_bucket(t["url"].to_pylist(), n_buckets)))

    def write_bucket(g: pa.Table) -> pa.Table:
        b = g["bucket"][0].as_py()
        d = os.path.join(tmp, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(g.drop_columns(["bucket"]),
                       os.path.join(d, "part-0.parquet"))
        return pa.table({"bucket": pa.array([b], pa.int64()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    written = (
        read_pages(corpus_dir, columns=["url", "html"])
        .map_batches(stamp, batch_format="pyarrow")
        .groupby("bucket")           # one file per bucket, written in-task
        .map_groups(write_bucket, batch_format="pyarrow")
        .count()
    )
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"n_buckets": n_buckets, "n_rows": n_rows,
                   "buckets_written": written, "corpus_stamp": cstamp}, f)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    try:
        shutil.rmtree(root, ignore_errors=True)
        os.rename(tmp, root)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner keeps root
    return root, n_buckets
