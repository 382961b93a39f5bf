"""Deduplication pipelines over the ``documents`` table — the training-data
operators a 100 TB text pipeline needs.

Patterns (scale-first):
- exact dedup: content-hash in a vectorized map_batches, PARTIAL combine per
  batch (hash → min id, count), then a small groupby over partials — the
  pre-aggregation pattern that keeps the shuffle tiny;
- MinHash+LSH near-dup: shingle → signature per batch → explode to
  (band_key, doc_id) rows → groupby(band_key) buckets → candidate pairs →
  exact Jaccard verify. Only band-collision rows shuffle, never the text;
- SimHash: 64-bit signatures, banded into 4×16-bit tables for ≤3-bit
  Hamming candidates, verified exactly;
- embedding near-dup: cosine ≥ threshold pairs via blocked numpy matmul
  against a broadcast matrix (O(n²) inside the block, no Python loops),
  or banded random-hyperplane buckets verified exactly.

The three LSH ops share ONE pair tail, ``_lsh_pairs``: each op only
builds its (id, key) table, a per-table payload packer (shingle set,
signature or normalized vector) and a verify kernel over
(a, b, pay_a, pay_b) rows. The tail pairs the ids that share a key,
fetches the candidates' payloads, and verifies — on the driver for small
key tables, else in one hash(key) co-partition whose payloads are
broadcast (a sorted-id gather) up to VERIFY_BROADCAST_BYTES and joined
above it.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Min, Sum
from ray.data.dataset import MaterializedDataset


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    from ._schema import read_parquet_bounded

    return read_parquet_bounded(f"{sf_dir}/documents.parquet",
                                columns=columns)


# ---------------------------------------------------------------------------
# exact dedup — hash + partial combine + groupby (SQL-checkable)
# ---------------------------------------------------------------------------


def dedup_exact(sf_dir: str) -> pd.DataFrame:
    """One row per distinct text: keeper doc_id (min) + duplicate count.
    Grouping key is md5(text) — exact, and shuffles 16 bytes/row instead of
    the text."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "h": [hashlib.md5(x.encode()).hexdigest()
                      for x in t["text"].to_pylist()],
                "doc_id": t["doc_id"].to_pylist(),
            }
        )
        g = df.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), n=("doc_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"), Sum("n", alias_name="n_dupes"))
        .to_pandas()
    )
    if not len(out):  # empty corpus: the aggregate yields a zero-column frame
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "text_md5": pd.Series(dtype=object),
                             "n_dupes": pd.Series(dtype="int64")})
    out = out.rename(columns={"h": "text_md5"}).sort_values("doc_id")
    return out[["doc_id", "text_md5", "n_dupes"]].reset_index(drop=True)


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id, md5(text) AS text_md5, count(*) AS n_dupes
FROM documents GROUP BY md5(text) ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

N_PERM = 128
N_BANDS = 32  # 32 bands × 4 rows: catches Jaccard ≳ 0.5
SHINGLE_K = 3
JACCARD_THRESHOLD = 0.5
MINHASH_SEED = 12345


@functools.lru_cache(maxsize=None)
def _minhash_perm() -> tuple[np.ndarray, np.ndarray]:
    """The MinHash permutation parameters, drawn once per worker process."""
    from ..functions.hashing import _perm_params

    return _perm_params(N_PERM, MINHASH_SEED)


def _minhash_bands(t: pa.Table) -> pa.Table:
    """Whole-batch shingle+minhash+banding — a stateless task, every step
    vectorized (functions/hashing.py: memoized word hashes, one affine
    matrix + segment minima for the signatures, int64 band keys)."""
    from ..functions.hashing import band_keys_matrix, minhash_matrix, shingles

    a, b = _minhash_perm()
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    shs = [shingles(x, SHINGLE_K) for x in t["text"].to_pylist()]
    bands = band_keys_matrix(minhash_matrix(shs, a, b), N_BANDS)
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
            "band": pa.array(bands.reshape(-1), pa.int64()),
        }
    )


_EMPTY_PAIRS = {"doc_a": "int64", "doc_b": "int64", "jaccard_pct": "int64"}


_PAIR_BUCKET_CAP = 200  # skip degenerate giant buckets (boilerplate bands)


def _pairs_in_partition(g: pd.DataFrame, key: str, id_col: str,
                        out_a: str, out_b: str, cap: int) -> pd.DataFrame:
    """All distinct (a < b) within-bucket pairs for EVERY bucket in one
    hash partition (one pair can collide in several keys), fully
    vectorized (no per-bucket Python — the sessionize
    co-partition pattern, relational.py; called per PARTITION from
    groupby(part).map_groups after a hash(key)-mod part column is stamped
    in map_batches). CLAUDE.md: never map_groups per key at scale — with
    millions of hot buckets this is one numpy pass instead of one
    interpreter call per bucket."""
    empty = pd.DataFrame({out_a: [], out_b: []}).astype(
        {out_a: "int64", out_b: "int64"})
    g = g[[key, id_col]].drop_duplicates().sort_values(
        [key, id_col], kind="mergesort")
    sizes = g.groupby(key, sort=False)[id_col].transform("size")
    g = g[(sizes > 1) & (sizes <= cap)]
    if not len(g):
        return empty
    band = g[key].to_numpy()
    ids = g[id_col].to_numpy(dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, band[1:] != band[:-1]])
    counts = np.diff(np.r_[starts, len(band)])
    pos = np.arange(len(band)) - np.repeat(starts, counts)
    n_after = np.repeat(counts, counts) - pos - 1
    a_idx = np.repeat(np.arange(len(band)), n_after)
    cum = np.concatenate([[0], np.cumsum(n_after)])
    offset = np.arange(cum[-1]) - np.repeat(cum[:-1], n_after) + 1
    b_idx = a_idx + offset
    return pd.DataFrame(
        {out_a: ids[a_idx], out_b: ids[b_idx]}).drop_duplicates()


from ._schema import collect as _collect  # noqa: E402 — shared helpers
from ._schema import n_parts as _n_parts  # noqa: E402


def _stamp_pair_part(n_part: int, a_col: str, b_col: str):
    """map_batches fn adding ``part = mix(a, b) % n_part`` — the
    co-partition key for per-PAIR merges (cross-partition dedup /
    partial-count sums)."""

    def stamp(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t[b_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (
            b * np.uint64(0xC2B2AE3D27D4EB4F))
        part = (mix >> np.uint64(33)) % np.uint64(n_part)
        return t.append_column("part", pa.array(part.astype(np.int64)))

    return stamp


def _dedup_pairs_coparted(cand: "rd.Dataset", a_col: str,
                          b_col: str) -> "rd.Dataset":
    """Collapse cross-partition duplicate pairs: hash(pair) co-partition +
    one vectorized drop_duplicates per partition. Ray's native multi-key
    ``groupby([a, b]).aggregate`` is NOT usable here: fed the
    pandas-format, empty-block-laced output of a groupby().map_groups
    stage it degrades ~20× (measured 45 s for a 70k-row pair table vs
    0.24 s for this shape; clean Arrow blocks take 2.7 s — still 10×)."""
    n_part = _n_parts(cand.count())

    def drop_dup(g: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(
            g[[a_col, b_col]].drop_duplicates(), preserve_index=False)

    return (
        cand.map_batches(_stamp_pair_part(n_part, a_col, b_col),
                         batch_format="pyarrow")
        .groupby("part").map_groups(drop_dup, batch_format="pandas")
        .materialize()
    )


def _unique_ids_collect(cand: "rd.Dataset", a_col: str,
                        b_col: str) -> np.ndarray:
    """Distinct ids over a pair Dataset's two columns WITHOUT collecting
    the pair table: per-block unique inside one map (each block's output
    is bounded by its distinct ids), then a driver np.unique over the
    per-block results — ids-only ever reach the driver, and the Dataset
    union+unique exchange this replaces is gone."""

    def block_ids(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate(
            [t[a_col].to_numpy(zero_copy_only=False).astype(np.int64),
             t[b_col].to_numpy(zero_copy_only=False).astype(np.int64)]))
        return pa.table({"id": pa.array(u, pa.int64())})

    ids = cand.map_batches(block_ids, batch_format="pyarrow").to_pandas()
    return np.unique(ids["id"].to_numpy(np.int64))


def _coparted_pairs(keys: "rd.Dataset", key: str, id_col: str, a: str,
                    b: str, cap: int, n_rows: int) -> "rd.Dataset":
    """Candidate pairs in ONE all-to-all: stamp ``part = hash(key)`` and
    run the vectorized pair-gen once per partition. Hash co-location puts
    EVERY row of a key in one partition, so partition-local collision
    detection (and the bucket cap) is already GLOBAL — the hot-key count
    shuffle + filter pass this tail paid through r4 was a second
    all-to-all over the same rows for nothing (measured 2.4 s of the
    minhash_dist row's 6.8 s at sf0.1). The kernel dedups pairs within its
    partition; cross-partition duplicates (one pair colliding in keys
    that hash apart — at most bands-per-id of them) are collapsed by the
    consumer's _dedup_pairs_coparted pass before any verify work."""
    n_part = _n_parts(n_rows)

    def emit(g: pd.DataFrame) -> pa.Table:
        # Arrow return: map_groups' pandas blocks lose schema when empty
        # and degrade downstream Projects/joins/aggregates — Arrow
        # blocks don't.
        return pa.Table.from_pandas(
            _pairs_in_partition(g, key, id_col, a, b, cap),
            preserve_index=False)

    return (
        keys.map_batches(_stamp_band_part(n_part, col=key),
                         batch_format="pyarrow")
        .groupby("part").map_groups(emit, batch_format="pandas")
        .materialize()
    )


def _stamp_band_part(n_part: int, col: str = "band"):
    """map_batches fn adding ``part = mix(key) % n_part`` — the
    co-partition key for the vectorized pair-gen (splitmix-style odd
    multiplier so low-entropy band values still spread)."""

    def stamp(t: pa.Table) -> pa.Table:
        band = t[col].to_numpy(zero_copy_only=False).astype(np.uint64)
        part = ((band * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)) \
            % np.uint64(n_part)
        return t.append_column("part", pa.array(part.astype(np.int64)))

    return stamp


# below this many (id, key) rows the whole LSH tail runs on the driver:
# every exchange of the distributed tail (key co-partition, pair dedup,
# then verify) pays a fixed cost in shuffle task launches that dwarfs
# 0.03 s of pandas. 5M rows ≈ 80 MB — comfortably driver-sized; past it,
# every step stays distributed (co-partitioned pair-gen → pair dedup →
# broadcast or join verify).
MINHASH_SMALL_LIMIT = 5_000_000
# distributed tail: the verify side broadcasts the candidates' (id, pay)
# table (a sorted-id gather in one map) instead of two hash-join exchanges
# while the table's actual BYTES are at most this; above it the join twin
# runs (equality-tested by forcing the bound to -1 in tests). Broadcast
# cost is the payload (driver concat + sort + ray.put + one plasma copy),
# not the candidate count: 500k docs × a few KB of shingles each is
# multi-GB, while 500k SimHash signatures are 8 MB, and a batch's lookup
# (_find_sorted) costs what the batch holds, not what the table holds
# (BASELINE.md "LSH pair tails").
VERIFY_BROADCAST_BYTES = 256 * 1024 * 1024


def _find_sorted(x: np.ndarray, ids: np.ndarray):
    """Positions of ``x`` in the sorted, non-empty ``ids`` and which of
    them are there, in O(x log x) whatever the size of ``ids``: a binary
    search of the SORTED ``x`` walks ``ids`` forward. Not ``pc.is_in`` /
    ``index_in``: each call builds a hash table over all of ``ids``, which
    per map batch costs 2.1 s for a 250k-pair block at 16M ids
    (BASELINE.md "LSH pair tails")."""
    order = np.argsort(x)
    ix = np.empty(len(x), np.int64)
    ix[order] = np.searchsorted(ids, x[order])
    ix = np.minimum(ix, len(ids) - 1)
    return ix, ids[ix] == x


def _sorted_payloads(pays: pa.Table) -> tuple[np.ndarray, pa.Array]:
    """An (id, pay) table as its ids sorted ascending and the payloads in
    that order — sorted once, on the driver, for every lookup after."""
    ids = pays["id"].to_numpy().astype(np.int64)
    order = np.argsort(ids, kind="stable")
    return ids[order], pays["pay"].take(order).combine_chunks()


def _attach_payloads(t: pa.Table, pays: tuple[np.ndarray, pa.Array],
                     a: str, b: str) -> pa.Table:
    """Append ``pay_a`` / ``pay_b`` to a pair table from the
    _sorted_payloads of the candidate ids (every id is there)."""
    ids, pay = pays
    for col, name in ((a, "pay_a"), (b, "pay_b")):
        ix, _ = _find_sorted(t[col].to_numpy(zero_copy_only=False), ids)
        t = t.append_column(name, pay.take(ix))
    return t


def _lsh_pairs(keys: rd.Dataset, n_rows: int, key: str, id_col: str,
               cap: int, src: rd.Dataset, pack, verify, schema: dict,
               mode: str) -> pd.DataFrame:
    """The LSH pair tail of MinHash, SimHash and embedding near-dup.

    ``keys`` holds ``n_rows`` (id_col, key) rows; ids sharing a key (in a
    bucket of at most ``cap`` ids) are candidate pairs. ``pack`` turns
    ``src`` rows into (id, pay) rows, run only on the candidate ids, where
    the source lives; ``verify`` keeps the true pairs of an
    (a, b, pay_a, pay_b) table and emits the columns of ``schema`` (a
    column → dtype map whose first two columns are a and b).

    Size-adaptive on ``n_rows`` — ``mode`` forces ``"driver"`` or
    ``"distributed"`` (equality-tested against each other):

    - driver tail (small inputs): key table → value_counts → pair-gen →
      payloads of the candidate ids (read as they are when ``src`` is
      already materialized) → sorted-id gather → verify.
    - distributed tail (the 100 TB path): ONE hash(key) co-partition
      exchange feeding the vectorized pair-gen, a hash(pair) co-partitioned
      dedup, candidate ids via per-block unique (the pair table never
      reaches the driver), then verify: broadcast sorted-id gather while
      the payload table is at most VERIFY_BROADCAST_BYTES, two
      ``Dataset.join``s above it.
    Payloads, never texts, move."""
    a, b = list(schema)[:2]
    empty = pd.DataFrame(columns=list(schema)).astype(schema)
    if n_rows == 0:
        return empty
    distributed = mode == "distributed" or (
        mode == "auto" and n_rows > MINHASH_SMALL_LIMIT)

    def pack_needed(t: pa.Table, need: np.ndarray) -> pa.Table:
        _, found = _find_sorted(
            t[id_col].to_numpy(zero_copy_only=False), need)
        return pack(t.filter(pa.array(found)))

    def payloads(need: np.ndarray) -> rd.Dataset:
        need_ref = ray.put(need)

        def pack_batch(t: pa.Table) -> pa.Table:
            from ..stages.fetch import cached_broadcast

            return pack_needed(t, cached_broadcast(need_ref))

        return src.map_batches(pack_batch, batch_format="pyarrow")

    if not distributed:
        df = keys.to_pandas()
        vc = df[key].value_counts()
        cand = _pairs_in_partition(df[df[key].isin(vc[vc > 1].index)], key,
                                   id_col, a, b, cap)
        if not len(cand):
            return empty
        need = np.unique(np.concatenate([cand[a], cand[b]]))
        # a materialized source (SimHash's signatures) is read as it is —
        # a filter job over it costs more than the read
        pays = (pack_needed(_collect(src), need)
                if isinstance(src, MaterializedDataset)
                else _collect(payloads(need)))
        out = verify(_attach_payloads(
            pa.Table.from_pandas(cand, preserve_index=False),
            _sorted_payloads(pays), a, b)).to_pandas()
    else:
        cand = _coparted_pairs(keys, key, id_col, a, b, cap, n_rows)
        if cand.count() == 0:
            return empty
        cand = _dedup_pairs_coparted(cand, a, b)
        # materialized ONCE: its size picks the verify twin, and the join
        # twin reads it twice
        pays = payloads(_unique_ids_collect(cand, a, b)).materialize()
        if pays.size_bytes() <= VERIFY_BROADCAST_BYTES:
            # a gather in one map over the pair Dataset: two hash-join
            # exchanges cost ~2.8 s fixed at sf0.1 and start 8 aggregator
            # actors per call, which dwarfs a few hundred pairs
            pays_ref = ray.put(_sorted_payloads(_collect(pays)))

            def attach_and_verify(t: pa.Table) -> pa.Table:
                from ..stages.fetch import cached_broadcast

                return verify(_attach_payloads(
                    t, cached_broadcast(pays_ref), a, b))

            out = cand.map_batches(
                attach_and_verify, batch_format="pyarrow").to_pandas()
        else:
            n_part = _n_parts(cand.count())
            j1 = cand.join(
                pays.rename_columns({"id": a, "pay": "pay_a"}),
                join_type="inner", num_partitions=n_part, on=(a,),
            )
            j2 = j1.join(
                pays.rename_columns({"id": b, "pay": "pay_b"}),
                join_type="inner", num_partitions=n_part, on=(b,),
            )
            out = j2.map_batches(verify, batch_format="pyarrow").to_pandas()
    if not len(out):
        return empty
    return out.sort_values([a, b]).reset_index(drop=True)


def _pack_shingles(t: pa.Table) -> pa.Table:
    """(id, byte-packed unique shingle set) per document — byte-packed
    uint64 sets because hash joins don't take list payloads."""
    from ..functions.hashing import shingles

    return pa.table({
        "id": t["doc_id"],
        "pay": pa.array([np.unique(shingles(x, SHINGLE_K)).tobytes()
                         for x in t["text"].to_pylist()], pa.binary()),
    })


def _minhash_verify(t: pa.Table) -> pa.Table:
    """(doc_a, doc_b, pay_a, pay_b) rows -> pairs with shingle Jaccard ≥
    threshold."""
    rows = []
    for a, b, sa, sb in zip(
        t["doc_a"].to_pylist(), t["doc_b"].to_pylist(),
        t["pay_a"].to_pylist(), t["pay_b"].to_pylist(),
    ):
        sa = np.frombuffer(sa, dtype=np.uint64)
        sb = np.frombuffer(sb, dtype=np.uint64)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        jac = (inter / union) if union else 1.0
        if jac >= JACCARD_THRESHOLD:
            rows.append((a, b, int(round(jac * 100))))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "jaccard_pct": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def dedup_minhash_lsh(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """Candidate near-dup pairs from LSH band buckets, verified with exact
    shingle Jaccard. Returns (doc_a, doc_b, jaccard_pct) with doc_a < doc_b.

    The signature stage is always distributed and vectorized; the
    (doc, band) table then feeds the shared size-adaptive LSH tail
    (_lsh_pairs; ``mode`` forces either tail), whose verify computes
    shingle sets for the candidate docs only, where the texts live.
    Not SQL-expressible → rows-only driver check; pytest covers semantics
    on planted near-duplicates for BOTH modes."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    # materialized: the size probe and whichever tail runs both reuse it
    sigs = docs.map_batches(
        _minhash_bands, batch_format="pyarrow", batch_size=256).materialize()
    return _lsh_pairs(sigs, sigs.count(), "band", "doc_id", _PAIR_BUCKET_CAP,
                      docs, _pack_shingles, _minhash_verify, _EMPTY_PAIRS,
                      mode)


def dedup_ngram_jaccard(sf_dir: str, threshold: float = 0.3) -> pd.DataFrame:
    """All-pairs word-shingle Jaccard WITHIN each ``source`` group (bounded
    blocking key → no quadratic blowup across the corpus; the unblocked
    scale path is dedup_minhash_lsh). Returns pairs with Jaccard ≥
    threshold. Rows-only check; exactness covered by the planted-duplicate
    tests."""
    from ..functions.hashing import jaccard, shingles

    ds = _docs(sf_dir, ["doc_id", "text", "source"])

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].tolist()
        sh = [shingles(t, SHINGLE_K) for t in g["text"]]
        rows = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                jac = jaccard(sh[i], sh[j])
                if jac >= threshold:
                    rows.append((int(ids[i]), int(ids[j]), int(round(jac * 100))))
        return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard_pct"])

    out = (
        ds.groupby("source")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()
    )
    if not len(out):
        return pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard_pct": []}).astype(
            {"doc_a": "int64", "doc_b": "int64", "jaccard_pct": "int64"}
        )
    return out.astype(
        {"doc_a": "int64", "doc_b": "int64", "jaccard_pct": "int64"}
    ).sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

SIMHASH_MAX_HAMMING = 3
SIMHASH_BANDS = 4  # 16-bit bands: Hamming ≤ 3 collides on ≥1 band (pigeonhole)

_EMPTY_SIMHASH = {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}


def _simhash_sigs(t: pa.Table) -> pa.Table:
    """Whole-batch SimHash signatures (functions/hashing.simhash_matrix:
    memoized word hashes + one reduceat; bit-identical to the per-doc
    simhash64 reference)."""
    from ..functions.hashing import simhash_matrix

    sig = simhash_matrix(t["text"].to_pylist())
    return pa.table({"doc_id": t["doc_id"], "sig": pa.array(sig, pa.uint64())})


def _simhash_bands(t: pa.Table) -> pa.Table:
    """Explode each 64-bit signature into SIMHASH_BANDS (band | value)
    int64 keys — the same explode→groupby(band) shape as MinHash-LSH."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    s = t["sig"].to_numpy(zero_copy_only=False).astype(np.uint64)
    bands = np.arange(SIMHASH_BANDS, dtype=np.uint64)
    vals = (s[:, None] >> (bands * np.uint64(16))[None, :]) & np.uint64(0xFFFF)
    keys = (vals | (bands[None, :] << np.uint64(48))).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, SIMHASH_BANDS), pa.int64()),
            "band": pa.array(keys.reshape(-1), pa.int64()),
        }
    )


def _simhash_verify(t: pa.Table) -> pa.Table:
    """(doc_a, doc_b, pay_a, pay_b) signature rows → pairs with Hamming ≤
    max (vectorized XOR popcount)."""
    from ..functions.hashing import hamming64_array

    a = t["doc_a"].to_numpy(zero_copy_only=False)
    b = t["doc_b"].to_numpy(zero_copy_only=False)
    d = hamming64_array(
        t["pay_a"].to_numpy(zero_copy_only=False),
        t["pay_b"].to_numpy(zero_copy_only=False),
    )
    keep = d <= SIMHASH_MAX_HAMMING
    return pa.table(
        {
            "doc_a": pa.array(a[keep].astype(np.int64)),
            "doc_b": pa.array(b[keep].astype(np.int64)),
            "hamming": pa.array(d[keep]),
        }
    )


def dedup_simhash(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """SimHash near-dup pairs (Hamming ≤ 3 over 64-bit signatures),
    16-bit-banded for candidates, verified exactly. Rows-only check.

    The materialized (doc_id, sig) table is both the band source and the
    payload source of the shared LSH tail (_lsh_pairs, keyed on the
    (doc, band) row count; ``mode`` forces either tail): signatures, never
    texts, move. The band table stays lazy — the driver tail reads it
    once, the distributed tail co-partitions it."""
    sigs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _simhash_sigs, batch_format="pyarrow", batch_size=256).materialize()
    return _lsh_pairs(
        sigs.map_batches(_simhash_bands, batch_format="pyarrow"),
        sigs.count() * SIMHASH_BANDS, "band", "doc_id", _PAIR_BUCKET_CAP,
        sigs, lambda t: t.rename_columns(["id", "pay"]), _simhash_verify,
        _EMPTY_SIMHASH, mode)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

EMB_DUP_THRESHOLD = 0.95
# exact mode broadcasts the reference matrix in chunks of this many rows —
# bounds per-node plasma footprint at any corpus size (the exact all-pairs
# compare is inherently O(n²) work; LSH mode below is the near-dup path)
EMB_CHUNK_ROWS = 500_000
_EMB_BANDS = 12   # bands per signature
_EMB_PLANES = 12  # hyperplanes per band: recall ≈ 0.98 at cos ≥ 0.95

_EMPTY_EMB = {"vec_a": "int64", "vec_b": "int64", "cos_pct": "int64"}


def _norm_rows(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    from .ann import _emb_rows

    if not t.num_rows:  # a batch with no candidate ids (LSH payloads)
        return np.zeros(0, np.int64), np.zeros((0, 0))
    ids, m = _emb_rows(t)
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return ids, m / n[:, None]


def dedup_embedding_cosine(
    sf_dir: str, threshold: float = EMB_DUP_THRESHOLD, method: str = "auto",
    mode: str = "auto",
) -> pd.DataFrame:
    """(vec_a, vec_b, cos_pct) pairs with cosine ≥ threshold, vec_a < vec_b.

    - ``exact``: blocked matmul — the reference side is broadcast in
      ≤EMB_CHUNK_ROWS chunks (never the whole matrix at once), each batch
      does one float64 matmul per chunk. Exact → SQL-checkable against a
      DuckDB self-join; the all-pairs work is inherent to exactness.
    - ``lsh``: banded random-hyperplane buckets (the MinHash-LSH shape:
      explode → bucket groupby → candidate pairs → exact verify); only
      bucket collisions are compared. Right for the ≥0.9 near-dup regime
      (recall ≈ 0.98 at cos ≥ 0.95 with 12 bands × 12 planes).
    - ``auto``: lsh when threshold ≥ 0.9 else exact.

    ``mode`` picks the tail of the shared LSH pair stage (_lsh_pairs):
    ``driver`` below MINHASH_SMALL_LIMIT bucket rows, ``distributed``
    above (equality-tested against each other).
    """
    from .ann import _emb

    if method == "auto":
        method = "lsh" if threshold >= 0.9 else "exact"
    ds = _emb(sf_dir)
    if method == "exact":
        return _emb_cosine_exact(ds, threshold)
    return _emb_cosine_lsh(ds, threshold, mode=mode)


def _emb_cosine_exact(ds: rd.Dataset, threshold: float) -> pd.DataFrame:
    full = ds.materialize()
    outs = []
    # driver loop over reference chunks: each iteration broadcasts ONE
    # bounded chunk (streamed out via iter_batches — the whole matrix is
    # never resident at once); at sf scales this is a single iteration
    chunks = []
    buf = []
    buf_rows = 0
    for b in full.iter_batches(batch_size=8192, batch_format="pyarrow"):
        buf.append(b)
        buf_rows += b.num_rows
        if buf_rows >= EMB_CHUNK_ROWS:
            chunks.append(pa.concat_tables(buf))
            buf, buf_rows = [], 0
    if buf:
        chunks.append(pa.concat_tables(buf))

    for chunk in chunks:
        cids, cmat = _norm_rows(chunk)
        ref = ray.put((cids, cmat))

        def against_chunk(t: pa.Table, _ref=ref) -> pa.Table:
            from ..stages.fetch import cached_broadcast

            rids, rmat = cached_broadcast(_ref)
            bids, bm = _norm_rows(t)
            sims = bm @ rmat.T
            ai, bj = np.nonzero(sims >= threshold)
            a, b = bids[ai], rids[bj]
            keep = a < b
            return pa.table(
                {
                    "vec_a": pa.array(a[keep].astype(np.int64)),
                    "vec_b": pa.array(b[keep].astype(np.int64)),
                    "cos_pct": pa.array(
                        np.rint(sims[ai, bj][keep] * 1000).astype(np.int64)
                    ),
                }
            )

        outs.append(
            full.map_batches(against_chunk, batch_format="pyarrow",
                             batch_size=1024).to_pandas()
        )
    out = pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()
    if not len(out):
        return pd.DataFrame(columns=list(_EMPTY_EMB)).astype(_EMPTY_EMB)
    return (
        out.drop_duplicates(["vec_a", "vec_b"])
        .sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    )


_EMB_BUCKET_CAP = 500  # skip degenerate giant buckets (both tails)


def _emb_bucket_rows(t: pa.Table) -> pa.Table:
    """(vec_id, band|bucket int64 key) rows — the banded-hyperplane explode.
    Planes are deterministic per (seed, dim), recomputed in each kernel
    call (a (dim × bands·planes) matrix is cheaper to recompute than to
    broadcast)."""
    n_bands, n_planes = _EMB_BANDS, _EMB_PLANES
    ids, m = _norm_rows(t)
    dim = m.shape[1]
    local_rng = np.random.RandomState(424242)
    planes = local_rng.standard_normal((dim, n_bands * n_planes))
    bits = (m @ planes > 0).astype(np.uint64)
    bits = bits.reshape(len(ids), n_bands, n_planes)
    weights = (1 << np.arange(n_planes, dtype=np.uint64))
    buckets = (bits * weights).sum(axis=2)  # (n, n_bands)
    band_idx = np.arange(n_bands, dtype=np.uint64) << np.uint64(32)
    keys = (buckets | band_idx[None, :]).astype(np.int64)
    return pa.table(
        {
            "vec_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
            "bucket": pa.array(keys.reshape(-1), pa.int64()),
        }
    )


def _pack_vecs(t: pa.Table) -> pa.Table:
    """(id, byte-packed normalized float64 vector) — packed because hash
    joins don't take list payloads."""
    ids, m = _norm_rows(t)
    return pa.table(
        {
            "id": pa.array(ids, pa.int64()),
            "pay": pa.array([row.tobytes() for row in m], pa.binary()),
        }
    )


def _emb_verify(t: pa.Table, threshold: float) -> pa.Table:
    """(vec_a, vec_b, pay_a, pay_b) rows → pairs with cosine ≥ threshold
    (one vectorized row-wise dot over the unpacked float64 matrices)."""
    n = t.num_rows
    if n == 0:
        return pa.table(
            {"vec_a": pa.array([], pa.int64()),
             "vec_b": pa.array([], pa.int64()),
             "cos_pct": pa.array([], pa.int64())}
        )
    ma = np.frombuffer(b"".join(t["pay_a"].to_pylist()), np.float64).reshape(n, -1)
    mb = np.frombuffer(b"".join(t["pay_b"].to_pylist()), np.float64).reshape(n, -1)
    sims = np.einsum("ij,ij->i", ma, mb)
    keep = sims >= threshold
    a = t["vec_a"].to_numpy(zero_copy_only=False)[keep]
    b = t["vec_b"].to_numpy(zero_copy_only=False)[keep]
    return pa.table(
        {
            "vec_a": pa.array(a.astype(np.int64)),
            "vec_b": pa.array(b.astype(np.int64)),
            "cos_pct": pa.array(np.rint(sims[keep] * 1000).astype(np.int64)),
        }
    )


def _emb_cosine_lsh(ds: rd.Dataset, threshold: float,
                    mode: str = "auto") -> pd.DataFrame:
    """Banded-hyperplane (vec_id, bucket) rows feeding the shared LSH tail
    (_lsh_pairs, keyed on the bucket row count), verified by exact cosine
    over the candidates' packed normalized vectors."""
    sigs = ds.map_batches(_emb_bucket_rows, batch_format="pyarrow",
                          batch_size=1024).materialize()
    return _lsh_pairs(sigs, sigs.count(), "bucket", "vec_id",
                      _EMB_BUCKET_CAP, ds, _pack_vecs,
                      functools.partial(_emb_verify, threshold=threshold),
                      _EMPTY_EMB, mode)


# driver-checkable variant: τ=0.45 has real matches in the all-distinct
# synthetic embeddings (the 0.95 default is the dedup semantic, but random
# vectors have no such pairs — a 0-row check would be vacuous)
EMB_QUERY_THRESHOLD = 0.45


def dedup_embedding_cosine_query(sf_dir: str) -> pd.DataFrame:
    return dedup_embedding_cosine(sf_dir, threshold=EMB_QUERY_THRESHOLD,
                                  method="exact")


DEDUP_EMB_SQL = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(round(list_cosine_similarity(a.embedding, b.embedding) * 1000)
            AS BIGINT) AS cos_pct
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {EMB_QUERY_THRESHOLD}
ORDER BY vec_a, vec_b
"""


# ---------------------------------------------------------------------------
# winnowing-fingerprint near-dup pairs (deterministic; oracle-checkable via
# the minted oracle_winnowing parquet — unlike MinHash there is no
# randomness, so the full value hash holds)
# ---------------------------------------------------------------------------

WINNOW_PAIR_MAX_FREQ = 20   # drop fps shared by more docs (boilerplate)
WINNOW_PAIR_MIN_SHARED = 3  # pair threshold: shared fingerprints
_WINNOW_SMALL_LIMIT = 2_000_000  # fp rows below which the driver tail wins


def dedup_winnow_pairs(
    sf_dir: str,
    max_fp_freq: int = WINNOW_PAIR_MAX_FREQ,
    min_shared: int = WINNOW_PAIR_MIN_SHARED,
    mode: str = "auto",
) -> pd.DataFrame:
    """Near-dup pairs sharing ≥ ``min_shared`` winnowing fingerprints,
    ignoring fps present in > ``max_fp_freq`` docs (boilerplate/hot-key
    guard — the same reason MinHash drops nothing but SimHash bands cap
    candidates: a corpus-wide fp would emit O(n²) pairs). Returns
    (doc_a, doc_b, shared_fps), doc_a < doc_b.

    Size-adaptive like dedup_minhash_lsh:
    - driver tail (small): (doc_id, fp) pandas merge on fp;
    - distributed tail (100 TB path): hash(fp) co-partition → per-partition
      frequency cap + merge (partial pair counts) → pair groupby-sum →
      min_shared filter. Texts never shuffle — only 16 B/row
      (doc_id, fp) pairs.
    """
    from .text import winnow_rows_batch

    from ._schema import heal_blocks

    out_cols = {"doc_a": "int64", "doc_b": "int64", "shared_fps": "int64"}
    fps = heal_blocks(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(winnow_rows_batch, batch_format="pyarrow",
                     batch_size=256)
    )
    if fps is None:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    fps = fps.materialize()

    distributed = mode == "distributed" or (
        mode == "auto" and fps.count() > _WINNOW_SMALL_LIMIT
    )

    if not distributed:
        df = fps.to_pandas()
        vc = df["fp"].value_counts()
        ok = vc[(vc >= 2) & (vc <= max_fp_freq)].index
        df = df[df["fp"].isin(ok)]
        j = df.merge(df, on="fp", suffixes=("_l", "_r"))
        j = j[j["doc_id_l"] < j["doc_id_r"]]
        pairs = (
            j.groupby(["doc_id_l", "doc_id_r"], sort=False).size()
            .reset_index(name="shared_fps")
        )
        pairs = pairs[pairs["shared_fps"] >= min_shared]
        pairs.columns = ["doc_a", "doc_b", "shared_fps"]
        if not len(pairs):
            return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
        return (
            pairs.astype(out_cols)
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )

    # ---- distributed tail ----
    pairs_ds = _winnow_pairs_ds(fps, max_fp_freq, min_shared)
    if pairs_ds is None:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    pairs = pairs_ds.to_pandas()
    if not len(pairs):
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return (
        pairs[list(out_cols)].astype(out_cols)
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def _winnow_pairs_ds(
    fps: rd.Dataset, max_fp_freq: int, min_shared: int
) -> rd.Dataset | None:
    """Fully distributed winnow pair-gen over a materialized (doc_id, fp)
    Dataset in TWO all-to-alls: hash(fp) co-partition → per-partition
    frequency cap + merge emitting PARTIAL pair counts (partition-local fp
    frequencies are global under co-location, so the eligible-fp filter
    needs no separate count shuffle — the _coparted_pairs argument) → one
    pair groupby-sum re-establishing the global shared_fps before the
    min_shared filter (a pair's shared fps hash across partitions, so the
    per-partition counts are partials, not finals). Returns a
    (doc_a, doc_b, shared_fps) Dataset, or None when no fp is shared.
    Texts never shuffle — only 16 B/row fp pairs."""
    from ._schema import heal_blocks

    n_part = _n_parts(fps.count())

    def emit_partial(g: pd.DataFrame) -> pa.Table:
        vc = g["fp"].value_counts()
        ok = vc[(vc >= 2) & (vc <= max_fp_freq)].index
        df = g[g["fp"].isin(ok)]
        j = df.merge(df, on="fp", suffixes=("_l", "_r"))
        j = j[j["doc_id_l"] < j["doc_id_r"]]
        out = (
            j.groupby(["doc_id_l", "doc_id_r"], sort=False).size()
            .reset_index(name="shared_fps")
        )
        out.columns = ["doc_a", "doc_b", "shared_fps"]
        return pa.Table.from_pandas(
            out.astype({"doc_a": "int64", "doc_b": "int64",
                        "shared_fps": "int64"}),
            preserve_index=False)

    # target_blocks=n_part: heal_blocks' 200-block default would hand the
    # pair groupby 200 near-empty blocks — the tiny-block groupby
    # pathology (measured 13 s on a 137-pair result)
    partial = heal_blocks(
        fps.map_batches(_stamp_band_part(n_part, col="fp"),
                        batch_format="pyarrow")
        .groupby("part").map_groups(emit_partial, batch_format="pandas"),
        target_blocks=n_part,
    )
    if partial is None:
        return None

    # per-pair merge: hash(pair) co-partition + one vectorized pandas
    # groupby-sum per partition (NOT the native two-key aggregate — see
    # _dedup_pairs_coparted for the measured 20× degradation)
    def sum_partition(g: pd.DataFrame) -> pa.Table:
        out = g.groupby(["doc_a", "doc_b"], as_index=False)[
            "shared_fps"].sum()
        return pa.Table.from_pandas(
            out[out["shared_fps"] >= min_shared], preserve_index=False)

    n_pair_part = _n_parts(partial.count())
    return (
        partial.map_batches(_stamp_pair_part(n_pair_part, "doc_a", "doc_b"),
                            batch_format="pyarrow")
        .groupby("part").map_groups(sum_partition, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# connected-component dedup clusters (deterministic: exact-md5 star edges +
# winnow near-dup pairs → min-id components; the "keep one per cluster"
# primitive a training-data pipeline runs after pair generation)
# ---------------------------------------------------------------------------

def _md5_rows(t: pa.Table) -> pa.Table:
    from .text import _token_count_batch  # token_counts' n_tokens rule

    return pa.table(
        {
            "doc_id": t["doc_id"],
            "h": pa.array(
                [hashlib.md5(x.encode()).hexdigest()
                 for x in t["text"].to_pylist()],
                pa.string(),
            ),
            "n_tokens": _token_count_batch(t)["n_tokens"],
        }
    )


def _cluster_labels(sf_dir: str, max_fp_freq: int, min_shared: int,
                    mode: str) -> pd.DataFrame | None:
    """(doc_id, cluster_id, n_tokens) per document, or None for an empty
    corpus — dedup_clusters' components, from two documents reads."""
    from ._schema import heal_blocks
    from .graph import _components_driver

    # heal: empty read splits produce schema-less blocks; None means an
    # empty corpus (pipelines/_schema.py)
    hashes = heal_blocks(_docs(sf_dir, ["doc_id", "text"])
                         .map_batches(_md5_rows, batch_format="pyarrow"))
    if hashes is None:
        return None
    hdf = hashes.to_pandas()
    pairs = dedup_winnow_pairs(sf_dir, max_fp_freq, min_shared, mode=mode)
    root_of_h = hdf.groupby("h")["doc_id"].transform("min")
    star = hdf[root_of_h < hdf["doc_id"]]
    edges = list(zip(star["doc_id"].tolist(),
                     root_of_h[star.index].tolist())) + list(
        zip(pairs["doc_a"].tolist(), pairs["doc_b"].tolist())
    )
    return pd.DataFrame({
        "doc_id": hdf["doc_id"],
        "cluster_id": _components_driver(hdf["doc_id"].tolist(), edges),
        "n_tokens": hdf["n_tokens"],
    })


def dedup_clusters(
    sf_dir: str,
    max_fp_freq: int = WINNOW_PAIR_MAX_FREQ,
    min_shared: int = WINNOW_PAIR_MIN_SHARED,
    mode: str = "auto",
) -> pd.DataFrame:
    """Near-duplicate CLUSTERS: connected components over the union of
    exact-dup star edges (doc → min doc_id of its md5 group) and winnowing
    near-dup pairs (dedup_winnow_pairs semantics). One row per document:
    (doc_id, cluster_id = min doc_id in component, cluster_size, keep =
    doc_id == cluster_id). Deterministic → full SQL value-hash oracle via
    a DuckDB recursive CTE (oracle/textops.py).

    The edges come from distributed stages (texts are never collected);
    ``mode`` selects the winnow pair tail (dedup_winnow_pairs). The
    components are one min-id union-find over the edge list on the driver
    (graph._components_driver): the result is one row per document, so it
    is driver-resident anyway.
    """
    cols = {"doc_id": "int64", "cluster_id": "int64",
            "cluster_size": "int64", "keep": "bool"}
    df = _cluster_labels(sf_dir, max_fp_freq, min_shared, mode)
    if df is None:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    sizes = df.groupby("cluster_id")["doc_id"].transform("size")
    df = df.assign(cluster_size=sizes, keep=df["doc_id"] == df["cluster_id"])
    return (
        df[list(cols)].astype(cols)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def dedup_keep_best(
    sf_dir: str,
    max_fp_freq: int = WINNOW_PAIR_MAX_FREQ,
    min_shared: int = WINNOW_PAIR_MIN_SHARED,
) -> pd.DataFrame:
    """Canonical-document selection per near-dup cluster — the "keep the
    best copy, drop the rest" step a training-data pipeline runs after
    clustering. Winner per cluster = max n_tokens, ties broken by min
    doc_id: both keys are exact integers, so the ranking is deterministic
    and SQL-value-hash-checkable (a float quality score would not be
    bit-stable across engines — quantize first if one is ever used here).
    Returns one row per document: (doc_id, cluster_id, n_tokens, keep).

    The cluster labels and the token counts (text.token_counts' rule) come
    from the same documents map as dedup_clusters' (``_cluster_labels``);
    the winner pick is one vectorized sort + groupby-first on the driver."""
    cols = {"doc_id": "int64", "cluster_id": "int64",
            "n_tokens": "int64", "keep": "bool"}
    df = _cluster_labels(sf_dir, max_fp_freq, min_shared, "auto")
    if df is None:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    df = df.sort_values(["cluster_id", "n_tokens", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    winner = df.groupby("cluster_id", sort=False)["doc_id"].transform(
        "first")
    df["keep"] = df["doc_id"].to_numpy() == winner.to_numpy()
    return (
        df[list(cols)].astype(cols)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# exact duplicated-substring coverage (the Lee-et-al.-2022 span-dedup shape:
# which token ranges of each document also occur verbatim in OTHER docs)
# ---------------------------------------------------------------------------

SUBSTR_K = 8                      # word n-gram length ("substring" unit)
SUBSTR_DRIVER_LIMIT = 5_000_000   # dup-hash rows: broadcast below, join above
SUBSTR_ROWS_PER_PARTITION = 500_000
SUBSTR_ORACLE_VERSION = "v1"      # bump when K / hash / tokenization changes


def _substr_hash(gram: str) -> int:
    """Pinned 48-bit gram identity: md5 of the space-joined words — the
    shared spec between the engine kernel and the naive minted oracle.
    Identity only has to be consistent within one run, so a 100 TB
    deployment would swap this for a vectorized 64-bit rolling hash;
    md5 keeps the oracle trivially reproducible here."""
    return int(hashlib.md5(gram.encode()).hexdigest()[:12], 16)


def _substr_words(t: pa.Table):
    """Whitespace words per doc with Python ``str.split`` semantics (empty
    tokens dropped), off the Arrow buffers: returns (flat word list,
    per-word parent doc index, batch row count)."""
    words = pc.utf8_split_whitespace(t["text"])
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    keepnp = keep.to_numpy(zero_copy_only=False)
    return flat.filter(keep).to_pylist(), parent[keepnp], len(t)


def _substr_gram_rows(t: pa.Table) -> pa.Table:
    """Exploded (doc_id, pos, gh) rows — one per word K-gram position —
    PLUS one stat row per doc encoded as (doc_id, pos=-1, gh=n_tokens), so
    the doc-length table rides the same single tokenizing pass over the
    corpus instead of a second full read (the crawl loop's offers_sent
    stat-row pattern). The md5-per-gram loop is the same inherently-Python
    hash loop the other dedup kernels pay; everything around it is
    vectorized."""
    wl, parent, n = _substr_words(t)
    did = t["doc_id"].to_numpy(zero_copy_only=False)
    n_tokens = (np.bincount(parent, minlength=n) if len(parent)
                else np.zeros(n, dtype=np.int64))
    ids = [int(d) for d in did]
    poss = [-1] * n
    ghs = [int(x) for x in n_tokens]
    bounds = np.flatnonzero(np.diff(parent, prepend=-1, append=-2))
    k = SUBSTR_K
    for j in range(len(bounds) - 1):
        lo, hi = bounds[j], bounds[j + 1]
        if hi - lo < k:
            continue
        d = int(did[parent[lo]])
        ws = wl[lo:hi]
        for i in range(hi - lo - k + 1):
            ids.append(d)
            poss.append(i)
            ghs.append(_substr_hash(" ".join(ws[i:i + k])))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "pos": pa.array(poss, pa.int64()),
        "gh": pa.array(ghs, pa.int64()),
    })


def _substr_cov_partition(g: pd.DataFrame) -> pd.DataFrame:
    """One vectorized pass per hash(doc) partition: sort (doc, pos), merge
    overlapping-or-touching [pos, pos+K) intervals (gaps-and-islands), sum
    span lengths and position counts per doc. Never one Python call per
    doc — the sessionize co-partition pattern."""
    g = g.sort_values(["doc_id", "pos"], kind="mergesort")
    did = g["doc_id"].to_numpy()
    pos = g["pos"].to_numpy()
    brk = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        brk[1:] = (did[1:] != did[:-1]) | (pos[1:] > pos[:-1] + SUBSTR_K)
    isl = np.cumsum(brk)
    spans = (
        pd.DataFrame({"doc_id": did, "isl": isl, "pos": pos})
        .groupby(["doc_id", "isl"], sort=False)
        .agg(lo=("pos", "min"), hi=("pos", "max"), cnt=("pos", "size"))
        .reset_index()
    )
    spans["span"] = spans["hi"] - spans["lo"] + SUBSTR_K
    out = (
        spans.groupby("doc_id", sort=False)
        .agg(n_dup_grams=("cnt", "sum"), dup_tokens=("span", "sum"))
        .reset_index()
    )
    return out.astype({"doc_id": "int64", "n_dup_grams": "int64",
                       "dup_tokens": "int64"})


def dedup_substring(sf_dir: str, mode: str = "auto") -> pd.DataFrame:
    """Per-doc exact duplicated-passage coverage: a word K-gram is
    "duplicated" iff it occurs in ≥2 DISTINCT docs (within-doc repeats are
    repetition_scores' business); per doc we report the duplicated-gram
    position count and the union token coverage of their [pos, pos+K)
    intervals, as integer basis points of doc length.

    Scale shape: ONE tokenizing pass over the corpus emits gram rows of
    24 bytes (doc, pos, 48-bit hash) — never text — plus per-doc stat
    rows (pos=-1) carrying doc length; the row stream is materialized
    once and reused. Doc-frequency is a per-batch distinct partial that
    is NOT assumed globally distinct — Ray splits oversized map outputs
    at arbitrary row boundaries, so a within-doc repeat can straddle a
    block split and the same (gh, doc) pair can surface from two batches;
    global distinctness is re-established in the merge (driver
    drop_duplicates / hash(gh)-co-partitioned distinct+count — the
    straddle regression test pins this). Below SUBSTR_DRIVER_LIMIT gram
    rows the per-batch distinct partials merge on the driver and the
    duplicated-hash set broadcasts (sorted-array searchsorted membership,
    coverage islands merged in one driver numpy pass — Ray's all-to-all
    fixed cost dwarfs these tiny tables). Above it: ONE hash(gh)
    co-partition pass fusing doc-frequency + dup-row filtering (partition
    = global per gh under co-location), then the sessionize-style
    hash(doc_id) co-partitioned island merge
    (mode="driver"/"distributed" force either; equality-tested)."""
    from ._schema import heal_blocks

    empty = pd.DataFrame({
        "doc_id": pd.Series(dtype="int64"),
        "n_tokens": pd.Series(dtype="int64"),
        "n_grams": pd.Series(dtype="int64"),
        "n_dup_grams": pd.Series(dtype="int64"),
        "dup_tokens": pd.Series(dtype="int64"),
        "dup_bp": pd.Series(dtype="int64"),
    })
    ds = _docs(sf_dir, ["doc_id", "text"])
    if ds.count() == 0:
        return empty

    rows = ds.map_batches(
        _substr_gram_rows, batch_format="pyarrow").materialize()
    n_gram_rows = rows.count()  # stat rows included; fine for sizing
    if mode == "auto":
        mode = ("driver" if n_gram_rows <= SUBSTR_DRIVER_LIMIT
                else "distributed")

    stats = (
        rows.map_batches(
            lambda t: t.filter(pc.equal(t["pos"], -1))
            .select(["doc_id", "gh"])
            .rename_columns(["doc_id", "n_tokens"]),
            batch_format="pyarrow",
        )
        .to_pandas()
    )

    empty_cov = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                              "n_dup_grams": pd.Series(dtype="int64"),
                              "dup_tokens": pd.Series(dtype="int64")})
    if mode == "driver":
        def partial_df(t: pa.Table) -> pa.Table:
            # per-batch distinct (gh, doc_id) PAIRS — a volume reducer
            # only. Batch boundaries are NOT doc boundaries (Ray splits
            # map outputs at target_max_block_size at arbitrary rows), so
            # a within-doc repeated gram can straddle batches and the same
            # pair can come out of two batches; global distinctness is
            # re-established in the driver merge before any doc counting.
            t = t.filter(pc.greater_equal(t["pos"], 0))
            df = (
                pd.DataFrame({
                    "gh": t["gh"].to_numpy(zero_copy_only=False),
                    "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
                })
                .drop_duplicates()
            )
            return pa.Table.from_pandas(df, preserve_index=False)

        partials = rows.map_batches(partial_df, batch_format="pyarrow")
        # tiny-table path: partial pairs merge on the driver (global
        # distinct re-established here), dup hashes broadcast, matching
        # (doc, pos) rows come back small enough for one vectorized
        # island merge — zero all-to-all exchanges
        pdf = partials.to_pandas().drop_duplicates()
        agg = pdf.groupby("gh", as_index=False).size().rename(
            columns={"size": "n_docs"})
        arr = np.sort(
            agg.loc[agg["n_docs"] >= 2, "gh"].to_numpy(dtype=np.int64))
        if len(arr) == 0:
            cov = empty_cov
        else:
            ref = ray.put(arr)

            def keep_dup(t: pa.Table, _ref=ref) -> pa.Table:
                a = ray.get(_ref)
                t = t.filter(pc.greater_equal(t["pos"], 0))
                gh = t["gh"].to_numpy(zero_copy_only=False)
                idx = np.searchsorted(a, gh)
                idx[idx >= len(a)] = 0
                m = a[idx] == gh
                return t.filter(pa.array(m)).select(["doc_id", "pos"])

            cov = _substr_cov_partition(
                rows.map_batches(keep_dup, batch_format="pyarrow")
                .to_pandas()
            )
    else:
        # ONE hash(gh) co-partition of the raw gram rows: every copy of a
        # (gh, doc) pair lands in the same partition, so the per-partition
        # distinct + count IS the global count(DISTINCT doc_id) per gh
        # (boundary-proof by construction), and the duplicated (doc, pos)
        # rows are emitted by the same kernel — the r4 shape's
        # partial-pair exchange + left_semi join (measured 3.2 s of the
        # 6 s dist row at sf0.1) collapse into this single pass.
        n_part_df = max(8, min(1024,
                               n_gram_rows // SUBSTR_ROWS_PER_PARTITION
                               + 1))

        def add_gh_part(t: pa.Table) -> pa.Table:
            t = t.filter(pc.greater_equal(t["pos"], 0))
            gh = t["gh"].to_numpy(zero_copy_only=False)
            return t.append_column(
                "part", pa.array((gh % n_part_df).astype(np.int64)))

        def dup_rows_partition(g: pd.DataFrame) -> pa.Table:
            sz = (
                g[["gh", "doc_id"]].drop_duplicates()
                .groupby("gh", as_index=False).size()
            )
            dup = np.sort(
                sz.loc[sz["size"] >= 2, "gh"].to_numpy(dtype=np.int64))
            gh = g["gh"].to_numpy(dtype=np.int64)
            if len(dup) == 0:
                m = np.zeros(len(gh), dtype=bool)
            else:
                idx = np.searchsorted(dup, gh)
                idx[idx >= len(dup)] = 0
                m = dup[idx] == gh
            return pa.Table.from_pandas(
                g.loc[m, ["doc_id", "pos"]], preserve_index=False)

        dup_rows = heal_blocks(
            rows.map_batches(add_gh_part, batch_format="pyarrow")
            .groupby("part")
            .map_groups(dup_rows_partition, batch_format="pandas"),
            target_blocks=n_part_df,
        )
        if dup_rows is None:
            cov = empty_cov
        else:
            n_part = max(8, min(1024,
                                dup_rows.count()
                                // SUBSTR_ROWS_PER_PARTITION + 1))

            def add_part(t: pa.Table) -> pa.Table:
                d = t["doc_id"].to_numpy(zero_copy_only=False)
                return t.append_column(
                    "part", pa.array((d % n_part).astype(np.int64)))

            cov = (
                dup_rows.map_batches(add_part, batch_format="pyarrow")
                .groupby("part")
                .map_groups(_substr_cov_partition,
                            batch_format="pandas")
                .to_pandas()
            )

    out = stats.merge(cov[["doc_id", "n_dup_grams", "dup_tokens"]],
                      on="doc_id", how="left")
    out["n_dup_grams"] = out["n_dup_grams"].fillna(0).astype("int64")
    out["dup_tokens"] = out["dup_tokens"].fillna(0).astype("int64")
    out["n_grams"] = np.maximum(out["n_tokens"] - SUBSTR_K + 1, 0)
    nt = out["n_tokens"].to_numpy()
    out["dup_bp"] = np.where(
        nt > 0, out["dup_tokens"].to_numpy() * 10000 // np.maximum(nt, 1),
        0).astype("int64")
    return (
        out[["doc_id", "n_tokens", "n_grams", "n_dup_grams",
             "dup_tokens", "dup_bp"]]
        .astype({"doc_id": "int64", "n_tokens": "int64", "n_grams": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def mint_substr_oracle(
        sf_dir: str, base: str = "/tmp/graft_substr_oracle") -> str:
    """Naive per-doc Python mint of the (doc_id, pos, gh) gram table and
    the (doc_id, n_tokens) stats table — independent of the engine's
    Arrow/partial kernels, pinned by SUBSTR_ORACLE_VERSION (the
    decontaminate minting pattern). _SUCCESS-last."""
    import os

    import pyarrow.parquet as pq

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(base, f"{tag}-{SUBSTR_ORACLE_VERSION}")
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    os.makedirs(out, exist_ok=True)
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ids, poss, ghs = [], [], []
    sids, ntoks = [], []
    k = SUBSTR_K
    for d, tx in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = (tx or "").split()
        sids.append(d)
        ntoks.append(len(ws))
        for i in range(len(ws) - k + 1):
            ids.append(d)
            poss.append(i)
            ghs.append(_substr_hash(" ".join(ws[i:i + k])))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "pos": pa.array(poss, pa.int64()),
                  "gh": pa.array(ghs, pa.int64())}),
        os.path.join(out, "grams.parquet"),
    )
    pq.write_table(
        pa.table({"doc_id": pa.array(sids, pa.int64()),
                  "n_tokens": pa.array(ntoks, pa.int64())}),
        os.path.join(out, "doc_stats.parquet"),
    )
    open(os.path.join(out, "_SUCCESS"), "w").close()
    return out


def substr_sql(oracle_dir: str) -> str:
    """DuckDB oracle: doc-frequency, duplicated positions, and the interval
    union via gaps-and-islands window math — all derived relationally from
    the MINTED naive gram table."""
    import os

    g = os.path.join(oracle_dir, "grams.parquet")
    s = os.path.join(oracle_dir, "doc_stats.parquet")
    k = SUBSTR_K
    return f"""
WITH g AS (SELECT * FROM read_parquet('{g}')),
df AS (SELECT gh FROM (SELECT gh, count(DISTINCT doc_id) AS c
                       FROM g GROUP BY gh) WHERE c >= 2),
dup AS (SELECT doc_id, pos FROM g JOIN df USING (gh)),
w AS (SELECT doc_id, pos,
             CASE WHEN lag(pos) OVER win IS NULL
                  OR pos > lag(pos) OVER win + {k}
                  THEN 1 ELSE 0 END AS brk
      FROM dup WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
isl AS (SELECT doc_id, pos,
               sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
        FROM w),
spans AS (SELECT doc_id, island, max(pos) - min(pos) + {k} AS span,
                 count(*) AS cnt
          FROM isl GROUP BY doc_id, island),
cov AS (SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n_dup_grams,
               CAST(sum(span) AS BIGINT) AS dup_tokens
        FROM spans GROUP BY doc_id)
SELECT s.doc_id,
       CAST(s.n_tokens AS BIGINT) AS n_tokens,
       CAST(greatest(s.n_tokens - {k} + 1, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(c.n_dup_grams, 0) AS BIGINT) AS n_dup_grams,
       CAST(coalesce(c.dup_tokens, 0) AS BIGINT) AS dup_tokens,
       CAST(CASE WHEN s.n_tokens > 0
                 THEN coalesce(c.dup_tokens, 0) * 10000 // s.n_tokens
                 ELSE 0 END AS BIGINT) AS dup_bp
FROM read_parquet('{s}') s LEFT JOIN cov c USING (doc_id)
ORDER BY s.doc_id
"""
