"""Text-analysis pipelines over the ``documents`` table: token counting,
quality scoring, document fingerprinting, language ID — the per-document
scoring stages of a large-scale training-data pipeline, each a vectorized
(or compiled-regex) map_batches kernel."""

from __future__ import annotations

import hashlib
import re

import pandas as pd
import pyarrow as pa
import ray.data as rd


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    from ._schema import read_parquet_bounded

    return read_parquet_bounded(f"{sf_dir}/documents.parquet",
                                columns=columns)


def _empty_typed(cols: dict[str, str]) -> pd.DataFrame:
    """Typed empty result frame: an all-empty materialized Dataset loses
    its schema (zero-column blocks), so empty-corpus paths return early
    with the declared dtypes instead of relying on downstream inference."""
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})


from ._schema import (  # noqa: E402 — shared co-partition helpers
    n_parts as _n_parts,
    stamp_str_part as _stamp_str_part,
)


# ---------------------------------------------------------------------------
# token counts (SQL-checkable)
# ---------------------------------------------------------------------------


def _token_count_batch(t: pa.Table) -> pa.Table:
    s = pd.Series(t["text"].to_pylist())
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(
                s.str.count(r"\S+").astype("int64"), pa.int64()
            ),
            "n_chars_actual": pa.array(s.str.len().astype("int64"), pa.int64()),
        }
    )


def token_counts(sf_dir: str) -> pd.DataFrame:
    """(doc_id, n_tokens, n_chars_actual) — tokens = maximal \\S+ runs,
    matching the SQL oracle's regexp_extract_all. The kernel is
    module-level so any documents-shaped source (parquet, JSONL) can
    feed it — see tests/test_textio.py."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    return (
        ds.map_batches(_token_count_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


TOKEN_COUNTS_SQL = r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT) AS n_chars_actual
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# quality scoring (SQL-checkable: pure counts + integer-derived ratios)
# ---------------------------------------------------------------------------


def quality_scores(sf_dir: str) -> pd.DataFrame:
    """Per-doc quality signals: char/token counts, punctuation and
    uppercase counts, mean token length ×100 (integer — float-safe)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        s = pd.Series(t["text"].to_pylist())
        n_chars = s.str.len().astype("int64")
        n_tokens = s.str.count(r"\S+").astype("int64")
        n_upper = s.str.count(r"[A-Z]").astype("int64")
        n_punct = s.str.count(r"[.,;:!?]").astype("int64")
        n_nonspace = s.str.count(r"\S").astype("int64")
        mean_tok_len_c = (
            (n_nonspace * 100) // n_tokens.clip(lower=1)
        ).astype("int64")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars_actual": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_upper": pa.array(n_upper, pa.int64()),
                "n_punct": pa.array(n_punct, pa.int64()),
                "mean_tok_len_c": pa.array(mean_tok_len_c, pa.int64()),
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


QUALITY_SQL = r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT)                                   AS n_chars_actual,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)        AS n_tokens,
       CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS BIGINT) AS n_upper,
       CAST(length(regexp_replace(text, '[^.,;:!?]', '', 'g')) AS BIGINT) AS n_punct,
       CAST(length(regexp_replace(text, '\s', '', 'g')) AS BIGINT) * 100
         // greatest(CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT), 1)
                                                                      AS mean_tok_len_c
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# fingerprinting (md5: SQL-checkable; winnowing: rows-only)
# ---------------------------------------------------------------------------


def doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fp_md5": pa.array(
                    [hashlib.md5(x.encode()).hexdigest()
                     for x in t["text"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    return (
        ds.map_batches(fp, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


FINGERPRINT_SQL = """
SELECT doc_id, md5(text) AS fp_md5 FROM documents ORDER BY doc_id
"""


def winnow_rows_batch(t: pa.Table) -> pa.Table:
    """Explode one batch of documents to (doc_id, fp) winnowing rows —
    shared by doc_winnowing and dedup.dedup_winnow_pairs."""
    from ..functions.hashing import rolling_fingerprints

    ids, fps = [], []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for f in rolling_fingerprints(text):
            ids.append(doc_id)
            fps.append(f & 0x7FFFFFFFFFFFFFFF)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "fp": pa.array(fps, pa.int64())}
    )


def doc_winnowing(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprints (rolling-hash window minima, Schleimer et
    al.) per doc, exploded to (doc_id, fp) rows — relational shape, and
    hash-checkable against the pinned per-doc reference
    (oracle/textops.py: direct k-gram hashing, plain-loop minima)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(winnow_rows_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "fp"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# language ID (n-gram/stopword heuristic; rows-only vs the lang column)
# ---------------------------------------------------------------------------

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "nicht", "mit", "für", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "que", "dans"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "por", "para"},
}


_LETTER = r"a-zA-ZäöüßéèêàçñÀ-ÿ"


# stopword patterns compile once per worker process, at import: per
# language ONE boundary-anchored alternation
_WORD_RE = re.compile(f"[{_LETTER}]+")
_LANGS = sorted(_STOPWORDS)  # tie-break: first alphabetical max
_LANG_PATS = [
    re.compile(
        f"(?<![{_LETTER}])(?:" + "|".join(sorted(_STOPWORDS[lang]))
        + f")(?![{_LETTER}])",
        re.IGNORECASE,
    )
    for lang in _LANGS
]


def _lang_predict(s: pd.Series):
    """Stopword-hit language scorer, fully vectorized: each language's
    pattern and the word total are counted with the pandas C regex engine
    (str.count) — no per-row Python; 'und' (undetermined) when nothing
    hits. Returns (lang_pred object array, hit_permille int64 array) —
    shared by lang_id and corpus_curation."""
    import numpy as np

    n_words = s.str.count(_WORD_RE).to_numpy()
    hits = np.stack(
        [s.str.count(pat).to_numpy() for pat in _LANG_PATS]
    )  # (n_langs, n_docs)
    best_idx = hits.argmax(axis=0)
    best_hits = hits[best_idx, np.arange(len(s))]
    und = (best_hits == 0) | (n_words == 0)
    preds = np.where(und, "und", np.asarray(_LANGS, dtype=object)[best_idx])
    scores = np.where(
        und, 0, best_hits * 1000 // np.maximum(n_words, 1)
    ).astype(np.int64)
    return preds, scores


def _lang_id_batch(t: pa.Table) -> pa.Table:
    preds, scores = _lang_predict(pd.Series(t["text"].to_pylist()))
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "lang_pred": pa.array(preds.tolist(), pa.string()),
            "hit_permille": pa.array(scores, pa.int64()),
        }
    )


def lang_id(sf_dir: str) -> pd.DataFrame:
    return (
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(_lang_id_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# repetition scoring (Gopher-style quality filters; SQL-checkable)
# ---------------------------------------------------------------------------


def repetition_scores(sf_dir: str) -> pd.DataFrame:
    """Per-doc repetition signals in the style of the Gopher/MassiveText
    quality rules: top-word fraction and duplicate bigram/trigram fractions
    (all basis-point-scaled int64 so the dtype-sensitive value hash holds).
    One vectorized pandas pass per batch: explode words once, derive word
    counts and shifted n-grams from the exploded frame — no per-doc Python."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        import numpy as np

        s = pd.Series(t["text"].to_pylist())
        words = s.str.split()
        n_words = words.str.len().fillna(0).astype("int64")
        ex = words.explode().dropna()
        idx = pd.RangeIndex(len(s))

        wc = pd.DataFrame({"i": ex.index, "w": ex.values}).groupby(
            ["i", "w"], sort=False
        ).size()
        top = wc.groupby(level=0).max().reindex(idx, fill_value=0)
        nuniq = wc.groupby(level=0).size().reindex(idx, fill_value=0)

        nxt = ex.groupby(level=0).shift(-1)
        big = (ex + " " + nxt).dropna()
        nxt2 = ex.groupby(level=0).shift(-2)
        tri = (ex + " " + nxt + " " + nxt2).dropna()
        n_big = (n_words - 1).clip(lower=0)
        n_tri = (n_words - 2).clip(lower=0)
        uniq_big = big.groupby(level=0).nunique().reindex(idx, fill_value=0)
        uniq_tri = tri.groupby(level=0).nunique().reindex(idx, fill_value=0)

        def bp(dup, n):
            return (
                np.asarray(dup, np.int64) * 10000
                // np.maximum(np.asarray(n, np.int64), 1)
            )

        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_words": pa.array(n_words, pa.int64()),
                "n_unique_words": pa.array(
                    nuniq.astype("int64"), pa.int64()),
                "top_word_count": pa.array(top.astype("int64"), pa.int64()),
                "top_word_frac_bp": pa.array(bp(top, n_words), pa.int64()),
                "dup_bigram_frac_bp": pa.array(
                    bp(n_big - uniq_big, n_big), pa.int64()),
                "dup_trigram_frac_bp": pa.array(
                    bp(n_tri - uniq_tri, n_tri), pa.int64()),
            }
        )

    return (
        ds.map_batches(rep, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


REPETITION_SQL = r"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
), base AS (
  SELECT doc_id, ws, len(ws) AS n_words,
         list_transform(range(1, greatest(len(ws), 1)),
                        i -> ws[i] || ' ' || ws[i+1]) AS bigs,
         list_transform(range(1, greatest(len(ws) - 1, 1)),
                        i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]) AS tris
  FROM t
), wc AS (
  SELECT doc_id, w, count(*) AS c
  FROM (SELECT doc_id, unnest(ws) AS w FROM t) GROUP BY doc_id, w
), topw AS (
  SELECT doc_id, max(c) AS top_word_count, count(*) AS n_unique_words
  FROM wc GROUP BY doc_id
)
SELECT b.doc_id,
       CAST(b.n_words AS BIGINT) AS n_words,
       CAST(coalesce(topw.n_unique_words, 0) AS BIGINT) AS n_unique_words,
       CAST(coalesce(topw.top_word_count, 0) AS BIGINT) AS top_word_count,
       CAST(coalesce(topw.top_word_count, 0) * 10000
            // greatest(b.n_words, 1) AS BIGINT) AS top_word_frac_bp,
       CAST((len(b.bigs) - len(list_distinct(b.bigs))) * 10000
            // greatest(len(b.bigs), 1) AS BIGINT) AS dup_bigram_frac_bp,
       CAST((len(b.tris) - len(list_distinct(b.tris))) * 10000
            // greatest(len(b.tris), 1) AS BIGINT) AS dup_trigram_frac_bp
FROM base b LEFT JOIN topw ON b.doc_id = topw.doc_id
ORDER BY b.doc_id
"""


# ---------------------------------------------------------------------------
# corpus-level top n-grams (partial-aggregate pattern; SQL-checkable)
# ---------------------------------------------------------------------------


def top_ngrams(sf_dir: str, topn: int = 20) -> pd.DataFrame:
    """Top-``topn`` corpus bigrams by occurrence count — the corpus-stats
    shape (vocabulary/n-gram tables) of a training-data pipeline. Counts are
    pre-aggregated INSIDE map_batches (one (ngram, cnt) row per distinct
    bigram per batch), so the shuffle moves partial counts, never n-gram
    occurrences. The merge is ONE hash(ngram) co-partition exchange: all
    partials of an n-gram land in one partition, so the per-partition
    vectorized sum is the global count and each partition's local top-n
    provably contains its members of the global top-n — n_part × topn rows
    reach the driver instead of a native groupby-sum + distributed
    sort+limit (two exchanges, and Ray's native aggregate pays a
    per-group-scale cost this shape avoids). Ties break on the n-gram
    string, matching the SQL oracle."""
    import numpy as np

    ds = _docs(sf_dir, ["text"])

    def partial(t: pa.Table) -> pa.Table:
        s = pd.Series(t["text"].to_pylist())
        ex = s.str.split().explode().dropna()
        nxt = ex.groupby(level=0).shift(-1)
        vc = (ex + " " + nxt).dropna().value_counts()
        return pa.table(
            {
                "ngram": pa.array(vc.index.to_numpy(), pa.string()),
                "n_occ": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    if partials.count() == 0:
        # empty / all-whitespace corpus: the driver-side sort below would
        # KeyError on the zero-column frame an all-empty Dataset collapses to
        return _empty_typed({"ngram": "object", "n_occ": "int64"})
    n_part = _n_parts(partials.count())

    def topn_part(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("ngram", as_index=False, sort=False)["n_occ"].sum()
        agg = agg.sort_values(["n_occ", "ngram"], ascending=[False, True],
                              kind="mergesort").head(topn)
        return pa.table(
            {"ngram": pa.array(agg["ngram"].astype(str), pa.string()),
             "n_occ": pa.array(agg["n_occ"].to_numpy(np.int64), pa.int64())})

    out = (
        partials.map_batches(_stamp_str_part("ngram", n_part),
                             batch_format="pyarrow")
        .groupby("part").map_groups(topn_part, batch_format="pandas")
        .to_pandas()
        .sort_values(["n_occ", "ngram"], ascending=[False, True],
                     kind="mergesort")
        .head(topn)
    )
    return out.reset_index(drop=True)


TOP_NGRAMS_SQL = r"""
WITH t AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
b AS (
  SELECT unnest(list_transform(range(1, greatest(len(ws), 1)),
                               i -> ws[i] || ' ' || ws[i+1])) AS ngram
  FROM t
)
SELECT ngram, count(*) AS n_occ FROM b GROUP BY ngram
ORDER BY n_occ DESC, ngram LIMIT 20
"""


# ---------------------------------------------------------------------------
# corpus language distribution (SQL-checkable groupby over the lang column)
# ---------------------------------------------------------------------------


def lang_distribution(sf_dir: str) -> pd.DataFrame:
    from ray.data.aggregate import Count, Sum

    out = (
        _docs(sf_dir, ["lang", "n_chars"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    return out


LANG_DIST_SQL = """
SELECT lang, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# corpus curation (the end-to-end keep/reject decision a training-data
# pipeline runs: quality -> repetition -> language -> exact-dup gates;
# deterministic, SQL-checked via documents + the minted lang oracle)
# ---------------------------------------------------------------------------

CURATION_MIN_TOKENS = 20       # reject shorter docs ('too_short')
CURATION_TOK_LEN_MIN_C = 380   # mean token length x100 bounds
CURATION_TOK_LEN_MAX_C = 520   #   ('token_length')
CURATION_MAX_TOP_WORD_BP = 2000  # Gopher-style top-word cap ('repetitive')
CURATION_LANGS = ("de", "en", "es", "fr")  # keep-list ('language')


def _curation_signals(t: pa.Table) -> pa.Table:
    """Fused per-batch signal extractor: ONE read of the text column yields
    token/length stats, top-word fraction, predicted language, and the md5
    exact-dup key."""
    import numpy as np
    import pyarrow.compute as pc

    tc = t["text"]
    n = len(tc)
    # token/length stats straight off the Arrow buffers — no Python
    # string materialization (the lone pandas Series below exists only
    # because _lang_predict's stopword patterns are pandas str.count)
    n_tokens = pc.cast(
        pc.count_substring_regex(tc, r"\S+"), pa.int64()).to_numpy(
        zero_copy_only=False)
    n_nonspace = pc.cast(
        pc.count_substring_regex(tc, r"\S"), pa.int64()).to_numpy(
        zero_copy_only=False)
    denom = np.maximum(n_tokens, 1)
    mean_tok_len_c = (n_nonspace * 100) // denom
    # top-word count per doc: whitespace-split list column → flatten +
    # parent indices → dictionary-encode (word ids stay in Arrow; no
    # Python strings) → bincount unique (doc, word) pairs → per-doc max
    words = pc.utf8_split_whitespace(tc)
    flat = pc.list_flatten(words).combine_chunks()
    parent = pc.list_parent_indices(words).to_numpy(
        zero_copy_only=False).astype(np.int64)
    keep = pc.not_equal(flat, "")  # str.split() drops empty tokens
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    codes_arr = pc.dictionary_encode(flat.filter(keep))
    codes = codes_arr.indices.to_numpy(
        zero_copy_only=False).astype(np.int64)
    parent = parent[keep.to_numpy(zero_copy_only=False)]
    top = np.zeros(n, np.int64)
    if len(codes):
        k = len(codes_arr.dictionary)
        uk, cnt = np.unique(parent * k + codes, return_counts=True)
        np.maximum.at(top, uk // k, cnt)
    top_bp = top * 10000 // denom
    preds, _ = _lang_predict(tc.to_pandas())
    from ..functions.hashing import md5_hex_arrow

    return pa.table(
        {
            "doc_id": t["doc_id"],
            "h": pa.array(md5_hex_arrow(t["text"]), pa.string()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "mean_tok_len_c": pa.array(mean_tok_len_c, pa.int64()),
            "top_word_frac_bp": pa.array(top_bp, pa.int64()),
            "lang_pred": pa.array(preds.tolist(), pa.string()),
        }
    )


def _curation_decisions(sf_dir: str) -> rd.Dataset | None:
    """The distributed curation pipeline up to the per-doc decision rows
    (a Dataset — shared by corpus_curation and write_curated). None for
    an empty corpus."""
    from ray.data.aggregate import Min

    from ._schema import heal_blocks

    # heal: empty read splits leave schema-less blocks that poison the
    # sig⋈winners join below (pipelines/_schema.py)
    sig = heal_blocks(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_curation_signals, batch_format="pyarrow")
    )
    if sig is None:
        return None
    sig = sig.materialize()  # consumed twice: winners pass + join
    n_part = _n_parts(sig.count(), floor=2)

    winners = heal_blocks(
        sig.select_columns(["h", "doc_id"])
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="keeper")),
        target_blocks=n_part,
    )

    def decide(t: pa.Table) -> pa.Table:
        import numpy as np

        n_tokens = t["n_tokens"].to_numpy(zero_copy_only=False)
        mlen = t["mean_tok_len_c"].to_numpy(zero_copy_only=False)
        top_bp = t["top_word_frac_bp"].to_numpy(zero_copy_only=False)
        lang = np.asarray(t["lang_pred"].to_pylist(), dtype=object)
        doc_id = t["doc_id"].to_numpy(zero_copy_only=False)
        keeper = t["keeper"].to_numpy(zero_copy_only=False)
        reason = np.select(
            [
                n_tokens < CURATION_MIN_TOKENS,
                (mlen < CURATION_TOK_LEN_MIN_C)
                | (mlen > CURATION_TOK_LEN_MAX_C),
                top_bp > CURATION_MAX_TOP_WORD_BP,
                ~np.isin(lang, CURATION_LANGS),
                doc_id != keeper,
            ],
            ["too_short", "token_length", "repetitive", "language",
             "duplicate"],
            default="kept",
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "mean_tok_len_c": t["mean_tok_len_c"],
                "top_word_frac_bp": t["top_word_frac_bp"],
                "lang_pred": t["lang_pred"],
                "reason": pa.array(reason.tolist(), pa.string()),
                "keep": pa.array((reason == "kept").tolist(), pa.bool_()),
            }
        )

    return (
        sig.join(winners, join_type="inner", num_partitions=n_part,
                 on=("h",))
        .map_batches(decide, batch_format="pyarrow")
    )


CURATION_COLS = {"doc_id": "int64", "n_tokens": "int64",
                 "mean_tok_len_c": "int64", "top_word_frac_bp": "int64",
                 "lang_pred": "object", "reason": "object", "keep": "bool"}


def corpus_curation(sf_dir: str) -> pd.DataFrame:
    """Per-doc keep/reject with the FIRST failing gate as the reason:
    too_short -> token_length -> repetitive -> language -> duplicate ->
    kept. Signals come from one fused map_batches pass (texts read once,
    never shuffled); the exact-dup winner is a 16 B/row md5 groupby-min
    joined back on the hash — the same shuffle shape as dedup_exact."""
    dec = _curation_decisions(sf_dir)
    if dec is None:
        return _empty_typed(CURATION_COLS)
    return (
        dec.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def write_curated(sf_dir: str, out_dir: str) -> dict:
    """Apply the curation gates and WRITE the kept documents as
    lang-partitioned parquet — the resumable-output layout (one directory
    per language; a failed run re-writes only what it owns, downstream
    training-mix jobs read per-lang subsets without scanning the rest).

    Scale shape: the (tiny, text-free) keep decisions hash-join back to
    the full rows on doc_id — at 100 TB the keep set cannot broadcast
    (8 B x 10^10 docs), so the join is the correct path; document rows
    move ONCE, from the read straight to the partitioned writer."""
    from ._schema import heal_blocks

    dec = _curation_decisions(sf_dir)
    if dec is None:
        return {"kept": 0, "rejected": 0, "out_dir": out_dir}
    keep_ds = heal_blocks(
        dec.filter(expr="keep == True").select_columns(["doc_id"]))
    n_total = _docs(sf_dir, ["doc_id"]).count()
    if keep_ds is None:
        return {"kept": 0, "rejected": n_total, "out_dir": out_dir}
    n_keep = keep_ds.count()
    n_part = _n_parts(n_total, floor=2)
    (
        _docs(sf_dir)  # all columns — the kept docs ship whole
        .join(keep_ds, join_type="inner", num_partitions=n_part,
              on=("doc_id",))
        .write_parquet(out_dir, partition_cols=["lang"])
    )
    return {"kept": n_keep, "rejected": n_total - n_keep,
            "out_dir": out_dir}


# ---------------------------------------------------------------------------
# deterministic stratified sampling (training-mix construction: per-lang
# permille rates via hash-mod buckets — reproducible across runs/engines,
# shuffle-free, SQL-checkable)
# ---------------------------------------------------------------------------

SAMPLE_RATES_PERMILLE = {"en": 500, "de": 250, "fr": 250, "es": 250}
SAMPLE_DEFAULT_PERMILLE = 100


def corpus_sample_stratified(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sample of the documents table: doc_id is
    hashed (md5, first 8 hex digits) into a 0-999 bucket and kept when the
    bucket is below its language's permille rate. No randomness, no
    shuffle, no coordination — every worker decides per row, so the same
    sample falls out at any scale or partitioning (the property a 100 TB
    training-mix job needs for resumability and auditability)."""
    ds = _docs(sf_dir, ["doc_id", "lang"])
    if ds.count() == 0:
        return _empty_typed(
            {"doc_id": "int64", "lang": "object", "bucket": "int64"})

    def sample(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        bucket = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 1000
             for i in ids),
            dtype=np.int64, count=len(ids),
        )
        rate = (
            pd.Series(t["lang"].to_pylist())
            .map(SAMPLE_RATES_PERMILLE)
            .fillna(SAMPLE_DEFAULT_PERMILLE)
            .to_numpy(np.int64)
        )
        keep = bucket < rate
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "lang": t["lang"].filter(pa.array(keep)),
                "bucket": pa.array(bucket[keep], pa.int64()),
            }
        )

    return (
        ds.map_batches(sample, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


SAMPLE_SQL = """
WITH b AS (
  SELECT doc_id, lang,
         CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) % 1000 AS bucket
  FROM documents)
SELECT doc_id, lang, CAST(bucket AS BIGINT) AS bucket
FROM b
WHERE bucket < CASE lang WHEN 'en' THEN 500 WHEN 'de' THEN 250
                         WHEN 'fr' THEN 250 WHEN 'es' THEN 250
                         ELSE 100 END
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# TF-IDF top terms per document (corpus statistics + per-doc ranking:
# one hash(term) co-partition yields doc frequencies AND per-partition
# top-k — integer-scaled so DuckDB agrees bit-exactly)
# ---------------------------------------------------------------------------

TFIDF_TOP_K = 3
TFIDF_SCALE = 10_000


def tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Top-k terms per document by integer-scaled tf-idf
    (tf * SCALE * n_docs // (doc_freq * n_tok) — exact in both engines;
    no floating-point log, which is not bit-stable across libms).

    Scale shape: one exploded (doc_id, term, tf, n_tok) pass — each doc
    lives in exactly ONE input batch, so it yields exactly one row per
    (doc, term) — then ONE hash(term) co-partition exchange. All rows of a
    term share a partition, so a term's row count there IS its doc_freq;
    each partition scores its rows and keeps a local top-k per doc, which
    holds that partition's share of the doc's global top-k (the partial
    top-k merge). The driver, which collects the result anyway, merges
    the partials with the same total order — at most
    min(tf rows, n_part × k × n_docs) rows reach it."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()

    def explode_tf(t: pa.Table) -> pa.Table:
        s = pd.Series(t["text"].to_pylist(), dtype=object)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        words = s.str.split()
        n_tok = words.str.len().fillna(0).astype("int64").to_numpy()
        ex = words.explode().dropna()
        tf = (
            pd.DataFrame({"i": ex.index, "term": ex.values})
            .groupby(["i", "term"], sort=False).size().reset_index(name="tf")
        )
        pos = tf["i"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids[pos], pa.int64()),
                "term": pa.array(tf["term"].astype(str), pa.string()),
                "tf": pa.array(tf["tf"].to_numpy(np.int64), pa.int64()),
                "n_tok": pa.array(n_tok[pos], pa.int64()),
            }
        )

    order = dict(by=["doc_id", "tfidf_c", "term"],
                 ascending=[True, False, True], kind="mergesort")

    def topk_part(g: pd.DataFrame) -> pa.Table:
        dfq = g.groupby("term", sort=False)["term"].transform("size")
        g = g.assign(
            doc_freq=dfq,
            tfidf_c=g["tf"] * TFIDF_SCALE * n_docs // (dfq * g["n_tok"]),
        )
        g = g.sort_values(**order).groupby("doc_id", sort=False).head(
            TFIDF_TOP_K)
        return pa.table(
            {"doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
             "term": pa.array(g["term"].astype(str), pa.string()),
             "tf": pa.array(g["tf"].to_numpy(np.int64)),
             "doc_freq": pa.array(g["doc_freq"].to_numpy(np.int64)),
             "tfidf_c": pa.array(g["tfidf_c"].to_numpy(np.int64))})

    tf_ds = ds.map_batches(explode_tf, batch_format="pyarrow").materialize()
    n_rows = tf_ds.count()
    if n_docs == 0 or n_rows == 0:
        # the driver-side sort below would KeyError on the zero-column
        # frame an all-empty Dataset collapses to
        return _empty_typed({"doc_id": "int64", "term": "object",
                             "tf": "int64", "doc_freq": "int64",
                             "tfidf_c": "int64"})
    n_part = _n_parts(n_rows)
    return (
        tf_ds.map_batches(_stamp_str_part("term", n_part),
                          batch_format="pyarrow")
        .groupby("part").map_groups(topk_part, batch_format="pandas")
        .to_pandas()
        .sort_values(**order)
        .groupby("doc_id", sort=False).head(TFIDF_TOP_K)
        .reset_index(drop=True)
    )


TFIDF_SQL = rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok GROUP BY doc_id, term),
ntok AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok
         FROM tok GROUP BY doc_id),
dfreq AS (SELECT term, CAST(count(*) AS BIGINT) AS doc_freq
          FROM tf GROUP BY term),
n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
s AS (SELECT tf.doc_id, tf.term, tf.tf, dfreq.doc_freq,
             tf.tf * {TFIDF_SCALE} * n.n
               // (dfreq.doc_freq * ntok.n_tok) AS tfidf_c
      FROM tf JOIN dfreq USING (term) JOIN ntok USING (doc_id)
              CROSS JOIN n),
r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY tfidf_c DESC, term) AS rn
      FROM s)
SELECT doc_id, term, tf, doc_freq, tfidf_c
FROM r WHERE rn <= {TFIDF_TOP_K}
ORDER BY doc_id, tfidf_c DESC, term
"""


# ---------------------------------------------------------------------------
# per-group exact quantiles via distributed value histograms (the scale
# pattern for order statistics over bounded-domain values: per-batch
# partial counts -> one tiny (group, value) groupby-sum -> driver picks
# the quantile from the histogram; the raw rows never sort or shuffle)
# ---------------------------------------------------------------------------

LENGTH_QUANTILES = ((1, 4, "p25"), (1, 2, "p50"), (9, 10, "p90"))


def lang_length_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact p25/p50/p90 of n_chars per language. DuckDB's quantile_disc
    picks sorted index ceil(q*n)-1; computed here as
    (num*n + den - 1)//den - 1 — pure integer math, no float edge.

    Scale shape: a 100 TB corpus has billions of rows but only ~1e5
    distinct (lang, length) pairs, so the histogram groupby shuffles
    almost nothing and the driver sees only the histogram (a co-partition
    twin of this merge measured SLOWER — the group count is small enough
    that Ray's native aggregate is pure fixed cost here)."""
    import numpy as np

    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"lang": t["lang"].to_pylist(),
                 "v": t["n_chars"].to_numpy(zero_copy_only=False)}
            )
            .groupby(["lang", "v"], sort=False).size().reset_index(name="c")
        )
        return pa.table(
            {"lang": pa.array(g["lang"].astype(str), pa.string()),
             "v": pa.array(g["v"].to_numpy(np.int64), pa.int64()),
             "c": pa.array(g["c"].to_numpy(np.int64), pa.int64())}
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "v"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # histogram only: distinct (lang, length) pairs
    )
    cols = {"lang": "object", "p25": "int64", "p50": "int64",
            "p90": "int64", "n_docs": "int64"}
    if not len(hist):
        return _empty_typed(cols)
    rows = []
    for lang, g in hist.sort_values(["lang", "v"]).groupby("lang", sort=True):
        v = g["v"].to_numpy()
        cum = g["c"].to_numpy().cumsum()
        n = int(cum[-1])
        row = {"lang": lang, "n_docs": n}
        for num, den, name in LENGTH_QUANTILES:
            idx = (num * n + den - 1) // den - 1  # ceil(q*n) - 1
            row[name] = int(v[np.searchsorted(cum, idx + 1)])
        rows.append(row)
    return (
        pd.DataFrame(rows)[list(cols)].astype(cols)
        .sort_values("lang").reset_index(drop=True)
    )


LANG_QUANTILES_SQL = """
SELECT lang,
       CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS p25,
       CAST(quantile_disc(n_chars, 0.50) AS BIGINT) AS p50,
       CAST(quantile_disc(n_chars, 0.90) AS BIGINT) AS p90,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
"""
