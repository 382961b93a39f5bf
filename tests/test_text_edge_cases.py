"""Degenerate-corpus edge cases for the round-3 text/dedup operators:
empty documents table, empty-text docs, single-doc corpus. These probe
the known Ray pitfall where an all-empty materialized Dataset loses its
schema (zero-column blocks crash Acero joins) and the div-by-zero
corners of the integer-scaled kernels."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SCHEMA_COLS = ("doc_id", "text", "lang", "source", "n_chars")


def _write_docs(d, texts, langs=None):
    langs = langs or ["en"] * len(texts)
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(["src"] * len(texts), pa.string()),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    d = _write_docs(tmp_path_factory.mktemp("empty"), [])
    pq.write_table(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32())),
                  "label": pa.array([], pa.int32())}),
        os.path.join(d, "embeddings.parquet"))
    return d


@pytest.fixture(scope="module")
def degenerate_dir(tmp_path_factory):
    # empty text, whitespace-only, one token, one repeated token
    return _write_docs(
        tmp_path_factory.mktemp("degen"),
        ["", "   ", "lonely", "dup dup dup dup dup"],
    )


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "op", ["curation", "clusters", "tfidf", "sample", "quantiles",
           "winnow_pairs", "top_ngrams", "keep_best", "exact", "minhash",
           "simhash", "embedding_lsh"])
def test_ops_on_empty_documents(empty_dir, op):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        dedup, text,
    )

    fn = {
        "curation": text.corpus_curation,
        "clusters": dedup.dedup_clusters,
        "tfidf": text.tfidf_top_terms,
        "sample": text.corpus_sample_stratified,
        "quantiles": text.lang_length_quantiles,
        "winnow_pairs": dedup.dedup_winnow_pairs,
        "top_ngrams": text.top_ngrams,
        "keep_best": dedup.dedup_keep_best,
        "exact": dedup.dedup_exact,
        "minhash": dedup.dedup_minhash_lsh,
        "simhash": dedup.dedup_simhash,
        "embedding_lsh": lambda d: dedup.dedup_embedding_cosine(
            d, method="lsh"),
    }[op]
    out = fn(empty_dir)
    assert isinstance(out, pd.DataFrame)
    assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
def test_write_curated_on_empty_documents(empty_dir, tmp_path):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.text import (
        write_curated,
    )

    res = write_curated(empty_dir, str(tmp_path / "out"))
    assert res["kept"] == 0 and res["rejected"] == 0


@pytest.mark.usefixtures("ray_session")
def test_curation_degenerate_texts(degenerate_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.text import (
        corpus_curation,
    )

    out = corpus_curation(degenerate_dir)
    assert len(out) == 4
    reasons = dict(zip(out["doc_id"], out["reason"]))
    # zero-token and tiny docs all fail the too_short gate first
    assert all(r == "too_short" for r in reasons.values())


@pytest.mark.usefixtures("ray_session")
def test_tfidf_degenerate_texts(degenerate_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.text import (
        tfidf_top_terms,
    )

    out = tfidf_top_terms(degenerate_dir)
    # docs 0,1 have no tokens -> no rows; doc 2 one term; doc 3 one term
    assert set(out["doc_id"]) == {2, 3}
    d3 = out[out["doc_id"] == 3]
    assert list(d3["term"]) == ["dup"] and int(d3["tf"].iloc[0]) == 5


@pytest.mark.usefixtures("ray_session")
def test_clusters_degenerate_texts(degenerate_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_clusters,
    )

    out = dedup_clusters(degenerate_dir)
    assert len(out) == 4
    # all four texts are distinct -> four singleton clusters
    assert out["keep"].all()
    assert (out["cluster_size"] == 1).all()


def test_quantile_index_rule_matches_duckdb():
    """The engine picks sorted index ceil(q*n)-1 (integer math) — verify
    the rule against DuckDB's quantile_disc over many list shapes,
    including ties and single elements."""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.text import (
        LENGTH_QUANTILES,
    )

    con = duckdb.connect()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=40))
    def check(vals):
        import numpy as np

        v = np.sort(np.asarray(vals, dtype=np.int64))
        n = len(v)
        got = {}
        for num, den, name in LENGTH_QUANTILES:
            idx = (num * n + den - 1) // den - 1
            got[name] = int(v[idx])
        want = con.execute(
            "SELECT quantile_disc(x, 0.25), quantile_disc(x, 0.5), "
            f"quantile_disc(x, 0.9) FROM (SELECT unnest({vals}) x)"
        ).fetchone()
        assert (got["p25"], got["p50"], got["p90"]) == want

    check()


def test_curation_signals_kernel_parity():
    """The Arrow-native _curation_signals kernel (count_substring_regex +
    utf8_split_whitespace + dictionary_encode) must equal the straight
    pandas formulation on whitespace/empty/repeat corners — and be
    chunk-layout invariant."""
    import numpy as np

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.text import (
        _curation_signals,
    )

    texts = ["hello world hello", "  a  b\tc\nc c  ", "", "one",
             "x " * 500 + "y", "tab\t\ttab tab", " lead", "trail ",
             "a" * 100, "der die das und der der", "él aquí está",
             "\n\n\n", "w1 w2 w3 w1 w1 w1"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = _curation_signals(t).to_pandas()

    s = pd.Series(texts, dtype=object)
    n_tokens = s.str.count(r"\S+").astype("int64")
    n_nonspace = s.str.count(r"\S").astype("int64")
    mean_c = ((n_nonspace * 100) // n_tokens.clip(lower=1)).astype("int64")
    ex = s.str.split().explode().dropna()
    top = (
        pd.DataFrame({"i": ex.index, "w": ex.values})
        .groupby(["i", "w"], sort=False).size()
        .groupby(level=0).max()
        .reindex(pd.RangeIndex(len(s)), fill_value=0)
    )
    top_bp = (top.to_numpy().astype(np.int64) * 10000
              // np.maximum(n_tokens.to_numpy(), 1))

    assert (got["n_tokens"].to_numpy() == n_tokens.to_numpy()).all()
    assert (got["mean_tok_len_c"].to_numpy() == mean_c.to_numpy()).all()
    assert (got["top_word_frac_bp"].to_numpy() == top_bp).all()

    chunked = pa.Table.from_batches(t.to_batches(max_chunksize=3))
    assert _curation_signals(chunked).to_pandas().equals(got)
