"""Semantic tests for the dedup / ANN / text operators on PLANTED inputs
(the testdata documents are all-distinct, so recall must be proven on a
corpus with known duplicates)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """A documents+embeddings mini-warehouse with known exact dups,
    near-dups, and embedding near-dups."""
    d = tmp_path_factory.mktemp("planted")
    rng = np.random.RandomState(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa"]
    texts = []
    for i in range(40):
        texts.append(" ".join(rng.choice(words, 60)))
    # exact duplicates: 40,41 copy 0; 42 copies 1
    texts += [texts[0], texts[0], texts[1]]
    # near duplicates: 43 = doc 2 with one word changed; 44 = doc 3 with two
    t = texts[2].split(); t[5] = "omega"; texts.append(" ".join(t))
    t = texts[3].split(); t[0] = "omega"; t[30] = "psi"; texts.append(" ".join(t))
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["src"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(docs, os.path.join(d, "documents.parquet"))

    base = rng.standard_normal((30, 16)).astype(np.float32)
    # 30,31 are tiny perturbations of 0 and 5 → cosine ≈ 1
    emb = np.vstack([base, base[0] + 0.001 * rng.standard_normal(16).astype(np.float32),
                     base[5] + 0.001 * rng.standard_normal(16).astype(np.float32)])
    et = pa.table(
        {
            "vec_id": pa.array(range(len(emb)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in emb],
                                  pa.list_(pa.float32())),
            "label": pa.array([0] * len(emb), pa.int32()),
        }
    )
    pq.write_table(et, os.path.join(d, "embeddings.parquet"))
    return str(d)


@pytest.mark.usefixtures("ray_session")
def test_dedup_exact_finds_planted(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_exact,
    )

    out = dedup_exact(planted_dir)
    assert len(out) == 45 - 3  # 3 exact copies collapse
    n = dict(zip(out["doc_id"], out["n_dupes"]))
    assert n[0] == 3 and n[1] == 2 and n[2] == 1


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_finds_near_dups(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_minhash_lsh,
    )

    out = dedup_minhash_lsh(planted_dir)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 40) in pairs and (0, 41) in pairs and (1, 42) in pairs  # exact
    assert (2, 43) in pairs and (3, 44) in pairs  # near-dups
    assert all(j >= 50 for j in out["jaccard_pct"])


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_distributed_mode_matches_driver_mode(planted_dir):
    """The 100 TB tail (groupby pair-gen + join verify) must return the
    same verified pairs as the small-input driver tail."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_minhash_lsh,
    )

    drv = dedup_minhash_lsh(planted_dir, mode="driver")
    dst = dedup_minhash_lsh(planted_dir, mode="distributed")
    pd.testing.assert_frame_equal(drv, dst)
    assert (0, 40) in set(zip(dst["doc_a"], dst["doc_b"]))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("op", ["minhash", "simhash", "embedding_lsh"])
def test_minhash_lsh_join_verify_matches_broadcast_verify(
        planted_dir, monkeypatch, op):
    """The shared distributed LSH tail's verify side is size-adaptive:
    broadcast payload gather up to VERIFY_BROADCAST_BYTES, two hash joins
    above. Force the JOIN twin (bound -> -1) and assert it returns exactly
    the broadcast path's pairs, for each op on the tail (the embedding
    case at threshold 0.3, so many collisions reach the verify)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        dedup,
    )

    fn = {
        "minhash": lambda d: dedup.dedup_minhash_lsh(d, mode="distributed"),
        "simhash": lambda d: dedup.dedup_simhash(d, mode="distributed"),
        "embedding_lsh": lambda d: dedup.dedup_embedding_cosine(
            d, threshold=0.3, method="lsh", mode="distributed"),
    }[op]
    bcast = fn(planted_dir)
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_BYTES", -1)
    joined = fn(planted_dir)
    pd.testing.assert_frame_equal(bcast, joined)
    assert len(bcast) >= 1


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_distributed_recall_at_sf01(tmp_path):
    """Planted-near-dup recall for the DISTRIBUTED tail at sf0.1 scale
    (5k real docs + 20 planted one-word-changed near-dups): the constants
    (shingle size, bands) were tuned small — this gate catches recall
    collapse as the corpus grows, in the exact mode the 100 TB path uses."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_minhash_lsh,
    )

    base = pq.read_table(
        "/root/testdata/sf0.1/documents.parquet"
    ).to_pandas()
    rng = np.random.RandomState(7)
    # plant near-dups of 20 reasonably long docs: change ONE word each
    longs = base[base["n_chars"] >= 400].head(20)
    planted, expected = [], set()
    for k, (_, row) in enumerate(longs.iterrows()):
        w = row["text"].split()
        w[rng.randint(1, len(w) - 1)] = "xqzv"
        new_id = 1_000_000 + k
        planted.append(
            {"doc_id": new_id, "text": " ".join(w), "lang": row["lang"],
             "source": row["source"], "n_chars": len(" ".join(w))}
        )
        expected.add((int(row["doc_id"]), new_id))
    big = pd.concat([base, pd.DataFrame(planted)], ignore_index=True)
    pq.write_table(pa.Table.from_pandas(big, preserve_index=False),
                   os.path.join(tmp_path, "documents.parquet"))

    out = dedup_minhash_lsh(str(tmp_path), mode="distributed")
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    found = sum(1 for p in expected if p in pairs)
    assert found / len(expected) >= 0.9, (found, len(expected))


@pytest.mark.usefixtures("ray_session")
def test_simhash_finds_exact_dups(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_simhash,
    )

    out = dedup_simhash(planted_dir)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 40) in pairs and (0, 41) in pairs and (40, 41) in pairs


def test_simhash_matrix_matches_per_doc_reference():
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.functions.hashing import (
        hamming64,
        hamming64_array,
        simhash64,
        simhash_matrix,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "one",
        "the quick brown fox jumps over the lazy cat",
        "completely different words here entirely now",
    ]
    got = simhash_matrix(texts)
    want = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    assert (got == want).all()
    d = hamming64_array(got, np.roll(got, 1))
    want_d = [hamming64(int(a), int(b)) for a, b in zip(got, np.roll(got, 1))]
    assert d.tolist() == want_d


@pytest.mark.usefixtures("ray_session")
def test_simhash_distributed_mode_matches_driver_mode(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_simhash,
    )

    drv = dedup_simhash(planted_dir, mode="driver")
    dst = dedup_simhash(planted_dir, mode="distributed")
    pd.testing.assert_frame_equal(drv, dst)
    assert (0, 40) in set(zip(dst["doc_a"], dst["doc_b"]))


@pytest.mark.usefixtures("ray_session")
def test_winnow_pairs_finds_planted(planted_dir):
    """Winnowing-fingerprint pairs are deterministic — exact copies share
    every fingerprint and one-word near-dups share most of them."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_winnow_pairs,
    )

    out = dedup_winnow_pairs(planted_dir)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 40) in pairs and (0, 41) in pairs and (40, 41) in pairs
    assert (1, 42) in pairs
    assert (2, 43) in pairs and (3, 44) in pairs  # near-dups survive


@pytest.mark.usefixtures("ray_session")
def test_winnow_pairs_distributed_mode_matches_driver_mode(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_winnow_pairs,
    )

    drv = dedup_winnow_pairs(planted_dir, mode="driver")
    dst = dedup_winnow_pairs(planted_dir, mode="distributed")
    pd.testing.assert_frame_equal(drv, dst)
    assert (0, 40) in set(zip(dst["doc_a"], dst["doc_b"]))


@pytest.fixture(scope="module")
def clusters_dir(tmp_path_factory):
    """Planted fixture for connected-components: a LARGE vocabulary so
    winnow fingerprints are essentially unique per base doc (planted_dir's
    10-word vocab makes every doc pair share n-grams, which is correct
    winnow behavior but collapses everything into one component)."""
    import os

    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("clusters")
    rng = np.random.RandomState(7)
    words = [f"tok{i:04d}" for i in range(2000)]
    texts = [" ".join(rng.choice(words, 60)) for _ in range(40)]
    # exact duplicates: 40,41 copy 0; 42 copies 1
    texts += [texts[0], texts[0], texts[1]]
    # near duplicates: 43 = doc 2 one word changed; 44 = doc 3 two changed
    t = texts[2].split(); t[5] = "omega"; texts.append(" ".join(t))
    t = texts[3].split(); t[0] = "omega"; t[30] = "psi"; texts.append(" ".join(t))
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["src"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(docs, os.path.join(d, "documents.parquet"))
    return str(d)


@pytest.mark.usefixtures("ray_session")
def test_dedup_clusters_planted(clusters_dir):
    """Exact copies + near-dups must land in ONE component with the min
    doc_id as cluster id; untouched docs stay singletons."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_clusters,
    )

    # min_shared=20: planted copies share ~50 fps, unrelated docs on this
    # synthetic token alphabet collide on ≤5 char-n-gram fingerprints
    out = dedup_clusters(clusters_dir, min_shared=20)
    assert len(out) == 45
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    # docs 0,40,41 exact copies; 2,43 and 3,44 near-dups; 1,42 exact copies
    assert cl[40] == cl[41] == cl[0] == 0
    assert cl[42] == cl[1] == 1
    assert cl[43] == cl[2] == 2 and cl[44] == cl[3] == 3
    sz = dict(zip(out["doc_id"], out["cluster_size"]))
    assert sz[0] == 3 and sz[1] == 2 and sz[2] == 2
    keep = dict(zip(out["doc_id"], out["keep"]))
    assert keep[0] and not keep[40] and not keep[41]
    # survivors = one per cluster
    assert out["keep"].sum() == out["cluster_id"].nunique()


@pytest.mark.usefixtures("ray_session")
def test_dedup_clusters_distributed_mode_matches_driver_mode(clusters_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_clusters,
    )

    drv = dedup_clusters(clusters_dir, min_shared=20, mode="driver")
    dst = dedup_clusters(clusters_dir, min_shared=20, mode="distributed")
    pd.testing.assert_frame_equal(drv, dst)


@pytest.mark.usefixtures("ray_session")
def test_dedup_keep_best_prefers_longest(tmp_path):
    """Winner per cluster is the LONGEST doc (max n_tokens), not the min
    doc_id the plain cluster labels keep — ties fall back to min doc_id."""
    import os

    import pyarrow.parquet as pq

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_keep_best,
    )

    rng = np.random.RandomState(11)
    words = [f"tok{i:04d}" for i in range(2000)]
    base = " ".join(rng.choice(words, 60))
    texts = [
        base,                                          # 0: 60 tokens
        base + " " + " ".join(rng.choice(words, 10)),  # 1: superset, longer
        " ".join(rng.choice(words, 60)),               # 2: unrelated
        base,                                          # 3: exact copy of 0
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["src"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(docs, os.path.join(tmp_path, "documents.parquet"))

    out = dedup_keep_best(str(tmp_path), min_shared=20)
    assert list(out["doc_id"]) == [0, 1, 2, 3]
    keep = dict(zip(out["doc_id"], out["keep"]))
    # 0, 1, 3 form one cluster (superset near-dup + exact copy); the
    # 70-token superset wins over the min-id 60-token original
    assert keep[1] and not keep[0] and not keep[3]
    assert keep[2]
    ntok = dict(zip(out["doc_id"], out["n_tokens"]))
    assert ntok[1] == 70 and ntok[0] == 60
    # exactly one keeper per cluster
    assert out["keep"].sum() == out["cluster_id"].nunique()


@pytest.mark.usefixtures("ray_session")
def test_embedding_cosine_finds_planted(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_embedding_cosine,
    )

    out = dedup_embedding_cosine(planted_dir)
    pairs = set(zip(out["vec_a"], out["vec_b"]))
    assert (0, 30) in pairs and (5, 31) in pairs


@pytest.mark.usefixtures("ray_session")
def test_ann_bruteforce_nearest_is_perturbed_twin(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.ann import (
        ann_bruteforce_topk,
    )

    out = ann_bruteforce_topk(planted_dir)
    top1 = out[(out["query_id"] == 0) & (out["rank"] == 1)]["vec_id"].iloc[0]
    assert top1 == 30  # the planted twin
    top1_q5 = out[(out["query_id"] == 5) & (out["rank"] == 1)]["vec_id"].iloc[0]
    assert top1_q5 == 31


@pytest.mark.usefixtures("ray_session")
def test_embedding_cosine_lsh_matches_exact_on_planted(planted_dir):
    """At the 0.95 near-dup threshold the LSH-bucketed path must find the
    same pairs as the exact blocked matmul (planted twins collide in every
    band)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_embedding_cosine,
    )

    exact = dedup_embedding_cosine(planted_dir, threshold=0.95, method="exact")
    lsh = dedup_embedding_cosine(planted_dir, threshold=0.95, method="lsh")
    pd.testing.assert_frame_equal(exact, lsh)


@pytest.mark.usefixtures("ray_session")
def test_embedding_cosine_lsh_distributed_matches_driver(planted_dir):
    """The distributed LSH tail (hot-bucket shuffle → map_groups pair-gen →
    join verify) must emit exactly the driver tail's pairs — candidate
    generation is shared, only the plumbing differs. Checked at the 0.95
    dedup threshold (planted twins) AND at a low threshold that makes many
    bucket collisions survive verification."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        dedup_embedding_cosine,
    )

    for thr in (0.95, 0.3):
        drv = dedup_embedding_cosine(planted_dir, threshold=thr,
                                     method="lsh", mode="driver")
        dst = dedup_embedding_cosine(planted_dir, threshold=thr,
                                     method="lsh", mode="distributed")
        pd.testing.assert_frame_equal(drv, dst)
    assert len(drv) >= 1  # the low-threshold leg must be non-vacuous


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "sf", ["/root/testdata/sf0.01", "/root/testdata/sf0.1"]
)
def test_ann_lsh_recall(sf):
    """recall@5 vs brute force ≥ 0.6 on the (non-planted, near-isotropic —
    LSH-worst-case) embeddings at BOTH test scales — the constants were
    tuned at sf0.01; the sf0.1 leg catches recall collapse as the corpus
    grows (measured 0.76 at sf0.01, 0.86 at sf0.1)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.ann import (
        ann_bruteforce_topk,
        ann_lsh_topk,
    )

    bf = ann_bruteforce_topk(sf)
    lsh = ann_lsh_topk(sf)
    bfs = {q: set(g["vec_id"]) for q, g in bf.groupby("query_id")}
    ls = {q: set(g["vec_id"]) for q, g in lsh.groupby("query_id")}
    recalls = [len(bfs[q] & ls.get(q, set())) / len(bfs[q]) for q in bfs]
    assert sum(recalls) / len(recalls) >= 0.6


@pytest.mark.usefixtures("ray_session")
def test_ann_lsh_recall_vs_bruteforce(planted_dir):
    """LSH variant: rank-1 recall vs exact brute force must be decent on
    the planted twins (same-bucket by construction for near-identical
    vectors)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.ann import (
        ann_bruteforce_topk,
        ann_lsh_topk,
    )

    bf = ann_bruteforce_topk(planted_dir)
    lsh = ann_lsh_topk(planted_dir)
    bf1 = dict(zip(bf[bf["rank"] == 1]["query_id"], bf[bf["rank"] == 1]["vec_id"]))
    lsh1 = dict(zip(lsh[lsh["rank"] == 1]["query_id"], lsh[lsh["rank"] == 1]["vec_id"]))
    # twins collide in every hyperplane bucket: must be found
    assert lsh1.get(0) == bf1[0] == 30
    assert lsh1.get(5) == bf1[5] == 31


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "sf", ["/root/testdata/sf0.01", "/root/testdata/sf0.1"]
)
def test_ann_ivf_recall(sf):
    """IVF recall@5 vs brute force ≥ 0.6 on the (near-isotropic —
    IVF-worst-case) embeddings at BOTH test scales. Deterministic: seeded
    k-means on a fixed sample (measured 0.72 at sf0.01 and sf0.1 with
    nlist=16/nprobe=6)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.ann import (
        ann_bruteforce_topk,
        ann_ivf_topk,
    )

    bf = ann_bruteforce_topk(sf)
    ivf = ann_ivf_topk(sf)
    bfs = {q: set(g["vec_id"]) for q, g in bf.groupby("query_id")}
    iv = {q: set(g["vec_id"]) for q, g in ivf.groupby("query_id")}
    recalls = [len(bfs[q] & iv.get(q, set())) / len(bfs[q]) for q in bfs]
    assert sum(recalls) / len(recalls) >= 0.6


@pytest.mark.usefixtures("ray_session")
def test_ann_ivf_finds_planted_twins(planted_dir):
    """A near-identical twin lands in the same IVF cell as its query, so
    rank-1 must match brute force on the planted pairs."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.ann import (
        ann_bruteforce_topk,
        ann_ivf_topk,
    )

    bf = ann_bruteforce_topk(planted_dir)
    ivf = ann_ivf_topk(planted_dir)
    bf1 = dict(zip(bf[bf["rank"] == 1]["query_id"], bf[bf["rank"] == 1]["vec_id"]))
    iv1 = dict(zip(ivf[ivf["rank"] == 1]["query_id"], ivf[ivf["rank"] == 1]["vec_id"]))
    assert iv1.get(0) == bf1[0] == 30
    assert iv1.get(5) == bf1[5] == 31


# ---------------------------------------------------------------------------
# knn_classify — exact quantized-integer kNN (bit-stable vs DuckDB)
# ---------------------------------------------------------------------------


def _knn_oracle(sf_dir):
    import duckdb

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import ann

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{sf_dir}/embeddings.parquet')"
    )
    return (
        con.execute(ann.KNN_CLASSIFY_SQL)
        .df()
        .astype({"pred_label": "int64", "votes": "int64"})
    )


@pytest.mark.usefixtures("ray_session")
def test_knn_classify_matches_duckdb_on_planted(planted_dir):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import ann

    got = ann.knn_classify(planted_dir)
    want = _knn_oracle(planted_dir)
    pd.testing.assert_frame_equal(
        got, want[["vec_id", "pred_label", "votes"]], check_dtype=True
    )


@pytest.mark.usefixtures("ray_session")
def test_knn_classify_chunked_broadcast_equality(planted_dir, monkeypatch):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import ann

    base = ann.knn_classify(planted_dir)
    monkeypatch.setattr(ann, "KNN_CHUNK_ROWS", 7)  # force many query chunks
    chunked = ann.knn_classify(planted_dir)
    pd.testing.assert_frame_equal(base, chunked, check_dtype=True)


@pytest.mark.usefixtures("ray_session")
def test_knn_classify_tiny_and_degenerate(tmp_path):
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import ann

    def write(d, vecs, labels):
        os.makedirs(d, exist_ok=True)
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(labels, pa.int32()),
            }
        )
        pq.write_table(t, os.path.join(d, "embeddings.parquet"))

    # single vector: no neighbors (self excluded) → typed empty result
    solo = str(tmp_path / "solo")
    write(solo, [[1.0, 0.0]], [7])
    out = ann.knn_classify(solo)
    assert len(out) == 0
    assert list(out.columns) == ["vec_id", "pred_label", "votes"]
    assert str(out["pred_label"].dtype) == "int64"

    # 3 vectors, fewer neighbors than K: votes over all-but-self, and the
    # (votes DESC, label ASC) tie-break picks the smaller label
    tri = str(tmp_path / "tri")
    write(tri, [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], [3, 5, 9])
    got = ann.knn_classify(tri)
    want = _knn_oracle(tri)
    pd.testing.assert_frame_equal(
        got, want[["vec_id", "pred_label", "votes"]], check_dtype=True
    )
    # each vector has exactly 2 neighbors, one vote each → label tie →
    # smallest label wins
    assert got.loc[got.vec_id == 0, "pred_label"].item() == 5  # {5,9} → 5
    assert got.loc[got.vec_id == 1, "pred_label"].item() == 3  # {3,9} → 3
    assert got.loc[got.vec_id == 2, "pred_label"].item() == 3  # {3,5} → 3


def test_pairs_in_partition_matches_naive_loop():
    """The vectorized within-bucket pair kernel equals the per-bucket
    reference loop on a randomized multi-band frame (incl. dup (band, id)
    rows, singleton bands, and an over-cap band)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        _pairs_in_partition,
    )

    rng = np.random.RandomState(7)
    band = rng.randint(0, 40, size=600)
    doc = rng.randint(0, 120, size=600)
    big = np.full(30, 99)  # one band pushed over a cap of 25
    df = pd.DataFrame({
        "band": np.concatenate([band, big]),
        "doc_id": np.concatenate([doc, np.arange(30) + 1000]),
    })
    got = (
        _pairs_in_partition(df, "band", "doc_id", "doc_a", "doc_b", 25)
        .drop_duplicates()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pairs = set()
    for _, g in df.groupby("band"):
        ids = sorted(set(g["doc_id"]))
        if len(ids) < 2 or len(ids) > 25:
            continue
        pairs.update((a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    want = (
        pd.DataFrame(sorted(pairs), columns=["doc_a", "doc_b"])
        .astype({"doc_a": "int64", "doc_b": "int64"})
    )
    pd.testing.assert_frame_equal(got, want)


def test_lsh_packers_take_a_batch_without_candidates():
    """The LSH payload packers run on source batches filtered down to the
    candidate ids, so a batch can arrive with no rows: each still returns
    a typed (id, pay) table."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        _pack_shingles,
        _pack_vecs,
    )

    docs = pa.table({"doc_id": pa.array([], pa.int64()),
                     "text": pa.array([], pa.string())})
    vecs = pa.table({"vec_id": pa.array([], pa.int64()),
                     "embedding": pa.array([], pa.list_(pa.float32()))})
    for out in (_pack_shingles(docs), _pack_vecs(vecs)):
        assert out.num_rows == 0
        assert out.schema.field("id").type == pa.int64()
        assert out.schema.field("pay").type == pa.binary()


def test_sorted_payload_gather_matches_dict_lookup():
    """The LSH tail finds ids by binary search in ids sorted once
    (_sorted_payloads / _find_sorted / _attach_payloads): unsorted,
    repeated and absent query ids agree with a plain dict lookup."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.dedup import (
        _attach_payloads,
        _find_sorted,
        _sorted_payloads,
    )

    rng = np.random.RandomState(5)
    ids = rng.permutation(1000).astype(np.int64) * 3
    pays = _sorted_payloads(pa.table({"id": ids, "pay": ids * 10 + 1}))
    x = rng.randint(-5, 3005, 700).astype(np.int64)
    _, found = _find_sorted(x, pays[0])
    assert found.tolist() == [0 <= v < 3000 and v % 3 == 0 for v in x]
    a, b = ids[rng.randint(0, 1000, 300)], ids[rng.randint(0, 1000, 300)]
    t = _attach_payloads(pa.table({"a": a, "b": b}), pays, "a", "b")
    lookup = dict(zip(ids.tolist(), (ids * 10 + 1).tolist()))
    assert t["pay_a"].to_pylist() == [lookup[v] for v in a.tolist()]
    assert t["pay_b"].to_pylist() == [lookup[v] for v in b.tolist()]
