"""Derived-layout staleness: the hash-bucket pages layout and the
persisted link graph are minted FROM corpus contents; when
corpus.write_corpus regenerates a corpus IN PLACE (parameter stamp
change), both must be invalidated — otherwise join-mode fetch and the
download lane silently serve old page bodies (ADVICE r4)."""

import json
import os

import pytest

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
    write_corpus,
)
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.sources.pages import (
    bucketed_pages,
    corpus_stamp,
)


@pytest.mark.usefixtures("ray_session")
def test_bucketed_pages_invalidated_on_corpus_regeneration(tmp_path):
    cdir = str(tmp_path / "corpus")
    write_corpus(cdir, n_pages=40, n_hosts=3, seed=1, mint_text=False,
                 include_huge=False)
    root, _ = bucketed_pages(cdir)
    with open(os.path.join(root, "meta.json")) as f:
        meta1 = json.load(f)
    assert meta1["corpus_stamp"] == corpus_stamp(cdir) != ""

    # regenerate IN PLACE with different params: write_corpus must remove
    # the derived layout eagerly
    write_corpus(cdir, n_pages=60, n_hosts=3, seed=2, mint_text=False,
                 include_huge=False)
    assert not os.path.exists(os.path.join(root, "_SUCCESS"))
    root2, _ = bucketed_pages(cdir)
    with open(os.path.join(root2, "meta.json")) as f:
        meta2 = json.load(f)
    assert meta2["corpus_stamp"] == corpus_stamp(cdir) != meta1["corpus_stamp"]


@pytest.mark.usefixtures("ray_session")
def test_bucketed_pages_self_invalidates_on_stamp_mismatch(tmp_path):
    """Belt check: even if the eager cleanup is bypassed (e.g. an older
    writer regenerated the corpus), a layout whose recorded corpus stamp
    no longer matches is rebuilt, not trusted."""
    cdir = str(tmp_path / "corpus")
    write_corpus(cdir, n_pages=40, n_hosts=3, seed=1, mint_text=False,
                 include_huge=False)
    root, _ = bucketed_pages(cdir)
    meta_path = os.path.join(root, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    # simulate an out-of-band regeneration: corpus stamp changes while the
    # derived layout (with its _SUCCESS) survives
    with open(os.path.join(cdir, "_SUCCESS"), "w") as f:
        f.write(meta["corpus_stamp"] + ":regenerated")
    sentinel = os.path.join(root, "sentinel")
    open(sentinel, "w").close()
    root2, _ = bucketed_pages(cdir)
    assert root2 == root
    assert not os.path.exists(sentinel)  # layout was rebuilt, not reused
    with open(meta_path) as f:
        assert json.load(f)["corpus_stamp"].endswith(":regenerated")


def test_graph_cache_rechecks_corpus_stamp(tmp_path, monkeypatch):
    """The in-memory _GRAPH_CACHE must re-validate the corpus stamp on
    every hit — an in-place regeneration WITHIN one session (write_corpus
    rmtree's the on-disk derived layout but can't see this dict) must not
    be served the old graph."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl_queries,
        graph,
    )

    cdir = str(tmp_path / "corpus")
    os.makedirs(cdir)
    with open(os.path.join(cdir, "_SUCCESS"), "w") as f:
        f.write("v3:params-A")
    monkeypatch.setattr(crawl_queries, "corpus_for", lambda s: cdir)
    old = ("N-old", "E-old", 7)
    graph._GRAPH_CACHE.clear()
    graph._GRAPH_CACHE[cdir] = (corpus_stamp(cdir), old)
    assert graph._edge_tables("any") == old  # stamp matches → cache hit

    # in-place regeneration: same directory, new parameter stamp
    with open(os.path.join(cdir, "_SUCCESS"), "w") as f:
        f.write("v3:params-B")
    fresh = ("N-new", "E-new", 9)
    monkeypatch.setattr(graph, "_load_derived_graph", lambda c: fresh)
    assert graph._edge_tables("any") == fresh  # stale entry NOT served
    assert graph._GRAPH_CACHE[cdir] == (corpus_stamp(cdir), fresh)
    graph._GRAPH_CACHE.clear()


def test_derived_graph_meta_records_corpus_stamp(tmp_path):
    """_load_derived_graph refuses a graph whose recorded stamp mismatches
    the corpus (unit-level: exercise the load gate directly)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        graph,
    )

    cdir = str(tmp_path / "corpus")
    os.makedirs(cdir)
    with open(os.path.join(cdir, "_SUCCESS"), "w") as f:
        f.write("v3:params")
    gdir = graph._derived_graph_dir(cdir)
    os.makedirs(gdir)
    with open(os.path.join(gdir, "meta.json"), "w") as f:
        json.dump({"n_nodes": 5, "corpus_stamp": "v3:OLD"}, f)
    open(os.path.join(gdir, "_SUCCESS"), "w").close()
    assert graph._load_derived_graph(cdir) is None  # stale → re-derive


@pytest.mark.usefixtures("ray_session")
def test_corpus_broadcast_follows_in_place_rewrite(tmp_path):
    """Broadcast mode reuses one corpus broadcast per Ray session and pages
    stamp. A corpus rewritten in place must be broadcast again: the next
    crawl matches the oracle of the NEW pages."""
    from test_crawl_e2e import _seeds, assert_matches_oracle

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.config import (
        CrawlConfig,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
        load_corpus_dict,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.oracle import (
        crawl_sim,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines.crawl import (
        _corpus_broadcast,
        run_crawl,
    )

    cdir = str(tmp_path / "corpus")
    pages = os.path.join(cdir, "pages")
    cfg = CrawlConfig(fetch_mode="broadcast")
    refs = []
    for seed in (1, 1, 2):
        write_corpus(cdir, n_pages=40, n_hosts=3, seed=seed,
                     mint_text=False, include_huge=False)
        o = crawl_sim.crawl(load_corpus_dict(cdir), _seeds(cdir), cfg)
        assert_matches_oracle(run_crawl(cdir, cfg), o)
        refs.append(_corpus_broadcast(pages).hex())
    assert refs[0] == refs[1] != refs[2]


@pytest.mark.usefixtures("ray_session")
def test_corpus_over_cache_budget_is_put_per_call(tmp_path, monkeypatch):
    """A corpus bigger than the cache budget on its own is put on every
    call and never cached; the corpora that fit stay cached."""
    import ray

    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.pipelines import (
        crawl,
    )

    small, big = str(tmp_path / "small"), str(tmp_path / "big")
    write_corpus(small, n_pages=20, n_hosts=2, seed=1, mint_text=False,
                 include_huge=False)
    write_corpus(big, n_pages=200, n_hosts=4, seed=1, mint_text=False,
                 include_huge=False)
    small_pages, big_pages = (os.path.abspath(os.path.join(d, "pages"))
                              for d in (small, big))
    small_ref = crawl._corpus_broadcast(small_pages)
    small_bytes = crawl._CORPUS_REFS[small_pages][3]
    store = min(n["Resources"]["object_store_memory"]
                for n in ray.nodes() if n["Alive"])
    # a budget the small corpus fits twice into, the big one not at all
    monkeypatch.setattr(crawl, "CORPUS_CACHE_SHARE", 2 * small_bytes / store)
    big_refs = [crawl._corpus_broadcast(big_pages) for _ in range(2)]
    assert big_refs[0] != big_refs[1]
    assert big_pages not in crawl._CORPUS_REFS
    assert crawl._corpus_broadcast(small_pages) == small_ref
