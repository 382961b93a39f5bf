"""WARC source/sink: deterministic round-trip against the pages corpus
and kernel interchangeability — extraction over a WARC-read Dataset must
equal extraction over the parquet read (the textio.py test model)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (  # noqa: E402
    write_corpus,
)
from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.sources import (  # noqa: E402
    pages as pages_src,
    warc,
)


@pytest.fixture(scope="module")
def warc_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus") / "warctiny")
    return write_corpus(d, n_pages=40, n_hosts=2, seed=11,
                        include_huge=False)


@pytest.mark.usefixtures("ray_session")
def test_warc_round_trip(warc_corpus, tmp_path):
    # 40 pages read as one block; the sink writes one part per block
    src = pages_src.read_pages(warc_corpus,
                               columns=["url", "html"]).repartition(3)
    out = str(tmp_path / "warc")
    n = warc.write_warc(src, out)
    orig = {r["url"]: r["html"] for r in src.take_all()}
    assert n == len(orig)
    files = [f for f in os.listdir(out) if f.endswith(".warc")]
    assert len(files) > 1  # partitioned sink, not one giant file
    back = {r["url"]: r["html"] for r in warc.read_warc(out).take_all()}
    assert back == orig  # byte-identical bodies per url


@pytest.mark.usefixtures("ray_session")
def test_warc_write_idempotent(warc_corpus, tmp_path):
    src = pages_src.read_pages(warc_corpus, columns=["url", "html"])
    out = str(tmp_path / "warc")
    warc.write_warc(src, out)
    listing = sorted(os.listdir(out))
    warc.write_warc(src, out)  # rerun: same content-hashed names
    assert sorted(os.listdir(out)) == listing


@pytest.mark.usefixtures("ray_session")
def test_warc_feeds_extract_kernel(warc_corpus, tmp_path):
    """The extraction stage must be source-agnostic: WARC-read pages
    produce byte-identical text to parquet-read pages."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.config import (
        CrawlConfig,
    )
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.stages.extract import (
        RouteAndExtract,
    )

    out = str(tmp_path / "warc")
    warc.write_warc(
        pages_src.read_pages(warc_corpus, columns=["url", "html"]), out)

    def run(ds):
        t = (ds.map_batches(RouteAndExtract(CrawlConfig()),
                            batch_format="pyarrow", batch_size=64)
             .to_pandas().sort_values("url").reset_index(drop=True))
        return dict(zip(t["url"], t["text"]))

    via_parquet = run(pages_src.read_pages(warc_corpus,
                                           columns=["url", "html"]))
    via_warc = run(warc.read_warc(out))
    assert via_warc == via_parquet


def test_parse_skips_non_response_records():
    info = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n"
            b"\r\nabcd\r\n\r\n")
    resp = warc._response_record("http://x.test/a", b"<html>hi</html>",
                                 warc.WARC_DATE_DEFAULT)
    got = warc._parse_warc_bytes(info + resp)
    assert got == [("http://x.test/a", b"<html>hi</html>")]


@pytest.mark.usefixtures("ray_session")
def test_warc_gzip_round_trip_and_mixed_dir(warc_corpus, tmp_path):
    """Gzipped WARC (one gzip member per record, the Common Crawl
    interchange layout) round-trips byte-identically, and plain + gz
    members can mix in one directory read."""
    src = pages_src.read_pages(warc_corpus,
                               columns=["url", "html"]).repartition(3)
    orig = {r["url"]: r["html"] for r in src.take_all()}

    gz = str(tmp_path / "warc_gz")
    n = warc.write_warc(src, gz, compress=True)
    assert n == len(orig)
    files = [f for f in os.listdir(gz) if f.endswith(".warc.gz")]
    assert len(files) > 1
    # files are genuinely gzipped on disk
    with open(os.path.join(gz, files[0]), "rb") as f:
        assert f.read(2) == b"\x1f\x8b"
    back = {r["url"]: r["html"] for r in warc.read_warc(gz).take_all()}
    assert back == orig

    # mixed directory: half the urls re-written plain into the same dir
    mixed = str(tmp_path / "warc_mixed")
    os.makedirs(mixed)
    half = sorted(orig)[: len(orig) // 2]
    import ray.data as rd

    warc.write_warc(
        rd.from_items([{"url": u, "html": orig[u]} for u in half])
        .repartition(2), mixed, compress=True)
    os.remove(os.path.join(mixed, warc.MANIFEST))  # force the glob path
    rest = [{"url": u, "html": orig[u]} for u in sorted(orig)[len(orig) // 2:]]
    payload = b"".join(
        warc._response_record(r["url"], r["html"], warc.WARC_DATE_DEFAULT)
        for r in rest)
    with open(os.path.join(mixed, "extra-plain.warc"), "wb") as f:
        f.write(payload)
    back = {r["url"]: r["html"] for r in warc.read_warc(mixed).take_all()}
    assert back == orig


@pytest.mark.usefixtures("ray_session")
def test_warc_stale_parts_and_tmp_leftovers_excluded(warc_corpus, tmp_path):
    """A re-run with a DIFFERENT block layout must not leave the prior
    layout's parts visible (ADVICE r4): write_warc purges parts it did
    not write, and read_warc never ingests .tmp leftovers."""
    src = pages_src.read_pages(warc_corpus, columns=["url", "html"])
    orig = {r["url"]: r["html"] for r in src.take_all()}
    out = str(tmp_path / "warc")
    warc.write_warc(src.repartition(7), out)
    first = {f for f in os.listdir(out) if f.endswith(".warc")}
    # different blocking -> different content-hashed names
    warc.write_warc(src.repartition(3), out)
    second = {f for f in os.listdir(out) if f.endswith(".warc")}
    assert first != second
    # a killed writer's tmp file is ignored by the reader
    with open(os.path.join(out, "part-dead.warc.tmp"), "wb") as f:
        f.write(b"WARC/1.0\r\ngarbage")
    back = {r["url"]: r["html"] for r in warc.read_warc(out).take_all()}
    assert back == orig  # no duplicates/phantoms from the first layout


@pytest.mark.usefixtures("ray_session")
def test_read_warc_empty_archive_is_typed_empty(tmp_path):
    """An archive with no files reads as an empty (url: string,
    html: binary) dataset — both an empty directory and a manifest that
    lists no files (what write_warc leaves for an empty input)."""
    import json

    import pyarrow as pa

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    listed_none = tmp_path / "listed_none"
    listed_none.mkdir()
    with open(listed_none / warc.MANIFEST, "w") as f:
        json.dump({"files": [], "records": 0}, f)
    for d in (empty_dir, listed_none):
        ds = warc.read_warc(str(d))
        assert ds.count() == 0
        assert ds.schema().names == ["url", "html"]
        assert list(ds.schema().types) == [pa.string(), pa.binary()]


@pytest.mark.usefixtures("ray_session")
def test_warc_same_urls_different_bodies_get_own_parts(tmp_path):
    """Two blocks holding the same URLs with different bodies write two
    part files (the name hashes the bytes, not only the URLs), and every
    record reads back."""
    import json

    import pyarrow as pa
    import ray.data as rd

    urls = ["http://a.test/1", "http://a.test/2"]
    blocks = [
        pa.table({"url": urls, "html": [b"<p>one</p>", b"<p>two</p>"]}),
        pa.table({"url": urls, "html": [b"<p>uno</p>", b"<p>dos</p>"]}),
    ]
    out = str(tmp_path / "warc")
    assert warc.write_warc(rd.from_arrow(blocks), out) == 4
    with open(os.path.join(out, warc.MANIFEST)) as f:
        manifest = json.load(f)
    assert len(manifest["files"]) == 2 and manifest["records"] == 4
    back = sorted((r["url"], r["html"])
                  for r in warc.read_warc(out).take_all())
    want = sorted((u, h) for t in blocks
                  for u, h in zip(t["url"].to_pylist(),
                                  t["html"].to_pylist()))
    assert back == want
