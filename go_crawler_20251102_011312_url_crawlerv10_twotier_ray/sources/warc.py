"""WARC source/sink (ISO 28500 / WARC 1.0) — the standard web-archive
interchange format, so a corpus produced by any real crawler can feed
this engine and our fetched pages can feed external WARC tooling.

Reference analogue: the Go crawler persists fetched pages to disk
(crawler_twotier.go fetch path + downloader.go file sink); WARC is the
portable form of that archive.

Scale shape:
- ``write_warc``: one ``.warc`` (or ``.warc.gz``) file per input block,
  written inside the map task (the partitioned/resumable sink layout every
  other sink here uses — never one giant file). Record IDs are md5-derived
  from the URL and the record date is a pinned constant by default, so
  output is byte-deterministic for a given block layout. The driver then
  writes a ``manifest.json`` + ``_SUCCESS`` and removes any ``*.warc``/
  ``*.warc.gz`` not written by THIS run — a re-run with a different block
  layout (different CPU count → different file hashes) can not leave
  stale parts behind, and a killed writer's ``.tmp`` leftovers are never
  ingested.
- ``read_warc``: ``read_binary_files`` over the manifest's file list (or,
  without a manifest, the ``*.warc``/``*.warc.gz`` glob — never ``.tmp``
  files) + a per-file record parser in ``map_batches`` — records never
  touch the driver.

Compression: gzipped WARC uses the Common-Crawl convention of ONE GZIP
MEMBER PER RECORD, concatenated (ISO 28500 annex; this is what makes
``.warc.gz`` range-seekable in real archives). ``read_warc`` detects gzip
by magic bytes per file, so plain and gzipped members can mix in one
directory. Response records carry a minimal stored HTTP/1.1 envelope.
"""

from __future__ import annotations

import glob
import gzip
import hashlib
import io
import json
import os

import pyarrow as pa
import ray.data as rd

WARC_DATE_DEFAULT = "2026-01-01T00:00:00Z"  # pinned: deterministic output
_CRLF = b"\r\n"
MANIFEST = "manifest.json"
_WARC_SCHEMA = pa.schema([("url", pa.string()), ("html", pa.binary())])


def _response_record(url: str, html: bytes, date: str) -> bytes:
    rid = hashlib.md5(url.encode()).hexdigest()
    http = (
        b"HTTP/1.1 200 OK" + _CRLF
        + b"Content-Type: text/html" + _CRLF
        + b"Content-Length: " + str(len(html)).encode() + _CRLF
        + _CRLF + html
    )
    head = (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: response" + _CRLF
        + b"WARC-Record-ID: <urn:md5:" + rid.encode() + b">" + _CRLF
        + b"WARC-Date: " + date.encode() + _CRLF
        + b"WARC-Target-URI: " + url.encode() + _CRLF
        + b"Content-Type: application/http; msgtype=response" + _CRLF
        + b"Content-Length: " + str(len(http)).encode() + _CRLF
        + _CRLF
    )
    return head + http + _CRLF + _CRLF


def _gzip_member(payload: bytes) -> bytes:
    """One deterministic gzip member (mtime pinned to 0) per record."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as f:
        f.write(payload)
    return buf.getvalue()


def write_warc(ds: rd.Dataset, out_dir: str,
               url_col: str = "url", html_col: str = "html",
               date: str = WARC_DATE_DEFAULT,
               compress: bool = False) -> int:
    """Write (url, html) rows as one WARC file per block task —
    ``compress=True`` writes ``.warc.gz`` with one gzip member per record
    (the Common Crawl interchange layout). Returns the number of records
    written. File names are content-hashed (md5 of the file's bytes, so
    two blocks with the same URLs but different bodies get two files);
    the closing manifest removes parts any PRIOR layout left behind, so
    the sink is idempotent under re-runs with different blocking. Two
    byte-identical blocks share one file, and the manifest counts its
    records once."""
    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if compress else ".warc"

    def dump(t: pa.Table) -> pa.Table:
        urls = t[url_col].to_pylist()
        htmls = t[html_col].to_pylist()
        if not urls:
            return pa.table({"file": pa.array([], pa.string()),
                             "records": pa.array([], pa.int64())})
        records = [
            _response_record(u, h if isinstance(h, bytes) else
                             (h or "").encode(), date)
            for u, h in zip(urls, htmls)
        ]
        if compress:
            payload = b"".join(_gzip_member(r) for r in records)
        else:
            payload = b"".join(records)
        tag = hashlib.md5(payload).hexdigest()[:16]
        name = f"part-{tag}{ext}"
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        return pa.table({"file": pa.array([name], pa.string()),
                         "records": pa.array([len(urls)], pa.int64())})

    parts = ds.map_batches(dump, batch_format="pyarrow").take_all()
    # file -> records: byte-identical blocks wrote one file between them
    written = {r["file"]: r["records"] for r in parts}
    n_records = int(sum(written.values()))
    # Commit order matters for kill-safety: the manifest must point at the
    # NEW (already fully-written) parts before anything is deleted, and the
    # manifest swap itself must be atomic — a writer killed at any point
    # leaves either the old complete manifest+parts or the new ones, never
    # a manifest referencing purged files or truncated JSON.
    mpath = os.path.join(out_dir, MANIFEST)
    mtmp = mpath + ".tmp"
    with open(mtmp, "w") as f:
        json.dump({"files": sorted(written), "records": n_records}, f)
    os.replace(mtmp, mpath)
    # a prior run with a different block layout (or compression mode)
    # hashed to different file names — purge anything this run did not
    # write, plus killed-writer .tmp leftovers
    for p in glob.glob(os.path.join(out_dir, "part-*")):
        if os.path.basename(p) not in written:
            os.remove(p)
    open(os.path.join(out_dir, "_SUCCESS"), "w").close()
    return n_records


def _parse_warc_bytes(data: bytes) -> list[tuple[str, bytes]]:
    """(url, body) pairs from one WARC file's bytes: gunzip if the file is
    gzipped (multi-member streams — GzipFile reads concatenated members),
    scan record headers, honor Content-Length for the block, strip the
    stored HTTP envelope of response records. Non-response records are
    skipped."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.GzipFile(fileobj=io.BytesIO(data)).read()
    out: list[tuple[str, bytes]] = []
    pos = 0
    n = len(data)
    while True:
        start = data.find(b"WARC/", pos)
        if start < 0 or start >= n:
            break
        hdr_end = data.find(_CRLF + _CRLF, start)
        if hdr_end < 0:
            break
        headers: dict[str, str] = {}
        for line in data[start:hdr_end].split(_CRLF)[1:]:
            k, _, v = line.decode("utf-8", "replace").partition(":")
            headers[k.strip().lower()] = v.strip()
        try:
            clen = int(headers.get("content-length", "0"))
        except ValueError:
            clen = 0
        block = data[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        if headers.get("warc-type") == "response":
            url = headers.get("warc-target-uri", "")
            body = block
            http_end = block.find(_CRLF + _CRLF)
            if block[:5] == b"HTTP/" and http_end >= 0:
                body = block[http_end + 4:]
            if url:
                out.append((url, body))
    return out


def _warc_paths(path: str) -> list[str] | str:
    """Resolve what to read: a single file passes through; a directory
    reads the manifest's file list when present, else the ``*.warc`` /
    ``*.warc.gz`` glob — never ``.tmp`` leftovers from a killed writer."""
    if not os.path.isdir(path):
        return path
    mpath = os.path.join(path, MANIFEST)
    if os.path.exists(mpath):
        with open(mpath) as f:
            names = json.load(f)["files"]
        return [os.path.join(path, n) for n in names]
    return sorted(
        glob.glob(os.path.join(path, "*.warc"))
        + glob.glob(os.path.join(path, "*.warc.gz"))
    )


def read_warc(path: str) -> rd.Dataset:
    """Dataset of (url, html) from a WARC file or directory of WARC files
    (plain and per-record-gzipped ``.warc.gz`` members, freely mixed).
    One Ray read task per file; parsing happens in the map task. An
    archive with no files (an empty directory, or a manifest listing
    none) reads as a typed empty dataset."""

    def parse(t: pa.Table) -> pa.Table:
        urls: list[str] = []
        bodies: list[bytes] = []
        for data in t["bytes"].to_pylist():
            for u, b in _parse_warc_bytes(data):
                urls.append(u)
                bodies.append(b)
        return pa.table([pa.array(urls, pa.string()),
                         pa.array(bodies, pa.binary())], schema=_WARC_SCHEMA)

    paths = _warc_paths(path)
    if not paths:
        return rd.from_arrow(_WARC_SCHEMA.empty_table())
    return rd.read_binary_files(paths).map_batches(
        parse, batch_format="pyarrow")
