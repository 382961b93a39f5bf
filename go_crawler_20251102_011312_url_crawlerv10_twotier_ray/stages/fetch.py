"""Tier-1 fetch + tier-2 extract as one streaming stage.

The reference fetches live URLs with colly workers (reference
crawler/crawler_twotier.go:52-80) and immediately tokenizes in OnResponse
(:98-175). In this engine the "fetch" is a deterministic lookup of the
page's ``fetch_key`` in the Parquet pages corpus (BASELINE input_hint) and
the extract is the same RouteAndExtract kernel — fused into ONE map_batches
stage so page bodies never make a second trip through the object store.

Corpus access modes (cfg.fetch_mode; ``http`` fetches live URLs instead):

- ``broadcast``: the (url, html) table is ``ray.put`` once per Ray session
  and corpus stamp on the driver; each worker process builds its url→row
  index once per corpus (``cached_corpus_index``, not per batch).
  Right for corpora that fit a worker's heap — e.g. test fixtures, or a
  per-host shard of a larger corpus.
- ``join``: keys-first locality join — the scheduled frontier (keys +
  metadata, never bodies) groups by the corpus' persistent hash bucket and
  each task attaches html from its own bucket's parquet
  (``LocalBucketJoin``), then runs ``ExtractJoined`` — the 100 TB path; no
  single process ever holds the corpus, and buckets no frontier key hashes
  into are never read.

Raw-URL revisit filtering (colly's internal storage, T2 —
crawler_twotier.go:200) arrives as a precomputed ``revisit`` column: a
url_norm is accepted into the frontier exactly once globally and url_norm is
a pure function of the raw URL, so two scheduled rows can only share a raw
URL when one of them is a SEED — which makes the revisit decision a
driver-side check against the (tiny) seed set, with no distributed state and
no blocking actor round-trips in the fetch hot path (see
pipelines/crawl.py::_mark_revisits). Statuses: 200 fetched, 404 not in
corpus, 304 raw-revisit.

Candidate-link OFFERING is fused into this stage too: each task explodes the
links it just extracted (CandidateLinks partial dedup) and streams
(norm, min-key) offers to the seen shards — a fire-and-forget push that
replaces a whole per-epoch candidates pipeline.
"""

from __future__ import annotations

from collections import OrderedDict

import pyarrow as pa
import ray

from ..config import CrawlConfig
from ..functions.urlnorm import fetch_key
from .candidates import CandidateLinks
from .extract import DOC_STRUCT, RouteAndExtract
from .seen import offer_min_batch, ray_session_id

PASSTHROUGH = ("url", "depth", "priority", "host", "url_norm")

FETCHED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("host", pa.string()),
        ("url_norm", pa.string()),
        ("status", pa.int32()),
        ("bytes", pa.int64()),
        ("ok", pa.bool_()),
        ("path", pa.string()),
        ("links", pa.list_(pa.string())),
        ("link_count", pa.int32()),
        ("title", pa.string()),
        ("description", pa.string()),
        ("has_nav", pa.bool_()),
        ("link_density", pa.float64()),
        ("documents", pa.list_(DOC_STRUCT)),
        ("doc_count", pa.int32()),
        ("text", pa.string()),
        ("parse_error", pa.bool_()),
        # per-batch offer-entry counts (first row of the batch carries
        # them): the driver sums these to fence the fire-and-forget offer
        # streams (norm candidates and document candidates respectively)
        ("offers_sent", pa.int64()),
        ("doc_offers_sent", pa.int64()),
    ]
)

_EXT_COLS = (
    "path", "links", "link_count", "title", "description", "has_nav",
    "link_density", "documents", "doc_count", "text", "parse_error",
)


def build_fetched_table(
    batch: pa.Table, statuses: list[int], bodies: list[bytes | None],
    extractor: RouteAndExtract,
) -> pa.Table:
    """Merge fetch statuses with extraction results (null extraction columns
    for non-200 rows) into the stable FETCHED_SCHEMA."""
    n = len(statuses)
    fetch_idx = [i for i in range(n) if statuses[i] == 200]
    urls = batch["url"].to_pylist()
    ext = None
    if fetch_idx:
        sub = pa.table(
            {
                "url": pa.array([urls[i] for i in fetch_idx]),
                "html": pa.array([bodies[i] for i in fetch_idx], pa.binary()),
            }
        )
        ext = extractor(sub)

    cols: dict[str, pa.Array] = {}
    for name in PASSTHROUGH:
        cols[name] = batch[name].cast(FETCHED_SCHEMA.field(name).type)
    cols["status"] = pa.array(statuses, pa.int32())
    cols["bytes"] = pa.array(
        [len(bodies[i]) if statuses[i] == 200 else 0 for i in range(n)], pa.int64()
    )
    cols["ok"] = pa.array([s == 200 for s in statuses], pa.bool_())

    # scatter extraction rows back to full batch length with a null-masked
    # take (C kernel) instead of per-row as_py loops
    back = {fi: j for j, fi in enumerate(fetch_idx)}
    take_idx = pa.array(
        [back.get(i) for i in range(n)], pa.int64()
    )
    import pyarrow.compute as pc

    for name in _EXT_COLS:
        typ = FETCHED_SCHEMA.field(name).type
        if ext is None:
            cols[name] = pa.nulls(n, typ)
        else:
            cols[name] = pc.take(
                ext[name].combine_chunks() if isinstance(ext[name], pa.ChunkedArray)
                else ext[name],
                take_idx,
            )
    cols["offers_sent"] = pa.array([0] * n, pa.int64())
    cols["doc_offers_sent"] = pa.array([0] * n, pa.int64())
    return pa.table({f.name: cols[f.name] for f in FETCHED_SCHEMA})


def _set_counter(out: pa.Table, name: str, n_sent: int) -> pa.Table:
    """Stamp a per-batch counter into the named column's first row."""
    if out.num_rows == 0 or n_sent == 0:
        return out
    col = pa.array([n_sent] + [0] * (out.num_rows - 1), pa.int64())
    return out.set_column(out.schema.get_field_index(name), name, col)


# Per-process cache for broadcast objects: a stateless map_batches task
# re-runs in a reusable worker process, so ray.get of the broadcast ref
# happens once per process, not once per task/batch. This keeps the fetch
# stage as cheap tasks (no per-epoch actor-pool startup) while still
# amortizing the corpus-index load. Both caches are bounded: an entry is a
# zero-copy hold on its object-store pages, so an unbounded cache pins
# every earlier call's broadcasts in every worker (and in the driver).
# ``_CORPUS_INDEX`` keeps ONE corpus (a new corpus ref drops the old table
# and index); ``_WORKER_CACHE`` keeps the ``BROADCAST_CACHE_MAX`` most
# recently used other broadcasts (no call uses more than 3 at once).
# Both are emptied when the Ray session changes: a fresh local cluster in
# the same process reuses the job id, so a ref's hex alone does not tell
# an old session's entry from a new one (Ray 2.49 keeps counting put
# indices across sessions, which it does not promise), and the old
# session's buffers are released.
BROADCAST_CACHE_MAX = 8
_WORKER_CACHE: OrderedDict[str, object] = OrderedDict()
_CORPUS_INDEX: dict[str, tuple] = {}
_CACHE_SESSION: list = [None]


def _cache_for_session() -> None:
    session = ray_session_id()
    if _CACHE_SESSION[0] != session:
        _WORKER_CACHE.clear()
        _CORPUS_INDEX.clear()
        _CACHE_SESSION[0] = session


def cached_broadcast(ref):
    _cache_for_session()
    key = ref.hex()
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = ray.get(ref)
        while len(_WORKER_CACHE) > BROADCAST_CACHE_MAX:
            _WORKER_CACHE.popitem(last=False)
    _WORKER_CACHE.move_to_end(key)
    return _WORKER_CACHE[key]


def cached_corpus_index(ref):
    """Broadcast corpus = a pyarrow Table (url, html): ray.get is ZERO-COPY
    for Arrow buffers (plasma shared memory), so worker processes share the
    page bytes; only the url→row index dict (plus an int64 per-row body
    LENGTH array — computed per chunk, so the >2 GiB binary column is never
    concatenated; ``ChunkedArray.take`` on it overflows int32 offsets when
    the taken bodies exceed 2 GiB) lives in each process heap."""
    import numpy as np
    import pyarrow.compute as pc

    _cache_for_session()
    key = ref.hex()
    if key not in _CORPUS_INDEX:
        _CORPUS_INDEX.clear()  # release the old corpus before mapping this
        tbl = ray.get(ref)
        idx = {u: i for i, u in enumerate(tbl["url"].to_pylist())}
        lens = np.concatenate(
            [pc.binary_length(c).to_numpy() for c in tbl["html"].chunks]
        ).astype(np.int64) if tbl.num_rows else np.zeros(0, np.int64)
        _CORPUS_INDEX[key] = (idx, tbl["html"], lens)
    return _CORPUS_INDEX[key]


# Worker-local offer cache, keyed by an epoch token: a norm this worker has
# already offered with key k needs re-offering only if a LATER candidate has
# a strictly smaller key (the shard already holds ≤ k) — exact min semantics
# with a fraction of the actor-RPC volume (hot hub links repeat massively).
_OFFER_CACHE: dict[str, dict[str, str]] = {}


def offer_candidates(out_tbl: pa.Table, cand_kernel: CandidateLinks,
                     seen_handles: list, epoch_token: str = "") -> int:
    """Explode + partial-dedup the links of a fetched batch and push
    (norm, min (depth,url) key) offers to the seen shards (fire-and-forget;
    see offer_min_batch). Returns the number of offer entries sent — the
    caller stamps it into the batch output so the driver can fence."""
    cand = cand_kernel(out_tbl)
    if not cand.num_rows:
        return 0
    if len(_OFFER_CACHE) > 2:  # keep only the current + previous epoch
        for k in list(_OFFER_CACHE)[:-2]:
            del _OFFER_CACHE[k]
    cache = _OFFER_CACHE.setdefault(epoch_token, {})
    norms_out: list[str] = []
    keys_out: list[str] = []
    for norm, d, u in zip(cand["url_norm"].to_pylist(),
                          cand["depth"].to_pylist(),
                          cand["url"].to_pylist()):
        key = "%09d\x1f%s" % (d, u)
        prev = cache.get(norm)
        if prev is not None and prev <= key:
            continue
        cache[norm] = key
        norms_out.append(norm)
        keys_out.append(key)
    if norms_out:
        return offer_min_batch(seen_handles, "norm", norms_out, keys_out,
                               epoch_token)
    return 0


# Worker-local document-offer cache (same idea as _OFFER_CACHE): a doc this
# worker already offered with key k needs re-offering only for a strictly
# smaller key — hot documents are linked from many pages.
_DOC_OFFER_CACHE: dict[str, dict[str, str]] = {}


def doc_offer_key(p_priority: int, p_host: str, p_norm: str, p_url: str,
                  depth: int) -> str:
    """Encode the download-dedup winner comparator — (p_priority DESC,
    p_host, p_norm, p_url ASC), the exact order oracle/crawl_sim.py and the
    old driver-side pandas dedup apply — as ONE string whose lexicographic
    MIN is the winner (priority is inverted into a fixed-width prefix;
    \\x1f separators sort below every URL/host character because control
    chars are rejected upstream). The depth payload rides in a fixed-width
    tail: rows that tie on the full comparator are the same parent row, so
    the tail never changes the winner — it just lets the drain recover the
    winning parent's depth without a second lookup."""
    return "%09d\x1f%s\x1f%s\x1f%s\x1f%09d" % (
        999_999_999 - p_priority, p_host, p_norm, p_url, depth
    )


def doc_key_depth(key: str) -> int:
    return int(key[key.rfind("\x1f") + 1:])


def offer_documents(out_tbl: pa.Table, seen_handles: list,
                    epoch_token: str = "") -> int:
    """Explode the document candidates of a fetched batch (partial-deduped
    per batch by explode_documents) and push (doc_url, comparator key)
    offers to the seen shards' ``doc`` kind — the same fire-and-forget
    min-offer stream the norm candidates use, replacing the driver-side
    collect→sort→drop_duplicates→check_and_add funnel (T3). min is
    order-independent ⇒ deterministic winner under any batch race."""
    from .candidates import explode_documents

    docs = explode_documents(out_tbl)
    if not docs.num_rows:
        return 0
    if len(_DOC_OFFER_CACHE) > 2:  # keep only the current + previous epoch
        for k in list(_DOC_OFFER_CACHE)[:-2]:
            del _DOC_OFFER_CACHE[k]
    cache = _DOC_OFFER_CACHE.setdefault(epoch_token, {})
    urls_out: list[str] = []
    keys_out: list[str] = []
    for u, d, pp, ph, pn, pu in zip(
        docs["url"].to_pylist(), docs["depth"].to_pylist(),
        docs["p_priority"].to_pylist(), docs["p_host"].to_pylist(),
        docs["p_norm"].to_pylist(), docs["p_url"].to_pylist(),
    ):
        key = doc_offer_key(pp, ph, pn, pu, d)
        prev = cache.get(u)
        if prev is not None and prev <= key:
            continue
        cache[u] = key
        urls_out.append(u)
        keys_out.append(key)
    if urls_out:
        return offer_min_batch(seen_handles, "doc", urls_out, keys_out,
                               epoch_token)
    return 0


class FetchAndExtract:
    """Broadcast-mode fused fetch+extract+offer (stateless tasks +
    per-process broadcast cache; the seen-shard HANDLES travel in the
    closure, the corpus index only as an ObjectRef)."""

    def __init__(self, cfg: CrawlConfig, corpus_ref, seen_handles: list,
                 robots_disallow: dict | None = None, epoch_token: str = ""):
        self.cfg = cfg
        self.corpus_ref = corpus_ref
        self.seen_handles = seen_handles
        self.extractor = RouteAndExtract(cfg)
        self.cand_kernel = CandidateLinks(cfg, robots_disallow)
        self.epoch_token = epoch_token

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        if not urls:
            return FETCHED_SCHEMA.empty_table()
        revisit = batch["revisit"].to_pylist()
        cap = self.cfg.max_body_bytes
        idx, html_col, _ = cached_corpus_index(self.corpus_ref)
        statuses: list[int] = []
        bodies: list[bytes | None] = []
        for u, rv in zip(urls, revisit):
            if rv:
                statuses.append(304)
                bodies.append(None)
                continue
            i = idx.get(fetch_key(u))
            if i is None:
                statuses.append(404)
                bodies.append(None)
            else:
                statuses.append(200)
                bodies.append(html_col[i].as_py()[:cap])
        out = build_fetched_table(batch, statuses, bodies, self.extractor)
        n_sent = offer_candidates(out, self.cand_kernel, self.seen_handles,
                                  self.epoch_token)
        n_doc = offer_documents(out, self.seen_handles, self.epoch_token)
        out = _set_counter(out, "offers_sent", n_sent)
        return _set_counter(out, "doc_offers_sent", n_doc)


def add_fetch_key(batch: pa.Table) -> pa.Table:
    """Join-mode stage 1: attach the corpus join key."""
    fks = [fetch_key(u) or "" for u in batch["url"].to_pylist()]
    return batch.append_column("fetch_key", pa.array(fks, pa.string()))


def default_http_client(cfg: CrawlConfig):
    """Real-network HTTP client (reference: crawler_twotier.go:52-80 colly
    collector; downloader.go:184-222 http.Get): ``fetch(url) -> (status,
    body | None, headers | None)``. Built once per fetch ACTOR so the
    opener and headers are reused across batches like colly's pinned
    clients. Non-2xx and transport failures return no body;
    connection-level errors map to status 0 (they have no HTTP status).
    Headers ship as a tiny lowercase-keyed dict holding just what the
    engine consumes (Content-Disposition for the reference's filename
    branch, utils.go:35-44). Pluggable factories may return plain
    ``(status, body)`` 2-tuples — call sites normalize via
    ``fetch_result``."""
    import urllib.error
    import urllib.request

    opener = urllib.request.build_opener()
    opener.addheaders = [("User-Agent", cfg.http_user_agent)]

    def fetch(url: str):
        try:
            with opener.open(url, timeout=cfg.http_timeout_s) as r:
                # colly caps via a limited reader: oversized bodies are
                # TRUNCATED at the cap, not dropped (crawler_twotier.go:57)
                hdrs = {}
                cd = r.headers.get("Content-Disposition")
                if cd:
                    hdrs["content-disposition"] = cd
                return (r.status or 200), r.read(cfg.max_body_bytes), hdrs
        except urllib.error.HTTPError as e:
            return e.code, None, None
        except Exception:
            return 0, None, None

    return fetch


def fetch_result(res) -> tuple[int, bytes | None, dict | None]:
    """Normalize a pluggable client's return value: legacy ``(status,
    body)`` 2-tuples gain a None headers slot, and header KEYS are
    lowercased — downstream consumers (DownloadHttp's Content-Disposition
    branch) look up lowercase keys only, and a user-supplied 3-tuple
    factory naturally passes ``dict(r.headers)`` with canonical casing."""
    if len(res) == 2:
        return res[0], res[1], None
    status, body, headers = res
    if headers:
        headers = {k.lower(): v for k, v in headers.items()}
    return status, body, headers


class HttpFetch:
    """fetch_mode="http": fused fetch+extract+offer over live HTTP — the
    real-network twin of FetchAndExtract (which reads the parquet corpus).
    STATEFUL actor stage: the HTTP client is built once per actor in
    __init__ (cfg.http_client_factory pluggable; tests route through a
    loopback corpus server), batches of frontier URLs stream through
    __call__. Network I/O is latency-bound, so the stage runs as an
    autoscaling actor pool rather than stateless tasks."""

    def __init__(self, cfg: CrawlConfig, seen_handles: list,
                 robots_disallow: dict | None = None, epoch_token: str = ""):
        self.cfg = cfg
        factory = cfg.http_client_factory or default_http_client
        self.fetch = factory(cfg)
        self.seen_handles = seen_handles
        self.extractor = RouteAndExtract(cfg)
        self.cand_kernel = CandidateLinks(cfg, robots_disallow)
        self.epoch_token = epoch_token

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        if not urls:
            return FETCHED_SCHEMA.empty_table()
        revisit = batch["revisit"].to_pylist()
        statuses: list[int] = []
        bodies: list[bytes | None] = []
        for u, rv in zip(urls, revisit):
            if rv:
                statuses.append(304)
                bodies.append(None)
                continue
            st, body, _hdrs = fetch_result(self.fetch(u))
            if st == 200 and body is not None:
                statuses.append(200)
                bodies.append(body)
            else:
                statuses.append(st)  # 0 = transport failure (no HTTP status)
                bodies.append(None)
        out = build_fetched_table(batch, statuses, bodies, self.extractor)
        n_sent = offer_candidates(out, self.cand_kernel, self.seen_handles,
                                  self.epoch_token)
        n_doc = offer_documents(out, self.seen_handles, self.epoch_token)
        out = _set_counter(out, "offers_sent", n_sent)
        return _set_counter(out, "doc_offers_sent", n_doc)


class LocalBucketJoin:
    """Keys-first locality join (fetch_mode="join"):
    called once per BUCKET group after the frontier (keys + metadata only —
    never bodies) shuffles into the corpus' persistent hash-bucket layout
    (sources/pages.bucketed_pages). The task reads its own bucket's parquet
    file, attaches html by dict lookup (left-outer: misses → null → 404 in
    ExtractJoined), and runs the shared extract+offer kernel in place.

    Page bodies never ride an all-to-all exchange — at 100 TB the exchange
    moves only the per-epoch frontier keys, and buckets no frontier row
    hashes into are never read at all."""

    def __init__(self, bucket_root: str, cfg: CrawlConfig,
                 seen_handles: list, robots_disallow: dict | None = None,
                 epoch_token: str = ""):
        self.root = bucket_root
        self.inner = ExtractJoined(cfg, seen_handles, robots_disallow,
                                   epoch_token)

    def __call__(self, g: pa.Table) -> pa.Table:
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        if g.num_rows == 0:
            return FETCHED_SCHEMA.empty_table()
        b = g["bucket"][0].as_py()
        g = g.drop_columns(["bucket"])
        d = os.path.join(self.root, f"bucket={b}")
        if not os.path.isdir(d):
            g = g.append_column("html", pa.nulls(g.num_rows, pa.binary()))
            return self.inner(g)
        # vectorized left-outer lookup: index_in gives each frontier key its
        # bucket row (null = miss), one null-propagating take attaches html
        # (null html → 404 in ExtractJoined) — no per-row Python on the
        # steady-state hot path
        pages = pq.read_table(d, columns=["url", "html"])
        idx = pc.index_in(g["fetch_key"], value_set=pages["url"])
        g = g.append_column("html", pages["html"].combine_chunks().take(idx))
        return self.inner(g)


class ExtractJoined:
    """Extract stage after the join-mode left-outer bucket lookup: turn the
    (nullable) html column into statuses, extract, and offer candidates."""

    def __init__(self, cfg: CrawlConfig, seen_handles: list,
                 robots_disallow: dict | None = None, epoch_token: str = ""):
        self.cfg = cfg
        self.extractor = RouteAndExtract(cfg)
        self.seen_handles = seen_handles
        self.cand_kernel = CandidateLinks(cfg, robots_disallow)
        self.epoch_token = epoch_token

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return FETCHED_SCHEMA.empty_table()
        revisit = batch["revisit"].to_pylist()
        htmls = batch["html"].to_pylist()
        cap = self.cfg.max_body_bytes
        statuses, bodies = [], []
        for i in range(n):
            if revisit[i]:
                statuses.append(304)
                bodies.append(None)
            elif htmls[i] is None:
                statuses.append(404)
                bodies.append(None)
            else:
                statuses.append(200)
                bodies.append(htmls[i][:cap])
        out = build_fetched_table(batch, statuses, bodies, self.extractor)
        n_sent = offer_candidates(out, self.cand_kernel, self.seen_handles,
                                  self.epoch_token)
        n_doc = offer_documents(out, self.seen_handles, self.epoch_token)
        out = _set_counter(out, "offers_sent", n_sent)
        return _set_counter(out, "doc_offers_sent", n_doc)
