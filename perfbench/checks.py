"""Output checks: the engine's results against the cached oracle answers.

Every check returns a list of error strings (empty when the output is
correct), so a run can report all that is wrong and the tests can corrupt
one row and see the matching check fail.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa


def _as_table(obj) -> pa.Table:
    if isinstance(obj, pa.Table):
        return obj
    return pa.Table.from_pandas(obj, preserve_index=False)


def row_counter(obj, cols: list[str]) -> Counter:
    t = _as_table(obj)
    return Counter(zip(*(t[c].to_pylist() for c in cols))) if cols else Counter()


def same_rows(name: str, got, want, cols: list[str] | None = None) -> list[str]:
    """Multiset equality of the rows of ``got`` and ``want`` on ``cols``
    (default: every column of ``want``; column order is ignored)."""
    got, want = _as_table(got), _as_table(want)
    cols = sorted(cols or want.column_names)
    missing_cols = [c for c in cols if c not in got.column_names]
    if missing_cols:
        return [f"{name}: missing columns {missing_cols}"]
    g, w = row_counter(got, cols), row_counter(want, cols)
    if g == w:
        return []
    lost, extra = w - g, g - w
    ex = next(iter(lost or extra))
    return [f"{name}: {sum(lost.values())} oracle rows missing, "
            f"{sum(extra.values())} unexpected rows (e.g. {ex!r})"]


def check_text(got, want) -> list[str]:
    """Byte-identical extracted text per URL, and the same set of URLs."""
    g = dict(zip(_as_table(got)["url"].to_pylist(),
                 (t.encode() for t in _as_table(got)["text"].to_pylist())))
    w = dict(zip(want["url"].to_pylist(),
                 (t.encode() for t in want["text"].to_pylist())))
    errs = []
    if g.keys() != w.keys():
        errs.append(f"text: {len(w.keys() - g.keys())} URLs missing, "
                    f"{len(g.keys() - w.keys())} unexpected")
    bad = [u for u in g.keys() & w.keys() if g[u] != w[u]]
    if bad:
        errs.append(f"text: {len(bad)} URLs differ (e.g. {min(bad)})")
    return errs


def check_budget(order, budget: int) -> list[str]:
    """No host is scheduled more than ``budget`` times in any epoch."""
    if budget <= 0:
        return []
    counts = row_counter(order, ["epoch", "host"])
    over = sorted(k for k, n in counts.items() if n > budget)
    if over:
        return [f"budget: {len(over)} (epoch, host) pairs over {budget} "
                f"(e.g. {over[0]!r}: {counts[over[0]]})"]
    return []


def check_statuses(fetch_log, n_scheduled: int) -> list[str]:
    """The fetch log's 200, 404 and 304 rows add up to the scheduled
    total, and no other status appears."""
    st = Counter(_as_table(fetch_log)["status"].to_pylist())
    known = st[200] + st[404] + st[304]
    errs = []
    if known != n_scheduled:
        errs.append(f"statuses: 200+404+304 = {known}, "
                    f"scheduled = {n_scheduled}")
    other = set(st) - {200, 404, 304}
    if other:
        errs.append(f"statuses: unexpected {sorted(other)}")
    return errs


def check_crawl(res, oracle) -> list[str]:
    """A driver-frontier crawl (collect=True, record_order=True) against
    the oracle crawl of the same corpus, seeds and budget."""
    errs = []
    if res.n_epochs != oracle.meta["n_epochs"]:
        errs.append(f"epochs: {res.n_epochs} != {oracle.meta['n_epochs']}")
    errs += same_rows("order", res.order, oracle.order,
                      ["epoch", "rank", "url"])
    errs += same_rows("seen", res.seen, oracle.seen)
    errs += check_text(res.extracted, oracle.text)
    errs += same_rows("fetch_log", res.fetch_log, oracle.fetch_log)
    errs += same_rows("downloads", res.downloads, oracle.downloads)
    budget = oracle.meta["budget"]
    if budget > 0:
        errs += check_budget(res.order, budget)
        errs += check_statuses(res.fetch_log, res.order.num_rows)
    return errs


def check_resumed(res, seen_rows: pa.Table | None,
                  extracted_rows: pa.Table | None, oracle) -> list[str]:
    """A checkpointed crawl finished by a ``resume=True`` call: ``res`` is
    the resumed call's result, the rows are the union of both legs' seen
    and extracted sinks (None when a sink holds nothing)."""
    if seen_rows is None or extracted_rows is None:
        return ["sinks: the seen or extracted sink is empty"]
    errs = []
    meta = oracle.meta
    for name, got, want in (
            ("epochs", res.n_epochs, meta["n_epochs"]),
            ("pages_fetched", res.pages_fetched, meta["pages_fetched"]),
            ("scheduled", res.counters.get("scheduled_total"),
             meta["scheduled"])):
        if got != want:
            errs.append(f"{name}: {got} != {want}")
    seen = seen_rows.select(["url_norm", "depth", "url"]).rename_columns(
        ["url_norm", "first_depth", "url"])
    errs += same_rows("seen", seen, oracle.seen)
    ok = extracted_rows.filter(pa.compute.equal(extracted_rows["status"],
                                                200))
    errs += check_text(ok, oracle.text)
    errs += same_rows("downloads", res.downloads, oracle.downloads)
    return errs


def check_dedup(op: str, got, oracle) -> list[str]:
    """One operation of the dedup set against its DuckDB answer."""
    errs = same_rows(op, got, oracle.frames[op])
    got = _as_table(got)
    if op == "dedup_exact" and got.num_rows != oracle.meta["distinct_md5"]:
        errs.append(f"dedup_exact: kept {got.num_rows} documents, "
                    f"count(distinct md5(text)) = "
                    f"{oracle.meta['distinct_md5']}")
    if op == "dedup_minhash_lsh":
        errs += check_jaccard(got, oracle.docs)
    return errs


def check_jaccard(pairs: pa.Table, docs: pa.Table,
                  threshold: float = 0.5) -> list[str]:
    """Every reported pair reaches the Jaccard threshold on exact word
    3-shingle sets, and its reported percentage is that Jaccard."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.oracle import (
        textops,
    )

    text = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    bad = []
    for a, b, pct in zip(pairs["doc_a"].to_pylist(),
                         pairs["doc_b"].to_pylist(),
                         pairs["jaccard_pct"].to_pylist()):
        j = textops._jaccard(textops.ref_word_shingle_set(text[a]),
                             textops.ref_word_shingle_set(text[b]))
        if j < threshold or round(j * 100) != pct:
            bad.append((a, b, pct, round(j, 4)))
    if bad:
        return [f"minhash: {len(bad)} pairs fail the exact Jaccard check "
                f"(e.g. {bad[0]!r})"]
    return []
