"""Ray-Data-native reimplementation of the two-tier crawler reference.

A from-scratch data-processing engine with the query/transform capabilities of
``danindiana/go_crawler_20251102_011312_url_crawlerv10_twotier`` (a Go/colly
two-tier web crawler: tier 1 fetch/download, tier 2 tokenize/extract),
re-expressed as idiomatic Ray Data pipelines:

- ``functions/`` — pure kernels (URL normalization, fast byte-scan link
  extraction, slow DOM extraction, routing, text analysis, hashing).
- ``stages/``    — Ray Data stage wrappers (map_batches callables, actor pools
  for stateful URL-seen / politeness / download state).
- ``sources/``   — corpus readers (Parquet pages table per BASELINE input_hint).
- ``pipelines/`` — end-to-end pipelines (frontier crawl loop, dedup, ANN,
  text analysis, relational queries).
- ``state/``     — per-epoch checkpoint/resume, the live metrics actor and a
  Bloom filter (the seen shards themselves live in ``stages/seen.py``).
- ``oracle/``    — the *pinned* row-at-a-time reference implementation of the
  Go algorithms, used to mint golden outputs and as the correctness oracle.

Nothing in this package calls ``ray.init``/``ray.shutdown``; the session is
owned by the driver / tests / bench.py.
"""

__version__ = "0.1.0"
