"""Block-schema stabilization for Dataset pipelines feeding joins.

Two related Ray Data failure modes on small/skewed inputs (measured, see
tests/test_text_edge_cases.py):

1. ``read_parquet`` splits a tiny file into more blocks than rows.
2. ``map_batches`` SKIPS the UDF on zero-row input blocks and emits
   zero-ROW zero-COLUMN (schema-less) blocks instead — so a map-based
   "repair the schema" stage can never run on exactly the blocks that
   need it.

A zero-column block anywhere upstream of a ``Dataset.join`` poisons it:
the join partition that receives only schema-less chunks raises
``ArrowInvalid: No match ... for key field reference`` inside Acero.
A materialized Dataset whose every block is empty has lost its schema
the same way, so a join fed one crashes as well.

Fixes here:
- ``read_parquet_bounded`` (block count from ``cpu_blocks``): never more
  blocks than rows, save the one empty block of an empty file.
- ``heal_blocks``: materialize + repartition — repartition CONCATENATES
  blocks, and a concat of typed + schema-less empties keeps the typed
  schema, so the output has only non-empty typed blocks. Apply on any
  aggregate → join edge (aggregates emit zero-column blocks for empty
  hash partitions).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset


READ_MIN_BLOCK_ROWS = 256  # swept: BASELINE.md "Read blocks"


def cpu_blocks(n_rows: int, min_rows: int) -> int:
    """A block per CPU, fewer while one would hold under ``min_rows`` rows."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(1, min(cpus, -(-n_rows // min_rows)))


def read_parquet_bounded(path: str, columns=None) -> rd.Dataset:
    """``read_parquet`` (file or directory) in ``cpu_blocks(rows,
    READ_MIN_BLOCK_ROWS)`` blocks, rows from parquet metadata. A block
    per CPU keeps a one-file read from fusing serially with its maps; the
    floor spares a small table a task per CPU in every later map and
    shuffle (12 blocks of 25 docs cost the dedup/text set 2× one block)."""
    import pyarrow.dataset as pads

    blocks = cpu_blocks(pads.dataset(path).count_rows(), READ_MIN_BLOCK_ROWS)
    return rd.read_parquet(path, columns=columns, override_num_blocks=blocks)


def n_parts(n_rows: int, floor: int = 4) -> int:
    """Co-partition count from row volume — ~250k rows/partition, capped
    at 1024 (each all-to-all partition costs ~0.1 s fixed on this box;
    CLAUDE.md 'sized by ROW COUNT'). The ONE definition of the sizing
    rule — dedup/text co-partition stages all import it."""
    return max(floor, min(1024, n_rows // 250_000 + 1))


def stamp_str_part(col: str, n_part: int):
    """map_batches fn adding ``part = hash(string col) % n_part`` — the
    co-partition key for per-key merges over STRING keys (terms, n-grams);
    the int-key twins are dedup._stamp_band_part / _stamp_pair_part."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    def stamp(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            t[col].to_pandas(), index=False).to_numpy()
        return t.append_column(
            "part", pa.array((h % np.uint64(n_part)).astype(np.int64)))

    return stamp


def auto_pool(lo: int = 2, frac: float = 0.5,
              cap: int = 32) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized off the session CPU count.
    Model-bearing stages must never pin a fixed tiny pool — the reference
    scales its bottleneck tier 100→800 workers on queue pressure
    (monitor.go:57-107); the Ray analogue is ``concurrency=(lo, hi)``
    so the pool grows with the cluster instead of starving at 2 actors.
    Both bounds stay at most ``CPUs - 1`` (floor 1): the whole-CPU actors
    never take every CPU, so the read tasks feeding them can still run."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    top = max(1, cpus - 1)
    hi = max(lo + 2, min(cap, int(cpus * frac)))
    return (min(lo, top), min(hi, top))


def heal_blocks(ds: rd.Dataset, target_blocks: int = 200) -> rd.Dataset | None:
    """Make every block non-empty and typed so the Dataset can safely
    feed a join: materialize, then repartition to ≤ row-count blocks ONLY
    if an empty block actually exists (per-block row counts are metadata
    on a materialized Dataset — the common healthy case pays nothing
    beyond the materialize). Returns None for an all-empty Dataset — its
    schema is unrecoverable; callers early-return a typed empty frame."""
    m = ds.materialize()
    try:
        rows = m._block_num_rows()
        n = sum(rows)
        has_empty = any(r == 0 for r in rows)
    except Exception:  # private API fallback: assume the worst
        n = m.count()
        has_empty = True
    if n == 0:
        return None
    if not has_empty:
        return m
    return m.repartition(max(1, min(target_blocks, n)))


def collect(ds: rd.Dataset) -> pa.Table | None:
    """All rows of ``ds`` on the driver, running its plan exactly once.
    Not ``to_arrow_refs()``: in Ray 2.49 it runs an unmaterialized plan
    for the blocks and then again for ``schema(fetch_if_missing=True)``.
    A materialized dataset's block refs are read as they are."""
    def to_table(t):
        if isinstance(t, pa.Table):
            return t
        if isinstance(t, pd.DataFrame):  # pandas blocks (e.g. map_groups)
            return pa.Table.from_pandas(t, preserve_index=False)
        return pa.Table.from_batches([t])

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    refs = [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    tables = [to_table(t) for t in ray.get(refs)]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="permissive")
