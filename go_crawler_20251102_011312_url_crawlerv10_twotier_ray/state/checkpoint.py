"""Per-epoch checkpoint / resume.

The reference has NO checkpointing — a killed run loses the seen set and
queues (its only persistence is append-only txt logs,
crawler/crawler_twotier.go:237-244, downloader.go:303-310). The north rule
requires per-partition lineage: every epoch writes

    <ckpt>/epoch=K/{frontier_next,extracted,order,downloads,seen_delta}.parquet
    <ckpt>/epoch=K/meta.json          (counters)
    <ckpt>/epoch=K/_SUCCESS           (written LAST — epoch is atomic)

Resume = find the last epoch with ``_SUCCESS``, reload ``frontier_next``,
rebuild the seen shards from the union of per-epoch deltas (norm keys from
``seen_delta``, raw keys from ``extracted.status != 304``, doc keys from
``downloads``), and re-enter the driver loop at K+1. Epochs without the
marker are re-run from scratch — outputs are per-epoch directories, so a
rerun overwrites only the incomplete epoch (exactly-once layout).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq


def epoch_dir(ckpt_dir: str, epoch: int) -> str:
    return os.path.join(ckpt_dir, f"epoch={epoch}")


def write_epoch(
    ckpt_dir: str,
    epoch: int,
    tables: dict[str, pa.Table],
    meta: dict,
) -> None:
    d = epoch_dir(ckpt_dir, epoch)
    os.makedirs(d, exist_ok=True)
    marker = os.path.join(d, "_SUCCESS")
    if os.path.exists(marker):
        os.remove(marker)
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(d, f"{name}.parquet"))
    with open(os.path.join(d, "meta.json"), "w") as f:
        json.dump(meta, f)
    with open(marker, "w") as f:
        f.write("ok")


def complete_epochs(ckpt_dir: str) -> list[int]:
    if not os.path.isdir(ckpt_dir):
        return []
    out = []
    for name in os.listdir(ckpt_dir):
        if name.startswith("epoch="):
            k = int(name.split("=", 1)[1])
            if os.path.exists(os.path.join(ckpt_dir, name, "_SUCCESS")):
                out.append(k)
    return sorted(out)


def read_epoch_table(ckpt_dir: str, epoch: int, name: str) -> pa.Table:
    return pq.read_table(os.path.join(epoch_dir(ckpt_dir, epoch), f"{name}.parquet"))
