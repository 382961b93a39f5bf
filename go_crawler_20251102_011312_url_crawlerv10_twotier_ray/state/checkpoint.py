"""Per-epoch checkpoint / resume.

The reference has NO checkpointing — a killed run loses the seen set and
queues (its only persistence is append-only txt logs,
crawler/crawler_twotier.go:237-244, downloader.go:303-310). The north rule
requires per-partition lineage: both frontier forms of the crawl write one
layout per epoch (pipelines/crawl._ckpt_dataset_epoch)

    <ckpt>/epoch=K/frontier_next/      next frontier, parquet directory
    <ckpt>/epoch=K/downloads.parquet   the epoch's download attempts
    <ckpt>/epoch=K/meta.json           retry lane, counters, seed raws sent
    <ckpt>/epoch=K/order.parquet       rank trace (when recorded)
    <ckpt>/epoch=K/extracted/          fetched rows (when collected)
    <ckpt>/epoch=K/_SUCCESS            written LAST — the epoch is atomic

Resume (pipelines/crawl._resume_dataset_state) = find the last epoch with
``_SUCCESS``, reload its ``frontier_next`` and ``meta.json``, and rebuild
the seen shards: norm keys from the priority-0 (accepted) rows of every
epoch's ``frontier_next``, doc keys from ``downloads`` and the retry lane.
Epochs without the marker are re-run from scratch, and a re-run epoch
replaces its directory (exactly-once layout).
"""

from __future__ import annotations

import os


def epoch_dir(ckpt_dir: str, epoch: int) -> str:
    return os.path.join(ckpt_dir, f"epoch={epoch}")


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
