"""Process-stable key hash and a numpy-backed Bloom filter.

``stable_hash64`` routes keys to the URL-seen shards (stages/seen.py). The
Bloom filter does not front those shards: each shard keeps an exact set,
so a front would never decide an answer, and measured ~200× dearer than
the exact probe. It is a standalone structure that the benchmark's layer
probe times.

Hashing: two independent 64-bit halves of blake2b(key), combined as
h1 + i*h2 (Kirsch–Mitzenmacher double hashing) — deterministic across
processes and runs (unlike Python's salted ``hash``).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def stable_hash64(key: str) -> int:
    """Process-stable 64-bit hash (used for shard routing too)."""
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")


class BloomFilter:
    def __init__(self, capacity: int = 1_000_000, fp_rate: float = 0.01):
        self.capacity = capacity
        self.fp_rate = fp_rate
        n_bits = max(64, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.n_bits = n_bits
        self.n_hashes = max(1, round(n_bits / capacity * math.log(2)))
        self.bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
        self.n_added = 0

    def _h(self, key: str) -> tuple[int, int]:
        d = hashlib.blake2b(key.encode(), digest_size=16).digest()
        return int.from_bytes(d[:8], "little"), int.from_bytes(d[8:], "little") | 1

    def _positions(self, key: str) -> np.ndarray:
        # uint64 wraparound arithmetic (matches the vectorized add_many)
        h1, h2 = self._h(key)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        pos = (np.uint64(h1) + i * np.uint64(h2)) % np.uint64(self.n_bits)
        return pos.astype(np.int64)

    def add(self, key: str) -> None:
        pos = self._positions(key)
        np.bitwise_or.at(self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
        self.n_added += 1

    def add_many(self, keys) -> None:
        """Vectorized bulk insert: one digest per key, a single broadcasted
        position matrix, one scatter — the per-epoch drain path."""
        if not keys:
            return
        hs = np.array([self._h(k) for k in keys], dtype=np.uint64)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        pos = ((hs[:, :1] + i[None, :] * hs[:, 1:2]) % np.uint64(self.n_bits))
        pos = pos.reshape(-1).astype(np.int64)
        np.bitwise_or.at(self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
        self.n_added += len(keys)

    def might_contain(self, key: str) -> bool:
        pos = self._positions(key)
        return bool(np.all(self.bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)))

    # --- checkpoint digest ---
    def to_bytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def from_bytes(
        cls, data: bytes, capacity: int, fp_rate: float, n_added: int
    ) -> "BloomFilter":
        bf = cls(capacity, fp_rate)
        bf.bits = np.frombuffer(data, dtype=np.uint8).copy()
        bf.n_added = n_added
        return bf
