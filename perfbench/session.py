"""Ray session, memory sampling and deadlines for one benchmark process.

All load comes from this one process: it starts a local Ray cluster with a
fixed logical CPU count, drives the package's public API, and ends the
cluster (and waits for every process of it) before the result is printed.
"""

from __future__ import annotations

import logging
import os
import resource
import threading

import ray  # first: it puts its bundled psutil on sys.path
import psutil

# Fixed on every run, whatever the host has. The crawl loop hangs at 1
# (the eight 0.05-CPU seen-shard actors leave less than the whole CPU a
# fetch task asks for) and the MinHash signature pool hangs at 2
# (auto_pool never asks for fewer than two whole-CPU actors plus the
# read tasks); 4 ran every workload in probes.
NUM_CPUS = 4
OBJECT_STORE_BYTES = 600 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes and Ray nests
# "session_<date>_<pid>/sockets/plasma_store" (~62 bytes) under its temp dir
_MAX_TEMP_DIR_LEN = 44


class RaySession:
    """Context manager owning a local Ray cluster and its processes."""

    def __init__(self, root: str, work_dir: str):
        self.root = root
        self.work_dir = work_dir
        self._procs: list[psutil.Process] = []

    def __enter__(self) -> "RaySession":
        # Ray workers import the package by name: give them the checkout
        # root whatever the caller's working directory is
        paths = [self.root] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        temp_dir = os.path.join(self.work_dir, "ray")
        kwargs = {}
        if len(temp_dir) <= _MAX_TEMP_DIR_LEN:
            os.makedirs(temp_dir, exist_ok=True)
            kwargs["_temp_dir"] = temp_dir
        # address="local": always a fresh cluster, never one found running
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 log_to_driver=False, logging_level=logging.ERROR,
                 object_store_memory=OBJECT_STORE_BYTES, **kwargs)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)
        return self

    def snapshot_processes(self) -> None:
        """Remember every descendant process (workers are re-parented
        when the raylet exits, so they must be listed before shutdown)."""
        me = psutil.Process()
        known = {p.pid for p in self._procs}
        self._procs += [p for p in me.children(recursive=True)
                        if p.pid not in known]

    def __exit__(self, *exc) -> None:
        self.snapshot_processes()
        try:
            call_with_deadline(ray.shutdown, 60)
        except DeadlineExceeded:
            pass  # the processes are killed below
        _, alive = psutil.wait_procs(self._procs, timeout=15)
        for p in alive:
            try:
                p.kill()
            except psutil.NoSuchProcess:
                pass
        psutil.wait_procs(alive, timeout=10)


class RssSampler:
    """Peak RSS of this process (kernel high-water mark) and peak summed
    RSS of its descendants (the Ray processes), sampled in a thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.cluster_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = psutil.Process()
        while not self._stop.is_set():
            total = 0
            for p in me.children(recursive=True):
                try:
                    total += p.memory_info().rss
                except psutil.NoSuchProcess:
                    pass
            self.cluster_peak = max(self.cluster_peak, total)
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @staticmethod
    def main_peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cluster_peak_mb(self) -> float:
        return self.cluster_peak / (1024.0 * 1024.0)


class DeadlineExceeded(Exception):
    pass


def call_with_deadline(fn, seconds: float):
    """Run ``fn()`` in a daemon thread and return its result, or raise
    DeadlineExceeded after ``seconds`` (a hung call is abandoned: the run
    counts it as failed and ends the Ray session under it)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller below
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, seconds))
    if t.is_alive():
        raise DeadlineExceeded(f"call still running after {seconds:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]
