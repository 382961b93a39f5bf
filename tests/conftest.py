import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per repo instructions)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def smoke_corpus_dir(tmp_path_factory):
    """Small deterministic corpus with every quirk case (FIXTURES.md smoke tier)."""
    from go_crawler_20251102_011312_url_crawlerv10_twotier_ray.corpus import (
        write_corpus,
    )

    d = str(tmp_path_factory.mktemp("corpus") / "smoke")
    return write_corpus(d, n_pages=120, n_hosts=6, seed=42)


@pytest.fixture
def run_in_child():
    """Call ``run(module, fn, *args)``: runs ``module.fn(*args)`` (a module
    of tests/) in a child Python process that starts its own Ray session,
    under a hard timeout that kills the child's whole process group. Fails
    with the child's output unless its last stdout line is ``ok``."""
    import signal
    import subprocess

    tests_dir = os.path.dirname(os.path.abspath(__file__))
    code = ("import importlib, sys; sys.path[:0] = sys.argv[1:3]; "
            "getattr(importlib.import_module(sys.argv[3]), sys.argv[4])"
            "(*sys.argv[5:])")

    def run(module: str, fn: str, *args: str, timeout: float = 240) -> str:
        p = subprocess.Popen(
            [sys.executable, "-c", code, os.path.dirname(tests_dir),
             tests_dir, module, fn, *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            out, err = p.communicate()
            pytest.fail(f"{module}.{fn} still running after {timeout} s:\n"
                        f"{out[-2000:]}{err[-4000:]}")
        lines = out.strip().splitlines()
        assert p.returncode == 0 and lines and lines[-1] == "ok", (
            out[-2000:] + err[-4000:])
        return out

    return run
