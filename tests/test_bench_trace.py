"""The benchmark's trace contract: every layer a workload names fires, and its counters reconcile.

``benchmarks/tracing.py`` wraps package functions by name and binds their
arguments by name, so renaming either breaks the traced benchmark without
failing any other test. This module runs one shard of each workload with a
``Tracer`` installed, the way ``benchmarks/run.py --trace 1`` does, without
importing ``run.py`` (which sets thread variables in ``os.environ``).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


@pytest.mark.parametrize("name", ["labelgen", "infer-nms", "eval-recall"])
def test_traced_shard_meets_contract(bench, tmp_path, name):
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name]
    pool = wl.generate(np.random.default_rng([101, wl.salt]), tmp_path / "pool")
    shard = pool.shards[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = {}
        for step, fn in wl.steps(pool, shard):
            span = tracer.begin_step(shard.index, step)
            try:
                results[step] = fn()
            finally:
                tracer.end_step(span)
    finally:
        tracer.uninstall()
    assert [layer for layer in wl.layers if tracer.calls[layer] == 0] == []
    metrics = tracer.layer_metrics()
    assert metrics["decode.nms_in"] == metrics["decode.nms_kept"] + metrics["decode.nms_suppressed"]
    wl.check(pool, shard, results)  # raises CheckFailed on a bad output
