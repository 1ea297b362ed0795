"""Seeded end-to-end benchmark of the rboxkit batch CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload infer-nms --seed 1 --seconds 20 --trace 0

Each workload drives ``rboxkit.cli.main`` in this process as a closed loop
over shards of a few images: the next shard starts when the last one has
finished, one thread, one process. ``--trace 0`` measures the end-to-end
metrics for ``--seconds``; ``--trace 1`` makes one untraced and one traced
pass over the input pool and reports per-layer metrics instead. The last
line of stdout is one JSON object; a fuller record (input properties,
output digests, machine) goes to ``.bench_out/``. See WORKLOADS.md.
"""

import os

# one thread everywhere, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass
class Outcome:
    shard: int
    images: int
    seconds: float
    ok: bool
    info: dict = field(default_factory=dict)
    error: str = ""


def run_shard(wl, pool, shard, tracer=None) -> Outcome:
    """All of the workload's steps for one shard, timed, then its output checks."""
    results = {}
    t0 = time.perf_counter()
    try:
        for step, fn in wl.steps(pool, shard):
            span = tracer.begin_step(shard.index, step) if tracer else None
            try:
                results[step] = fn()
            finally:
                if tracer:
                    tracer.end_step(span)
        seconds = time.perf_counter() - t0
        info = wl.check(pool, shard, results)
    except Exception as e:  # a failed shard is counted, never fatal
        return Outcome(shard.index, len(shard.image_ids), time.perf_counter() - t0, False, error=f"{type(e).__name__}: {e}")
    return Outcome(shard.index, len(shard.image_ids), seconds, True, info)


class Digests:
    """First digest of each shard's outputs; a later, different one is a failed check."""

    def __init__(self):
        self.first: dict[int, str] = {}
        self.info: dict[int, dict] = {}

    def add(self, o: Outcome) -> None:
        if not o.ok:
            return
        d = o.info["digest"]
        if self.first.setdefault(o.shard, d) != d:
            o.ok, o.error = False, f"shard {o.shard}: outputs differ from an earlier run of the same inputs"
        else:
            self.info.setdefault(o.shard, o.info)

    def summary(self, n_shards: int) -> dict:
        h = hashlib.sha256()
        for k in sorted(self.first):
            h.update(self.first[k].encode())
        return {
            "shards": len(self.first),
            "pool_shards": n_shards,
            "outputs_sha256": h.hexdigest(),
            "per_shard": {str(k): v for k, v in sorted(self.first.items())},
        }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    n = len(s)
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed_run(wl, pool, seconds: float, digests: Digests):
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        o = run_shard(wl, pool, pool.shards[len(outcomes) % len(pool.shards)])
        digests.add(o)
        outcomes.append(o)
    return outcomes


def end_to_end(outcomes, n_shards: int, setup_s: float) -> tuple[dict, dict]:
    times = [o.seconds for o in outcomes]
    value, pct = tail(times)
    # throughput of each complete pass over the pool; their median resists bursts
    # of contention from other processes on the machine
    passes = [outcomes[i : i + n_shards] for i in range(0, len(outcomes) - n_shards + 1, n_shards)] or [outcomes]
    rates = [sum(o.images for o in p if o.ok) / sum(o.seconds for o in p) for p in passes]
    metrics = {
        "images_per_s": (statistics.median(rates), "1/s"),
        "shard_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "shard_ms_tail": (1000.0 * value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "shard_ms_tail_percentile": pct,
        "shard_ms_tail_samples": len(times),
        "pool_passes": len(passes),
    }
    return metrics, extra


def traced_run(wl, pool, seed: int, digests: Digests):
    """One untraced and one traced pass over the whole pool, then the IoU probe."""
    import numpy as np

    import tracing as tr

    t0 = time.perf_counter()
    outcomes = [run_shard(wl, pool, sh) for sh in pool.shards]
    untraced = time.perf_counter() - t0
    for o in outcomes:
        digests.add(o)

    tracer = tr.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = [run_shard(wl, pool, sh, tracer) for sh in pool.shards]
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for o in traced:
        digests.add(o)
    outcomes += traced

    silent = [name for name in wl.layers if tracer.calls[name] == 0]
    if silent:
        raise SystemExit(f"error: traced {wl.name} pass never called {', '.join(silent)}")
    metrics = tracer.layer_metrics()
    if metrics["decode.nms_in"] != metrics["decode.nms_kept"] + metrics["decode.nms_suppressed"]:
        for o in traced:
            o.ok, o.error = False, "decode.nms_in != decode.nms_kept + decode.nms_suppressed"
    metrics["trace.overhead_s"] = traced_s - untraced
    metrics.update(tr.iou_probe(np.random.default_rng([seed, wl.salt, 99]), wl.pair_sets(pool)))
    units = {name: (metrics[name], unit) for name, unit in tr.LAYER_METRICS.items()}
    extra = {"untraced_pass_s": untraced, "traced_pass_s": traced_s, "wrapper_calls": dict(tracer.calls)}
    return outcomes, units, extra, tracer.dump()


def _plain(value):
    """JSON form of numpy scalars in the record."""
    return value.item()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "rboxkit" / "cli.py").is_file():
        print(f"error: no rboxkit sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import rboxkit

    if Path(rboxkit.__file__).resolve().parent != (src / "rboxkit").resolve():
        print(f"error: imported rboxkit from {rboxkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - t_start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    digests = Digests()
    try:
        # set-up: input generation and one warm-up shard, repeated; the median counts
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            pool = wl.generate(np.random.default_rng([args.seed, wl.salt]), work)
            warm = run_shard(wl, pool, pool.shards[0])
            setup_times.append(time.perf_counter() - t0)
        digests.add(warm)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            outcomes, metrics, extra, spans = traced_run(wl, pool, args.seed, digests)
        else:
            outcomes = timed_run(wl, pool, args.seconds, digests)
            metrics, extra = end_to_end(outcomes, len(pool.shards), setup_s)
            spans = None
        properties = wl.properties(pool, digests.info)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes.append(warm)
    failed = [o for o in outcomes if not o.ok]
    extra["failed_frac"] = len(failed) / len(outcomes)
    tag = f"{wl.name}-seed{args.seed}"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "input_properties": properties,
        "digests": digests.summary(len(pool.shards)),
        "shard_seconds": [[o.shard, o.seconds] for o in outcomes],
        "errors": sorted({o.error for o in failed})[:20],
    }
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=_plain) + "\n")
    if spans is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print("machine: " + ", ".join(f"{k} {v}" for k, v in record["machine"].items()))
    for err in record["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"{tag}: {len(outcomes)} shards ({len(failed)} failed), outputs {record['digests']['outputs_sha256'][:16]} "
          f"over {record['digests']['shards']}/{len(pool.shards)} shards")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in extra.items():
        if not isinstance(value, dict):
            print(f"  {name:32s} {value:14.6g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
