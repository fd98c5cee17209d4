"""walshvp benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh Python
process (`perfbench/worker.py`) that imports `walshvp` from the checkout's
`src/`, with BLAS pinned to one thread, and calls `walshvp.cli.main`
in-process, closed loop with one client, for the workload's fixed number
of passes (`perfbench/workloads.py`).  Times are scaled to a reference host
speed by the kernel of `perfbench/reference.py`, run around every op;
the raw times are printed beside them.  `--seconds` is accepted because the
benchmark's callers pass BENCHMARK.json's `run_seconds`; the pass counts are
sized to fill about that long, and the value is only recorded.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (`setup_s`, `wall_s`, `op_p50_ms`, `op_tail_ms`,
`peak_rss_mb`).  `fail_ratio` is printed on its own line and carried by the
`attempted` and `failed` keys.  With `--trace 1` the JSON holds the
per-layer metrics of `perfbench/tracing.py` instead, and the spans are
written to `perfbench/out/`.  The lines before it give the run record and
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in this many fresh processes (odd, the measuring one
# included); the median is reported.
SETUP_SAMPLES = 5
# A single workload run must end within this many seconds.
TIME_LIMIT_S = 170.0

COMPUTED_WORK_NOTE = (
    "butterfly_ops (N*2^N per transform), bytes_computed (16*N*2^N: one float64 read and "
    "write per stage) and table_bytes (16*4^N per naive convolution) are computed from the "
    "calls, not measured; that is 1/16 butterfly op per byte.  The largest array is 8 MiB "
    "(N=20), inside the L3 cache, and the resolution cap of 24 (128 MiB) cannot reach 4x "
    "the L3 size, so no bandwidth or roofline figure is claimed."
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def tail_latency(values):
    """(percentile, value, count beyond) at the highest whole percentile that
    has at least 10 samples beyond it, by the nearest-rank rule."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], 0
    q = 100 * (n - 10) // n
    rank = max(1, -(-q * n // 100))
    return q, ordered[rank - 1], n - rank


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_record(root: Path) -> dict:
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu0_caches": caches,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def _worker(root: Path, name: str, args, mode: str, deadline: float, spans: str = ""):
    env = dict(os.environ)
    env.pop("WALSHVP_MAX_N", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--trace", str(args.trace),
        "--mode", mode,
    ]
    if spans:
        command += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"{name}: out of time before the {mode} process")
    try:
        proc = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: {mode} process did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name}: {mode} process failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(name: str, raw: dict, root: Path, spans: str) -> dict:
    per_layer = raw["per_layer"]
    check = raw["self_check"]
    status = "ok" if check["ok"] else "FAILED"
    print(f"# tracer self-check: {status}")
    for op in check["ops"]:
        print(
            f"#   {op['op']}: traced {op['traced']}, by hand {op['by_hand']}, "
            f"traced = profiled calls: {not op['traced_vs_profiled_mismatch']}"
        )
    print("# " + COMPUTED_WORK_NOTE)
    wall = per_layer["trace.wall_s"]
    for module in tracing.TRACED:
        own = per_layer[f"{module}.self_s"]
        share = own / wall if wall else 0.0
        print(f"# {module:<13} self {own:.4f} s ({share:.1%} of traced wall_s)")
    bench = per_layer["bench.self_s"]
    print(
        f"# bench.self_s  self {bench:.4f} s ({bench / wall if wall else 0.0:.1%} of traced "
        "wall_s): harness and tracer bookkeeping, the rest of wall_s"
    )
    print(f"# spans written to {os.path.relpath(spans, root)}")
    metrics = {key: _metric(per_layer[key], unit) for key, unit in tracing.metric_units().items()}
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    return metrics


def _latency_summary(samples_s):
    """wall (s), p50 (ms), (tail percentile, tail ms, count beyond), op runs
    and the smallest k of best-of-k, from each op's latencies in seconds."""
    best_s = [min(op_samples) for op_samples in samples_s]
    latencies = [1e3 * t for op_samples in samples_s for t in op_samples]
    k = min(len(op_samples) for op_samples in samples_s)
    return sum(best_s), statistics.median(latencies), tail_latency(latencies), len(latencies), k


def _e2e_metrics(name: str, raw: dict, setups: list) -> dict:
    wall, p50, (q, tail, beyond), runs, k = _latency_summary(raw["samples_s"])
    raw_wall, raw_p50, (_, raw_tail, _), _, _ = _latency_summary(raw["raw_samples_s"])
    ops = len(raw["samples_s"])
    (cached, large), (cached_ref, large_ref) = raw["reference_median_s"], raw["reference_s"]
    print(
        f"# reference kernel: cached part {cached * 1e3:.4g} ms, large part {large * 1e3:.4g} ms "
        f"(medians over the run; {cached_ref * 1e3:.4g} and {large_ref * 1e3:.4g} ms at the "
        f"reference speed); large_share {raw['record']['large_share']}"
    )
    raw_setup = statistics.median(s["raw_setup_s"] for s in setups)
    rows = {
        "setup_s": (
            statistics.median(s["setup_s"] for s in setups),
            f"median of {len(setups)} fresh processes: import, inputs, one warm-up op; "
            f"raw {raw_setup:.4g} s",
        ),
        "wall_s": (
            wall,
            f"{ops} ops, each at its best of >= {k} runs; raw {raw_wall:.4g} s; "
            f"median raw pass took {statistics.median(raw['pass_wall_s']):.4g} s",
        ),
        "op_p50_ms": (
            p50,
            f"median of {runs} op runs; raw {raw_p50:.4g} ms",
        ),
        "op_tail_ms": (
            tail,
            f"p{q} of {runs} op runs, {beyond} beyond it; raw {raw_tail:.4g} ms",
        ),
        "peak_rss_mb": (
            raw["peak_rss_mb"],
            "peak resident set of the measuring process, before the output checks",
        ),
    }
    metrics = {}
    for key, unit in E2E_UNITS.items():
        value, note = rows[key]
        metrics[key] = _metric(value, unit)
        print(f"{name} {key} {value:.6g} {unit} ({note})")
    return metrics


def run_workload(root: Path, name: str, args) -> dict:
    """Runs one workload, prints its report lines and returns its result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.build(name, args.seed)
    print(f"# workload {name}: {workload.why}")
    if args.trace:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{name}-seed{args.seed}.json")
        raw = _worker(root, name, args, "measure", deadline, spans)
    else:
        # Set-up processes run half before and half after the measuring one,
        # so their median spans the run and not one moment of the host.
        def setup():
            return _worker(root, name, args, "setup", deadline)

        setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
        raw = _worker(root, name, args, "measure", deadline)
        setups.append(raw)
        setups += [setup() for _ in range(SETUP_SAMPLES // 2)]
    record = dict(raw["record"], seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# record " + json.dumps(record, sort_keys=True))
    for label, found in raw["problems"].items():
        print(f"# FAILED {label}: {'; '.join(found[:5])}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(
        f"{name} fail_ratio {failed / attempted:.6g} ratio "
        f"({failed} failed of {attempted} attempted)"
    )
    if args.trace:
        metrics = _layer_metrics(name, raw, root, spans)
    else:
        metrics = _e2e_metrics(name, raw, setups)
    return {"correct": raw["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="walshvp benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25, help="recorded only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "walshvp" / "__init__.py").is_file():
        print(f"error: no walshvp sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = workloads.MEASURED if args.workload == "all" else (args.workload,)
    print("# machine " + json.dumps(machine_record(root), sort_keys=True))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
