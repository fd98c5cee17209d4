"""Runs one workload in a fresh process and prints its raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --mode setup|measure [--spans FILE]

`perfbench/run.py` starts this with PYTHONPATH pointing at the checkout's
`src/` and BLAS pinned to one thread.  `--mode setup` stops after the timed
set-up (import, input generation, one warm-up op).  `--mode measure` then
runs the workload's fixed number of whole passes over its ops, each pass in
a seeded order.  The load is a closed loop with one client: each op starts
when the previous one returned.  The reference kernel of `reference.py` runs
before every op and after the last, outside the op's timing, and each
untraced latency is reported both raw and scaled to the reference speed.
With `--trace 1` passes alternate between untraced and traced, after a tracer
self-check on N=8 ops.  Outputs are checked after the last pass, outside the
timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing
import workloads


def _run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _self_check(tracer, cli, seed) -> dict:
    """Traced counts on N=8 ops against a profile hook and hand counts."""
    tracer.install()
    ops = []
    for op in workloads.self_check_ops(seed):
        tracer.reset()
        argv = op.argv()
        profiled = tracing.profile_calls(lambda: _run_op(cli, argv), tracer.codes)
        traced = {fid: 0 for fid in range(len(tracing.FUNCTIONS))}
        for span in tracer.spans:
            traced[span[0]] += 1
        rows = [(n, p) for n in range(op.nmin, op.nmax + 1) for p in op.p.split(",")]
        # By hand: a p=2 approx row transforms f twice and the kernel once
        # (convolution), synthesizes once, and the spectral modulus runs two
        # more; a p != 2 row skips the modulus transforms.  A spectral modulus
        # call runs two.  A brute-force modulus evaluates 2^(N-n) translates.
        per_p2_row = 6 if op.command == "approx" else 2
        per_other_row = 4 if op.command == "approx" else 0
        hand = {
            "hadamard_transform": sum(per_p2_row if p == "2" else per_other_row for _, p in rows),
            "translates": sum(1 << (op.resolution - n) for n, p in rows if p != "2"),
            "spectral_calls": sum(1 for _, p in rows if p == "2"),
        }
        hadamard = traced[tracing.FUNCTIONS.index("walsh_system.hadamard_transform")]
        counted = {
            "hadamard_transform": hadamard,
            "translates": tracer.counts["dyadic.modulus_of_continuity.translates"],
            "spectral_calls": tracer.counts["dyadic.modulus_of_continuity.spectral_calls"],
        }
        mismatched = [tracing.FUNCTIONS[f] for f in traced if traced[f] != profiled.get(f, 0)]
        ops.append(
            {
                "op": op.label(),
                "by_hand": hand,
                "traced": counted,
                "traced_vs_profiled_mismatch": mismatched,
                "ok": not mismatched
                and counted["translates"] == hand["translates"]
                and counted["spectral_calls"] == hand["spectral_calls"],
                "hadamard_matches_hand_count": hadamard == hand["hadamard_transform"],
            }
        )
    tracer.uninstall()
    tracer.reset()
    tracer.archive.clear()
    return {"ops": ops, "ok": all(o["ok"] for o in ops)}


def _run_record(workload, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "passes": workload.passes,
        "large_share": workload.large_share,
        "workload": workload.describe(),
        "ops": [op.label() for op in workload.ops],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args()

    t_start = time.perf_counter()
    import numpy
    import walshvp.cli as cli

    workload = workloads.build(args.workload, args.seed)
    argvs = [op.argv() for op in workload.ops]
    orders = workload.orders(args.seed)
    warm_rc = _run_op(cli, workload.warmup.argv())[0]
    raw_setup_s = time.perf_counter() - t_start
    if warm_rc != 0:
        print(f"warm-up op failed with {warm_rc}", file=sys.stderr)
        return 1
    import reference  # not part of the timed set-up

    factor = reference.setup_factor(workload.large_share)
    setup = {"setup_s": raw_setup_s * factor, "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = self_check = None
    if args.trace:
        tracer = tracing.Tracer()
        self_check = _self_check(tracer, cli, args.seed)

    first = {}  # op index -> (rc, stdout) of its first run
    runs = [0] * len(workload.ops)
    mismatches = [0] * len(workload.ops)
    sequence = []  # (op index, raw seconds) of every untraced op run, in run order
    refs = []  # reference kernel (cached, large) seconds before each op run and after the last
    pass_wall, traced_wall, layer_passes = [], [], []
    min_self = 0.0
    for _ in range(workload.passes):
        order = next(orders)
        traced = tracer is not None and len(pass_wall) > len(traced_wall)
        if traced:
            tracer.reset()
            tracer.install()
        pass_latencies = []
        for i in order:
            if traced:
                tracer.op = i
            else:
                refs.append(reference.sample(workload.large_share))
            rc, out, _, seconds = _run_op(cli, argvs[i])
            pass_latencies.append(seconds)
            runs[i] += 1
            if not traced:
                sequence.append((i, seconds))
            if i not in first:
                first[i] = (rc, out)
            elif (rc, out) != first[i]:
                mismatches[i] += 1
        last_wall = sum(pass_latencies)
        if traced:
            tracer.uninstall()
            metrics, smallest = tracer.pass_metrics(pass_latencies)
            layer_passes.append(metrics)
            min_self = min(min_self, smallest)
            traced_wall.append(last_wall)
        else:
            pass_wall.append(last_wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs.append(reference.sample(workload.large_share))
    samples = [[] for _ in workload.ops]  # untraced latencies of each op, scaled
    raw_samples = [[] for _ in workload.ops]
    for (i, seconds), factor in zip(sequence, reference.op_factors(refs, workload.large_share)):
        samples[i].append(seconds * factor)
        raw_samples[i].append(seconds)

    import checks

    checker = checks.Checker()
    problems = {}
    failed = 0
    for i, op in enumerate(workload.ops):
        found = checker.check(op, *first[i])
        # A wrong first output fails every run of the op; otherwise each
        # later run whose output differs from the first fails.
        failed += runs[i] if found else mismatches[i]
        if mismatches[i]:
            found.append(f"{mismatches[i]} later runs gave another output than the first")
        if found:
            problems[op.label()] = found
    correct = not problems

    result = {
        **setup,
        "pass_wall_s": pass_wall,
        "samples_s": samples,
        "raw_samples_s": raw_samples,
        "reference_median_s": [statistics.median(r[j] for r in refs) for j in (0, 1)],
        "reference_s": [reference.CACHED_S, reference.LARGE_S],
        "attempted": sum(runs),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "record": _run_record(workload, numpy),
    }
    if tracer is not None:
        # The traced pass with the median wall time, whole, so that its module
        # self times and bench.self_s still add up to its wall time.
        ranked = sorted(layer_passes, key=lambda m: m["trace.wall_s"])
        per_layer = dict(ranked[(len(ranked) - 1) // 2])
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - statistics.median(pass_wall)
        result["per_layer"] = per_layer
        result["self_check"] = self_check
        result["min_self_s"] = min_self
        # Spans must nest: a negative self time means a span outlived its parent.
        correct = correct and self_check["ok"] and min_self > -1e-6
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    result["correct"] = correct
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
