"""Workload definitions: each workload is a fixed list of `walshvp` CLI ops.

The seed chooses only three things: the values of the `random` and
`step_mix` functions (through the ops' `--seed`), the `--seed` of
`verify-lemmas`, and the order of the ops in each pass.  It never changes a
resolution, a block range, `p` or a weight family, so every seed runs the
same op mix.

A run repeats the op list a fixed number of whole passes, set per workload
so that a run measures about 25 s of ops on a 2-vCPU host (the
`run_seconds` of BENCHMARK.json).  The count does not depend on how fast the
code or the host is, so the best-of-k latencies, the tail percentile and the
sample count stay the same on every commit that is compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

WALSH_POLY = "walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625"


@dataclass(frozen=True)
class Op:
    """One CLI call; `argv()` is what `walshvp.cli.main` receives."""

    command: str
    resolution: int = 0
    function: str = ""
    weights: str = ""
    p: str = ""
    nmin: int = 0
    nmax: int = 0
    seed: int = 0
    block: int = 0  # weights-validate --n
    lemma5_count: int = 0
    random_schemes: int = 0

    def argv(self) -> List[str]:
        args = [self.command]
        if self.command == "weights-validate":
            return args + ["--weights", self.weights, "--n", str(self.block), "--format", "json"]
        args += ["--resolution", str(self.resolution), "--format", "json"]
        if self.command == "kernel-norms":
            return args
        if self.command == "verify-lemmas":
            return args + [
                "--seed", str(self.seed),
                "--lemma5-count", str(self.lemma5_count),
                "--random-schemes", str(self.random_schemes),
            ]
        args += ["--function", self.function, "--p", self.p, "--seed", str(self.seed)]
        args += ["--nmin", str(self.nmin), "--nmax", str(self.nmax)]
        if self.command == "approx":
            args += ["--weights", self.weights]
        return args

    def label(self) -> str:
        return " ".join(self.argv())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Tuple[Op, ...]
    warmup: Op
    passes: int
    # Share of the workload's op time spent on arrays beyond the L2 cache,
    # read off its trace; weighs the reference kernel's two parts
    # (`reference.py`).
    large_share: float

    def orders(self, seed: int) -> Iterator[List[int]]:
        """Op order of each successive pass, drawn from the seed."""
        rng = random.Random(seed)
        while True:
            order = list(range(len(self.ops)))
            rng.shuffle(order)
            yield order

    def describe(self) -> dict:
        kinds = {}
        for op in self.ops:
            key = f"{op.command} N={op.resolution}" if op.resolution else op.command
            kinds[key] = kinds.get(key, 0) + 1
        return {"why": self.why, "ops_per_pass": len(self.ops), "op_mix": kinds}


def _approx_grid(seed: int) -> Workload:
    functions = ("abs_power:0.5", "indicator:2", "step_mix", "random", WALSH_POLY)
    weights = ("uniform", "linear_up", "linear_down", "cesaro:2", "cesaro:0.5")
    ops = [
        Op("approx", 12, f, w, "1,2,inf", 1, 10, seed)
        for f in functions
        for w in weights
    ]
    ops += [
        Op("modulus", 12, f, "", "1,2,inf", 0, 12, seed)
        for f in ("abs_power:0.5", "step_mix", "random")
    ]
    ops += [Op("weights-validate", weights=w, block=10) for w in weights]
    return Workload(
        "approx_grid",
        "the paper's error-vs-modulus table at N=12 (p=1,2,inf, n=1..10): brute-force "
        "moduli, Fraction weights and many small transforms",
        tuple(ops),
        warmup=Op("weights-validate", weights="uniform", block=10),
        passes=2,  # 9-13 s each; 66 op runs
        large_share=0.0,  # N=12: every array is 32 KiB
    )


def _lemmas(seed: int) -> Workload:
    ops = [Op("verify-lemmas", n, seed=seed, lemma5_count=40, random_schemes=6) for n in (8, 9, 10)]
    # With the second N=10 instance the slowest op kind makes 14 of the 42
    # op runs, so op_tail_ms (10 runs beyond it) always falls on it.
    ops.append(Op("verify-lemmas", 10, seed=seed + 1, lemma5_count=40, random_schemes=6))
    ops += [Op("kernel-norms", n) for n in (12, 13)]
    return Workload(
        "lemmas",
        "exact integer kernel loops, the O(4^N) naive convolution and the per-cell "
        "Fraction check of the VP decomposition, at N=8..13",
        tuple(ops),
        warmup=Op("kernel-norms", 12),
        passes=7,  # 4-6 s each
        # The naive convolution's 8 MiB index and value tables at N=10 take
        # about a quarter of the traced time; the rest works on small arrays.
        large_share=0.25,
    )


def _spectral_large(seed: int) -> Workload:
    # Each op runs 6 to 12 transforms.  The N=20 ops (6 transforms of
    # 8 MiB, 0.5-0.9 s) take more than twice as long as the others, so the
    # op kinds are unbalanced on purpose: with 2 of 5 ops at N=20, op_tail_ms
    # (10 of 45 op runs beyond it) falls inside the N=20 runs and op_p50_ms
    # inside the N=19 runs, neither on the gap between the two groups.
    ops = []
    for f in ("abs_power:0.5", "step_mix", WALSH_POLY):
        ops += [
            Op("approx", 18, f, "uniform", "2", 1, 2, seed),
            Op("approx", 19, f, "linear_down", "2", 5, 5, seed),
            Op("modulus", 19, f, "", "2", 0, 2, seed),
            Op("approx", 20, f, "cesaro:2", "2", 8, 8, seed),
            Op("modulus", 20, f, "", "2", 0, 2, seed),
        ]
    return Workload(
        "spectral_large",
        "p=2 rows and moduli at N=18..20: Hadamard transforms on 2-8 MiB arrays, "
        "no brute-force moduli, little Fraction work",
        tuple(ops),
        warmup=Op("approx", 18, "abs_power:0.5", "uniform", "2", 1, 1, seed),
        passes=3,  # 6-9 s each; 45 op runs
        # Transforms of 2-8 MiB arrays take 80-95% of the traced time
        # (hadamard_transform self time over trace.wall_s).
        large_share=0.9,
    )


def _tiny(seed: int) -> Workload:
    # Ops whose traced counts are worked out by hand in the tracer self-check.
    ops = (
        Op("approx", 8, "abs_power:0.5", "uniform", "2", 1, 3, seed),
        Op("approx", 8, "step_mix", "linear_down", "1,inf", 1, 3, seed),
        Op("modulus", 8, "step_mix", "", "1,inf", 0, 8, seed),
    )
    return Workload(
        "tiny",
        "N=8 ops for the schema test and the tracer self-check",
        ops,
        warmup=ops[0],
        passes=2,
        large_share=0.0,
    )


BUILDERS = {
    "approx_grid": _approx_grid,
    "lemmas": _lemmas,
    "spectral_large": _spectral_large,
    "tiny": _tiny,
}

# The workloads a full run measures; `tiny` only serves the self-checks.
MEASURED = ("approx_grid", "lemmas", "spectral_large")


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def self_check_ops(seed: int) -> Tuple[Op, ...]:
    return _tiny(seed).ops
