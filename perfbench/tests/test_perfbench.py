"""Schema and self-check tests of the benchmark's own output, on the N=8
`tiny` workload."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_matches_benchmark_json(trace, section):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
        assert "tiny fail_ratio 0 " in proc.stdout


def test_traced_counts_match_hand_counts():
    proc = _bench(ROOT, 1)
    assert "# tracer self-check: ok" in proc.stdout
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # One pass of the tiny ops.  Brute-force translates: 2 * (2^7 + 2^6 + 2^5)
    # for the p=1,inf approx op over n = 1..3 and 2 * (2^9 - 1) for the
    # modulus op over n = 0..8.  The transform count per row is printed by
    # the self-check but not pinned here, since a faster sweep may lower it.
    assert metrics["dyadic.modulus_of_continuity.translates"]["value"] == 448 + 1022
    assert metrics["dyadic.modulus_of_continuity.spectral_calls"]["value"] == 3
    # The time outside every traced module is the harness and the tracer's
    # own bookkeeping; it must stay a minor share of the traced pass.
    assert 0 <= metrics["bench.self_s"]["value"] < 0.5 * metrics["trace.wall_s"]["value"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_latency_keeps_ten_samples_beyond():
    tail_latency = _load_run_module().tail_latency
    values = list(range(1, 67))
    q, value, beyond = tail_latency(values)
    assert (q, value, beyond) == (84, 56, 10)
    assert tail_latency(list(range(5))) == (100, 4, 0)


def test_reference_factors_use_the_samples_around_each_op():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reference

    base = (reference.CACHED_S, reference.LARGE_S)
    # The large part runs at half speed for the samples around op 6: only
    # the ops whose window holds a majority of slow samples are scaled, and
    # by the workload's share of large-array work.
    refs = [(base[0], 2 * base[1]) if 5 <= k <= 8 else base for k in range(13)]
    assert reference.op_factors(refs, 0.0) == [1.0] * 12
    factors = reference.op_factors(refs, 0.5)
    assert factors[0] == factors[2] == factors[11] == 1.0
    assert factors[6] == 1 / 1.5
