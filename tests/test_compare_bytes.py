"""tools/compare_bytes.py: the byte-comparison harness of two trees."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_bytes", ROOT / "tools" / "compare_bytes.py")
compare_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bytes)

IN_GIT = subprocess.run(
    ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
).returncode == 0


def test_every_call_list_is_read():
    calls = compare_bytes.all_calls()
    names = list(calls)
    assert any(name.startswith("golden ") for name in names)
    for workload in ("approx_grid", "lemmas", "spectral_large", "tiny"):
        for seed in compare_bytes.SEEDS:
            assert any(name.startswith(f"{workload} seed={seed}: ") for name in names)
    # one name per distinct (argv, stdin), every edge call among them
    keys = {(tuple(argv), stdin) for argv, stdin in calls.values()}
    assert len(keys) == len(calls)
    edges = json.loads(compare_bytes.EDGE_CALLS.read_text())
    assert all((tuple(call["argv"]), call.get("stdin")) in keys for call in edges)


def test_a_moved_line_is_located_and_measured():
    base = {"code": 0, "stdout": b"n,p,error\n1,1,0.5\n2,1,0.25\n", "stderr": b""}
    head = {"code": 0, "stdout": b"n,p,error\n1,1,0.5\n2,1,0.2500025\n", "stderr": b""}
    found = compare_bytes.difference(base, head)
    assert found["stream"] == "stdout" and found["line"] == 3
    assert found["base"] == "2,1,0.25" and found["head"] == "2,1,0.2500025"
    assert found["largest_relative_change"] == pytest.approx(2.5e-6 / 0.2500025)
    assert compare_bytes.digest(base) != compare_bytes.digest(head)
    code = compare_bytes.difference(base, dict(base, code=2, stderr=b"error: x\n"))
    assert code["stream"] == "exit code" and code["largest_relative_change"] is None


@pytest.mark.skipif(not IN_GIT, reason="needs the git history of this checkout")
def test_head_against_itself_moves_nothing(tmp_path):
    report = tmp_path / "report.json"
    match = ["edge transform of signed zeros", "edge usage error: bad --p token",
             "golden weights-validate uniform csv"]
    code = compare_bytes.main(
        ["--base", "HEAD", "--head", "HEAD", "--match", *match, "--out", str(report)]
    )
    data = json.loads(report.read_text())
    assert code == 0 and data["moved"] == [] and data["calls"] == len(data["same"]) == 3
    assert data["base_commit"] == data["head"]
