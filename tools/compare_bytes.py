"""Compare the bytes that two trees of walshvp print for the same CLI calls.

    python tools/compare_bytes.py --base REV [--head TREE] [--match TEXT ...]
                                  [--out REPORT.json]

REV is a git revision of this checkout, extracted by `git archive` into a
temporary directory.  TREE is a directory holding a checkout (by default
this one, as it is on disk) or another revision.  Each call runs in a fresh
Python process on each tree, with that tree's `src/` on the path and
`walshvp.cli.main` given the call's argv (and its stdin text, if any); the
exit code, stdout and stderr are compared by sha256.

The calls are read from this checkout, not copied:
- every call of `tests/test_golden.py`'s `CALLS`;
- every op and warm-up of every workload of `perfbench/workloads.py`, at
  seeds 1 and 2;
- the edge calls of `tools/edge_calls.json`: the FOUND commands of
  ROADMAP.md, outputs that moved on purpose before, and usage errors.
Calls with the same argv and stdin run once, under their first name.
`--match` keeps the calls whose name holds one of the given texts.

The report is one JSON object, written to `--out` or to stdout.  For each
call that moved it names the stream and the first line that differ, and,
where the two lines hold the same count of numbers (CSV fields, JSON
values), the largest relative change among them.  The exit code is 0 when
nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EDGE_CALLS = ROOT / "tools" / "edge_calls.json"
SEEDS = (1, 2)
# A call that runs longer than this is reported as a timeout on its tree.
CALL_TIMEOUT_S = 900
# Child processes at once: the two trees of one call run side by side.
JOBS = 2

_CHILD = "import json, sys\nfrom walshvp import cli\nsys.exit(cli.main(json.loads(sys.argv[1])))\n"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def golden_calls() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import test_golden

    return {f"golden {name}": (argv, None) for name, argv in test_golden.CALLS.items()}


def workload_calls() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    calls = {}
    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            workload = build(seed)
            for op in (workload.warmup, *workload.ops):
                calls[f"{name} seed={seed}: {op.label()}"] = (op.argv(), None)
    return calls


def edge_calls() -> dict:
    return {
        f"edge {call['name']}": (call["argv"], call.get("stdin"))
        for call in json.loads(EDGE_CALLS.read_text())
    }


def all_calls() -> dict:
    """name -> (argv, stdin), one name per distinct call, first name kept."""
    calls, seen = {}, set()
    for source in (golden_calls(), workload_calls(), edge_calls()):
        for name, (argv, stdin) in source.items():
            key = (tuple(argv), stdin)
            if key not in seen:
                seen.add(key)
                calls[name] = (argv, stdin)
    return calls


def extract(rev: str, into: Path) -> str:
    """`git archive` of rev into the directory; returns the commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
        capture_output=True, check=True,
    ).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_call(tree: Path, argv, stdin) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as cwd:
        try:
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, json.dumps(argv)],
                input=(stdin or "").encode(), capture_output=True, cwd=cwd, env=env,
                timeout=CALL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"code": "timeout", "stdout": b"", "stderr": b""}
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def digest(result: dict) -> str:
    h = hashlib.sha256(f"{result['code']}\n".encode())
    for stream in ("stdout", "stderr"):
        h.update(len(result[stream]).to_bytes(8, "little") + result[stream])
    return h.hexdigest()


def _relative_change(a: str, b: str):
    """The largest |x - y| / max(|x|, |y|) over the numbers of two lines
    that hold the same count of them, or None."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if not xs or len(xs) != len(ys):
        return None
    largest = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        top = max(abs(x), abs(y))
        largest = max(largest, abs(x - y) / top if math.isfinite(top) else math.inf)
    return largest


def difference(base: dict, head: dict) -> dict:
    """Where two results first differ, and the largest relative change of
    the numbers on the lines that differ."""
    if base["code"] != head["code"]:
        found = {"stream": "exit code", "base": base["code"], "head": head["code"]}
    else:
        found = {}
    largest = None
    for stream in ("stdout", "stderr"):
        a = base[stream].decode(errors="replace").splitlines()
        b = head[stream].decode(errors="replace").splitlines()
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else None
            y = b[i] if i < len(b) else None
            if x == y:
                continue
            if not found:
                found = {"stream": stream, "line": i + 1, "base": x, "head": y}
            change = _relative_change(x, y) if x is not None and y is not None else None
            if change is not None:
                largest = change if largest is None else max(largest, change)
    found["largest_relative_change"] = largest
    return found


def compare(base: Path, head: Path, calls: dict) -> list:
    """One row per call, in the order of calls."""
    names = list(calls)
    with ThreadPoolExecutor(JOBS) as pool:
        futures = [
            (pool.submit(run_call, base, *calls[name]), pool.submit(run_call, head, *calls[name]))
            for name in names
        ]
        rows = []
        for name, (b, h) in zip(names, futures):
            b, h = b.result(), h.result()
            row = {"name": name, "argv": calls[name][0], "base": digest(b), "head": digest(h)}
            if row["base"] != row["head"]:
                row["difference"] = difference(b, h)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--head", default=str(ROOT), help="directory or git revision")
    parser.add_argument("--match", nargs="+", default=None, help="keep calls whose name holds one")
    parser.add_argument("--out", default="-", help="report path, '-' for stdout")
    args = parser.parse_args(argv)
    calls = all_calls()
    if args.match:
        calls = {k: v for k, v in calls.items() if any(m in k for m in args.match)}
    with tempfile.TemporaryDirectory() as scratch:
        base_commit = extract(args.base, Path(scratch) / "base")
        head = Path(args.head)
        if head.is_dir():
            head_id = str(head.resolve())
        else:
            head_id = extract(args.head, Path(scratch) / "head")
            head = Path(scratch) / "head"
        rows = compare(Path(scratch) / "base", head, calls)
    moved = [row for row in rows if "difference" in row]
    report = {
        "base": args.base,
        "base_commit": base_commit,
        "head": head_id,
        "calls": len(rows),
        "distinct_outputs": len({row["head"] for row in rows}),
        "moved": moved,
        "same": [row["name"] for row in rows if "difference" not in row],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    print(f"{len(rows)} calls, {len(moved)} moved", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
