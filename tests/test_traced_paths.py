"""The CLI under the benchmark's per-layer tracer (perfbench/tracing.py),
which wraps the library's public functions and hashes some of their
arguments and results.  Only a full traced benchmark run reached these
paths before; an error in a hook left a span unset and the run failed."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from walshvp import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

OPS = {
    "verify-lemmas": ["verify-lemmas", "--resolution", "5", "--lemma5-count", "6",
                      "--random-schemes", "2"],
    "kernel-norms": ["kernel-norms", "--resolution", "6"],
    # A one-sample function: its fwht_forward hook hashes its 2^N samples.
    "modulus": ["modulus", "--function", "indicator:0", "--p", "1,2,inf"],
    "approx": ["approx", "--function", "step_mix", "--weights", "cesaro:0.5", "--resolution",
               "8", "--p", "1,2,inf", "--nmin", "1", "--nmax", "6"],
    "weights-validate": ["weights-validate", "--weights", "linear_down", "--n", "4"],
}


@pytest.mark.parametrize("name", OPS)
def test_traced_op_completes(name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(OPS[name])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.spans and None not in tracer.spans
    assert not sum(tracer.errors.values())
    metrics, _ = tracer.pass_metrics([1.0])
    assert metrics["cli.main.calls"] == 1


def test_every_benchmark_command_is_traced():
    import workloads

    commands = {op.command for name in workloads.BUILDERS for op in workloads.build(name, 1).ops}
    assert commands == set(OPS)
