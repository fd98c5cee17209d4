import argparse
import contextlib
import csv
import gc
import io
import json
import math
import sys
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp import cli, dyadic, experiments, kernels, means, walsh_system
from walshvp.cli import main
from walshvp.dyadic import SampledFunction, write_function
from walshvp.walsh_system import read_spectrum
from walshvp.weights import _FamilySchemes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    f = SampledFunction(4, rng.uniform(-1, 1, 16))
    src = tmp_path / "f.txt"
    with open(src, "w") as fh:
        write_function(f, fh)
    spec_path = tmp_path / "s.txt"
    code, _, _ = run(capsys, "transform", "--in", str(src), "--out", str(spec_path))
    assert code == 0
    with open(spec_path) as fh:
        s = read_spectrum(fh)
    back_path = tmp_path / "b.txt"
    code, _, _ = run(
        capsys, "transform", "--inverse", "--in", str(spec_path), "--out", str(back_path)
    )
    assert code == 0
    from walshvp.dyadic import read_function

    with open(back_path) as fh:
        back = read_function(fh)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_transform_inverse_rejects_nonfinite(tmp_path, capsys):
    spec_path = tmp_path / "s.txt"
    spec_path.write_text("SPECTRUM\nN=1\nnan\n0\n")
    code, _, err = run(capsys, "transform", "--inverse", "--in", str(spec_path))
    assert code == 2
    assert "spectrum coefficient 0 is not finite" in err


@pytest.mark.parametrize(
    "inverse, head, noun",
    [(False, "", "sample"), (True, "SPECTRUM\n", "spectrum coefficient")],
    ids=["function", "spectrum"],
)
@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.5\n1\n2\n", "expected 4 {noun}s, got 3"),
        ("0.5\n1\n2\n3\n4\n", "expected 4 {noun}s, got more: '4'"),
        ("0.5\n1\n2\n3\n\n \n7\n", "expected 4 {noun}s, got more: '7'"),
        ("0.5\nabc\n2\n3\n", "{noun} 1 is not a number: 'abc'"),
        ("0.5\n1\n\n3\n", "{noun} 2 is not a number: ''"),
        ("0.5\n1\nnan\n3\n", "{noun} 2 is not finite: nan"),
        ("0.5\n1\n2\n-inf\n", "{noun} 3 is not finite: -inf"),
        ("0.5\n1\n2\n3\n\n \n", None),
    ],
    ids=["short", "long", "long-after-blank", "word", "blank", "nan", "inf", "trailing-blank"],
)
def test_sample_files_are_read_alike(tmp_path, capsys, inverse, head, noun, rows, message):
    # Both text formats go through one reader: 2^N finite rows, no more.
    path = tmp_path / "in.txt"
    path.write_text(f"{head}N=2\n{rows}")
    argv = ["transform", "--in", str(path)] + (["--inverse"] if inverse else [])
    code, out, err = run(capsys, *argv)
    if message is None:
        assert code == 0 and err == "" and len(out.splitlines()) == (5 if inverse else 6)
    else:
        assert code == 2 and out == "" and message.format(noun=noun) in err


def test_kernel_norms_csv(capsys):
    code, out, _ = run(capsys, "kernel-norms", "--resolution", "4", "--nmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l1_dirichlet,l1_fejer"
    assert len(lines) == 5
    assert lines[1] == "1,1,1"


def test_kernel_norms_row_cap(capsys):
    # The default --nmax at N=20 asks for 2^19 rows: refused before any work.
    code, out, err = run(capsys, "kernel-norms", "--resolution", "20")
    assert code == 2 and out == ""
    assert "--nmax" in err and f"{1 << 19} rows" in err
    code, out, _ = run(
        capsys, "kernel-norms", "--resolution", "20", "--nmax", "4", "--format", "json"
    )
    assert code == 0 and [r["n"] for r in json.loads(out)] == [1, 2, 3, 4]


def test_verify_lemmas_samples_the_recursion_above_n10(capsys):
    code, out, _ = run(
        capsys, "verify-lemmas", "--resolution", "14",
        "--lemma5-count", "4", "--random-schemes", "1", "--format", "json",
    )
    assert code == 0
    rows = {row["lemma"]: row for row in json.loads(out)}
    recursion = rows["dirichlet-recursion"]
    assert recursion["instances"] == experiments.RECURSION_SAMPLES == 1025
    assert recursion["detail"] == "sampled" and recursion["worst_margin"] == 0
    code, out, _ = run(capsys, "verify-lemmas", "--resolution", "10", "--format", "json")
    recursion = {row["lemma"]: row for row in json.loads(out)}["dirichlet-recursion"]
    assert code == 0 and recursion["instances"] == (1 << 10) + 1 and recursion["detail"] == ""


def test_verify_lemmas_ok(capsys):
    code, out, _ = run(
        capsys,
        "verify-lemmas",
        "--resolution",
        "5",
        "--lemma5-count",
        "10",
        "--random-schemes",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lemma,instances,worst_margin,pass,detail"
    assert all(row["pass"] == "true" for row in csv.DictReader(lines))


def test_verify_lemmas_json(capsys):
    code, out, _ = run(
        capsys,
        "verify-lemmas",
        "--resolution",
        "5",
        "--lemma5-count",
        "6",
        "--random-schemes",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(row["pass"] for row in payload)


def test_approx_table(capsys):
    code, out, _ = run(
        capsys,
        "approx",
        "--function",
        "abs_power:1.0",
        "--weights",
        "uniform",
        "--p",
        "inf",
        "--nmin",
        "1",
        "--nmax",
        "4",
        "--resolution",
        "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "n,p,error,modulus,ratio,bound,bound_ok,flag"
    assert len(lines) == 6
    assert all(row["bound_ok"] == "true" for row in csv.DictReader(lines[1:]))


def test_approx_weight_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("k,t\n4,1/4\n5,1/4\n6,1/4\n7,1/4\n")
    code, out, _ = run(
        capsys,
        "approx",
        "--function",
        "abs_power:0.5",
        "--weights",
        str(path),
        "--nmin",
        "2",
        "--nmax",
        "2",
        "--resolution",
        "7",
    )
    assert code == 0
    # sweeping outside the file's block is a usage error
    code, _, err = run(
        capsys,
        "approx",
        "--function",
        "abs_power:0.5",
        "--weights",
        str(path),
        "--nmin",
        "1",
        "--nmax",
        "3",
        "--resolution",
        "7",
    )
    assert code == 2 and "block exponent" in err


def test_case_b_bound_needs_weights_summing_to_one(tmp_path, capsys):
    # Non-increasing but summing to 6: 47/30 is not asserted.
    path = tmp_path / "w.csv"
    path.write_text("k,t\n4,3\n5,1\n6,1\n7,1\n")
    argv = [
        "approx", "--function", "abs_power:0.5", "--weights", str(path),
        "--resolution", "8", "--nmin", "2", "--nmax", "2", "--p", "inf",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["bound"] is None and record["bound_ok"] is True
    code, out, _ = run(capsys, *argv)
    row = next(csv.DictReader(out.splitlines()[1:]))
    assert code == 0 and row["bound"] == "nan" and row["bound_ok"] == "true"


def test_family_name_is_not_shadowed_by_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "uniform").write_text("k,t\n4,1\n")
    code, out, err = run(capsys, "weights-validate", "--weights", "uniform", "--n", "3")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "3,1,true,both,1.875,true,true"
    code, _, err = run(capsys, "weights-validate", "--weights", "./uniform")
    assert code == 2 and "weight file must cover [4, 7]" in err
    code, _, _ = run(
        capsys, "approx", "--function", "indicator:2", "--weights", "uniform",
        "--resolution", "6", "--nmin", "3", "--nmax", "3",
    )
    assert code == 0


def test_modulus_table(capsys):
    code, out, _ = run(
        capsys,
        "modulus",
        "--function",
        "indicator:2",
        "--p",
        "inf",
        "--resolution",
        "5",
        "--nmin",
        "2",
        "--nmax",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,delta,omega"
    assert lines[1] == "2,inf,0.25,0"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-lemmas", "--resolution", "5", "--lemma5-count", "6", "--random-schemes", "2"),
        ("approx", "--function", "indicator:2", "--weights", "uniform", "--p", "2,inf",
         "--resolution", "6", "--nmax", "3"),
        ("kernel-norms", "--resolution", "5"),
        ("modulus", "--function", "step_mix", "--p", "1,2,inf", "--resolution", "5"),
        ("weights-validate", "--weights", "cesaro:2", "--n", "3"),
    ],
)
def test_csv_header_matches_json_keys(capsys, argv):
    _, out, _ = run(capsys, *argv)
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    _, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    if argv[0] == "approx":
        rows = payload["records"]
    elif argv[0] == "weights-validate":
        rows = [payload]  # one object, not a list
    else:
        rows = payload
    assert len(rows) == len(lines) - 1
    assert all(lines[0].split(",") == list(row) for row in rows)


def test_lemma_fields(capsys, monkeypatch):
    monkeypatch.setattr(
        experiments, "verify_all_lemmas",
        lambda *args, **kwargs: [experiments.LemmaResult("x", 3, 0.25, True)],
    )
    code, out, _ = run(capsys, "verify-lemmas")
    assert code == 0
    assert out.splitlines() == ["lemma,instances,worst_margin,pass,detail", "x,3,0.25,true,"]


def test_check_without_instances_fails(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--resolution", "4", "--lemma5-count", "0")
    rows = {row["lemma"]: row for row in csv.DictReader(out.splitlines())}
    assert code == 1
    assert rows["translate-difference-bound"] == {
        "lemma": "translate-difference-bound",
        "instances": "0",
        "worst_margin": "inf",
        "pass": "false",
        "detail": "no instances",
    }
    assert all(row["pass"] == "true" for name, row in rows.items()
               if name != "translate-difference-bound")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize(
    "argv, key",
    [
        (("verify-lemmas", "--resolution", "4", "--lemma5-count", "0"), "worst_margin"),
        (("approx", "--function", "step_mix", "--resolution", "4", "--weights", "linear_up",
          "--nmin", "1", "--nmax", "1"), "bound"),
    ],
)
def test_nonfinite_values_are_null_in_json(capsys, argv, key):
    # an empty translate check has margin inf; a bound not asserted is nan
    _, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    rows = payload["records"] if isinstance(payload, dict) else payload
    assert None in [row[key] for row in rows]
    _, out, _ = run(capsys, *argv)
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert not all(math.isfinite(float(row[key])) for row in csv.DictReader(lines))


@pytest.mark.parametrize(
    "payload",
    [
        [{"n": 1, "l1": 1.0, "ok": True, "detail": ""}, {"n": 2, "l1": 0.1, "ok": False}],
        {"seed": 3, "records": [{"omega": float("inf"), "p": "inf"}, {"omega": 1e-300}]},
        [],
    ],
)
def test_json_is_the_bytes_of_json_dump(tmp_path, payload):
    path = tmp_path / "out.json"
    cli._emit(payload, "json", str(path))
    expected = io.StringIO()
    json.dump(_null_mapped(payload), expected, indent=2, allow_nan=False)
    assert path.read_bytes() == (expected.getvalue() + "\n").encode()


def _null_mapped(payload):
    """payload with nan and +-inf as None, as _emit writes them in JSON."""
    if isinstance(payload, dict):
        return {key: _null_mapped(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_null_mapped(value) for value in payload]
    if isinstance(payload, float) and not math.isfinite(payload):
        return None
    return payload


def _csv_lines(payload):
    """The CSV lines of a payload by the rule _emit documents."""
    if isinstance(payload, list):
        meta, records = {}, payload
    elif "records" in payload:
        meta = {key: value for key, value in payload.items() if key != "records"}
        records = payload["records"]
    else:
        meta, records = {}, [payload]

    def field(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".12g") if isinstance(value, float) else str(value)

    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(records[0]))
    return lines + [",".join(field(value) for value in record.values()) for record in records]


_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    st.integers(-(1 << 70), 1 << 70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)
# A small pool makes records share key tuples, in and out of order; the
# free text brings in '%', quotes, escapes and non-ASCII keys.
_KEYS = st.one_of(st.sampled_from(["n", "p", "l1", "%s", "\u00e9", 'a"b']), st.text(max_size=4))
_RECORD = st.dictionaries(_KEYS, _SCALARS, max_size=5)
_RECORDS = st.lists(_RECORD, max_size=6)
_META = st.dictionaries(_KEYS.filter(lambda key: key != "records"), _SCALARS, max_size=3)
_PAYLOADS = st.one_of(
    _RECORDS,
    _RECORD.filter(lambda record: "records" not in record),
    st.builds(lambda meta, records: {**meta, "records": records}, _META, _RECORDS),
)


def _emitted(payload, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, fmt, "-")
    return out.getvalue()


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_emit_writes_the_text_of_json_dump_and_the_csv_rule(payload):
    expected = json.dumps(_null_mapped(payload), indent=2, allow_nan=False) + "\n"
    assert _emitted(payload, "json").encode() == expected.encode()
    records = payload if isinstance(payload, list) else payload.get("records", [payload])
    if records:  # the CSV header is the keys of the first record
        expected = "".join(line + "\n" for line in _csv_lines(payload))
        assert _emitted(payload, "csv") == expected


def test_kernel_norms_builds_no_fraction(capsys, monkeypatch):
    # The norms stay integer sums up to one float64 division per column;
    # the sweep once built two Fractions per row.
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    for module in (cli, experiments, kernels):
        monkeypatch.setattr(module, "Fraction", counted, raising=False)
    code, out, _ = run(capsys, "kernel-norms", "--resolution", "16")
    assert code == 0 and len(out.splitlines()) == 1 + (1 << 15)
    assert made == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_writes_in_chunks_of_rows(monkeypatch, fmt):
    # kernel-norms up to N = 13 writes once; past it, one write per 4096
    # rows, drawn lazily, with the bytes of a single write.
    writes = []

    class Counted(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    texts = []
    for N in (13, 15):
        out = Counted()
        monkeypatch.setattr(sys, "stdout", out)
        writes.clear()
        assert cli.main(["kernel-norms", "--resolution", str(N), "--format", fmt]) == 0
        texts.append(out.getvalue())
        assert len(writes) == max(1, (1 << (N - 1)) // 4096)
    if fmt == "json":
        rows = json.loads(texts[1])
        assert texts[1] == json.dumps(rows, indent=2) + "\n"
    else:
        rows = list(csv.DictReader(texts[1].splitlines()))
        assert all(len(row) == 3 and None not in row.values() for row in rows)
    assert len(rows) == 1 << 14
    assert [str(row["n"]) for row in rows[4095:4097]] == ["4096", "4097"]


def test_weights_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "weights-validate", "--weights", "linear_down", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sum,sum_ok,monotonicity,c2_constant,case_a_ok,case_b_ok"
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[2] == "true"
    assert fields[3] == "nonincreasing"
    # a file sets its own block exponent; --n may only repeat it
    path = tmp_path / "w.csv"
    path.write_text("k,t\n4,1/4\n5,1/4\n6,1/4\n7,1/4\n")
    for extra in ([], ["--n", "2"]):
        code, out, _ = run(capsys, "weights-validate", "--weights", str(path), *extra)
        assert code == 0 and out.splitlines()[1] == "2,1,true,both,1.75,true,true"
    code, out, err = run(capsys, "weights-validate", "--weights", str(path), "--n", "3")
    assert code == 2 and out == "" and "block exponent 2" in err
    code, out, err = run(capsys, "weights-validate", "--weights", "uniform")
    assert code == 2 and out == "" and "family weight specs require --n" in err


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("resolution=6\nfunction=abs_power:1.0\nweights=uniform\np=2\nnmax=2\n")
    code, out, _ = run(capsys, "approx", "--config", str(cfg))
    assert code == 0
    assert ",2," in out.splitlines()[2]
    # explicit flag beats config value
    code, out, _ = run(capsys, "approx", "--config", str(cfg), "--p", "1")
    assert code == 0
    assert out.splitlines()[2].split(",")[1] == "1"
    # the one-token form reads the same file
    code, out, _ = run(capsys, "approx", f"--config={cfg}", "--p", "1")
    assert code == 0
    assert out.splitlines()[2].split(",")[1] == "1"
    # an abbreviation would parse and skip the file, so it is refused
    flags = ["--function", "abs_power:1.0", "--weights", "uniform", "--nmax", "2"]
    for argv in (["--conf", str(cfg)], [f"--conf={cfg}"]):
        with pytest.raises(SystemExit) as exc:
            main(["approx", *flags, *argv])
        assert exc.value.code == 2


def test_nested_config_is_refused(tmp_path, capsys, monkeypatch):
    # The nested line was injected as --config, which argparse accepted
    # and nothing read: the N = 4 table printed without opening the file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nested.cfg").write_text("config=missing.cfg\nresolution=4\n")
    code, out, err = run(capsys, "modulus", "--function", "step_mix", "--config", "nested.cfg",
                         "--nmax", "1")
    assert code == 2 and out == ""
    assert err == "error: config file 'nested.cfg' cannot set config\n"


def test_second_config_is_refused(tmp_path, capsys):
    # Only the first --config was read; argparse took the second and
    # nothing applied it.
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("resolution=4\n")
    second.write_text("resolution=5\n")
    for configs in (
        ["--config", str(first), "--config", str(second)],
        [f"--config={first}", "--config", str(second)],
        ["--config", str(first), f"--config={second}"],
    ):
        code, out, err = run(capsys, "modulus", "--function", "random", *configs)
        assert code == 2 and out == ""
        assert err == "error: --config may be given only once\n"


def test_deterministic_output(capsys):
    args = (
        "approx",
        "--function",
        "step_mix",
        "--seed",
        "11",
        "--weights",
        "cesaro:2",
        "--p",
        "1,2,inf",
        "--resolution",
        "7",
        "--nmax",
        "4",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "approx", "--function", "bogus:1", "--weights", "uniform")
    assert code == 2 and "error:" in err
    for p in ("0.5", "nan", "2,0.5"):
        code, out, err = run(capsys, "modulus", "--function", "indicator:2", "--p", p)
        assert code == 2 and out == "" and "L_p exponent must be >= 1 or inf" in err
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--function", "indicator:2", "--weights", "uniform", "--cmax", "1"])
    assert exc.value.code == 2
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,1\n3,1/0\n")
    code, _, err = run(capsys, "weights-validate", "--weights", str(path))
    assert code == 2 and "zero denominator" in err
    # both commands read a weight spec alike
    for argv in (
        ["approx", "--function", "indicator:2"],
        ["weights-validate"],
        ["weights-validate", "--n", "2"],
    ):
        code, out, err = run(capsys, *argv, "--weights", "custom")
        assert code == 2 and out == "" and "unknown weight spec 'custom'" in err
    # an explicit --n 0 is a bad block exponent, not a missing --n
    code, out, err = run(capsys, "weights-validate", "--weights", "uniform", "--n", "0")
    assert code == 2 and out == "" and "block exponent must be >= 1, got 0" in err
    for command, extra in (("approx", ["--weights", "uniform"]), ("modulus", [])):
        code, out, err = run(
            capsys, command, "--function", "indicator:2", "--resolution", "8",
            "--nmin", "5", "--nmax", "3", *extra,
        )
        assert code == 2 and out == "" and "empty block range: nmin=5 > nmax=3" in err


_SWEEP = ("--resolution", "6", "--nmax", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("approx", "--function", "random:5", "--weights", "uniform", *_SWEEP),
         "function spec 'random:5' takes no argument"),
        (("approx", "--function", "step_mix:junk", "--weights", "uniform", *_SWEEP),
         "function spec 'step_mix:junk' takes no argument"),
        (("modulus", "--function", "abs_power", *_SWEEP),
         "function spec 'abs_power' needs an argument after ':'"),
        (("modulus", "--function", "indicator:", *_SWEEP),
         "function spec 'indicator:' needs an argument after ':'"),
        (("modulus", "--function", "walsh_poly", *_SWEEP),
         "function spec 'walsh_poly' needs an argument after ':'"),
        (("approx", "--function", "step_mix", "--weights", "linear_up:2", *_SWEEP),
         "weight spec 'linear_up:2' takes no argument"),
        (("weights-validate", "--weights", "uniform:3", "--n", "2"),
         "weight spec 'uniform:3' takes no argument"),
        (("weights-validate", "--weights", "linear_down:", "--n", "2"),
         "weight spec 'linear_down:' takes no argument"),
    ],
    ids=["random", "step_mix", "abs_power", "indicator", "walsh_poly", "linear_up",
         "uniform", "linear_down"],
)
def test_spec_arguments_are_checked(capsys, argv, message):
    # The arguments were ignored, and a missing one failed in float('').
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("modulus", "--function", "abs_power:abc", "--resolution", "4"),
         "function spec 'abs_power:abc': 'abc' is not a number"),
        (("approx", "--function", "indicator:x", "--weights", "uniform", *_SWEEP),
         "function spec 'indicator:x': 'x' is not an integer"),
        (("approx", "--function", "walsh_poly:1,x", "--weights", "uniform", *_SWEEP),
         "function spec 'walsh_poly:1,x': 'x' is not a number"),
        (("approx", "--function", "step_mix", "--weights", "cesaro:x", *_SWEEP),
         "weight spec 'cesaro:x': 'x' is not a number"),
        (("approx", "--function", "step_mix", "--weights", "uniform", "--p", "1,bogus", *_SWEEP),
         "--p spec '1,bogus': 'bogus' is not a number"),
        (("modulus", "--function", "step_mix", "--p", "inf,x", *_SWEEP),
         "--p spec 'inf,x': 'x' is not a number"),
    ],
    ids=["abs_power", "indicator", "walsh_poly", "cesaro", "approx-p", "modulus-p"],
)
def test_malformed_spec_numbers_name_the_spec(capsys, argv, message):
    # The bare float() or int() message did not say which spec failed.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_modulus_past_the_resolution_builds_no_table(capsys, monkeypatch):
    # Every row up to N was computed before row N + 1 was refused.
    built = []
    monkeypatch.setattr(experiments, "make_function", lambda *a: built.append(a))
    monkeypatch.setattr(dyadic, "_modulus_table", lambda *a: built.append(a))
    code, out, err = run(capsys, "modulus", "--function", "random", "--resolution", "8",
                         "--p", "1", "--nmin", "0", "--nmax", "9")
    assert code == 2 and out == "" and built == []
    assert err == "error: nmax=9 needs resolution >= 9\n"


def test_modulus_parses_its_p_list_once(capsys, monkeypatch):
    # The list was parsed again for every n of the sweep: 13 times here.
    parses = []
    parse = cli._parse_p_list
    monkeypatch.setattr(cli, "_parse_p_list", lambda text: parses.append(text) or parse(text))
    sweep = ("modulus", "--function", "step_mix", "--resolution", "12", "--nmin", "0")
    code, out, _ = run(capsys, *sweep, "--nmax", "12", "--p", "1,2,inf")
    assert code == 0 and parses == ["1,2,inf"] and len(out.splitlines()) == 1 + 13 * 3
    # A bad token is still refused with the same message, and after the
    # block range is checked.
    code, out, err = run(capsys, *sweep, "--nmax", "12", "--p", "2,0.5")
    assert code == 2 and out == "" and err == "error: L_p exponent must be >= 1 or inf, got 0.5\n"
    code, out, err = run(capsys, *sweep, "--nmax", "-1", "--p", "0.5")
    assert code == 2 and out == "" and err == "error: empty block range: nmin=0 > nmax=-1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("approx", "--weights", "uniform", "--p", "bogus"),
         "--p spec 'bogus': 'bogus' is not a number"),
        (("approx", "--weights", "nosuch", "--p", "2"), "unknown weight spec 'nosuch'"),
        (("modulus", "--p", "1,0.5"), "L_p exponent must be >= 1 or inf, got 0.5"),
    ],
    ids=["approx-p", "approx-weights", "modulus-p"],
)
def test_specs_are_read_before_the_function_is_built(capsys, monkeypatch, argv, message):
    # At N = 24 the 2^24 samples of random were built first (286 MiB at
    # peak) and never read.
    built = []
    monkeypatch.setattr(experiments, "make_function", lambda *a: built.append(a))
    code, out, err = run(capsys, *argv, "--function", "random", "--resolution", "24")
    assert code == 2 and out == "" and err == f"error: {message}\n" and built == []


@pytest.mark.parametrize(
    "weights, message",
    [
        (("cesaro:-2",), "cesaro alpha must exceed -1, got -2.0"),
        (("cesaro:-0.5",), "cesaro alpha -0.5 produces negative weights"),
        # The bit budget is checked before the sign, at --nmin.
        (("cesaro:-0.5", "--nmin", "14"), "cesaro alpha -0.5 at n=14 needs about 2.7e+08 bits"),
        (("block-3",), "weight file covers block exponent 3, cannot use n=1"),
    ],
    ids=["alpha", "sign", "bit-budget", "file"],
)
def test_the_first_scheme_is_built_before_the_function(capsys, monkeypatch, tmp_path,
                                                         weights, message):
    # A scheme was refused at its first block, after the 2^24 samples of
    # random were built (286 MiB at peak).
    if weights[0] == "block-3":
        path = tmp_path / "w.csv"
        path.write_text("k,t\n" + "".join(f"{k},1\n" for k in range(8, 16)))
        weights = (str(path),)
    built = []
    monkeypatch.setattr(experiments, "make_function", lambda *a: built.append(a))
    code, out, err = run(capsys, "approx", "--function", "random", "--resolution", "24",
                         "--p", "2", "--weights", *weights)
    assert code == 2 and out == "" and err.startswith(f"error: {message}") and built == []


@pytest.mark.parametrize("alpha", ["inf", "nan", "-1"])
def test_abs_power_needs_a_finite_positive_alpha(capsys, alpha):
    # inf gave the zero function and nan failed late on the samples.
    code, out, err = run(capsys, "modulus", "--function", f"abs_power:{alpha}",
                         "--resolution", "4")
    assert code == 2 and out == "" and "abs_power needs a finite alpha > 0" in err


@pytest.mark.parametrize("coeffs, index", [("1,nan", 1), ("inf,0", 0)])
def test_walsh_poly_needs_finite_coefficients(capsys, coeffs, index):
    # A NaN coefficient was reported as a synthesis overflowing the float range.
    code, out, err = run(capsys, "modulus", "--function", f"walsh_poly:{coeffs}",
                         "--resolution", "3")
    assert code == 2 and out == ""
    assert f"walsh_poly coefficient {index} is" in err and "overflow" not in err


@pytest.mark.parametrize("flag", ["--lemma5-count", "--random-schemes"])
def test_negative_lemma_counts_are_usage_errors(capsys, flag):
    # A negative --lemma5-count passed as a check without instances that
    # nonetheless held; a negative --random-schemes was read as 0.
    code, out, err = run(capsys, "verify-lemmas", "--resolution", "6", flag, "-3")
    assert code == 2 and out == "" and "instance counts must be >= 0" in err


def test_lemma_counts_past_the_work_budget_are_usage_errors(capsys):
    # 10^7 translate-difference instances at N = 12 would run for hours.
    code, out, err = run(capsys, "verify-lemmas", "--resolution", "12",
                         "--lemma5-count", "10000000")
    assert code == 2 and out == ""
    assert "--lemma5-count" in err and "--random-schemes" in err


@pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("command, extra", [
    ("weights-validate", ["--n", "2"]),
    ("approx", ["--function", "indicator:2", "--resolution", "6"]),
])
def test_cesaro_needs_a_finite_alpha(capsys, alpha, command, extra):
    # cesaro:inf died with an OverflowError traceback in Fraction(alpha).
    code, out, err = run(capsys, command, "--weights", f"cesaro:{alpha}", *extra)
    assert code == 2 and out == "" and "cesaro alpha must be finite" in err


@pytest.mark.parametrize(
    "alpha, n", [("0.5", 16), ("0.123456789", 12), ("1000000.0", 16), ("1e+307", 16)]
)
def test_cesaro_past_the_bit_budget_is_refused(capsys, alpha, n):
    # About 4^n log2(q) bits for alpha = p/q: cesaro:0.5 at n = 16 did not
    # finish in 100 s, and 0.123456789 took 4.1 s already at n = 11.  An
    # integer alpha (q = 1) grows its numerators instead: 1e6 took 3.5 s at
    # n = 13; an lgamma estimate would overflow at 1e307.
    tracemalloc.start()
    start = time.perf_counter()
    code, out, err = run(capsys, "weights-validate", "--weights", f"cesaro:{alpha}", "--n", str(n))
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and out == "" and f"cesaro alpha {alpha} at n={n} needs about" in err
    assert elapsed < 0.5 and peak < 1 << 20


@pytest.mark.parametrize("alpha, n", [("-0.5", 13), ("-0.999999999", 10), ("-0.25", 1)])
def test_cesaro_negative_alpha_is_refused_before_the_chain(capsys, alpha, n):
    # A_1 = alpha < 0 at every n: cesaro:-0.5 at n = 13 built its whole
    # chain first (0.20 s, 64 MiB) to find the negative weight.
    tracemalloc.start()
    start = time.perf_counter()
    code, out, err = run(capsys, "weights-validate", "--weights", f"cesaro:{alpha}", "--n", str(n))
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: cesaro alpha {float(alpha)} produces negative weights\n"
    assert elapsed < 0.1 and peak < 1 << 20


def test_cesaro_bit_budget_comes_before_the_sign(capsys):
    code, out, err = run(capsys, "weights-validate", "--weights", "cesaro:-0.5", "--n", "14")
    assert code == 2 and out == "" and "cesaro alpha -0.5 at n=14 needs about" in err


@pytest.mark.parametrize(
    "command, rows, message",
    [
        # The sum 3.1e308 of condition (1) passes the float range.
        ("weights-validate", "4,1e308\n5,1e308\n6,1e308\n7,1e307\n",
         "the sum of the weights of block n = 2"),
        # c2 = t_3 (2^2 - 1) = 3e308
        ("weights-validate", "2,1\n3,1e308\n", "the c2 constant of block n = 1"),
        ("approx", "2,1\n3,1e308\n", "the c2 constant of block n = 1"),
        ("weights-validate", "2,1e309\n3,0\n", "line 2: weight '1e309'"),
    ],
    ids=["sum", "c2", "c2-approx", "token"],
)
def test_weights_past_the_float_range_are_usage_errors(capsys, tmp_path, command, rows, message):
    # Each died with an OverflowError traceback, exit 1.
    path = tmp_path / "w.csv"
    path.write_text("k,t\n" + rows)
    extra = ["--function", "step_mix", "--resolution", "4", "--nmin", "1", "--nmax", "1"]
    code, out, err = run(capsys, command, "--weights", str(path), *(extra if command == "approx" else []))
    assert code == 2 and out == ""
    assert err == f"error: {message} passes the float range\n"


def test_main_calls_share_no_weight_builder(capsys, monkeypatch):
    # Each command makes its own builder, and nothing keeps it past the
    # call: the chain of one call is never the start of the next.
    made = []
    init = _FamilySchemes.__init__

    def recorded(self, family, alpha=None):
        init(self, family, alpha)
        made.append(weakref.ref(self))

    monkeypatch.setattr(_FamilySchemes, "__init__", recorded)
    argv = ["approx", "--function", "step_mix", "--resolution", "8", "--weights", "cesaro:0.5",
            "--nmin", "3", "--nmax", "5", "--p", "2"]
    first = run(capsys, *argv)
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    second = run(capsys, *argv)
    assert first == second and first[0] == 0 and len(made) == 2


@pytest.mark.parametrize("alpha", ["1e-10", "1e-12", "-3e-11"])
def test_cesaro_alpha_without_a_near_fraction_is_refused(capsys, alpha):
    # cesaro:1e-10 was rounded to the fraction 0 and ran as cesaro:0, exit 0.
    code, out, err = run(capsys, "weights-validate", "--weights", f"cesaro:{alpha}", "--n", "3")
    assert code == 2 and out == ""
    assert f"cesaro alpha {float(alpha)} has no fraction" in err


@pytest.mark.parametrize("alpha", ["2", "0.5", "0.3", "0.123456789"])
def test_cesaro_alpha_with_a_near_fraction_is_kept(capsys, alpha):
    code, out, _ = run(capsys, "weights-validate", "--weights", f"cesaro:{alpha}", "--n", "3")
    assert code == 0 and out.splitlines()[1].split(",")[2] == "true"


@pytest.mark.parametrize("cmax", ["nan", "inf", "-inf", "-1"])
def test_cmax_must_be_finite_and_non_negative(capsys, cmax):
    # nan and -1 read case_a_ok as false without a word, inf as vacuously true.
    code, out, err = run(capsys, "weights-validate", "--weights", "linear_up", "--n", "3",
                         f"--cmax={cmax}")
    assert code == 2 and out == ""
    assert err == f"error: --cmax must be finite and >= 0, got {float(cmax)}\n"


def test_cmax_zero_is_a_cap(capsys):
    code, out, _ = run(capsys, "weights-validate", "--weights", "uniform", "--n", "3",
                       "--cmax", "0")
    assert code == 0 and out.splitlines()[1].split(",")[5] == "false"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # Every call built the whole tree of 7 parsers, about 1.5 ms of argparse
    # set-up per call.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(25):
        assert run(capsys, "weights-validate", "--weights", "uniform", "--n", "2")[0] == 0
        assert run(capsys, "kernel-norms", "--resolution", "3")[0] == 0
    assert len(built) <= 7


@pytest.mark.parametrize("n", [70, dyadic.MAX_RESOLUTION])
@pytest.mark.parametrize("weights", ["uniform", "cesaro:2"])
def test_block_past_the_resolution_cap_is_refused(capsys, n, weights):
    # No resolution holds the block, so its 2^n weights are never built:
    # n = 70 died in [1] * 2^70, and n = 30 would have built 2^30 of them.
    code, out, err = run(capsys, "weights-validate", "--weights", weights, "--n", str(n))
    assert code == 2 and out == ""
    assert f"block exponent {n} needs resolution {n + 1}, above the cap" in err


@pytest.mark.parametrize(
    "argv, resolution",
    [
        (("kernel-norms",), "0"),
        (("kernel-norms",), "100"),
        (("approx", "--function", "indicator:2", "--weights", "uniform"), "0"),
        (("modulus", "--function", "indicator:2"), "-3"),
    ],
)
def test_resolution_is_checked_before_the_defaults_it_sets(capsys, argv, resolution):
    # The default --nmax, and the kernel-norms row count, derive from it.
    code, out, err = run(capsys, *argv, "--resolution", resolution)
    cap = dyadic.MAX_RESOLUTION
    assert code == 2 and out == ""
    assert err == f"error: resolution must be in [1, {cap}], got {resolution}\n"


def test_p_has_one_json_form_in_approx_and_modulus(capsys):
    for command, extra in (("approx", ("--weights", "uniform", "--nmax", "1")), ("modulus", ())):
        code, out, _ = run(
            capsys, command, "--function", "step_mix", "--resolution", "4",
            "--nmin", "1", "--p", "1,2.5,inf", "--format", "json", *extra,
        )
        payload = json.loads(out)
        rows = payload["records"] if command == "approx" else payload
        assert code == 0 and [r["p"] for r in rows[:3]] == ["1", "2.5", "inf"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-lemmas", "--lemma5-count", "0", "--random-schemes", "0"),
        ("modulus", "--function", "abs_power:0.5", "--p", "2"),
    ],
)
def test_resolution_past_the_cap_is_refused_whatever_the_environment(capsys, monkeypatch, argv):
    # The cap is fixed: no environment variable raises it, so no 2^25-cell
    # array is allocated before the refusal.
    monkeypatch.setenv("WALSHVP_MAX_N", "40")
    tracemalloc.start()
    code, out, err = run(capsys, *argv, "--resolution", "25")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == "error: resolution must be in [1, 24], got 25\n"
    assert peak < 1 << 20


def test_explicit_nmax_zero_is_honoured(capsys):
    code, out, _ = run(capsys, "modulus", "--function", "step_mix", "--resolution", "4",
                       "--nmin", "0", "--nmax", "0")
    rows = out.splitlines()
    assert code == 0 and len(rows) == 2 and rows[1].startswith("0,inf,1,")
    code, out, err = run(capsys, "approx", "--function", "step_mix", "--weights", "uniform",
                         "--resolution", "4", "--nmax", "0")
    assert code == 2 and out == "" and "nmin=1 > nmax=0" in err
    code, out, err = run(capsys, "kernel-norms", "--resolution", "4", "--nmax", "0")
    assert code == 2 and out == "" and "n_max >= 1" in err


def test_overflowing_oscillation_prints_no_warning(capsys):
    # The oscillation 2e308 passes the float range: a usage error, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "modulus", "--function", "walsh_poly:0,1e308",
                             "--resolution", "3", "--p", "inf", "--nmax", "1")
    assert code == 2 and out == ""
    assert err == "error: the p = inf modulus at n = 0 passes the float range\n"


def test_overflowing_inverse_transform_names_the_synthesis(capsys, tmp_path):
    # The coefficients are finite, their sum at x = 0 is 3e308.
    path = tmp_path / "s.txt"
    path.write_text("SPECTRUM\nN=3\n" + "1e308\n" * 3 + "0\n" * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "transform", "--inverse", "--in", str(path))
    assert code == 2 and out == ""
    assert err == "error: the synthesis of the spectrum overflows the float range\n"


def test_constant_near_the_float_limit_is_not_doubled(capsys):
    # A rank-0 function is transformed at size 1: no 2^N sum of its samples
    # overflows, so the mean reproduces it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", "--function", "walsh_poly:1e308",
                             "--resolution", "3", "--weights", "uniform", "--nmin", "1",
                             "--nmax", "1", "--p", "2,inf", "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)["records"]
    assert [(r["p"], r["error"], r["modulus"]) for r in rows] == [("2", 0.0, 0.0), ("inf", 0.0, 0.0)]


def test_full_rank_samples_near_the_float_limit_do_not_overflow(capsys, tmp_path):
    # 2^N max|f| passes the float range, so the samples are scaled before
    # the forward butterfly: fhat(3) = 1e308 and no sum overflows.
    path = tmp_path / "f.txt"
    path.write_text("N=2\n1e308\n-1e308\n-1e308\n1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "transform", "--in", str(path))
        assert code == 0 and err == ""
        assert out.splitlines() == ["SPECTRUM", "N=2", "0", "0", "0", "1e+308"]
        # At 8e307 the samples are still scaled (2^N 8e307 passes the float
        # range) and the modulus 1.6e308 stays finite; 1e308 would double to
        # an infinite modulus, which is a usage error.
        code, out, err = run(capsys, "approx", "--function", "walsh_poly:0,0,0,8e307",
                             "--resolution", "3", "--weights", "uniform", "--nmin", "1",
                             "--nmax", "1", "--p", "2,inf")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [(r["p"], r["error"], r["modulus"]) for r in rows] == [
        ("2", "8e+307", "1.6e+308"), ("inf", "8e+307", "1.6e+308")
    ]


@pytest.mark.parametrize(
    "function",
    [
        "walsh_poly:4",  # 4 times the weights' sum 1e308 is past the float range
        "walsh_poly:1.5,1.5",  # each product is finite, their sum is not
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_l2_error_past_the_float_range_is_a_usage_error(capsys, tmp_path, function, fmt):
    # The p = 2 error reads the residual of the block's mean, as every p
    # does, so a mean past the float range fails it first.
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,5e307\n3,5e307\n")  # the weights sum to 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", "--function", function, "--resolution", "3",
                             "--weights", str(path), "--nmin", "1", "--nmax", "1",
                             "--p", "2", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: the mean of block n = 1 passes the float range\n"


@pytest.mark.parametrize(
    "function, p",
    [
        ("walsh_poly:4", "1"),  # 4 times the weights' sum 1e308 is past the float range
        ("walsh_poly:1.5,1.5", "inf"),  # each product is finite, their sum is not
        ("walsh_poly:4", "1,2"),  # the mean fails before any error is read
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mean_past_the_float_range_is_a_usage_error(capsys, tmp_path, function, p, fmt):
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,5e307\n3,5e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", "--function", function, "--resolution", "3",
                             "--weights", str(path), "--nmin", "1", "--nmax", "1",
                             "--p", p, "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: the mean of block n = 1 passes the float range\n"


@pytest.mark.parametrize(
    "p, message", [("1", "p = 1 error"), ("inf,2", "p = inf error"), ("2", "p = 2 error")]
)
def test_residual_past_the_float_range_is_a_usage_error(capsys, tmp_path, p, message):
    # The mean 1.5e308 is finite; f = 0.5e308 + 1.2e308 w_3 moves the
    # residual 1e308 - 1.2e308 w_3 past the float range.
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,1.5\n3,1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", "--function", "walsh_poly:0.5e308,0,0,1.2e308",
                             "--resolution", "3", "--weights", str(path), "--nmin", "1",
                             "--nmax", "1", "--p", p)
    assert code == 2 and out == ""
    assert err == f"error: the {message} of block n = 1 passes the float range\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # The p = 1 modulus of block 1 fails before any later scheme is
        # built, though cesaro:0.3 is refused at n = 13 and every block
        # shares one mean period.
        (("--function", "walsh_poly:0,0,1e308", "--resolution", "14", "--weights",
          "cesaro:0.3", "--nmin", "1", "--nmax", "13", "--p", "1,2,inf"),
         "the p = 1 modulus at n = 1 passes the float range"),
        # Block 1's ratio fails before block 2's scheme, which the file
        # cannot give.
        (("--function", "walsh_poly:1,0,0,0,1e-10", "--resolution", "4", "--weights", "W",
          "--nmin", "1", "--nmax", "2", "--p", "inf,1"),
         "the p = inf ratio of block n = 1 passes the float range"),
        # The first p given fails first.
        (("--function", "walsh_poly:4", "--resolution", "3", "--weights", "W", "--nmin", "1",
          "--nmax", "1", "--p", "1,2"), "the mean of block n = 1 passes the float range"),
        (("--function", "walsh_poly:4", "--resolution", "3", "--weights", "W", "--nmin", "1",
          "--nmax", "1", "--p", "2,1"), "the mean of block n = 1 passes the float range"),
        # Both blocks of the constant f share one mean period; block 1's
        # mean fails before block 2's scheme, which the file cannot give.
        (("--function", "walsh_poly:4", "--resolution", "4", "--weights", "W", "--nmin", "1",
          "--nmax", "2", "--p", "1"), "the mean of block n = 1 passes the float range"),
    ],
    ids=["cesaro-at-13", "file-at-2", "p1-first", "p2-first", "shared-period"],
)
def test_the_first_failing_block_and_p_is_reported(capsys, monkeypatch, tmp_path, argv, message):
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,5e307\n3,5e307\n")
    argv = [str(path) if a == "W" else a for a in argv]
    built = []
    call = _FamilySchemes.__call__

    def counted(self, n):
        built.append(n)
        return call(self, n)

    monkeypatch.setattr(_FamilySchemes, "__call__", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"
    # No family scheme past the failing block is built.
    assert built == ([1] if "cesaro:0.3" in argv else [])


@pytest.mark.parametrize(
    "argv, message",
    [
        # f = 1e308 w_2 doubles under every translate that moves x_1
        (("approx", "--function", "walsh_poly:0,0,1e308", "--resolution", "4",
          "--weights", "uniform", "--nmin", "1", "--nmax", "1", "--p", "1,2,inf"),
         "the p = 1 modulus at n = 1"),
        (("approx", "--function", "walsh_poly:0,0,0,1e308", "--resolution", "3",
          "--weights", "uniform", "--nmin", "1", "--nmax", "1", "--p", "2,inf"),
         "the p = 2 modulus at n = 1"),
        (("modulus", "--function", "walsh_poly:0,0,1e308", "--resolution", "4",
          "--p", "1,2,inf"), "the p = 1 modulus at n = 0"),
        (("modulus", "--function", "walsh_poly:0,0,1e308", "--resolution", "4",
          "--nmin", "1", "--p", "inf"), "the p = inf modulus at n = 1"),
    ],
    ids=["approx-p1", "approx-p2", "modulus-p1", "modulus-inf"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_modulus_past_the_float_range_is_a_usage_error(capsys, argv, message, fmt):
    # An infinite modulus would read as ratio 0 with bound_ok true.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: {message} passes the float range\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_past_the_float_range_is_a_usage_error(capsys, tmp_path, fmt):
    # The error is about 1e308 and the modulus about 2e-10, so their ratio
    # passes the float range in a row that no flag marks.
    path = tmp_path / "w.csv"
    path.write_text("k,t\n2,5e307\n3,5e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "approx", "--function", "walsh_poly:1,0,0,0,1e-10",
                             "--resolution", "4", "--weights", str(path), "--nmin", "1",
                             "--nmax", "1", "--p", "1", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: the p = 1 ratio of block n = 1 passes the float range\n"


APPROX_1_3 = ("approx", "--weights", "uniform", "--nmin", "1", "--nmax", "3")


@pytest.mark.parametrize(
    "argv, function, p, sizes",
    [
        # step_mix has rank 4: f once at 2^4, one synthesis per block of
        # its mean period 2^min(n+1, 4), before the block's errors and so
        # before block 1's table, the one of 2^(4-nmin) for every p = 2
        # modulus
        (APPROX_1_3, "step_mix", "2", [16, 4, 8, 8, 16]),
        # p = 1 reads the same mean periods and adds no synthesis
        (APPROX_1_3[:-1] + ("5",), "step_mix", "1,2", [16, 4, 8, 8, 16, 16, 16]),
        (("modulus", "--nmin", "0", "--nmax", "2"), "step_mix", "2", [16, 16]),
        # full rank: f once at 2^N, the mean periods, a table of 2^(N-nmin)
        (APPROX_1_3, "abs_power:0.5", "2", [1024, 4, 512, 8, 16]),
    ],
    ids=["approx-step_mix", "approx-step_mix-p1", "modulus-step_mix", "approx-abs_power"],
)
def test_transforms_per_command(capsys, monkeypatch, argv, function, p, sizes):
    counted_sizes = []
    butterfly = walsh_system._butterfly

    def counted(a):
        counted_sizes.append(a.size)
        return butterfly(a)

    monkeypatch.setattr(walsh_system, "_butterfly", counted)
    monkeypatch.setattr(means, "_butterfly", counted)  # the means' synthesis
    code, _, _ = run(capsys, *argv, "--function", function, "--resolution", "10", "--p", p)
    assert code == 0 and counted_sizes == sizes


def test_transforms_per_command_past_the_chunk(capsys, monkeypatch):
    # At N = 18 both transforms take the chunked schedule, still one
    # _butterfly call each: f at 2^18 and the table at 2^(18 - nmin).
    counted_sizes = []
    butterfly = walsh_system._butterfly

    def counted(a):
        counted_sizes.append(a.size)
        return butterfly(a)

    monkeypatch.setattr(walsh_system, "_butterfly", counted)
    code, _, _ = run(capsys, *APPROX_1_3, "--function", "abs_power:0.5", "--resolution", "18",
                     "--p", "2")
    assert code == 0 and counted_sizes == [1 << 18, 1 << 17]


def test_every_option_is_read(capsys, tmp_path):
    # Each parsed option must reach its command; --config is consumed
    # before parsing and `command` selects the handler.
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    path = tmp_path / "f.txt"
    path.write_text("N=1\n0.5\n-0.5\n")
    argvs = {
        "transform": ["--in", str(path)],
        "kernel-norms": ["--resolution", "4"],
        "verify-lemmas": ["--resolution", "4", "--lemma5-count", "3", "--random-schemes", "1"],
        "approx": ["--function", "step_mix", "--weights", "uniform", "--resolution", "5"],
        "modulus": ["--function", "step_mix", "--resolution", "4"],
        "weights-validate": ["--weights", "uniform", "--n", "2"],
    }
    assert set(argvs) == set(cli._COMMANDS)
    unread = {}
    for command, argv in argvs.items():
        args = cli.build_parser().parse_args([command, *argv], namespace=Recording())
        dests = set(vars(args)) - {"command", "config"}
        reads.clear()
        assert cli._COMMANDS[command](args) == 0
        if dests - reads:
            unread[command] = sorted(dests - reads)
    capsys.readouterr()
    assert unread == {}
