"""Command-line front end.

Subcommands: transform, kernel-norms, verify-lemmas, approx, modulus,
weights-validate.  Exit codes: 0 success, 1 mathematical check failed,
2 usage error.  A key=value config file (one --config FILE or
--config=FILE) supplies defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import List, Optional

import numpy as np

from . import experiments
from .dyadic import (
    INF,
    _check_exponent,
    check_resolution,
    modulus_of_continuity,
    read_function,
    write_function,
)
from .kernels import kernel_norm_sweep
from .walsh_system import fwht_forward, fwht_inverse, read_spectrum, write_spectrum
from .weights import DEFAULT_CASE_A_CAP, FAMILIES, _FamilySchemes, load_weight_file, validate

USAGE_ERROR = 2
CHECK_FAILED = 1

# kernel-norms writes one row per order.  At this many rows, at N = 24, it
# takes 1.4-1.9 s and 210 MiB peak to write 26 MB of JSON (1.4 s, 180 MiB
# and 9 MB as CSV) on a 2-vCPU Xeon; time, memory and output grow with the
# rows, up to 2^24 at the resolution cap.
KERNEL_NORMS_MAX_ROWS = 1 << 18

_WEIGHTS_HELP = (
    "a family (uniform, linear_up, linear_down, cesaro:ALPHA) or a k,t CSV "
    "file; a spec whose name before ':' is a family is that family, even "
    "if a file of that name exists"
)


def _parse_p_list(text: str) -> List[float]:
    return [
        _check_exponent(experiments._spec_number("--p", text, token)) for token in text.split(",")
    ]


def _p_field(p: float) -> str:
    return "inf" if p == INF else format(p, ".12g")


def _schemes(spec: str):
    """The scheme of a weight spec, a family name, family:alpha, or a CSV
    file path, as a function of the block exponent n.  A family builds
    block after block on one builder, which needs n; a file covers one
    block exponent, which n=None selects.  A spec whose name part is a
    family is that family, so a file cannot shadow it.  The spec is read
    here, and the file loaded; the family's alpha is checked at its first
    block.
    """
    name, colon, arg = spec.partition(":")
    if name in FAMILIES:
        if colon and name != "cesaro":
            raise ValueError(f"weight spec {spec!r} takes no argument")
        alpha = experiments._spec_number("weight", spec, arg) if arg else None
        family = _FamilySchemes(name, alpha)

        def scheme(n: Optional[int]):
            if n is None:
                raise ValueError("family weight specs require --n")
            return family(n)

        return scheme
    if not os.path.exists(spec):
        raise ValueError(f"unknown weight spec {spec!r}")
    loaded = load_weight_file(spec)

    def scheme(n: Optional[int]):
        if n not in (None, loaded.block_exponent):
            raise ValueError(
                f"weight file covers block exponent {loaded.block_exponent}, cannot use n={n}"
            )
        return loaded

    return scheme


@contextlib.contextmanager
def _stream(path: str, mode: str):
    """stdin or stdout, by mode, for '-'; otherwise the file, closed on exit."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode) as fh:
            yield fh


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


# Bound once: looking float.__repr__ up is a measurable share of writing
# kernel-norms, two floats a row.
_FLOAT_REPR = float.__repr__


def _float_text(value: float) -> str:
    # json.dump with allow_nan=False refuses nan and inf; a record writes null.
    return _FLOAT_REPR(value) if math.isfinite(value) else "null"


# The JSON text of each scalar type: the C routines json.dumps itself calls
# for them, and its literals; a non-finite float is null.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _row_template(keys, indent: str) -> str:
    """The text json.dumps(indent=2) writes at indent for a flat dict with
    these keys, with a %s for each value."""
    if not keys:
        return "{}"
    inner = indent + "  "
    fields = [f"{inner}{encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys]
    return "{\n" + ",\n".join(fields) + f"\n{indent}}}"


# Records per write of _emit, so that a long output is never held whole:
# the 2^(N-1) rows of kernel-norms up to N = 13 make one write.
_EMIT_ROWS = 4096


def _chunks(records):
    """Lists of up to _EMIT_ROWS records of an iterable, drawn as needed."""
    records = iter(records)
    while chunk := list(itertools.islice(records, _EMIT_ROWS)):
        yield chunk


def _json_records(records, indent: str):
    """The text json.dumps(indent=2) writes at indent for an iterable of
    flat records, in one piece per _EMIT_ROWS records, the brackets joined
    to the first and the last: each record filled into the row template
    of its key tuple, built once per tuple, with one encoder call per
    value."""
    inner = indent + "  "
    separator = ",\n" + inner
    templates = {}
    text = None
    for chunk in _chunks(records):
        rows = []
        for record in chunk:
            keys = tuple(record)
            template = templates.get(keys)
            if template is None:
                template = templates[keys] = _row_template(keys, inner)
            rows.append(template % tuple([_JSON_SCALARS[type(v)](v) for v in record.values()]))
        if text is not None:
            yield text
        text = ("[\n" + inner if text is None else separator) + separator.join(rows)
    yield "[]" if text is None else f"{text}\n{indent}]"


def _json_text(payload):
    """The text json.dumps(payload, indent=2) writes for the payload shapes
    of _emit, non-finite floats as null, in the pieces of _json_records."""
    if not isinstance(payload, dict):
        yield from _json_records(payload, "")
        return
    text, separator = "{", "\n"
    for key, value in payload.items():
        text += f"{separator}  {encode_basestring_ascii(key)}: "
        if isinstance(value, list):
            for piece in _json_records(value, "  "):
                yield text + piece
                text = ""
        else:
            text += _JSON_SCALARS[type(value)](value)
        separator = ",\n"
    yield text + "\n}" if payload else "{}"


def _csv_text(payload):
    """The CSV lines of _emit, in one piece per _EMIT_ROWS records: each
    meta pair as a '# key=value' line and the header of the first
    record's keys go with the first."""
    if isinstance(payload, dict) and "records" in payload:
        head = "".join(f"# {key}={value}\n" for key, value in payload.items() if key != "records")
        records = payload["records"]
    else:
        head, records = "", [payload] if isinstance(payload, dict) else payload
    first = True
    for chunk in _chunks(records):
        rows = "\n".join([",".join([_csv_field(v) for v in record.values()]) for record in chunk])
        yield f"{head}{','.join(chunk[0])}\n{rows}\n" if first else rows + "\n"
        first = False


def _emit(payload, fmt: str, out_path: str) -> None:
    """The one writer of CSV and JSON records.

    payload is a list (or any iterable) of flat records, one record, or an
    envelope {**meta, "records": [...]}.  JSON keeps that shape, with
    non-finite floats as null, and fills each record into the row template
    of its keys.  CSV writes each meta pair as a '# key=value' line, then
    the record keys as the header and one row per record: bools as
    true/false, floats as .12g, anything else with str.  The records are
    drawn, filled and written _EMIT_ROWS at a time.
    """
    pieces = _json_text(payload) if fmt == "json" else _csv_text(payload)
    with _stream(out_path, "w") as stream:
        # A piece is written once the next is drawn, so the last one takes
        # JSON's final newline in the same write.
        text = next(pieces, "")
        for piece in pieces:
            stream.write(text)
            text = piece
        stream.write(text + "\n" if fmt == "json" else text)


def _add_common(parser, resolution_default=8):
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    parser.add_argument("--resolution", type=int, default=resolution_default)
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built once per process: main
    reuses it on every call.  Parsing leaves it unchanged, so no call sees
    another's arguments; only its own arguments reach a command."""
    parser = argparse.ArgumentParser(
        prog="walshvp",
        description="Walsh-Fourier analysis and de la Vallee Poussin mean experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Abbreviations are off in every subparser: an abbreviated --config
    # would parse but never reach _apply_config.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("transform", help="Walsh-Fourier transform of a sampled function")
    p.add_argument("--config")
    p.add_argument("--in", dest="infile", default="-", help="input path, '-' for stdin")
    p.add_argument("--out", default="-")
    p.add_argument("--inverse", action="store_true", help="synthesize from a spectrum")

    p = add("kernel-norms", help="L1 norms of Dirichlet and Fejer kernels")
    _add_common(p, resolution_default=10)
    p.add_argument("--nmax", type=int, help="default: 2^(N-1); at most 2^18 rows")

    p = add("verify-lemmas", help="run the kernel identity and bound checks")
    _add_common(p)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--lemma5-count", type=int, default=200, dest="lemma5_count")
    p.add_argument("--random-schemes", type=int, default=25, dest="random_schemes")

    p = add("approx", help="approximation error vs modulus table")
    _add_common(p, resolution_default=10)
    p.add_argument("--function", required=True)
    p.add_argument("--weights", required=True, help=_WEIGHTS_HELP)
    p.add_argument("--p", default="inf", help="comma list, e.g. 1,2,inf")
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, help="default: N-2")
    p.add_argument("--seed", type=int, default=0)

    p = add("modulus", help="modulus of continuity table")
    _add_common(p, resolution_default=10)
    p.add_argument("--function", required=True)
    p.add_argument("--p", default="inf")
    p.add_argument("--nmin", type=int, default=0)
    p.add_argument("--nmax", type=int, help="default: N")
    p.add_argument("--seed", type=int, default=0)

    p = add("weights-validate", help="validate a weight scheme")
    p.add_argument("--config")
    p.add_argument("--weights", required=True, help=_WEIGHTS_HELP)
    p.add_argument("--n", type=int, default=None, help="block exponent for family specs")
    p.add_argument("--cmax", type=float, default=DEFAULT_CASE_A_CAP)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _apply_config(argv: List[str]) -> List[str]:
    """Inject config-file pairs as flags right after the subcommand, so
    explicit command-line flags still win.  One --config at most, and the
    file cannot name another."""
    at = [i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"]
    if not at:
        return argv
    if len(at) > 1:
        raise ValueError("--config may be given only once")
    i = at[0]
    _, inline, path = argv[i].partition("=")
    if not inline:
        if i + 1 >= len(argv):
            raise ValueError("--config requires a path")
        path = argv[i + 1]
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key == "config":
                raise ValueError(f"config file {path!r} cannot set config")
            value = value.strip()
            if value.lower() == "true":
                injected.append(f"--{key}")
            else:
                injected.extend([f"--{key}", value])
    rest = argv[:i] + argv[i + (1 if inline else 2) :]
    return rest[:1] + injected + rest[1:]


def _cmd_transform(args) -> int:
    with _stream(args.infile, "r") as source:
        if args.inverse:
            result = fwht_inverse(read_spectrum(source))
        else:
            result = fwht_forward(read_function(source))
    with _stream(args.out, "w") as stream:
        if args.inverse:
            write_function(result, stream)
        else:
            write_spectrum(result, stream)
    return 0


def _cmd_kernel_norms(args) -> int:
    check_resolution(args.resolution)
    n_max = 1 << (args.resolution - 1) if args.nmax is None else args.nmax
    if n_max > KERNEL_NORMS_MAX_ROWS:
        raise ValueError(
            f"kernel-norms would write {n_max} rows, more than {KERNEL_NORMS_MAX_ROWS}; "
            f"pass a smaller --nmax"
        )
    d, ell = kernel_norm_sweep(n_max, args.resolution)
    # ||D_n||_1 = d(n) / 2^N and ||K_n||_1 = l(n) / (n 2^N).  Every operand
    # is exact in float64 (n 2^N <= 2^42), so each quotient is the
    # correctly rounded norm.
    orders = np.arange(1, n_max + 1)
    l1_dirichlet = d[1:] / (1 << args.resolution)
    l1_fejer = ell[1:] / (orders << args.resolution)
    # The records are built one write of _emit at a time, as it draws them.
    records = itertools.chain.from_iterable(
        [
            {"n": n, "l1_dirichlet": a, "l1_fejer": b}
            for n, a, b in zip(
                range(start + 1, n_max + 1),
                l1_dirichlet[start : start + _EMIT_ROWS].tolist(),
                l1_fejer[start : start + _EMIT_ROWS].tolist(),
            )
        ]
        for start in range(0, n_max, _EMIT_ROWS)
    )
    _emit(records, args.format, args.out)
    return 0


def _cmd_verify_lemmas(args) -> int:
    results = experiments.verify_all_lemmas(
        args.resolution,
        seed=args.seed,
        translate_count=args.lemma5_count,
        random_schemes=args.random_schemes,
    )
    records = [
        {
            "lemma": r.name,
            "instances": r.instances,
            "worst_margin": r.worst_margin,
            "pass": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    _emit(records, args.format, args.out)
    return 0 if all(r.passed for r in results) else CHECK_FAILED


def _read_sweep(args, spare: int, default_gap: int):
    """The range of n and the p list of approx and modulus.  --resolution
    is checked before the default nmax = N - default_gap derives from it,
    nmax + spare <= N and the range before --p is parsed, and all of them
    before the function or any table is built."""
    check_resolution(args.resolution)
    n_max = args.resolution - default_gap if args.nmax is None else args.nmax
    if n_max + spare > args.resolution:
        raise ValueError(f"nmax={n_max} needs resolution >= {n_max + spare}")
    if args.nmin > n_max:
        raise ValueError(f"empty block range: nmin={args.nmin} > nmax={n_max}")
    return range(args.nmin, n_max + 1), _parse_p_list(args.p)


def _cmd_approx(args) -> int:
    # Block n of the mean needs resolution n + 1.
    blocks, p_values = _read_sweep(args, spare=1, default_gap=2)
    # The spec is read, and the first block's scheme built, before f is.
    schemes = map(_schemes(args.weights), blocks)
    first = next(schemes)
    f = experiments.make_function(args.function, args.resolution, args.seed)
    records = experiments.ratio_sweep(f, itertools.chain([first], schemes), p_values)
    rows = [dict(vars(r), p=_p_field(r.p)) for r in records]
    _emit({"seed": args.seed, "records": rows}, args.format, args.out)
    return 0 if experiments.sweep_ok(records) else CHECK_FAILED


def _cmd_modulus(args) -> int:
    blocks, p_values = _read_sweep(args, spare=0, default_gap=0)
    f = experiments.make_function(args.function, args.resolution, args.seed)
    records = [
        {
            "n": n,
            "p": _p_field(p),
            "delta": 2.0**-n,
            "omega": experiments._finite_modulus(modulus_of_continuity(f, n, p), n, p),
        }
        for n in blocks
        for p in p_values
    ]
    _emit(records, args.format, args.out)
    return 0


def _cmd_weights_validate(args) -> int:
    if not (math.isfinite(args.cmax) and args.cmax >= 0):
        raise ValueError(f"--cmax must be finite and >= 0, got {args.cmax}")
    scheme = _schemes(args.weights)(args.n)
    report = validate(scheme, case_a_cap=args.cmax)
    record = {
        "n": scheme.block_exponent,
        "sum": report.total,
        "sum_ok": report.sum_ok,
        "monotonicity": report.monotonicity,
        "c2_constant": report.c2_constant,
        "case_a_ok": report.case_a_ok,
        "case_b_ok": report.case_b_ok,
    }
    _emit(record, args.format, args.out)
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "kernel-norms": _cmd_kernel_norms,
    "verify-lemmas": _cmd_verify_lemmas,
    "approx": _cmd_approx,
    "modulus": _cmd_modulus,
    "weights-validate": _cmd_weights_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
