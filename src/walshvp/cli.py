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
# takes 0.6-1.0 s and 44-45 MiB peak RSS to write 26 MB of JSON (0.4-0.7 s,
# 43 MiB and 9 MB as CSV) in one process on a 2-vCPU Xeon; time, memory and
# output grow with the rows, up to 2^24 at the resolution cap.
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
    file path, as a function of the block exponent n.  A family is its
    one builder, which builds block after block and needs n; a file covers
    one block exponent, which n=None selects.  A spec whose name part is a
    family is that family, so a file cannot shadow it.  The spec is read
    here, and the file loaded; the family's alpha is checked at its first
    block.
    """
    name, colon, arg = spec.partition(":")
    if name in FAMILIES:
        if colon and name != "cesaro":
            raise ValueError(f"weight spec {spec!r} takes no argument")
        alpha = experiments._spec_number("weight", spec, arg) if arg else None
        return _FamilySchemes(name, alpha)
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


def _stream(path: str, mode: str):
    """stdin or stdout, by mode, for '-', left open on exit; otherwise the
    file, closed on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return open(path, mode)


def _json_floats(column):
    if all(map(math.isfinite, column)):
        return map(float.__repr__, column)
    # json.dump with allow_nan=False refuses nan and inf; a table writes null.
    return [float.__repr__(value) if math.isfinite(value) else "null" for value in column]


# The texts of a column, by the column's one exact type.  JSON uses the C
# routines json.dumps itself calls for each type, and its literals; CSV
# writes floats as .12g ("%.12g" is format's .12g) and bools as true/false.
_JSON_COLUMNS = {
    str: functools.partial(map, encode_basestring_ascii),
    int: functools.partial(map, int.__repr__),
    float: _json_floats,
    bool: functools.partial(map, {True: "true", False: "false"}.__getitem__),
}
_CSV_COLUMNS = {
    **_JSON_COLUMNS,
    str: lambda column: column,
    float: functools.partial(map, "%.12g".__mod__),
}


# Cached: each command writes one key tuple, and building its template is a
# measurable share of a one-row table.
@functools.cache
def _row_template(keys, indent: str) -> str:
    """The text json.dumps(indent=2) writes at indent for a flat dict with
    these keys, with a %s for each value."""
    if not keys:
        return "{}"
    inner = indent + "  "
    names = [encode_basestring_ascii(key).replace("%", "%%") for key in keys]
    return f"{{\n{inner}" + f": %s,\n{inner}".join(names) + f": %s\n{indent}}}"


# Rows per write of _emit, so that a long output is never held whole: the
# 2^(N-1) rows of kernel-norms up to N = 13 make one write.
_EMIT_ROWS = 4096


def _emit(keys, rows, fmt: str, out_path: str, meta=None, single=False) -> None:
    """The one writer of CSV and JSON tables.

    keys names the columns once; rows is an iterable of tuples in key
    order, and each column holds one exact type: str, int, float or bool.
    JSON is the text of json.dumps(indent=2) for a list of records, for
    the envelope {**meta, "records": [...]} when meta (key, value) pairs
    are given, or for the one record when single is set; non-finite
    floats are null.  CSV writes each meta pair as a '# key=value' line,
    the keys as the header and one line per row: bools as true/false,
    floats as .12g, ints and strs as they are.  The rows are drawn
    _EMIT_ROWS at a time; each chunk is transposed, each column converted
    by the one function of its type, each row filled into one template,
    and the chunk written.  A row of another width, or a column that holds
    more than one exact type, raises TypeError before its chunk is written.
    """
    # The text of the shape: before the rows, before the first row, between
    # rows of two chunks, after the last row, in place of no rows, and last.
    head = opening = separator = ending = empty = closing = ""
    if fmt == "csv":
        table, template = _CSV_COLUMNS, ",".join(["%s"] * len(keys)) + "\n"
        head = "".join([f"# {key}={value}\n" for key, value in meta or ()]) + ",".join(keys) + "\n"
    elif single:
        table, template, closing = _JSON_COLUMNS, _row_template(keys, ""), "\n"
    else:
        table, indent, closing = _JSON_COLUMNS, "", "\n"
        if meta is not None:
            # Each meta value is converted as a column of one row.
            indent, closing = "  ", "\n}\n"
            head = "{\n" + "".join(
                f"  {encode_basestring_ascii(key)}: {''.join(table[type(value)]((value,)))},\n"
                for key, value in meta
            ) + '  "records": '
        template = _row_template(keys, indent + "  ")
        opening, separator = "[\n" + indent + "  ", ",\n" + indent + "  "
        ending, empty = f"\n{indent}]", "[]"
    rows = iter(rows)
    kinds = converters = text = None
    with _stream(out_path, "w") as stream:
        while chunk := list(itertools.islice(rows, _EMIT_ROWS)):
            if kinds is None:
                kinds = list(map(type, chunk[0]))
                converters = list(map(table.get, kinds))
            # Every row holds the first row's exact types: an int column with
            # a True in it would print 1, a bool column with a 1 in it true.
            if (
                None in converters
                or set(map(len, chunk)) != {len(keys)}
                or list(map(type, itertools.chain.from_iterable(chunk))) != kinds * len(chunk)
            ):
                raise TypeError(f"each column of {keys} must hold one of str, int, float or bool")
            texts = [convert(column) for convert, column in zip(converters, zip(*chunk))]
            filled = zip(*texts) if texts else [()] * len(chunk)
            # A chunk is written once the next is drawn, so the last one
            # takes the closing text in the same write.
            if text is not None:
                stream.write(text)
            text = (head + opening if text is None else separator) + separator.join(
                map(template.__mod__, filled)
            )
        stream.write(head + empty + closing if text is None else text + ending + closing)


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
    # The rows are built one write of _emit at a time, as it draws them.
    rows = itertools.chain.from_iterable(
        zip(
            range(start + 1, n_max + 1),
            l1_dirichlet[start : start + _EMIT_ROWS].tolist(),
            l1_fejer[start : start + _EMIT_ROWS].tolist(),
        )
        for start in range(0, n_max, _EMIT_ROWS)
    )
    _emit(("n", "l1_dirichlet", "l1_fejer"), rows, args.format, args.out)
    return 0


def _cmd_verify_lemmas(args) -> int:
    results = experiments.verify_all_lemmas(
        args.resolution,
        seed=args.seed,
        translate_count=args.lemma5_count,
        random_schemes=args.random_schemes,
    )
    keys = ("lemma", "instances", "worst_margin", "pass", "detail")
    rows = [(r.name, r.instances, r.worst_margin, r.passed, r.detail) for r in results]
    _emit(keys, rows, args.format, args.out)
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
    keys = ("n", "p", "error", "modulus", "ratio", "bound", "bound_ok", "flag")
    rows = [
        (r.n, _p_field(r.p), r.error, r.modulus, r.ratio, r.bound, r.bound_ok, r.flag)
        for r in records
    ]
    _emit(keys, rows, args.format, args.out, meta=[("seed", args.seed)])
    return 0 if experiments.sweep_ok(records) else CHECK_FAILED


def _cmd_modulus(args) -> int:
    blocks, p_values = _read_sweep(args, spare=0, default_gap=0)
    f = experiments.make_function(args.function, args.resolution, args.seed)
    rows = [
        (n, _p_field(p), 2.0**-n, experiments._finite_modulus(modulus_of_continuity(f, n, p), n, p))
        for n in blocks
        for p in p_values
    ]
    _emit(("n", "p", "delta", "omega"), rows, args.format, args.out)
    return 0


def _cmd_weights_validate(args) -> int:
    if not (math.isfinite(args.cmax) and args.cmax >= 0):
        raise ValueError(f"--cmax must be finite and >= 0, got {args.cmax}")
    scheme = _schemes(args.weights)(args.n)
    report = validate(scheme, case_a_cap=args.cmax)
    keys = ("n", "sum", "sum_ok", "monotonicity", "c2_constant", "case_a_ok", "case_b_ok")
    row = (
        scheme.block_exponent,
        report.total,
        report.sum_ok,
        report.monotonicity,
        report.c2_constant,
        report.case_a_ok,
        report.case_b_ok,
    )
    _emit(keys, [row], args.format, args.out, single=True)
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
