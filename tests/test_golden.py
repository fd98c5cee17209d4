"""Golden bytes: the sha256 of (exit code, stdout) of fixed CLI calls.

The digests were recorded before the function storage and the JSON writer
were rewritten; any change to the bytes a command prints fails here.  The
verify-lemmas digests were recorded before its checks ran their instances
in batches.  The p = 2,3 calls and the rank-4 transform, whose input file
holds all 2^10 samples, were recorded before every function was held at
its dyadic rank.  They pin p = 2 again, after its moduli moved in their
last bits when the p = 2 table stopped summing the terms that cancel
exactly: a change that moves p = 2 on purpose (ROADMAP item 2) lists each
digest it moves.  The approx p = 2,3 digests that print p = 2 errors in
full (the JSON ones, and step_mix's CSV) and the N = 18 call were
recorded again when the p = 2 error stopped being read by Parseval and
became the norm of the mean's residual, as every other p's; their moduli
and every p = 3 row kept their bytes.  The N = 18 call, the first whose
butterflies split into shares, was first recorded when it was added, with
the same bytes on the tree before the approx sweep ran block by block.  The zero function given as
-0.0 was recorded while the rank still told -0.0 from +0.0 and held it at
all 2^N cells; the inverse of a spectrum of signed zeros was recorded
after, when its text changed from `0 0 0 0 0 0 -0 0` to eight `-0`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from walshvp import cli

WALSH_POLY = "walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625"
SPECS = ("abs_power:0.5", "indicator:2", "step_mix", "random", WALSH_POLY)
FAMILIES = ("uniform", "linear_up", "linear_down", "cesaro:2", "cesaro:0.5")


def _calls():
    calls = {}
    for fmt in ("csv", "json"):
        for spec, weights, N in zip(SPECS, FAMILIES, (12, 10, 12, 10, 11)):
            common = ["--function", spec, "--resolution", str(N), "--p", "1,inf",
                      "--seed", "3", "--format", fmt]
            calls[f"approx {spec} {fmt}"] = ["approx", "--weights", weights] + common
            calls[f"modulus {spec} {fmt}"] = ["modulus"] + common
            # p = 2 takes the spectral table, p = 3 the blocked one; both
            # read their errors off the residual of the block's mean.
            common[5] = "2,3"
            calls[f"approx {spec} p=2,3 {fmt}"] = ["approx", "--weights", weights] + common
            calls[f"modulus {spec} p=2,3 {fmt}"] = ["modulus"] + common
        calls[f"kernel-norms {fmt}"] = ["kernel-norms", "--resolution", "10", "--format", fmt]
        for family in FAMILIES:
            calls[f"weights-validate {family} {fmt}"] = [
                "weights-validate", "--weights", family, "--n", "5", "--format", fmt
            ]
        lemmas = ["verify-lemmas", "--seed", "2", "--format", fmt]
        for N in (8, 10, 12):
            calls[f"verify-lemmas N={N} 40/6 {fmt}"] = lemmas + [
                "--resolution", str(N), "--lemma5-count", "40", "--random-schemes", "6"
            ]
        # The default counts at N = 12 reach the p = 1 sign split at n = 1.
        calls[f"verify-lemmas N=12 {fmt}"] = lemmas + ["--resolution", "12"]
    # Rows past 2^16 entries, four pieces at N = 18, whose butterflies run
    # in as many shares as there are CPUs, up to the piece count.
    calls["approx abs_power:0.5 N=18 p=2 json"] = [
        "approx", "--weights", "uniform", "--function", "abs_power:0.5", "--resolution", "18",
        "--p", "2", "--nmin", "1", "--nmax", "3", "--format", "json",
    ]
    # The zero function with the sign bit set: the rows of walsh_poly:0.
    calls["approx walsh_poly:-0 N=12 json"] = [
        "approx", "--weights", "uniform", "--function", "walsh_poly:-0", "--resolution", "12",
        "--p", "1,2,3,inf", "--format", "json",
    ]
    return calls


CALLS = _calls()

DIGESTS = {
    "approx abs_power:0.5 csv": "0f3d27fa61bac5e4e901218d2e360080a24db67ec0b64bd9077adcc7ba2a7b57",
    "approx abs_power:0.5 json": "4402e7faf6532e39c55183deb1455c929d8690917f19567d5934e27ad4af72cf",
    "approx abs_power:0.5 N=18 p=2 json": "d7c5764644bd0649c6dae468927201e329d6cc191b0e9bb2f7e32eb487d4ba22",
    "approx abs_power:0.5 p=2,3 csv": "d6e802b231f3b1b9c7b08515ec5f486ee5c058f986ddd95282f335cbb5f5b549",
    "approx abs_power:0.5 p=2,3 json": "132b9c45f1128c43f1d3aff1ede7c9e99249ea9d02b6952cc308356826488d71",
    "approx indicator:2 csv": "fc7f07b168cd471ce27f8ea8e8a5860f8b5c95093d147f94d8d8602177b42e37",
    "approx indicator:2 json": "273e76358787470c67e0fa7290073b18e50309a7b669f5ca1d18e79fd5b009b7",
    "approx indicator:2 p=2,3 csv": "6097762aa6fd358cdc4553c34a2bc09fdf84c50a9a6244b1f2e0b5219201f965",
    "approx indicator:2 p=2,3 json": "d9402dfb8b956fd2bf432631808642b8c665433079414516b542bfd8078ff6fc",
    "approx random csv": "de389728e3344acfcdc7a1e7bda92a46fe65c25319b03be73afcc5bb13d2f508",
    "approx random json": "f2e6cfaad34ad730e687bb591ddd7928a2c6fb0ada5061c99a3db7970380299a",
    "approx random p=2,3 csv": "70b2efc007df8df9621c40822c4ac145e8acd7f7c4c4c4270b2464a6866c2166",
    "approx random p=2,3 json": "0526d0ef54a30607023fb93c0dd2d6c0a47052907a92bddd29bd0863418e9dbc",
    "approx step_mix csv": "ccf18336ad6de0d53037653db909ee4479a32738eaf588276d2604da788d0389",
    "approx step_mix json": "43028fca8af8d2212a23dd3cec86ceed761a1de2ac193793ff56b7a2d4d7b4c1",
    "approx step_mix p=2,3 csv": "e44c5e84b8f074337b0090319244138577fc596e0c5b33f3f5a460b496c55621",
    "approx step_mix p=2,3 json": "b3b068b51f73de855f35aa2c337bbbbe900dac793d21ecae5450d4cd06181d29",
    "approx walsh_poly:-0 N=12 json": "d1abd27178f84a577cc03d40c9c84fa2e638604feb15b561e1bf84182e725d0f",
    "approx walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 csv": "5e3ce11059edc63bcf1cade8fcb4fbfdbd17fa0782384d5d8f72900a36765231",
    "approx walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 json": "a3cd5ae28dc7808cbaa186017479d723fd79bd1c86febd4b0710d9533cd2833b",
    "approx walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 p=2,3 csv": "f23034fc83668cf2b102cac6dce5f43fa1398b9eeaaf85c06f3c157181dc2a54",
    "approx walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 p=2,3 json": "6f355887d6d6ce2d889198fa23150ff5f20c6039a3f7e9155bb233123927fe5e",
    "kernel-norms csv": "9ecd3ae72486afc211f95bfdf7771d5294cc8bf34fe5834dce2aba54b3a79aaa",
    "kernel-norms json": "4b8843af5626522f582eec88cc0525b30444f7812ed9a512cbef77fe4ad07d12",
    "modulus abs_power:0.5 csv": "9dd3471de5104a5ba631a859406688eb60d2cb7c00bd6d5c4325a082a1c463aa",
    "modulus abs_power:0.5 json": "0979e170f92c086e4396fda7a78ff2c1878fc0733462d25be5278cb2ae1b1da7",
    "modulus abs_power:0.5 p=2,3 csv": "08b03c93dd2ad7fb0690578080b6b35f9c6f75397e583e304d07429b93a9f6e0",
    "modulus abs_power:0.5 p=2,3 json": "262b836be21c56c64cf350ea614ad7dc0c3952b35f15958fc51a70b12d4b169c",
    "modulus indicator:2 csv": "84cf3d16e99b88dbd53bd9d09d7e6e954b4bfc874175f45155ed41a7bb4e21a5",
    "modulus indicator:2 json": "7b171d06dabbcf8a3f883971459bba6ef797cb6bb4c5c7e92a0946ee5761d490",
    "modulus indicator:2 p=2,3 csv": "ce658ca4ad751e7858c8ec4258f7fb32d82cdf24014d488de5b051dc93f8da01",
    "modulus indicator:2 p=2,3 json": "08d7823928768d77835981371422ff0013ee9227ef17f8850b022cae7818c3d1",
    "modulus random csv": "e27eb5d5cd55b2ee06b70de57949afe81d4e0b11d0d57e66aecbcbe2b3d89d01",
    "modulus random json": "a513837dff5d8d9d39768a5f94802bbab0b8448c9f764865cfee39ed0ebe3d5d",
    "modulus random p=2,3 csv": "652d8312df54bf28b5b7359d6b37e724aa2ca2054ab0734d00cab62da135b900",
    "modulus random p=2,3 json": "96098c3fc3cc1b845634ef0c4b050bd5cb2ea2895ce858e4e46d09f15553059f",
    "modulus step_mix csv": "5aecedaf33e30e9f180bf4612155e5977f3a43dd9a7d403da3874edf8ce0d690",
    "modulus step_mix json": "fc1376c02565116ad09dedbbb09f4a775efa6938171ae2c4aa1ccda0e3bc4118",
    "modulus step_mix p=2,3 csv": "41f80e46a1625e5698212ef8d010a772801dfda46573d039de925476f1ea9494",
    "modulus step_mix p=2,3 json": "20d0c67047d1b50bee976774cfee3119229756617f4e8c4f86ed6b5b9a93f52c",
    "modulus walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 csv": "49c66380efa113075b471913c0efebee648dce9a10c14a14f404070802363ee2",
    "modulus walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 json": "b53d5f1f74888c537faf18e98d758a4fe412a7bf9d77225e9918e254639997c9",
    "modulus walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 p=2,3 csv": "1d099251b5c6ec3d8305c375654e7688fce5e57f40c7b57a122aaf2f2c32b09b",
    "modulus walsh_poly:1,0.5,0,-0.25,0,0,0.125,0,0,0,0,0.0625 p=2,3 json": "821258a2bfd83884a469d5fd7b22c19370c97f47ca6e4c84cb0fa084a0e59588",
    "transform forward": "cb8ced6439eeeb59fa94c8a8ae567798886f4956be83b9a9cd93ccb6831aefe6",
    "transform forward rank-4": "49171354b98aa92487ffed9567b2b957ff245f58d4c40176c5719ebe4f2aab00",
    "transform inverse": "2fb8e3edc8e49299e7609aeed14a307374aea962a95aa5e85dc2e9d744b74768",
    "transform inverse rank-4": "838ba50228309a02cd647bef0fb449312a003d7e49b158da39c5f8459ea83228",
    "transform inverse signed zeros": "6538da814a429493b531e87db19d28efbd5c4c81178c96dd19a09e6295a60a56",
    "verify-lemmas N=10 40/6 csv": "56ddf034e0d56848aad56c1df6a3684d12939893becf9e680889979ddf424d30",
    "verify-lemmas N=10 40/6 json": "97de799f52bf34b94929330b6d341746258bbe5b19e6cf15e4872dfaff7a9a1d",
    "verify-lemmas N=12 40/6 csv": "7c402316d96e29c655e4dbe75fbc55052ef0ee60ed15e02a9ba0ce25a8e2da56",
    "verify-lemmas N=12 40/6 json": "66b0e9b1528fd745e712cd055b79d590ad2cb52c9eecf67b7f18c7837a6f5607",
    "verify-lemmas N=12 csv": "5826a639188585cafc4b5e5d9af4ade88a1bb4b72d4e13c48d26b664079e4802",
    "verify-lemmas N=12 json": "de36b31ba28ee97b9ff4cc8c3a950524c122144a9984d01d679b759411a09f37",
    "verify-lemmas N=8 40/6 csv": "99b6a661271c9775e890d662e1d1a285388a9a4b2a828c9f2f67213ec7006250",
    "verify-lemmas N=8 40/6 json": "ba68d200bd274ce32db9822be827a67bc8a7d0e1850a823e6e5140891e7550ae",
    "weights-validate cesaro:0.5 csv": "564fa6715279e1459dd3d40ec6a4566933a7a14992469788fbdabe65af2fad1a",
    "weights-validate cesaro:0.5 json": "bcf1de8b6d0d25d4399be6641019588671ffbbcfb05462d4316f333a8aaa7376",
    "weights-validate cesaro:2 csv": "553db1a642af896b7d81a5d9272200a78b24b3b3cbb4b491daca6e306d5585f9",
    "weights-validate cesaro:2 json": "f8f5e51bcd4bd5434ef7bf9ee74030f88bfecc5257f1ef07c3a22644e8f110ea",
    "weights-validate linear_down csv": "553db1a642af896b7d81a5d9272200a78b24b3b3cbb4b491daca6e306d5585f9",
    "weights-validate linear_down json": "f8f5e51bcd4bd5434ef7bf9ee74030f88bfecc5257f1ef07c3a22644e8f110ea",
    "weights-validate linear_up csv": "5edb74074ad418d7603670b042c2ac1273ba9d9d5c9800633419aae072e994a4",
    "weights-validate linear_up json": "ebaa0ab0bdbe04bcd89b28d6d9ec8982dd9c072aa6f1e69e2d196a329c21381f",
    "weights-validate uniform csv": "1138ad5072549007b4ba99c1d1ca44870f86db08a1cd04a1ed08d6a037326760",
    "weights-validate uniform json": "ae999950b0e019237d8b3d7e996d2f0a5e002e6ab980e672a7f3da59757f41e4",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def transform_outputs(tmp_path):
    """(exit code, stdout) of a forward transform of a fixed function at
    N = 6, and of a rank-4 one at N = 10 that the input file gives as all
    2^10 samples, and of the inverse transform of each spectrum."""
    outputs = {}
    for suffix, N, period in (("", 6, 64), (" rank-4", 10, 16)):
        source = tmp_path / f"f{N}.txt"
        samples = [((7 * j) % 11 - 5) / 8 for j in range(period)] * ((1 << N) // period)
        source.write_text(f"N={N}\n" + "".join(f"{v!r}\n" for v in samples))
        forward = _run(["transform", "--in", str(source)])
        spectrum = tmp_path / f"s{N}.txt"
        spectrum.write_text(forward[1])
        outputs[f"transform forward{suffix}"] = forward
        outputs[f"transform inverse{suffix}"] = _run(
            ["transform", "--inverse", "--in", str(spectrum)]
        )
    return outputs


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_bytes(name):
    assert _digest(*_run(CALLS[name])) == DIGESTS[name]


def test_transform_round_trip_bytes(tmp_path):
    for name, (code, out) in transform_outputs(tmp_path).items():
        assert _digest(code, out) == DIGESTS[name]


def test_signed_zero_inverse_bytes(tmp_path):
    # The coefficients -0.0, -0.0 and six +0.0 are the zero spectrum: it is
    # synthesized at one cell, whose -0.0 every sample repeats.
    spectrum = tmp_path / "zeros.txt"
    spectrum.write_text("SPECTRUM\nN=3\n-0\n-0\n" + "0\n" * 6)
    code, out = _run(["transform", "--inverse", "--in", str(spectrum)])
    assert _digest(code, out) == DIGESTS["transform inverse signed zeros"]


def _exit_code(argv):
    """The exit code of a call that argparse may refuse with SystemExit."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return _run(argv)[0]
        except SystemExit as exc:
            return exc.code


def test_calls_leave_no_state(tmp_path):
    # main reuses one parser per process, so no call may see what an
    # earlier one parsed: each golden call runs twice, in a shuffled order,
    # among refused arguments, config files and parses into a namespace
    # of the caller's.
    config = tmp_path / "run.cfg"
    config.write_text("resolution=6\nnmax=2\nseed=9\nformat=json\np=1,2\n")

    class Preset(argparse.Namespace):
        pass

    def golden(name):
        assert _digest(*_run(CALLS[name])) == DIGESTS[name]

    def transforms(i):
        folder = tmp_path / f"transform{i}"
        folder.mkdir()
        for name, (code, out) in transform_outputs(folder).items():
            assert _digest(code, out) == DIGESTS[name]

    def refused():
        assert _exit_code(["approx", "--function", "step_mix", "--weights"]) == 2

    def unknown():
        assert _exit_code(["no-such-command", "--resolution", "5"]) == 2

    def configured():
        code, out = _run(["modulus", "--function", "random", "--config", str(config)])
        assert code == 0 and out.startswith("[") and out.count('"n":') == 6

    def namespace():
        preset = Preset(seed=99, nmax=2, verbose=True)
        args = cli.build_parser().parse_args(
            ["approx", "--function", "step_mix", "--weights", "uniform", "--resolution", "5"],
            namespace=preset,
        )
        assert args is preset and args.verbose
        assert (args.function, args.resolution, args.nmin, args.p) == ("step_mix", 5, 1, "inf")

    steps = [lambda name=name: golden(name) for name in CALLS]
    steps += [refused, unknown, configured, namespace]
    steps = 2 * steps + [lambda: transforms(1), lambda: transforms(2)]
    random.Random(25).shuffle(steps)
    for step in steps:
        step()


# One call of each command, and the call that splits its butterflies.
HOST_CALLS = (
    "approx abs_power:0.5 N=18 p=2 json",
    "approx random p=2,3 json",
    "modulus abs_power:0.5 json",  # the p = 1 sign split at n = 1
    "kernel-norms json",
    "weights-validate cesaro:0.5 json",
    "verify-lemmas N=10 40/6 json",
)

# A child process that prints the digests of HOST_CALLS and of the
# transform round trip as JSON.  With --cpus it sets the share count after
# import; with --one-cpu it cuts its affinity to one CPU before the import,
# where the share count is read.  It also prints the numpy dispatch targets
# above the baseline that are enabled.
_HOST_CHILD = """
import json, os, pathlib, sys
mode, tmp = sys.argv[1], pathlib.Path(sys.argv[2])
if mode == "--one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from numpy._core import _multiarray_umath as umath
from walshvp import walsh_system
if mode == "--cpus":
    walsh_system._CPUS = int(sys.argv[3])
import test_golden as golden
digests = {name: golden._digest(*golden._run(golden.CALLS[name])) for name in golden.HOST_CALLS}
for name, (code, out) in golden.transform_outputs(tmp).items():
    digests[name] = golden._digest(code, out)
dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps([walsh_system._CPUS, dispatched, digests]))
"""


def _host_run(tmp_path, *args, env=None):
    """(_CPUS, enabled dispatch targets, digests) of one child."""
    here = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    out = subprocess.run(
        [sys.executable, "-c", _HOST_CHILD, args[0], str(tmp_path), *args[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _check_digests(digests):
    assert len(digests) == len(HOST_CALLS) + 4
    assert {name: DIGESTS[name] for name in digests} == digests


@pytest.mark.parametrize("cpus", [1, 3, 4])
def test_bytes_do_not_depend_on_the_share_count(tmp_path, cpus):
    shares, _, digests = _host_run(tmp_path, "--cpus", str(cpus))
    assert shares == cpus
    _check_digests(digests)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_bytes_do_not_depend_on_the_affinity(tmp_path):
    shares, _, digests = _host_run(tmp_path, "--one-cpu")
    assert shares == 1
    _check_digests(digests)


def test_bytes_do_not_depend_on_numpy_dispatch(tmp_path):
    from numpy._core import _multiarray_umath as umath

    if not umath.__cpu_baseline__:
        pytest.skip("numpy has no baseline to limit its dispatch to")
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=" ".join(umath.__cpu_baseline__))
    _, dispatched, digests = _host_run(tmp_path, "--default", env=env)
    if dispatched:
        pytest.skip(f"numpy kept {dispatched} enabled")
    _check_digests(digests)
