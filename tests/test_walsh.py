import io
import os
import pathlib
import random
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvp import walsh_system
from walshvp.dyadic import SampledFunction, _pairwise_total, lp_norm
from walshvp.walsh_system import (
    Spectrum,
    bit_parity,
    fourier_coefficients_naive,
    fwht_forward,
    fwht_inverse,
    hadamard_transform,
    partial_sum,
    read_spectrum,
    walsh,
    write_spectrum,
)


def rand_fn(seed, resolution):
    rng = np.random.default_rng(seed)
    return SampledFunction(resolution, rng.uniform(-1, 1, 1 << resolution))


def test_rademacher_bit0():
    # r_k = w_{2^k}, the sign of coordinate k
    assert walsh(1, 2).values.tolist() == [1, -1, 1, -1]


def test_rademacher_mean_and_square():
    r = walsh(1 << 2, 4)
    assert fwht_forward(r).coeffs[0] == 0.0
    assert np.all((r * r).values == 1.0)


def test_walsh_zero_is_one():
    assert np.all(walsh(0, 3).values == 1.0)


def test_walsh_three():
    # w_3 = r_0 r_1 at the four points of N=2
    assert walsh(3, 2).values.tolist() == [1, -1, -1, 1]


def test_walsh_orthonormality_exhaustive():
    N = 4
    for m in range(1 << N):
        for n in range(1 << N):
            inner = fwht_forward(walsh(m, N) * walsh(n, N)).coeffs[0]
            assert inner == (1.0 if m == n else 0.0)


def test_walsh_multiplicativity_exhaustive():
    N = 5
    for m in (0, 3, 17, 30):
        for n in range(1 << N):
            prod = walsh(m, N) * walsh(n, N)
            assert np.array_equal(prod.values, walsh(m ^ n, N).values)


class TestTransform:
    def test_single_walsh_function(self):
        s = fwht_forward(walsh(5, 3))
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.allclose(s.coeffs, expected, atol=1e-15)

    def test_constant(self):
        s = fwht_forward(SampledFunction(3, np.full(8, 2.5)))
        assert s.coeffs[0] == 2.5 and np.all(s.coeffs[1:] == 0.0)

    def test_against_naive_oracle(self):
        f = rand_fn(11, 6)
        assert np.max(np.abs(fwht_forward(f).coeffs - fourier_coefficients_naive(f))) < 1e-12

    def test_roundtrip(self):
        f = rand_fn(12, 10)
        back = fwht_inverse(fwht_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_unit_spectrum(self):
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        assert np.all(fwht_inverse(Spectrum(3, coeffs)).values == 1.0)

    def test_parseval(self):
        for N in (6, 10, 14):
            f = rand_fn(N, N)
            energy = float(np.sum(fwht_forward(f).coeffs ** 2))
            assert energy == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)


def _radix2_oracle(values):
    """One radix-2 stage per pass over fresh copies: the butterfly the
    pair stages, flat or along the rows of a column block, must reproduce
    bit for bit."""
    integer = values.dtype in (np.int64, object)
    a = np.array(values, dtype=values.dtype if integer else np.float64)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        h *= 2
    return a.reshape(-1)


def _same(a, b):
    if a.dtype == object:
        return b.dtype == object and a.tolist() == b.tolist()
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def batches(draw, max_entries=1 << 18):
    """A C-contiguous (R, m) batch, m = 2^0..2^16 and R m up to
    max_entries, on both sides of _CHUNK_SIZE: float64 over exponents
    2^-300..2^300, int64, int32 whose sums stay in range, or Python ints
    past 2^63; an object batch stays under 2^17 entries."""
    kind = draw(st.sampled_from(["float64", "int64", "int32", "object"]))
    log_m = draw(st.integers(0, 16))
    most = (max_entries if kind != "object" else 1 << 17) >> log_m
    rows = draw(st.integers(1, min(most, 1 << 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (rows, 1 << log_m)
    if kind == "float64":
        return rng.standard_normal(shape) * 2.0 ** rng.integers(-300, 300, shape)
    if kind == "int32":
        return rng.integers(-(2**14), 2**14, shape, dtype=np.int32)
    ints = rng.integers(-(2**40), 2**40, shape)
    if kind == "int64":
        return ints
    return np.array([[int(v) << 70 for v in row] for row in ints], dtype=object)


def _row_oracle(row):
    # int32 rows in int64, where their sums are the same integers
    if row.dtype == np.int32:
        return _radix2_oracle(row.astype(np.int64)).astype(np.int32)
    return _radix2_oracle(row)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_every_batch_is_the_radix2_butterfly_of_each_row(x):
    a = x.copy()
    assert walsh_system._butterfly(a) is a
    assert all(_same(row, _row_oracle(want)) for row, want in zip(a, x))


@given(batches(max_entries=1 << 17).filter(lambda x: x.dtype == np.float64))
@settings(max_examples=40, deadline=None)
def test_entry_0_of_every_butterfly_is_the_pairwise_total(x):
    # The stage kernel's sum half is _pairwise_total's adjacent-pair tree,
    # on the rows of a batch and on one row of up to 2^17 entries, chunked.
    rows = walsh_system._butterfly(x.copy())
    assert rows[:, 0].tobytes() == _pairwise_total(x).tobytes()
    row = x.reshape(-1)[: 1 << (x.size.bit_length() - 1)]
    assert walsh_system._butterfly(row.copy())[0].hex() == _pairwise_total(row).hex()


# Worker counts forced on the chunked butterfly, so that a host of any CPU
# count runs the one-share schedule and the splits of 2 to 4 shares.
_WORKERS = (1, 2, 3, 4)


class TestButterfly:
    @staticmethod
    def _inputs(N):
        rng = np.random.default_rng(N)
        size = 1 << N
        return (
            rng.standard_normal(size) * 2.0 ** rng.integers(-40, 40, size),
            rng.integers(-(2**40), 2**40, size),
            np.array([int(v) << 70 for v in rng.integers(-(2**40), 2**40, size)], dtype=object),
        )

    @pytest.mark.parametrize("N", range(1, 17))
    def test_matches_radix2_oracle(self, N):
        # Odd and even stage counts, up to a row of _CHUNK_SIZE entries.
        for x in self._inputs(N):
            expected = _radix2_oracle(x)
            before = x.copy()
            assert _same(hadamard_transform(x), expected)
            assert _same(x, before)  # the input is copied, never written
            a = x.copy()
            assert walsh_system._butterfly(a) is a and _same(a, expected)

    def test_matches_radix2_oracle_at_n20(self):
        x = np.random.default_rng(20).standard_normal(1 << 20)
        assert _same(hadamard_transform(x), _radix2_oracle(x))

    @staticmethod
    def _check_rows(x, expected):
        """Each row of x through _butterfly, and a 1-D x through
        hadamard_transform, equals its row of expected bit for bit, and x
        is left unwritten."""
        before = x.copy()
        if x.ndim == 1:
            assert _same(hadamard_transform(x), expected[0])
        a = x.copy()
        assert walsh_system._butterfly(a) is a
        rows = a.reshape(-1, x.shape[-1])
        assert len(rows) == len(expected)
        assert all(_same(row, want) for row, want in zip(rows, expected))
        assert _same(x, before)

    @pytest.mark.parametrize("N", [17, 18, 20])
    def test_chunked_rows_match_radix2_oracle(self, N, monkeypatch):
        # Past _CHUNK_SIZE the low stages run per chunk and the high stages
        # per column block, an odd and an even count of them, in the shares
        # of 1 to 4 threads whatever the host's CPU count.  The Python ints
        # are the int64 row times 2^70, so their oracle is the int64 one
        # times 2^70, with sums past 2^63; they run in one share whatever
        # the count, so they run once.
        rng = np.random.default_rng(N)
        size = 1 << N
        ints = rng.integers(-(2**40), 2**40, size)
        for x in (rng.standard_normal(size) * 2.0 ** rng.integers(-40, 40, size), ints):
            expected = [_radix2_oracle(x)]
            for workers in _WORKERS:
                monkeypatch.setattr(walsh_system, "_CPUS", workers)
                self._check_rows(x, expected)
        big = np.array([int(v) << 70 for v in ints], dtype=object)
        expected = np.array([int(v) << 70 for v in _radix2_oracle(ints)], dtype=object)
        assert _same(walsh_system._butterfly(big), expected)

    def test_every_high_stage_count_matches_radix2_oracle(self, monkeypatch):
        # With 2^8-entry chunks, rows of 2^9..2^16 entries run 1 to 8 high
        # stages on (R, 2^8 / R) column blocks, R = 2..256, down to blocks
        # of one column: the stage counts and block widths of N = 17..24,
        # in the shares of 1 to 4 threads; Python ints run in one share
        # whatever the count, so they run once.  Finite sums raise no
        # warning.
        monkeypatch.setattr(walsh_system, "_CHUNK_SIZE", 1 << 8)
        rng = np.random.default_rng(44)
        for N in range(9, 17):
            size = 1 << N
            floats = rng.standard_normal(size) * 2.0 ** rng.integers(-40, 40, size)
            ints = rng.integers(-(2**40), 2**40, size)
            small = rng.integers(-(2**14), 2**14, (1, size), dtype=np.int32)
            # The Python ints are the int64 row times 2^70, with sums past 2^63.
            big = np.array([int(v) << 70 for v in ints], dtype=object)
            oracle = _radix2_oracle(ints)
            rows = [(floats, _radix2_oracle(floats)), (ints, oracle), (small, _row_oracle(small[0]))]
            for workers in _WORKERS:
                monkeypatch.setattr(walsh_system, "_CPUS", workers)
                for x, expected in rows:
                    with np.errstate(all="raise"):
                        self._check_rows(x, [expected])
            self._check_rows(big, [np.array([int(v) << 70 for v in oracle], dtype=object)])

    def test_chunked_rows_match_radix2_oracle_in_python_ints(self):
        x = self._inputs(17)[2]
        self._check_rows(x, [_radix2_oracle(x)])

    def test_chunked_batches_match_radix2_oracle(self, monkeypatch):
        N = 17
        rng = np.random.default_rng(N)
        # int32 rows 1_{k<n}, as the Dirichlet recursion check builds them
        orders = np.array([0, 1, 5, (1 << 16) + 3, 1 << N])
        rows = (np.arange(1 << N) < orders[:, None]).astype(np.int32)
        # f 1_j and 1_j for a bucket j of one coset, as the sign split builds them
        pair = np.zeros((2, 1 << N))
        members = rng.choice(1 << N, 1 << 10, replace=False)
        pair[0][members] = rng.standard_normal(members.size)
        pair[1][members] = 1.0
        # 6 pieces, which 4 shares split unevenly
        three = rng.standard_normal((3, 1 << N))
        batches = [
            (rows, [_radix2_oracle(row.astype(np.int64)).astype(np.int32) for row in rows]),
            (pair, [_radix2_oracle(row) for row in pair]),
            (three, [_radix2_oracle(row) for row in three]),
        ]
        for workers in _WORKERS:
            monkeypatch.setattr(walsh_system, "_CPUS", workers)
            for x, expected in batches:
                self._check_rows(x, expected)

    def test_shares_are_capped_at_the_cpus_and_the_pieces(self, monkeypatch):
        # The share count of each phase; Python ints, which hold the GIL in
        # every addition, run as one share.
        counts = []
        split = walsh_system._in_shares
        monkeypatch.setattr(
            walsh_system,
            "_in_shares",
            lambda task, pieces, buffers: counts.append(len(buffers)) or split(task, pieces, buffers),
        )
        monkeypatch.setattr(walsh_system, "_CPUS", 4)
        for x, shares in (
            (np.zeros(1 << 17), 2),
            (np.zeros((3, 1 << 17)), 4),
            (np.zeros(1 << 17, dtype=object), 1),
        ):
            counts.clear()
            walsh_system._butterfly(x)
            assert counts == [shares, shares]
        walsh_system._butterfly(np.zeros((8, 1 << 16)))
        assert counts == [1, 1]

    @staticmethod
    def _overflowing(chunk):
        """2^17 zeros but for two float maxima that one butterfly stage of
        the given chunk adds: only that chunk overflows, and no inf - inf
        follows."""
        x = np.zeros(1 << 17)
        x[chunk << 16 : (chunk << 16) + 2] = np.finfo(np.float64).max
        return x

    @pytest.mark.parametrize("workers", _WORKERS[1:])
    def test_every_share_keeps_the_callers_errstate(self, workers, monkeypatch):
        # The second chunk's share runs on the pool; it warns, raises or
        # passes as the caller's errstate says, not as a new thread's.
        monkeypatch.setattr(walsh_system, "_CPUS", workers)
        x = self._overflowing(1)
        with np.errstate(over="ignore"):
            expected = _radix2_oracle(x)
        assert np.isinf(expected).any() and not np.isnan(expected).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert _same(walsh_system._butterfly(x.copy()), expected)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            walsh_system._butterfly(x.copy())
        with pytest.warns(RuntimeWarning, match="overflow"):
            walsh_system._butterfly(x.copy())

    @pytest.mark.parametrize("workers", _WORKERS[1:])
    def test_an_error_is_raised_once_every_share_has_returned(self, workers, monkeypatch):
        # The calling thread's share overflows at once; the others, slowed
        # down, must all have returned before the error reaches the caller,
        # so that no thread still writes the array.
        monkeypatch.setattr(walsh_system, "_CPUS", workers)
        lock, running, done = threading.Lock(), [0], []
        stages = walsh_system._pair_stages  # every stage, low and high

        def slow_off_the_calling_thread(*args):
            with lock:
                running[0] += 1
            try:
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.02)
                return stages(*args)
            finally:
                with lock:
                    running[0] -= 1
                    done.append(threading.current_thread() is threading.main_thread())

        monkeypatch.setattr(walsh_system, "_pair_stages", slow_off_the_calling_thread)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            walsh_system._butterfly(self._overflowing(0))
        assert running == [0] and False in done

    def test_no_thread_starts_at_import_or_below_the_chunk_size(self):
        # In a fresh interpreter: importing the CLI starts no thread, nor
        # does a butterfly of rows of 2^16 entries or fewer; after a 2^17
        # row every other thread is a pool thread, of which there is at
        # least one beside the calling thread where there are two CPUs and
        # at most _CPUS - 1 (the pool may start a second thread before the
        # first has marked itself idle).  A child forked after that has
        # none of them and makes its own pool.
        src = pathlib.Path(walsh_system.__file__).resolve().parents[1]
        code = (
            "import os, signal, threading\n"
            "import numpy as np\n"
            "import walshvp.cli\n"
            "from walshvp import walsh_system\n"
            "counts = [threading.active_count()]\n"
            "walsh_system._butterfly(np.ones(1 << 16))\n"
            "walsh_system._butterfly(np.ones((4, 1 << 16)))\n"
            "walsh_system.hadamard_transform(np.ones(1 << 16))\n"
            "counts.append(threading.active_count())\n"
            "walsh_system._butterfly(np.ones(1 << 17))\n"
            "pool = [t for t in threading.enumerate() if t.name.startswith('walshvp-butterfly')]\n"
            "counts.append(threading.active_count() - len(pool))\n"
            "counts.append(min(1, walsh_system._CPUS - 1) <= len(pool) <= walsh_system._CPUS - 1)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)\n"
            "    walsh_system._butterfly(np.ones(1 << 17))\n"
            "    os._exit(0)\n"
            "counts.append(os.waitpid(pid, 0)[1])\n"
            "print(counts)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[1, 1, 1, True, 0]"

    def test_chunk_size_is_inside_the_tested_sizes(self):
        # The tests above run 2^16 entries on the unchunked path and 2^17 on
        # the chunked one.
        assert 1 << 16 <= walsh_system._CHUNK_SIZE < 1 << 17

    def test_spectrum_is_cached_and_read_only(self):
        f = rand_fn(1, 5)
        s = fwht_forward(f)
        assert fwht_forward(f) is s
        with pytest.raises(ValueError):
            s.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestPartialSum:
    def test_single_frequency(self):
        w = walsh(6, 4)
        assert np.allclose(partial_sum(w, 7).values, w.values, atol=1e-13)
        assert np.allclose(partial_sum(w, 6).values, 0.0, atol=1e-13)

    def test_zero_and_full(self):
        f = rand_fn(13, 5)
        assert np.all(partial_sum(f, 0).values == 0.0)
        assert np.max(np.abs(partial_sum(f, 32).values - f.values)) < 1e-13

    def test_projection(self):
        f = rand_fn(14, 6)
        once = partial_sum(f, 11)
        assert np.max(np.abs(partial_sum(once, 11).values - once.values)) < 1e-12

    def test_block_average_oracle(self):
        # S_{2^k}(f) is the conditional expectation onto rank-k cells:
        # averaging f over each coset of I_k.
        f = rand_fn(15, 6)
        k = 3
        smooth = partial_sum(f, 1 << k)
        sums = np.zeros(1 << k)
        for j in range(f.size):
            sums[j & ((1 << k) - 1)] += f.values[j]
        averages = sums / (1 << (6 - k))
        expected = averages[np.arange(f.size) & ((1 << k) - 1)]
        assert np.max(np.abs(smooth.values - expected)) < 1e-12

    def test_order_too_large(self):
        with pytest.raises(ValueError):
            partial_sum(rand_fn(0, 4), 17)


def test_spectrum_text_roundtrip():
    s = fwht_forward(rand_fn(16, 4))
    buf = io.StringIO()
    write_spectrum(s, buf)
    assert buf.getvalue().startswith("SPECTRUM\nN=4\n")
    buf.seek(0)
    back = read_spectrum(buf)
    assert np.array_equal(back.coeffs, s.coeffs)


def test_spectrum_bad_header():
    with pytest.raises(ValueError):
        read_spectrum(io.StringIO("N=4\n"))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_spectrum_nonfinite_rejected(token):
    with pytest.raises(ValueError, match="spectrum coefficient 1 is not finite"):
        read_spectrum(io.StringIO(f"SPECTRUM\nN=1\n0.5\n{token}\n"))


def test_bit_parity_folds_all_63_bits():
    assert bit_parity(2**32).tolist() == 1
    rng = random.Random(63)
    values = [rng.getrandbits(63) for _ in range(200)]
    expected = [bin(x).count("1") & 1 for x in values]
    assert bit_parity(np.array(values, dtype=np.int64)).tolist() == expected


def test_batched_spectra_scale_each_row_as_it_would_alone():
    # A row whose 2^r max|row| passes the float range is scaled before the
    # butterfly, the others after it, each as fwht_forward does it alone.
    # The heads of one size share a butterfly; a head of another size, and
    # a function whose spectrum is already kept, change no row.
    rng = np.random.default_rng(5)
    rows = rng.uniform(-1, 1, (4, 8))
    rows[1] *= 1e308
    rows[2, 3] = 1e308
    batch = [SampledFunction(5, np.tile(row, 4)) for row in rows]
    batch.insert(2, SampledFunction(5, np.tile(rows[1, :4], 8)))
    kept = walsh_system.fwht_forward(batch[0])
    walsh_system._keep_spectra(batch)
    assert walsh_system.fwht_forward(batch[0]) is kept
    assert [f._head.size for f in batch] == [8, 8, 4, 8, 8]
    for f in batch:
        alone = walsh_system.fwht_forward(SampledFunction(5, f.values)).coeffs
        assert np.isfinite(alone).all()
        assert walsh_system.fwht_forward(f).coeffs.tobytes() == alone.tobytes()
