import os
import subprocess
import sys

import numpy as np
import pytest

from walshlab import core
from walshlab.core import (
    N_MAX,
    AnfParseError,
    DenseCapExceeded,
    Spectrum,
    TruthTable,
    dense_cap,
    parse_anf,
    popcounts,
    reverse,
    set_dense_cap,
    table_from_anf,
    walsh_transform,
)
from walshlab.report import QUINTIC_MAX_ANF

from conftest import random_table, reference_butterfly, traced_peak


def slow_walsh(f: TruthTable) -> list[int]:
    """Direct O(4^n) definition of the integer correlations, one point a at a time."""
    x = np.arange(f.size)
    signs = np.array([1 - 2 * f.value(i) for i in range(f.size)], dtype=np.int64)
    out = []
    for a in range(f.size):
        parity = np.bitwise_count(x & a).astype(np.int64) & 1
        out.append(int(signs @ (1 - 2 * parity)))
    return out


# --- truth tables ---------------------------------------------------------------


def test_hex_round_trip(rng):
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            t = random_table(rng, n)
            assert TruthTable.from_hex(t.to_hex(), n) == t


def test_hex_digit_counts():
    assert TruthTable(1, 0b10).to_hex() == "2"
    assert TruthTable(2, 0b0110).to_hex() == "6"
    assert len(TruthTable(5, 0).to_hex()) == 8
    with pytest.raises(ValueError):
        TruthTable.from_hex("123", 5)
    for text in ("1_23", "+abc", "-000"):  # int(text, 16) would accept these
        with pytest.raises(ValueError):
            TruthTable.from_hex(text, 4)


def test_table_basics():
    t = TruthTable(2, 0b0110)
    assert t.size == 4
    assert t.weight == 2
    assert t.balanced
    assert [t.value(x) for x in range(4)] == [0, 1, 1, 0]
    assert t.complement().bits == 0b1001
    assert TruthTable.from_bits([0, 1, 1, 0]) == t
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(1, 5)


def test_from_array_accepts_bits():
    assert TruthTable.from_array(np.array([0, 1, 1, 0]), 2) == TruthTable(2, 0b0110)
    assert TruthTable.from_array(np.array([True, False]), 1) == TruthTable(1, 0b01)


@pytest.mark.parametrize(
    "arr",
    [
        np.ones(3),  # was padded to bits=7
        np.ones(5),
        np.ones((2, 2)),
        np.array([2, 0, 0, 0]),  # the 2 was read as 1
        np.array([-1, 0, 0, 0]),
        np.array([0.5, 0, 0, 1]),
        np.array([256, 0, 0, 0], dtype=np.int64),  # wraps to 0 in uint8
    ],
    ids=["short", "long", "2-d", "two", "negative", "half", "wraps"],
)
def test_from_array_rejects(arr):
    with pytest.raises(ValueError):
        TruthTable.from_array(arr, 2)


# --- ANF ------------------------------------------------------------------------


def test_from_anf_single_variable():
    t = table_from_anf("X1", 1)
    assert (t.value(0), t.value(1)) == (0, 1)


def test_from_anf_product():
    t = table_from_anf("X1*X2", 2)
    assert [t.value(x) for x in range(4)] == [0, 0, 0, 1]
    assert table_from_anf("x1x2", 2) == t
    assert table_from_anf("X2·X1", 2) == t


def test_from_anf_constant_and_cancellation():
    one = table_from_anf("1", 2)
    assert one.weight == 4
    zero = table_from_anf("X1 + X1", 2)
    assert zero.weight == 0
    mixed = table_from_anf("1 ^ X1", 1)
    assert [mixed.value(x) for x in range(2)] == [1, 0]


def test_from_anf_quintic_witness_weight():
    # weight of the 16/7 witness, confirmed by direct evaluation
    t = table_from_anf(QUINTIC_MAX_ANF, 5)
    monos = [(4, 3), (5, 2), (5, 4, 1), (5, 4, 2), (5, 4, 3)]
    direct = 0
    for x in range(32):
        acc = 0
        for mono in monos:
            term = 1
            for j in mono:
                term &= (x >> (j - 1)) & 1
            acc ^= term
        direct += acc
        assert t.value(x) == acc
    assert t.weight == direct == 12


def test_parse_anf_errors():
    with pytest.raises(AnfParseError) as err:
        parse_anf("X1 + @", 2)
    assert err.value.position == 5
    with pytest.raises(AnfParseError):
        parse_anf("", 2)
    with pytest.raises(AnfParseError):
        parse_anf("+ X1", 2)
    with pytest.raises(ValueError):
        parse_anf("X3", 2)


def test_parse_anf_xor_symbols():
    assert parse_anf("X1 + X2", 2) == parse_anf("X1 ^ X2", 2) == parse_anf("X1 ⊕ X2", 2)


# --- Walsh transform ------------------------------------------------------------


def test_walsh_dictator():
    s = walsh_transform(table_from_anf("X1", 1))
    assert s.corr.tolist() == [0, 2]


def test_walsh_parity_two_vars():
    s = walsh_transform(table_from_anf("X1 + X2", 2))
    assert s.corr.tolist() == [0, 0, 0, 4]


def test_walsh_matches_direct_sum(rng):
    # odd n splits the points into R x C with R != C
    for v in range(256):
        t = TruthTable(3, v)
        assert walsh_transform(t).corr.tolist() == slow_walsh(t)
    for n in range(1, 13):
        for _ in range(10 if n <= 8 else 2):
            t = random_table(rng, n)
            assert walsh_transform(t).corr.tolist() == slow_walsh(t)


def test_walsh_matches_reference_butterfly(rng):
    for n in range(13, 21):
        for t in (random_table(rng, n), table_from_anf(f"X1X{n} + X2X3X{n - 1} + 1", n)):
            s = walsh_transform(t)
            assert s.corr.dtype == np.int64
            assert np.array_equal(s.corr, reference_butterfly(t.signs()))


@pytest.mark.parametrize("n", range(1, 25))
def test_walsh_matches_reference_at_every_arity(rng, n):
    # an affine table puts |c| = 2^n through one staged slot; its mask here mixes
    # the rows of pass 1 and the columns of pass 2 (constant and parity tables are
    # in test_walsh_largest_values_on_both_paths)
    mask = rng.getrandbits(n) | 1 << (n - 1)
    affine = TruthTable.from_array(np.bitwise_count(np.arange(1 << n) & mask) & 1, n)
    for f, sign in ((affine, 1), (affine.complement(), -1)):
        got = walsh_transform(f).corr
        assert got[mask] == sign << n and np.count_nonzero(got) == 1, n
    t = random_table(rng, n)
    assert np.array_equal(walsh_transform(t).corr, reference_butterfly(t.signs())), n


def test_gemm_all_small_tables_batched():
    for n in range(1, 5):
        ids = np.arange(1 << (1 << n), dtype=np.int64)
        signs = (1 - 2 * ((ids[:, None] >> np.arange(1 << n)) & 1)).astype(np.int32)
        got = core._walsh_spectra(signs)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_butterfly(signs))


def test_walsh_largest_values_on_both_paths():
    # one pass up to n = 14 and two above, up to n = 24, the last arity whose final
    # block sums in float32
    for n in range(1, 25):
        # the constant and parity tables reach |c| = 2^n, the largest correlation
        parity = TruthTable.from_array(popcounts(1 << n) & 1, n)
        for t, at in ((TruthTable(n, 0), 0), (parity, (1 << n) - 1)):
            for f, sign in ((t, 1), (t.complement(), -1)):
                want = np.zeros(1 << n, dtype=np.int64)
                want[at] = sign << n
                assert np.array_equal(walsh_transform(f).corr, want), (n, f.bits == 0)
        # one point reaches c(0) = 2^n - 2, the largest value short of a power of two,
        # which a float with fewer than n - 1 significand bits rounds
        want = 4 * (popcounts(1 << n) & 1) - 2
        want[0] += 1 << n
        assert np.array_equal(walsh_transform(TruthTable(n, 1 << ((1 << n) - 1))).corr, want), n


def test_walsh_spectra_float64_above_24():
    n = 25
    parity = (np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1).astype(np.int8)
    # one point: c(0) = 2^n - 2 and c(a) = 4 * (wt(a) mod 2) - 2 elsewhere
    signs = np.ones(1 << n, dtype=np.int8)
    signs[-1] = -1
    got = core._walsh_spectra(signs)
    assert got[0] == (1 << n) - 2
    assert np.array_equal(got[1:], 4 * parity[1:] - 2)
    del got
    # float32 holds 2^n - 2 but no odd value above 2^24: the indicator of the first
    # 2^(n-1) + 1 points has c(a) = 2^(n-1) [a below bit n-1 is 0] + (-1)^(bit n-1 of a)
    ones = np.zeros(1 << n, dtype=np.int8)
    ones[: (1 << (n - 1)) + 1] = 1
    got = core._walsh_spectra(ones).reshape(2, -1)
    assert got[:, 0].tolist() == [(1 << (n - 1)) + 1, (1 << (n - 1)) - 1]
    assert (got[0, 1:] == 1).all() and (got[1, 1:] == -1).all()


def test_block_widths_keep_float32_exact_before_the_last_block():
    for m in range(N_MAX + 1):
        widths = core._block_widths(m)
        assert sum(widths) == m and max(widths) <= 4
        plan = core._plan(m)
        assert plan.a + plan.b == m and 1 << plan.b <= core._CHUNK and (plan.a == 0 or plan.b == 14)
        # pass 1 covers the a high bits, pass 2 the b low ones, the lowest block last
        covered = [int(np.log2(len(h))) for h, _ in (*plan.high, *plan.low)]
        k = len(plan.last).bit_length() - 1
        assert sum(covered) + k == m and max(covered, default=0) <= 4 and k <= 4
        # the sums before the last block stay within 2^24, which float32 holds
        assert m - k <= core._F32_MAX_N
        assert plan.last.dtype == (np.float32 if m <= core._F32_MAX_N else np.float64)


@pytest.mark.parametrize("m", [1, 5, 9, 15, 16, 17, 21])
def test_walsh_spectra_leaves_input_unchanged(rng, m):
    # one pass or two, and the last block reading either half of a slot; float32 is the
    # work dtype, so a float32 input must not be taken as the work buffer
    keep = random_table(rng, m).signs()
    for dtype in (np.int32, np.float32):
        signs = keep.astype(dtype)
        signs.flags.writeable = False
        assert np.array_equal(core._walsh_spectra(signs), reference_butterfly(keep))
        assert np.array_equal(signs, keep)


def test_hadamard_factors_are_read_only():
    for k in range(5):
        for dtype in (np.float32, np.float64):
            h = core._hadamard(k, dtype)
            assert h.dtype == dtype and not h.flags.writeable
            with pytest.raises(ValueError):
                h[0, 0] = 5
            assert np.array_equal(h @ h, np.eye(1 << k) * (1 << k))
    t = table_from_anf("X1X2 + X3X4X5 + X6", 6)
    assert np.array_equal(walsh_transform(t).corr, reference_butterfly(t.signs()))


@pytest.mark.parametrize("transform", [core._walsh_spectra])
@pytest.mark.parametrize("size", [0, 3, 6, 12])
def test_transform_length_must_be_power_of_two(transform, size):
    with pytest.raises(ValueError, match=f"transform length {size} is not a power of two"):
        transform(np.ones((2, size), dtype=np.int32))


def test_walsh_quintic_witness_support():
    # sixteen nonzero correlations, all of square 64 (Parseval: 16 * 64 = 4^5)
    s = walsh_transform(table_from_anf(QUINTIC_MAX_ANF, 5))
    nonzero = s.corr[s.corr != 0]
    assert nonzero.size == 16
    assert set((nonzero * nonzero).tolist()) == {64}


def test_parseval_random(rng):
    for n in range(1, 11):
        for _ in range(50):
            s = walsh_transform(random_table(rng, n))
            assert s.parseval_holds()
            assert int(np.abs(s.corr).max()) <= s.size
            assert not np.any(s.corr & 1)


def test_parseval_does_not_wrap():
    # 2^64 + 16 wraps to 16 = 4^2 in an int64 dot product
    assert not Spectrum(2, np.array([2**32, 0, 0, 4])).parseval_holds()
    # np.abs(INT64_MIN) is INT64_MIN, and its square wraps to 0: 0 + 0 + 16 = 4^2
    int64_min = np.iinfo(np.int64).min
    assert not Spectrum(2, np.array([int64_min, 0, 0, 4])).parseval_holds()
    assert not Spectrum(2, np.array([int64_min, int64_min, 0, 4])).parseval_holds()


def test_parseval_matches_python_ints(rng):
    # several 2^14-point blocks, |c| up to 2^n with negative values in the 16-bit split
    def exact(corr):
        return sum(c * c for c in corr.tolist()) == 4 ** (corr.size.bit_length() - 1)

    n = 18
    gen = np.random.default_rng(11)
    bent = (1 << (n // 2)) * (1 - 2 * gen.integers(0, 2, 1 << n))
    one_point = np.zeros(1 << n, dtype=np.int64)
    one_point[-3] = -(1 << n)
    for corr in (bent, -bent, one_point, walsh_transform(random_table(rng, n)).corr):
        assert Spectrum(n, corr).parseval_holds() and exact(corr)
        for at, delta in ((0, 2), (1 << 15, -2), (-1, 4)):
            bad = corr.copy()
            bad[at] += delta
            assert Spectrum(n, bad).parseval_holds() == exact(bad)
    # every |c| within 2^n, but the squares sum to 2^18 * 4^18
    assert not Spectrum(n, np.full(1 << n, 1 << n)).parseval_holds()


def test_max_corr_sq_reads_both_signs():
    assert Spectrum(2, np.array([2, -4, 0, 0])).max_corr_sq == 16
    assert Spectrum(2, np.array([4, -2, 0, 0])).max_corr_sq == 16
    # |INT64_MIN| does not fit int64; the peak is still its exact square
    assert Spectrum(2, np.array([np.iinfo(np.int64).min, 0, 0, 0])).max_corr_sq == 4**63


@pytest.mark.parametrize("n", [15, 20, 21, 22])
def test_walsh_transform_peak_memory(rng, n):
    # 8 bytes a point of result, an eighth of a byte of packed table, and scratch of
    # a 64th of the result. n = 15 has two rows, and n = 22 the first panels too wide
    # for the free halves of the rows. The first call fills the per-arity caches.
    t = random_table(rng, n)
    walsh_transform(t)
    assert traced_peak(walsh_transform, t) <= 8.5 * (1 << n)


_RSS_CHILD = """
import random, resource
from walshlab.core import TruthTable, walsh_transform
walsh_transform(TruthTable(16, 1))  # loads BLAS and its buffers
f = TruthTable(24, random.Random(5).getrandbits(1 << 24))
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
walsh_transform(f)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def test_walsh_transform_peak_rss_n24():
    # the resident peak, not only what tracemalloc sees: within 1.1x the 128 MiB result
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    grown_kib = int(done.stdout)
    assert grown_kib <= 1.1 * (8 << 24) / 1024, grown_kib


def test_butterfly_involution(rng):
    # the second pass reads |c| <= 2^n, exact while its sums, up to 4^n, stay within 2^24
    for n in (1, 3, 6, 12):
        signs = random_table(rng, n).signs()
        twice = core._walsh_spectra(core._walsh_spectra(signs))
        assert np.array_equal(twice, signs * (1 << n))


def test_butterfly_batched_int64(rng):
    # leading axes and int64 input, as the search table builders use it, at every
    # length up to 22 bits: blocks of 1 to 4 bits in every order the split makes
    for n in range(1, 23):
        rows = 6 if n <= 16 else 2
        tables = [random_table(rng, n).signs() for _ in range(rows)]
        batch = np.array(tables, dtype=np.int64).reshape(2, rows // 2, 1 << n)
        keep = batch.copy()
        once = core._walsh_spectra(batch)
        assert once.dtype == np.int64 and once.shape == batch.shape
        assert not np.shares_memory(once, batch)
        assert np.array_equal(once, reference_butterfly(batch)), n
        assert np.array_equal(batch, keep)


def test_spectrum_is_immutable():
    for n in (2, 5, 9, 16):
        s = walsh_transform(TruthTable(n, 0b0110))
        with pytest.raises(ValueError):
            s.corr[0] = 1
        assert s.corr.base is None  # no writeable array behind the read-only view


def test_dense_cap_error():
    old = dense_cap()
    try:
        set_dense_cap(4)
        with pytest.raises(DenseCapExceeded) as err:
            walsh_transform(TruthTable(5, 0))
        assert "cap 4" in str(err.value)
        assert err.value.cap == 4
    finally:
        set_dense_cap(old)
    with pytest.raises(ValueError):
        set_dense_cap(0)


def test_from_anf_checks_the_dense_cap_first():
    # before the 2^n coefficient array is filled
    with pytest.raises(DenseCapExceeded) as err:
        table_from_anf("X1", dense_cap() + 1)
    assert err.value.n == dense_cap() + 1


# --- reversal --------------------------------------------------------------------


def test_reverse_examples():
    assert reverse(TruthTable(1, 0b10)).bits == 0b01
    palindrome = TruthTable(2, 0b0110)
    assert reverse(palindrome) == palindrome


def test_reverse_involution(rng):
    for n in (1, 4, 7):
        for _ in range(20):
            t = random_table(rng, n)
            assert reverse(reverse(t)) == t


def test_reverse_spectrum_sign_rule(rng):
    # c_rev(a) = (-1)^wt(a) * c(a)
    for n in range(1, 11):
        signs = 1 - 2 * (popcounts(1 << n) & 1)
        for _ in range(30):
            t = random_table(rng, n)
            expected = signs * walsh_transform(t).corr
            assert np.array_equal(walsh_transform(reverse(t)).corr, expected)


def test_popcounts():
    assert popcounts(8).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
