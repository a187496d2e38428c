import dataclasses
import math
import os
import random
import re
import struct
import subprocess
import sys
import threading
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from walshlab.construct import ot_recursion_metrics
from walshlab.core import N_MAX, DenseCapExceeded, TruthTable, popcounts, walsh_transform
from walshlab.metrics import LogLinear, classify
from walshlab.report import run_verification_suite, search_result_canonical
from conftest import traced_peak
from walshlab.search import (
    _CKPT_HEADER,
    CheckpointError,
    ConjectureCheck,
    RotSymFunction,
    SearchJob,
    SweepBoundError,
    SymmetricFunction,
    _Agg,
    _classes,
    _function_key,
    _kernel,
    _ratio_key,
    and_function,
    check_conjecture,
    expand_witness,
    necklace_count,
    necklaces,
    sweep,
    sweep_rotsym,
    sweep_symmetric,
)

from conftest import reference_butterfly


def naive_best(n: int, metric: str, filters=()):
    """Independent scan of all 2^(2^n) functions through the metrics module."""
    best, count, witnesses = None, 0, []
    for v in range(1 << (1 << n)):
        rep = classify(walsh_transform(TruthTable(n, v)))
        if "balanced" in filters and not rep.balanced:
            continue
        if "plateaued" in filters and not rep.plateaued:
            continue
        r = rep.mei_ratio if metric == "mei" else rep.ei_ratio
        if r is None:
            continue
        if best is None or r > best:
            best, count, witnesses = r, 1, [v]
        elif r == best:
            count += 1
            witnesses.append(v)
    return best, count, witnesses


# --- function classes ----------------------------------------------------------


def test_necklace_counts():
    # binary necklace counts for n = 1..7
    for n, expected in zip(range(1, 8), (2, 3, 4, 6, 8, 14, 20)):
        reps, orbit = necklaces(n)
        assert len(reps) == expected
        assert orbit.min() == 0 and orbit.max() == len(reps) - 1
        assert list(reps) == sorted(reps)


def test_necklace_count_formula():
    for n in range(1, 17):
        assert necklace_count(n) == len(necklaces(n)[0]), n


def test_necklaces_are_cached_and_read_only():
    reps, orbit = necklaces(6)
    assert necklaces(6)[1] is orbit
    with pytest.raises(ValueError):
        orbit[0] = 1


def _least_rotation_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each input's necklace index and each necklace's least member, from every rotation."""
    x = np.arange(1 << n, dtype=np.int64)
    least = x.copy()
    for k in range(1, n):
        np.minimum(least, ((x >> k) | (x << (n - k))) & ((1 << n) - 1), out=least)
    reps = np.unique(least)
    return np.searchsorted(reps, least), reps


def test_rotsym_class_map_matches_every_rotation():
    for n in range(1, 21):
        got = _classes.__wrapped__("rotsym", n)  # uncached: the suite keeps no 2^20-entry maps
        for a, want in zip(got, _least_rotation_classes(n)):
            assert a.dtype == np.int64 and not a.flags.writeable
            assert np.array_equal(a, want), n


@pytest.mark.parametrize("n", [16, 20])
def test_rotsym_class_map_memory(n):
    # rotations in place, freed with the representative mask before the int64 rank
    # and its gather: 25-26 bytes a point before
    assert traced_peak(_classes.__wrapped__, "rotsym", n) <= 22 << n


def test_rotsym_width_check_builds_no_table(monkeypatch):
    # the width check at n = 28 used to loop over 2^28 inputs into a 2 GiB orbit array
    import walshlab.search as search_module

    def no_table(*args):
        raise AssertionError(f"class map {args} built")

    monkeypatch.setattr(search_module, "_classes", no_table)  # necklaces reads it too
    count = necklace_count(28)
    start = time.perf_counter()
    assert RotSymFunction(28, 0).n == 28
    assert RotSymFunction(28, (1 << count) - 1).n == 28
    with pytest.raises(ValueError, match="one bit per necklace"):
        RotSymFunction(28, 1 << count)
    assert time.perf_counter() - start < 0.5


def test_necklace_orbits_are_rotation_closed():
    n = 6
    reps, orbit = necklaces(n)
    mask = (1 << n) - 1
    for x in range(1 << n):
        rot = ((x >> 1) | ((x & 1) << (n - 1))) & mask
        assert orbit[x] == orbit[rot]
        assert reps[orbit[x]] <= x


def test_symmetric_expand():
    t = and_function(3).expand()
    assert t.bits == 1 << 7
    maj = SymmetricFunction(3, 0b1100).expand()  # 1 on weights 2 and 3
    for x in range(8):
        assert maj.value(x) == (1 if bin(x).count("1") >= 2 else 0)


def test_rotsym_expand_is_rotation_invariant():
    n = 5
    f = RotSymFunction(n, 0b10110101).expand()
    mask = (1 << n) - 1
    for x in range(1 << n):
        rot = ((x >> 1) | ((x & 1) << (n - 1))) & mask
        assert f.value(x) == f.value(rot)


def test_rotsym_function_rejects_out_of_range_values():
    # three variables have four necklaces, so the values take four bits
    assert RotSymFunction(3, 15).expand().bits == 0xFF
    for bad in (16, 1 << 10, -1):
        with pytest.raises(ValueError, match="one bit per necklace"):
            RotSymFunction(3, bad)


@pytest.mark.parametrize(
    "make",
    [necklaces, lambda n: RotSymFunction(n, 0), lambda n: SymmetricFunction(n, 0)],
    ids=["necklaces", "RotSymFunction", "SymmetricFunction"],
)
def test_arity_below_one_rejected(make):
    # the core bound: n = 29 is refused before any 2^29-entry table is built
    for n in (0, -1, N_MAX + 1):
        with pytest.raises(ValueError, match=re.escape(f"arity must be in [1, {N_MAX}], got {n}")):
            make(n)
    make(1)


@pytest.mark.parametrize("family, ns", [("symmetric", range(1, 9)), ("rotsym", range(1, 6))])
def test_expand_matches_a_direct_reference(family, ns):
    # each input takes the bit of its class: its weight, or the index of its least
    # rotation among the ascending necklace representatives
    make = SymmetricFunction if family == "symmetric" else RotSymFunction
    for n in ns:
        mask = (1 << n) - 1
        least = [min(((x >> r) | (x << (n - r))) & mask for r in range(n)) for x in range(1 << n)]
        key = [bin(x).count("1") for x in range(1 << n)] if family == "symmetric" else least
        index = {k: i for i, k in enumerate(sorted(set(key)))}
        for v in range(1 << len(index)):
            expected = TruthTable(n, sum(((v >> index[key[x]]) & 1) << x for x in range(1 << n)))
            assert make(n, v).expand() == expected, (n, v)
            assert expand_witness(SearchJob(family, n), v) == expected, (n, v)


@pytest.mark.parametrize(
    "make",
    [lambda: SymmetricFunction(25, 0).expand(), lambda: RotSymFunction(25, 0).expand(), lambda: necklaces(25)],
    ids=["symmetric", "rotsym", "necklaces"],
)
def test_class_maps_check_the_dense_cap(make):
    # a symmetric expand at n = 25 used to build its 2^25-entry table above the cap
    with pytest.raises(DenseCapExceeded) as err:
        make()
    assert err.value.n == 25


def test_every_one_var_function_is_rotsym():
    reps, _ = necklaces(1)
    assert len(reps) == 2
    tables = {RotSymFunction(1, v).expand().bits for v in range(4)}
    assert tables == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "family,ns", [("symmetric", range(1, 17)), ("rotsym", range(1, 8)), ("general", range(1, 6))]
)
def test_orbit_spectra_match_fwht(family, ns):
    # class rows spread over the orbit map are the dense spectrum of expand()
    for n in ns:
        kernel = _kernel(family, n)
        # int64 only where c^2 or the influence numerator n * 4^n can leave int32
        assert kernel.lo.dtype == kernel.hi.dtype == (np.int32 if n * 4**n < 2**31 else np.int64)
        count = 1 << kernel.sizes.size
        ids = np.unique(np.linspace(0, count - 1, num=min(count, 40)).astype(np.int64))
        corr = kernel.spectra(ids)
        if family == "general":  # one column per point
            orbit = np.arange(1 << n)
        else:
            orbit = popcounts(1 << n) if family == "symmetric" else necklaces(n)[1]
        for row, vid in zip(corr, ids.tolist()):
            dense = walsh_transform(expand_witness(SearchJob(family, n), vid)).corr
            assert np.array_equal(row[orbit], dense), (family, n, vid)


@pytest.mark.parametrize(
    "family,ns", [("symmetric", range(1, 5)), ("rotsym", range(1, 5)), ("general", range(1, 6))]
)
def test_function_keys_match_reports(family, ns):
    # a sweep's exact key of a function is the value the reports give it
    rng = random.Random(11)
    ot1_checked = 0
    for n in ns:
        count = 1 << _kernel(family, n).sizes.size
        ids = range(count) if count <= 256 else rng.sample(range(count), 200)
        mei, ei = SearchJob(family, n, "mei"), SearchJob(family, n, "ei")
        ot1 = SearchJob(family, n, "ot1-mei", ("balanced", "weight1-max-walsh"))
        for fid in ids:
            g = expand_witness(mei, fid)
            s = walsh_transform(g)
            rep = classify(s)
            if rep.mei_ratio is None:  # a constant function has no ratio and no key
                continue
            assert _function_key(mei, fid)[2] == rep.mei_ratio, (n, fid)
            assert _function_key(ei, fid)[2] == rep.ei_ratio, (n, fid)
            if rep.balanced and max(int(s.corr[1 << i]) ** 2 for i in range(n)) == rep.max_corr_sq:
                assert _function_key(ot1, fid)[2] == ot_recursion_metrics(g, 1).mei_ratio, (n, fid)
                ot1_checked += 1
    assert ot1_checked >= 4


@pytest.mark.parametrize("n", range(1, 6))
def test_general_units_balanced_rows(n):
    # a balanced unit is exactly the balanced rows of the full unit, whose
    # broadcast rows are the gathered spectra of their ids; either way a
    # sweep counts every function as scanned
    kernel = _kernel("general", n)
    units = kernel.orbits.reps.size
    for first in sorted({0, units // 2, units - 1}):
        ids, sizes, corr = kernel.units(first, first + 1, balanced=False)
        assert np.array_equal(corr, kernel.spectra(ids))
        assert np.array_equal(sizes, np.full(ids.size, kernel.orbits.sizes[first]))
        keep = corr[:, 0] == 0
        b_ids, b_sizes, b_corr = kernel.units(first, first + 1, balanced=True)
        assert np.array_equal(b_ids, ids[keep]) and np.array_equal(b_sizes, sizes[keep])
        assert np.array_equal(b_corr, corr[keep])
    if n <= 4:
        for metric in ("mei", "ei"):
            plain = sweep(SearchJob("general", n, metric, chunk_bits=2), threads=1)
            balanced = sweep(SearchJob("general", n, metric, ("balanced",), chunk_bits=2), threads=1)
            assert plain.functions_scanned == balanced.functions_scanned == 1 << (1 << n)


def test_low_half_orbit_representatives():
    # translations x permutations of X1..X_{n-1} x output complement: one orbit
    # per NPN class of (n-1)-variable functions
    for n, expected in zip(range(1, 6), (1, 2, 4, 14, 222)):
        kernel = _kernel("general", n)
        reps, sizes = kernel.orbits.reps, kernel.orbits.sizes
        assert reps.size == expected
        assert int(sizes.sum()) == kernel.lo.shape[0] == 1 << (1 << (n - 1))
        assert np.all(np.diff(reps) > 0)
        orbits = np.sort(kernel.orbits.images(reps), axis=0)  # one column per orbit
        assert np.array_equal(orbits[0], reps)
        assert np.array_equal(1 + np.count_nonzero(np.diff(orbits, axis=0), axis=0), sizes)


def test_low_half_orbit_maps_permute_spectra():
    # bit j of an image takes bit sigma(j) of its id, sigma(x) = pi(x) ^ t, and the
    # image may be complemented. Then the spectrum of the image is the spectrum
    # of the id with column a read at sigma(a) ^ sigma(0), negated or kept per
    # column; that column map keeps Hamming weight, so acting on both halves at
    # once it only reorders the squared correlations of [A+B | A-B] within weights
    for n in range(1, 6):
        kernel = _kernel("general", n)
        orbits, h = kernel.orbits, 1 << (n - 1)
        T = kernel.lo[:, :h]  # the half spectra: lo = [T | T] and hi = [T | -T]
        nh = T.shape[0]
        assert np.array_equal(T, reference_butterfly(1 - 2 * ((np.arange(nh)[:, None] >> np.arange(h)) & 1)))
        assert np.array_equal(kernel.lo, np.hstack([T, T]))
        assert np.array_equal(kernel.hi, np.hstack([T, -T]))
        points, weight = np.arange(h), popcounts(h)
        units = orbits.images(np.concatenate([[0], 1 << points]))
        assert units.shape[0] == math.factorial(n - 1) * h * 2
        assert np.unique(units, axis=0).shape[0] == units.shape[0]  # distinct elements
        flips = units[:, :1]
        assert np.all((flips == 0) | (flips == nh - 1))
        moved = units[:, 1:] ^ flips  # moved[g, s] = the one-point table at sigma^-1(s)
        target = np.log2(moved).astype(np.int64)
        sigma = np.argsort(target, axis=1)
        cols = sigma ^ sigma[:, :1]
        assert np.array_equal(weight[cols], np.broadcast_to(weight, cols.shape))
        ids = np.unique(np.linspace(0, nh - 1, num=min(nh, 128)).astype(np.int64))
        image = T[orbits.images(ids)]  # (element, id, point)
        expected = T[ids][:, cols].transpose(1, 0, 2)
        kept, negated = (image == expected).all(axis=1), (image == -expected).all(axis=1)
        assert np.all(kept | negated), n


FUNCTION_ORBITS = {
    "rotsym": (2, 3, 6, 20, 48, 3168, 55232),
    "symmetric": (2, 3, 6, 10, 20, 36, 72, 136, 272, 528, 1056, 2080),
}


@pytest.mark.parametrize("family", sorted(FUNCTION_ORBITS))
def test_function_orbit_representatives(family):
    for n, expected in enumerate(FUNCTION_ORBITS[family], start=1):
        kernel = _kernel(family, n)
        reps, sizes = kernel.orbits.reps, kernel.orbits.sizes
        assert reps.size == expected, n
        assert int(sizes.sum()) == 1 << kernel.sizes.size
        assert np.all(np.diff(reps) > 0)
        orbits = np.sort(kernel.orbits.images(reps), axis=0)  # one column per orbit
        assert np.array_equal(orbits[0], reps)
        assert np.array_equal(1 + np.count_nonzero(np.diff(orbits, axis=0), axis=0), sizes)


@pytest.mark.parametrize("family", sorted(FUNCTION_ORBITS))
def test_function_orbit_maps_permute_spectra(family):
    # each group element moves a function's c^2 between spectral points of
    # equal weight and equal orbit size: the columns of the image rows are the
    # columns of the original rows, matched with their sizes and weights
    for n in range(1, len(FUNCTION_ORBITS[family]) + 1):
        kernel = _kernel(family, n)
        count = 1 << kernel.sizes.size
        ids = np.unique(np.linspace(0, count - 1, num=min(count, 3000)).astype(np.int64))

        def columns(rows):
            c2 = kernel.spectra(rows) ** 2
            cols = map(tuple, c2.T.tolist())
            return sorted(zip(kernel.sizes.tolist(), kernel.weights.tolist(), cols))

        expected = columns(ids)
        images = kernel.orbits.images(ids)
        multipliers = sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
        assert images.shape[0] == 4 * (multipliers if family == "rotsym" else 1)
        for g, image in enumerate(images):
            assert columns(image) == expected, (n, g)


# --- job validation ---------------------------------------------------------------


def test_job_validation():
    with pytest.raises(SweepBoundError):
        SearchJob("general", 6)
    with pytest.raises(SweepBoundError):
        SearchJob("rotsym", 8)
    with pytest.raises(SweepBoundError):
        SearchJob("symmetric", 17)
    with pytest.raises(ValueError):
        SearchJob("general", 3, metric="nope")
    with pytest.raises(ValueError):
        SearchJob("general", 3, target="count")  # needs a threshold
    with pytest.raises(ValueError, match="a maximize target takes none"):
        SearchJob("general", 3, threshold=Fraction(4, 3))  # would change the digest, not the sweep
    # a checkpoint record holds witness_cap 8-byte slots; 2^17 is every symmetric id at n=16
    assert SearchJob("general", 3, witness_cap=1 << 17).witness_cap == 1 << 17
    for cap in (-1, (1 << 17) + 1, 10**9):
        with pytest.raises(ValueError, match=r"witness cap must be in \[0, 131072\]"):
            SearchJob("general", 3, witness_cap=cap)
    with pytest.raises(ValueError):
        SearchJob("general", 3, filters=("shiny",))
    # strict parsing: equal filter sets must have one spelling, hence one digest
    for filters, match in [
        (("balanced", "balanced"), "'balanced' is given twice"),
        (("resilient:1", "resilient:2"), "one resilience order, got resilient:1"),
        (("resilient:01",), "no leading zeros"),
        (("resilient:00",), "no leading zeros"),
        (("resilient:1", "resilient:1"), "given twice"),
    ]:
        with pytest.raises(ValueError, match=match):
            SearchJob("general", 3, filters=filters)
    for field, value in [("n", True), ("n", 3.0), ("chunk_bits", 2.5), ("chunk_bits", False),
                         ("witness_cap", 1.0), ("witness_cap", True), ("n", "3")]:
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SearchJob(**{"family": "general", "n": 3, field: value})
    with pytest.raises(SweepBoundError):
        sweep_symmetric(17, "mei")
    assert sweep_symmetric(16, "mei").best_ratio.rational == 2


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_must_be_positive(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sweep(SearchJob("general", 3), threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_verification_suite("fast", threads=threads, claim_ids=["c23-general-n3-vs-naive"])


@pytest.mark.parametrize(
    "filters, missing",
    [((), "balanced, weight1-max-walsh"), (("balanced",), "weight1-max-walsh"),
     (("weight1-max-walsh", "plateaued"), "balanced")],
)
def test_ot1_mei_needs_its_filters(filters, missing):
    with pytest.raises(ValueError, match=rf"add the filter\(s\) {missing}$"):
        SearchJob("general", 3, metric="ot1-mei", filters=filters)


def test_job_digest_changes_with_fields():
    a = SearchJob("general", 3)
    b = SearchJob("general", 3, metric="ei")
    assert a.digest() != b.digest()
    assert a.digest() == SearchJob("general", 3).digest()
    # valid jobs keep the digests of earlier builds, so their checkpoints still resume
    resilient = SearchJob("general", 3, filters=("resilient:1", "balanced"))
    assert resilient.digest().hex() == "23abbbc8785fa3adf9b6cbb2355373c1"
    ot1 = SearchJob("general", 4, "ot1-mei", ("weight1-max-walsh", "balanced"), target="count", threshold=3)
    assert ot1.digest().hex() == "96c076b36f477037a93e53c9818d340b"


# --- engine vs naive oracle ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("metric", ["mei", "ei"])
def test_general_sweep_matches_naive(n, metric):
    best, count, wits = naive_best(n, metric)
    r = sweep(SearchJob("general", n, metric=metric, chunk_bits=2, witness_cap=64), threads=1)
    assert r.functions_scanned == 1 << (1 << n)
    assert r.best_ratio == best
    assert r.witness_total == count
    expected_hex = [TruthTable(n, v).to_hex() for v in wits[:64]]
    assert list(r.witnesses) == expected_hex


def test_balanced_filter_matches_naive():
    best, count, _ = naive_best(3, "mei", filters=("balanced",))
    r = sweep(SearchJob("general", 3, metric="mei", filters=("balanced",)), threads=1)
    assert r.best_ratio == best
    assert r.witness_total == count
    assert r.balanced_at_best == count
    for hx in r.witnesses:
        assert TruthTable.from_hex(hx, 3).balanced


def test_plateaued_filter_matches_naive():
    best, count, _ = naive_best(3, "mei", filters=("balanced", "plateaued"))
    r = sweep(
        SearchJob("general", 3, metric="mei", filters=("balanced", "plateaued")), threads=1
    )
    assert r.best_ratio == best
    assert r.witness_total == count
    for hx in r.witnesses:
        assert classify(walsh_transform(TruthTable.from_hex(hx, 3))).plateaued


def test_resilient_filter():
    r = sweep(SearchJob("general", 3, metric="mei", filters=("resilient:1",)), threads=1)
    for hx in r.witnesses:
        assert classify(walsh_transform(TruthTable.from_hex(hx, 3))).resilience_order >= 1


def test_weight1_filter():
    r = sweep(
        SearchJob("general", 3, metric="mei", filters=("balanced", "weight1-max-walsh")),
        threads=1,
    )
    for hx in r.witnesses:
        s = walsh_transform(TruthTable.from_hex(hx, 3))
        w1 = max(int(s.corr[1 << i]) ** 2 for i in range(3))
        assert w1 == s.max_corr_sq


def test_witness_soundness():
    r = sweep(SearchJob("general", 3, metric="mei", witness_cap=64), threads=1)
    for hx in r.witnesses:
        rep = classify(walsh_transform(TruthTable.from_hex(hx, 3)))
        assert rep.max_corr_sq == r.max_corr_sq
        assert rep.influence.rational == Fraction(r.influence_numerator, 4**3)
        assert rep.mei_ratio.rational == r.best_ratio.rational


def test_count_achieving_equals_max_count():
    mx = sweep(SearchJob("general", 3, metric="mei"), threads=1)
    ct = sweep(
        SearchJob("general", 3, metric="mei", target="count", threshold=mx.best_ratio.rational),
        threads=1,
    )
    assert ct.count_achieving == mx.witness_total == 24


def test_count_achieving_misses_everything():
    ct = sweep(
        SearchJob("general", 3, metric="mei", target="count", threshold=Fraction(16, 7)),
        threads=1,
    )
    assert ct.count_achieving == 0


@pytest.mark.parametrize("threshold", [2.0, 0.1, "2", True], ids=repr)
def test_count_threshold_must_be_exact(threshold):
    # a float would be counted by its binary64 value and has no exact threshold string
    with pytest.raises(ValueError):
        SearchJob("general", 3, "mei", target="count", threshold=threshold)
    for exact in (2, Fraction(2)):
        assert SearchJob("general", 3, "mei", target="count", threshold=exact).canonical()["threshold"] == "2/1"


def test_ei_count_is_exact():
    balanced = ("balanced",)
    mx = sweep(SearchJob("general", 4, metric="ei", filters=balanced), threads=1)
    assert mx.best_ratio.value == 2.0 and mx.witness_total == 192
    job = SearchJob("general", 4, "ei", balanced, target="count", threshold=Fraction(2))
    ct = sweep(job, threads=1)
    assert ct.count_achieving == 192 and ct.balanced_at_best == 192
    # the unfiltered maximum is irrational: its binary64 value, a rational, is never hit
    top = sweep(SearchJob("general", 4, metric="ei"), threads=1)
    assert top.witness_total == 32
    near = Fraction(top.best_ratio.value)
    job = SearchJob("general", 4, metric="ei", target="count", threshold=near)
    assert sweep(job, threads=1).count_achieving == 0


def dense_key(metric: str, f: TruthTable):
    c = walsh_transform(f).corr
    c2 = c * c
    row = tuple(c2.tolist()) if metric == "ei" else (int(c2.max()),)
    return _ratio_key(metric, f.n, int(c2 @ popcounts(c.size)), row, (1,) * c.size)


def test_key_invariant_under_symmetries():
    # permuting variables reorders the spectrum; the array-order float sum moved with it
    rng = np.random.default_rng(5)
    for n in range(5, 9):
        x = np.arange(1 << n)
        for _ in range(40):
            bits = rng.integers(0, 2, 1 << n)
            perm = rng.permutation(n)
            permuted = sum(((x >> i) & 1) << int(perm[i]) for i in range(n))
            images = (bits[permuted], bits[x ^ int(rng.integers(1 << n))], 1 - bits)
            for metric in ("ei", "mei"):
                key = dense_key(metric, TruthTable.from_array(bits, n))
                for image in images:
                    assert dense_key(metric, TruthTable.from_array(image, n)) == key


def test_ot1_metric_count():
    # balanced 2-var functions whose largest squared value sits on weight 1
    # are the four dictator-like functions; their one-step ratio is exactly 0
    job = SearchJob(
        "general",
        2,
        metric="ot1-mei",
        filters=("balanced", "weight1-max-walsh"),
        target="count",
        threshold=Fraction(0),
    )
    r = sweep(job, threads=1)
    assert r.count_achieving == 4


def dense_mei_achievers(n: int, balanced: bool):
    """Exact maximum and every achiever of mei over all n-variable functions, by the reference butterfly."""
    ids = np.arange(1 << (1 << n), dtype=np.int64)
    corr = reference_butterfly(1 - 2 * ((ids[:, None] >> np.arange(1 << n)) & 1))
    c2 = corr * corr
    m, inf = c2.max(axis=1), c2 @ popcounts(1 << n)
    keep = (inf > 0) & ((corr[:, 0] == 0) if balanced else True)
    val = np.where(keep, (2 * n - np.log2(m)) * 4**n / np.maximum(inf, 1), -np.inf)
    cand = np.nonzero(val >= val.max() - 1e-9)[0]
    exact = {Fraction((2 * n - int(m[v]).bit_length() + 1) * 4**n, int(inf[v])) for v in cand}
    assert len(exact) == 1 and all(int(m[v]) & (int(m[v]) - 1) == 0 for v in cand)
    return exact.pop(), cand.tolist(), int(np.count_nonzero(corr[cand, 0] == 0))


@pytest.mark.parametrize("filters, total", [((), 944), (("balanced",), 320)])
def test_orbit_sweep_matches_dense_scan(filters, total):
    best, achievers, balanced = dense_mei_achievers(4, bool(filters))
    assert len(achievers) == total
    r = sweep(SearchJob("general", 4, metric="mei", filters=filters, witness_cap=2000), threads=1)
    assert r.functions_scanned == 1 << 16
    assert r.best_ratio.rational == best
    assert r.witness_total == total and r.balanced_at_best == balanced
    assert list(r.witnesses) == [TruthTable(4, v).to_hex() for v in achievers]


def dense_family_achievers(family: str, n: int, metric: str, balanced: bool):
    """Exact maximum, every achiever and the balanced achievers, scanning every function id."""
    kernel = _kernel(family, n)
    ids = np.arange(1 << kernel.sizes.size, dtype=np.int64)
    corr = kernel.spectra(ids)
    c2 = corr * corr
    m, inf = c2.max(axis=1), c2 @ (kernel.sizes * kernel.weights)
    keep = (inf > 0) & ((corr[:, 0] == 0) if balanced else True)
    if metric == "ei":
        terms = c2 * np.log2(np.maximum(c2, 1))
        score = 2 * n * 4**n - terms @ kernel.sizes
    else:
        score = (2 * n - np.log2(np.maximum(m, 1))) * 4**n
    val = np.where(keep, score / np.maximum(inf, 1), -np.inf)
    sizes = tuple(kernel.sizes.tolist())
    rows = c2 if metric == "ei" else m[:, None]
    keys = {
        v: _ratio_key(metric, n, int(inf[v]), tuple(rows[v].tolist()), sizes)
        for v in np.nonzero(val >= val.max() - 1e-6)[0].tolist()
    }
    best = max(keys.values())
    achievers = [v for v, key in keys.items() if key == best]
    return best, achievers, int(np.count_nonzero(corr[achievers, 0] == 0))


@pytest.mark.parametrize("metric", ["mei", "ei"])
@pytest.mark.parametrize("filters", [(), ("balanced",)], ids=["unfiltered", "balanced"])
@pytest.mark.parametrize("family, n_max", [("rotsym", 6), ("symmetric", 12)])
def test_function_orbit_sweep_matches_dense_scan(family, n_max, metric, filters):
    for n in range(1, n_max + 1):
        best, achievers, balanced = dense_family_achievers(family, n, metric, bool(filters))
        job = SearchJob(family, n, metric, filters, chunk_bits=3, witness_cap=4096)
        r = sweep(job, threads=1)
        assert r.functions_scanned == 1 << _kernel(family, n).sizes.size
        assert r.best_ratio == best, n
        assert r.witness_total == len(achievers) and r.balanced_at_best == balanced, n
        assert list(r.witnesses) == [expand_witness(job, v).to_hex() for v in achievers], n


# the published rotation-symmetric maxima (c18-c21): achiever counts, mei keys and witnesses
ROTSYM_MAXIMA = {
    (6, "ei"): (None, [
        "0000000000000001", "7fffffffffffffff", "8000000000000000", "fffffffffffffffe",
    ]),
    (6, "mei"): ((324, 6912), [
        "0103010f111355ff", "0103050f113355ff", "005533770f5f3f7f", "005537770f7f3f7f",
        "ffaac888f080c080", "ffaacc88f0a0c080", "fefcfaf0eeccaa00", "fefcfef0eeecaa00",
    ]),
    (7, "ei"): (None, [
        "00000000000000000000000000000001", "7fffffffffffffffffffffffffffffff",
        "80000000000000000000000000000000", "fffffffffffffffffffffffffffffffe",
    ]),
    (7, "mei"): ((784, 32256), [
        "0103010f010300ef1113110b5551fdff", "0000115503023373005f105d0f4f3b5f",
        "130b11df0303b3ff515f115fdf5fffff", "000005040577057500323f3f04772f37",
        "05230d0f45f705ff3133bf3f5577ffff", "004075552f77377708ff3f7f0f7f3f7f",
        "ffbf8aaad088c888f700c080f080c080", "fadcf2f0ba08fa00cecc40c0aa880000",
        "fffffafbfa88fa8affcdc0c0fb88d0c8", "ecf4ee20fcfc4c00aea0eea020a00000",
        "ffffeeaafcfdcc8cffa0efa2f0b0c4a0", "fefcfef0fefcff10eeeceef4aaae0200",
    ]),
}


@pytest.mark.parametrize("chunk_bits", [0, 3, 6])
@pytest.mark.parametrize("threads", [1, 2])
def test_rotsym_published_maxima_achievers(threads, chunk_bits):
    for (n, metric), (mei_key, witnesses) in ROTSYM_MAXIMA.items():
        r = sweep(SearchJob("rotsym", n, metric, chunk_bits=chunk_bits), threads=threads)
        assert r.functions_scanned == 1 << (14 if n == 6 else 20)
        assert (r.max_corr_sq, r.influence_numerator) == (mei_key or (None, None))
        assert r.witness_total == len(witnesses) and r.balanced_at_best == 0
        assert list(r.witnesses) == witnesses


# --- determinism ---------------------------------------------------------------------


# general n=4: the mei maximum and two count jobs, whose chunks carry no key
BW = ("balanced", "weight1-max-walsh")
DETERMINISM_JOBS = [
    (SearchJob("general", 4, metric="mei"), 944),
    (SearchJob("general", 4, metric="mei", target="count", threshold=2), 944),
    (SearchJob("general", 4, "ot1-mei", BW, target="count", threshold=Fraction(16, 9)), 320),
]


@pytest.mark.parametrize("chunk_bits", range(7))
@pytest.mark.parametrize("threads", [1, 2])
def test_determinism(chunk_bits, threads, monkeypatch):
    import walshlab.search as search_mod

    monkeypatch.setattr(search_mod, "_POOL_MIN_FUNCTIONS", 0)  # threads=2 runs a worker pool
    for job, total in DETERMINISM_JOBS:
        base = sweep(dataclasses.replace(job, chunk_bits=4), threads=1)
        other = sweep(dataclasses.replace(job, chunk_bits=chunk_bits), threads=threads)
        assert other.witness_total == total
        a, b = search_result_canonical(base), search_result_canonical(other)
        a["job"].pop("chunk_bits")
        b["job"].pop("chunk_bits")
        assert a == b


def test_small_sweeps_run_in_process(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started for a small sweep")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    job = SearchJob("rotsym", 7, metric="mei")
    two = search_result_canonical(sweep(job, threads=2))
    assert two == search_result_canonical(sweep(job, threads=1))


def test_imports_are_numpy_and_the_standard_library():
    import ast

    tomllib = pytest.importorskip("tomllib")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "walshlab")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):  # the imports inside functions too
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                tops = ["walshlab" if node.level else node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                allowed = top in ("numpy", "walshlab") or top in sys.stdlib_module_names
                assert allowed and top != "multiprocessing", f"{name}:{node.lineno} imports {top}"
    with open(os.path.join(src, os.pardir, os.pardir, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])


def test_pooled_sweeps_load_no_mpmath_or_multiprocessing():
    # worker threads and decimal log bounds: a pooled sweep and the rotsym ei claims,
    # which compare irrational keys, need nothing beyond numpy and the standard library
    code = """if True:
        import sys
        from walshlab import report, search
        search._POOL_MIN_FUNCTIONS = 0
        job = search.SearchJob("general", 4, "ei", chunk_bits=3)
        pooled, alone = (report.search_result_canonical(search.sweep(job, threads=t)) for t in (2, 1))
        ledger = report.run_verification_suite(threads=2, claim_ids=["c18-rotsym-n6-ei", "c20-rotsym-n7-ei"])
        print(pooled == alone, ledger.passed, [m for m in ("mpmath", "multiprocessing") if m in sys.modules])
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True True []"


def test_worker_threads_share_the_key_caches(monkeypatch):
    # more threads than cores and a short switch interval, from empty caches: every
    # chunk builds irrational keys and their log bounds while the others do
    import walshlab.metrics as metrics_mod
    import walshlab.search as search_mod

    job = SearchJob("rotsym", 7, "ei", chunk_bits=6)
    alone = search_result_canonical(sweep(job, threads=1))
    monkeypatch.setattr(search_mod, "_POOL_MIN_FUNCTIONS", 0)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(2):
            _ratio_key.cache_clear()
            metrics_mod._ln_bounds.cache_clear()
            assert search_result_canonical(sweep(job, threads=4)) == alone
    finally:
        sys.setswitchinterval(interval)


def _slow_counted_chunks(monkeypatch) -> list[int]:
    """Run every sweep on the pool, each chunk 50 ms slower; returns the first units of the chunks started."""
    import walshlab.search as search_mod

    monkeypatch.setattr(search_mod, "_POOL_MIN_FUNCTIONS", 0)
    original, started = search_mod._run_chunk, []

    def slow(job, first, last):
        started.append(first)
        time.sleep(0.05)
        return original(job, first, last)

    monkeypatch.setattr(search_mod, "_run_chunk", slow)
    return started


@pytest.mark.parametrize("fault", ["progress", "checkpoint-write"])
def test_stopped_pooled_sweep_starts_no_more_chunks(tmp_path, monkeypatch, fault):
    import walshlab.search as search_mod

    plain = SearchJob("symmetric", 12, "ei")  # 64 chunks
    job = dataclasses.replace(plain, checkpoint_path=str(tmp_path / "stop.ck"))
    started = _slow_counted_chunks(monkeypatch)
    progress, error = None, OSError("no space left")
    if fault == "progress":
        error = RuntimeError("progress callback failed")

        def progress(done, total):
            raise error
    else:
        def fail(*args):
            raise error

        monkeypatch.setattr(search_mod, "_append_record", fail)
    threads = set(threading.enumerate())
    with pytest.raises(type(error)) as stopped:  # kept: its traceback holds the sweep's frame
        sweep(job, threads=2, progress=progress)
    assert stopped.value is error and 1 <= len(started) <= 2 * 2
    assert set(threading.enumerate()) == threads  # the workers have ended, so no chunk starts later
    monkeypatch.undo()
    resumed = sweep(job, threads=1)
    assert resumed.resumed_chunks == (1 if fault == "progress" else 0)
    assert search_result_canonical(resumed) == search_result_canonical(sweep(plain, threads=1))


def test_determinism_ei_metric():
    a = sweep(SearchJob("symmetric", 6, metric="ei", chunk_bits=2), threads=1)
    b = sweep(SearchJob("symmetric", 6, metric="ei", chunk_bits=5), threads=2)
    da, db = search_result_canonical(a), search_result_canonical(b)
    da["job"].pop("chunk_bits")
    db["job"].pop("chunk_bits")
    assert da == db


# --- checkpoints -----------------------------------------------------------------------


def _crash_after(job: SearchJob, chunks: int, monkeypatch) -> None:
    """Run ``job`` until ``chunks`` chunks are checkpointed, then crash it."""
    import walshlab.search as search_mod

    original = search_mod._run_chunk
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] > chunks:
            raise RuntimeError("simulated crash")
        return original(*args)

    monkeypatch.setattr(search_mod, "_run_chunk", flaky)
    with pytest.raises(RuntimeError):
        sweep(job, threads=1)
    monkeypatch.setattr(search_mod, "_run_chunk", original)


def test_checkpoint_resume(tmp_path, monkeypatch):
    for i, (plain_job, total) in enumerate(DETERMINISM_JOBS):
        job = dataclasses.replace(plain_job, chunk_bits=3, checkpoint_path=str(tmp_path / f"{i}.ck"))
        _crash_after(job, 3, monkeypatch)
        resumed = sweep(job, threads=1)
        assert resumed.resumed_chunks == 3 and resumed.witness_total == total
        plain = sweep(dataclasses.replace(plain_job, chunk_bits=3), threads=1)
        a, b = search_result_canonical(resumed), search_result_canonical(plain)
        assert a == b


@pytest.mark.parametrize("family, n", [("general", 4), ("rotsym", 6)])
def test_checkpoint_resume_ei(tmp_path, monkeypatch, family, n):
    # a resumed chunk rebuilds its exact key from the recorded best function id
    job = SearchJob(family, n, metric="ei", chunk_bits=3, checkpoint_path=str(tmp_path / "ei.ck"))
    _crash_after(job, 3, monkeypatch)
    resumed = sweep(job, threads=1)
    assert resumed.resumed_chunks == 3
    plain = sweep(SearchJob(family, n, metric="ei", chunk_bits=3), threads=1)
    assert search_result_canonical(resumed) == search_result_canonical(plain)


def _checkpointed(tmp_path):
    """A finished n=4 sweep (8 chunks), its checkpoint path and the record size."""
    path = tmp_path / "sweep.ck"
    job = SearchJob("general", 4, metric="mei", chunk_bits=3, checkpoint_path=str(path))
    result = sweep(job, threads=1)
    return job, path, result, _CKPT_HEADER.unpack_from(path.read_bytes())[3]


@pytest.mark.parametrize("damage", ["cut", "flip"])
def test_checkpoint_torn_last_record_reruns(tmp_path, damage):
    job, path, fresh, rec_size = _checkpointed(tmp_path)
    intact = path.read_bytes()
    data = bytearray(intact)
    if damage == "cut":
        del data[-5:]
    else:
        data[-rec_size] ^= 1  # the chunk id of the last record
    path.write_bytes(bytes(data))
    resumed = sweep(job, threads=1)
    assert resumed.resumed_chunks == 7
    assert search_result_canonical(resumed) == search_result_canonical(fresh)
    assert path.read_bytes() == intact  # the torn bytes were replaced, not appended to


@pytest.mark.parametrize("kept", [0, 20])
def test_checkpoint_torn_header_starts_again(tmp_path, kept):
    # a crash between creating the file and syncing its header leaves a prefix of the header
    job, path, fresh, _ = _checkpointed(tmp_path)
    intact = path.read_bytes()
    path.write_bytes(intact[:kept])
    rerun = sweep(job, threads=1)
    assert rerun.resumed_chunks == 0
    assert search_result_canonical(rerun) == search_result_canonical(fresh)
    assert path.read_bytes() == intact


def test_checkpoint_short_foreign_file_rejected(tmp_path):
    job, path, _, _ = _checkpointed(tmp_path)
    path.write_bytes(b"hello")
    with pytest.raises(CheckpointError, match="truncated header"):
        sweep(job, threads=1)
    assert path.read_bytes() == b"hello"


def test_checkpoint_bad_record_mid_file(tmp_path):
    job, path, _, _ = _checkpointed(tmp_path)
    data = bytearray(path.read_bytes())
    data[_CKPT_HEADER.size + 24] ^= 1  # one bit of the count field of record 0
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="record 0 fails its CRC check"):
        sweep(job, threads=1)


def test_fold_sorts_and_dedupes_merged_witnesses():
    # chunk outcomes reach the fold as recorded, and a record with a valid CRC may
    # list its witnesses unsorted or repeated: the kept ids are still sorted and distinct
    job = SearchJob("general", 3, "mei", target="count", threshold=Fraction(4, 3), witness_cap=3)
    total = _Agg(job)
    total.merge(_Agg(job, 8, count=5, witnesses=[9, 2, 9, 7]))
    total.merge(_Agg(job, 8, count=2, witnesses=[2, 1]))
    assert (total.scanned, total.count, total.witnesses) == (16, 7, [1, 2, 7])


def test_checkpoint_duplicate_chunk_rejected(tmp_path):
    job, path, _, rec_size = _checkpointed(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data + data[_CKPT_HEADER.size : _CKPT_HEADER.size + rec_size])
    with pytest.raises(CheckpointError, match="chunk 0 is recorded twice"):
        sweep(job, threads=1)


@pytest.mark.parametrize(
    "offset, fmt, value, match",
    [
        (0, "<Q", 99, "chunk 99 is outside the job's 8 chunks"),
        (16, "<q", 1 << 40, r"best id 1099511627776 outside \[-1, 65536\)"),
        (16, "<q", -2, r"best id -2 outside \[-1, 65536\)"),
        (16, "<q", -1, "best id -1 with count [1-9][0-9]*, against its target"),
        (48, "<Q", 1 << 16, r"a witness id outside \[0, 65536\)"),
        (40, "<Q", 17, "17 witnesses, above the cap 16"),
    ],
    ids=["chunk", "best-high", "best-low", "best-missing", "witness", "witness-count"],
)
def test_checkpoint_record_out_of_range(tmp_path, offset, fmt, value, match):
    # a record with a valid CRC is still outside input: every field must fit the job
    job, path, _, rec_size = _checkpointed(tmp_path)
    data = bytearray(path.read_bytes())
    record = memoryview(data)[-rec_size:]
    assert struct.unpack_from("<Q", record, 40)[0] >= 1  # the last chunk has a witness
    struct.pack_into(fmt, record, offset, value)
    struct.pack_into("<I", record, rec_size - 4, zlib.crc32(record[:-4]))
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=match):
        sweep(job, threads=1)


@pytest.mark.parametrize(
    "fields, match",
    [
        ({8: 10**12}, "records 1000000000000 functions scanned; its units hold"),
        ({24: 1 << 40}, "counts 1099511627776 functions, above the [0-9]+ it scanned"),
        ({32: 1 << 40}, "counts 1099511627776 balanced functions, above its count"),
        ({24: 0, 32: 0}, "witnesses, above its count 0"),
        ({24: 0, 32: 0, 40: 0}, "best id [0-9]+ with count 0, against its target"),
    ],
    ids=["scanned", "count", "balanced", "witnesses", "best-without-count"],
)
def test_checkpoint_record_counts_must_fit_chunk(tmp_path, fields, match):
    # a record with a valid CRC that claimed 10^12 functions scanned used to
    # resume to that many: a chunk's scanned count is known exactly, and its
    # count, balanced count and witnesses are bounded by it
    job, path, _, rec_size = _checkpointed(tmp_path)
    data = bytearray(path.read_bytes())
    record = memoryview(data)[-rec_size:]
    assert struct.unpack_from("<Q", record, 40)[0] >= 1  # the last chunk has a witness
    for offset, value in fields.items():
        struct.pack_into("<Q", record, offset, value)
    struct.pack_into("<I", record, rec_size - 4, zlib.crc32(record[:-4]))
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=match):
        sweep(job, threads=1)


# A finished general n=3 ei checkpoint (chunk_bits 2, witness cap 2) from the
# format 5 writer as it was before reports carried exact values.
FORMAT5_EI_N3 = bytes.fromhex(
    "574c5357454550310500000002000000440000000000000001946c899c717ac7df099bffe06b754600000000"
    "0000000020000000000000001000000000000000080000000000000000000000000000000200000000000000"
    "100000000000000020000000000000002ec528a0010000000000000080000000000000000100000000000000"
    "08000000000000000000000000000000020000000000000001000000000000000200000000000000eba00d99"
    "0200000000000000400000000000000003000000000000000800000000000000000000000000000002000000"
    "00000000030000000000000005000000000000009b10a43c0300000000000000200000000000000006000000"
    "0000000004000000000000000000000000000000020000000000000006000000000000000900000000000000"
    "7df223f3"
)


# A finished general n=3 mei count at 4/3 (chunk_bits 2, witness cap 2) from the
# format 5 writer as it was before one rule folded every sweep outcome. Every
# record has best id -1 and a nonzero count; the last chunk holds the smallest
# witnesses.
FORMAT5_COUNT_N3 = bytes.fromhex(
    "574c53574545503105000000020000004400000000000000aafdb4ed56b44ca1bb5e1ad5287eaa2400000000"
    "000000002000000000000000ffffffffffffffff040000000000000000000000000000000200000000000000"
    "60000000000000006f000000000000009d70513901000000000000008000000000000000ffffffffffffffff"
    "300000000000000018000000000000000200000000000000120000000000000014000000000000007ff24de2"
    "02000000000000004000000000000000ffffffffffffffff0800000000000000080000000000000002000000"
    "0000000035000000000000003a00000000000000f4a9aa1603000000000000002000000000000000ffffffff"
    "ffffffff04000000000000000000000000000000020000000000000006000000000000000900000000000000"
    "3c4d2b0f"
)


def test_checkpoint_format5_file_resumes(tmp_path):
    ei = SearchJob("general", 3, "ei", chunk_bits=2, witness_cap=2)
    count = SearchJob("general", 3, "mei", target="count", threshold=Fraction(4, 3), chunk_bits=2, witness_cap=2)
    resumed = {}
    for job, data in ((ei, FORMAT5_EI_N3), (count, FORMAT5_COUNT_N3)):
        path = tmp_path / f"{job.target}.ck"
        path.write_bytes(data)
        resumed[job.target] = r = sweep(dataclasses.replace(job, checkpoint_path=str(path)), threads=1)
        assert r.resumed_chunks == 4 and path.read_bytes() == data
        assert search_result_canonical(r) == search_result_canonical(sweep(job, threads=1))
    ei_max, counted = resumed["maximize"], resumed["count"]
    assert ei_max.best_ratio.rational is None and ei_max.witness_total == 16
    assert counted.count_achieving == 64 and counted.balanced_at_best == 32
    assert counted.best_ratio is None and counted.witnesses == ("06", "09")


def test_checkpoint_count_record_with_best_id_rejected(tmp_path):
    # a count record has no key: a best id there would be compared with the threshold
    path = tmp_path / "count.ck"
    data = bytearray(FORMAT5_COUNT_N3)
    record = memoryview(data)[_CKPT_HEADER.size : _CKPT_HEADER.size + 68]
    struct.pack_into("<q", record, 16, 5)
    struct.pack_into("<I", record, 64, zlib.crc32(record[:-4]))
    path.write_bytes(bytes(data))
    job = SearchJob("general", 3, "mei", target="count", threshold=Fraction(4, 3), chunk_bits=2, witness_cap=2)
    with pytest.raises(CheckpointError, match="chunk 0 has best id 5 with count 4, against its target"):
        sweep(dataclasses.replace(job, checkpoint_path=str(path)), threads=1)


def test_checkpoint_corruption(tmp_path):
    path = str(tmp_path / "sweep.ck")
    job = SearchJob("general", 3, metric="mei", checkpoint_path=path)
    sweep(job, threads=1)
    with open(path, "r+b") as fh:
        fh.write(b"garbage!")
    with pytest.raises(CheckpointError):
        sweep(job, threads=1)


def test_checkpoint_old_version_rejected(tmp_path):
    # version 4 general chunk ids indexed low-half orbits without variable permutations
    path = tmp_path / "sweep.ck"
    job = SearchJob("general", 3, metric="mei", chunk_bits=2, checkpoint_path=str(path))
    sweep(job, threads=1)
    data = bytearray(path.read_bytes())
    magic, version, cap, rec_size, pad, digest = _CKPT_HEADER.unpack_from(data)
    assert version == 5 and digest == job.digest()
    _CKPT_HEADER.pack_into(data, 0, magic, 4, cap, rec_size, pad, digest)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version 4, this build reads version 5"):
        sweep(job, threads=1)
    assert path.read_bytes() == bytes(data)


def test_checkpoint_job_mismatch(tmp_path):
    path = str(tmp_path / "sweep.ck")
    sweep(SearchJob("general", 3, metric="mei", checkpoint_path=path), threads=1)
    with pytest.raises(CheckpointError):
        sweep(SearchJob("general", 3, metric="ei", checkpoint_path=path), threads=1)


def test_checkpoint_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WALSHLAB_CHECKPOINT_DIR", str(tmp_path))
    sweep(SearchJob("general", 3, metric="mei", checkpoint_path="rel.ck"), threads=1)
    assert (tmp_path / "rel.ck").exists()


# --- symmetric and rotation-symmetric sweeps ----------------------------------------------


def test_symmetric_sweep_small_vs_naive():
    for n in (2, 3, 4):
        best = None
        for vid in range(1 << (n + 1)):
            rep = classify(walsh_transform(SymmetricFunction(n, vid).expand()))
            if rep.ei_ratio is not None and (best is None or rep.ei_ratio > best):
                best = rep.ei_ratio
        r = sweep_symmetric(n, "ei")
        assert r.best_ratio == best
        assert r.functions_scanned == 1 << (n + 1)


def test_symmetric_even_mei_max_is_two_with_bent_witnesses():
    for n in (2, 4, 8):
        r = sweep_symmetric(n, "mei")
        assert r.best_ratio == LogLinear.from_fraction(2)
        assert r.witness_total == 4
        for hx in r.witnesses:
            rep = classify(walsh_transform(TruthTable.from_hex(hx, n)))
            assert rep.bent


def test_class_consistency_small_n():
    # symmetric and rotation-symmetric maxima cannot exceed the general maximum
    for n in (2, 3, 4):
        for metric in ("mei", "ei"):
            general = sweep(SearchJob("general", n, metric=metric), threads=1)
            sym = sweep_symmetric(n, metric)
            rot = sweep_rotsym(n, metric)
            assert sym.best_ratio <= general.best_ratio
            assert rot.best_ratio <= general.best_ratio


def test_rotsym_n1_matches_general():
    g = sweep(SearchJob("general", 1, metric="mei"), threads=1)
    r = sweep_rotsym(1, "mei")
    assert g.best_ratio == r.best_ratio
    assert g.witness_total == r.witness_total


def test_rotsym_n5_maxima():
    # frozen from an independent single-file scan of all 2^8 orbit assignments
    # best_ratio.value is the exact maximum, correctly rounded
    assert f"{sweep_rotsym(5, 'ei').best_ratio.value:.6f}" == "3.623740"
    assert f"{sweep_rotsym(5, 'mei').best_ratio.value:.6f}" == "2.147932"


# --- conjecture checks -------------------------------------------------------------------


def test_check_conjecture_small():
    checks = check_conjecture(range(1, 7))
    assert [c.n for c in checks] == list(range(1, 7))
    for c in checks:
        assert isinstance(c, ConjectureCheck)
        assert c.passed and c.counterexample is None
        assert c.and_ratio_below_4
        assert c.ei_achievers == (2 if c.n == 1 else 4)
        if c.n % 2 == 0:
            assert c.mei_max == LogLinear.from_fraction(2)
            assert c.bent_achievers > 0
        else:
            assert c.mei_max < LogLinear.from_fraction(2)


def test_check_conjecture_bounds():
    with pytest.raises(SweepBoundError):
        check_conjecture([17])
    with pytest.raises(SweepBoundError):
        check_conjecture([0])


def test_check_conjecture_above_published_range():
    checks = check_conjecture(range(13, 17))
    assert [c.n for c in checks] == [13, 14, 15, 16]
    for c in checks:
        assert c.passed and c.counterexample is None
        assert c.ei_achievers == 4
