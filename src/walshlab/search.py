"""Exhaustive and class-restricted sweeps maximising spectral ratios.

Three function families are searchable: all functions on n <= 5 variables,
symmetric functions on n <= 16 (by weight-value vector), and rotation
symmetric functions on n <= 7 (by necklace-orbit assignment). A sweep either
maximises a metric or counts the functions achieving an exact threshold.

The general-family engine never transforms one function at a time: the two
2^(n-1)-point half spectra A, B of every function are precomputed once, the
full spectrum is [A+B | A-B], and both the largest squared correlation and
the weight-weighted spectral sum come from a handful of vectorised passes
per batch of 2^(2^(n-1)) functions sharing one low half. The 2^n maps that
translate X1..X_{n-1} and optionally complement the output act on both half
tables at once and keep every entry of [A+B | A-B]^2 (corr0 only changes
sign), so every metric, filter and balancedness is constant on their orbits:
the sweep visits one low half per orbit (the smallest; 2288 of 65536 at n=5)
against every high half, weights each row by the orbit size, and maps the
achieving functions through the group so the witnesses are still the
smallest ids overall. Symmetric and rotation symmetric
functions are constant on input orbits (weight classes, necklaces), so their
spectra are constant on the same orbits: one orbit-class matrix per (family,
n) turns each function's orbit sign vector into its correlations at the
orbit representatives, and every metric and filter reads those class columns
weighted by orbit size.

Aggregation is associative and exact: float metric values only pre-filter
candidates, and the running maximum is decided on the exact integer key
(max corr^2, weighted spectral sum), so results are identical for every
chunking and worker count.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import mpmath
import numpy as np

from .core import TruthTable, fwht_inplace, popcounts
from .metrics import ExactValue

FAMILIES = ("general", "symmetric", "rotsym")
METRICS = ("mei", "ei", "ot1-mei")
GENERAL_N_MAX = 5
SYMMETRIC_N_MAX = 16
ROTSYM_N_MAX = 7

_FLOAT_TOL = 1e-9
_BATCH_CELLS = 1 << 18  # orbit-kernel cells (functions x orbits) per batch

CHECKPOINT_DIR_ENV = "WALSHLAB_CHECKPOINT_DIR"
_CKPT_MAGIC = b"WLSWEEP1"
_CKPT_VERSION = 2  # 2: general-family chunk ids index low-half orbit representatives
_CKPT_HEADER = struct.Struct("<8sIIII16s")


class SweepBoundError(ValueError):
    """A sweep was requested outside its family's feasible bounds."""


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupt, or belongs to another job."""


# --- Function classes ---------------------------------------------------------


def necklaces(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Cyclic-rotation orbit representatives of n-bit strings, ascending.

    Returns the representatives (each the smallest integer in its orbit,
    i.e. the lexicographically minimal rotation) and an array mapping every
    n-bit input to its orbit index.
    """
    size = 1 << n
    orbit = np.full(size, -1, dtype=np.int64)
    reps: list[int] = []
    mask = size - 1
    for x in range(size):
        if orbit[x] >= 0:
            continue
        rid = len(reps)
        reps.append(x)
        y = x
        while orbit[y] < 0:
            orbit[y] = rid
            y = ((y >> 1) | ((y & 1) << (n - 1))) & mask
    return tuple(reps), orbit


@dataclass(frozen=True)
class SymmetricFunction:
    """Boolean function invariant under every input permutation.

    Bit w of ``value_vector`` is the output on inputs of weight w.
    """

    n: int
    value_vector: int

    def __post_init__(self):
        if not 0 <= self.value_vector < 1 << (self.n + 1):
            raise ValueError("value vector needs exactly n+1 bits")

    def expand(self) -> TruthTable:
        wt = popcounts(1 << self.n)
        vbits = np.array([(self.value_vector >> w) & 1 for w in range(self.n + 1)], dtype=np.uint8)
        return TruthTable.from_array(vbits[wt], self.n)


def and_function(n: int) -> SymmetricFunction:
    """The conjunction of all n variables, as a symmetric function."""
    return SymmetricFunction(n, 1 << n)


@dataclass(frozen=True)
class RotSymFunction:
    """Boolean function invariant under cyclic input shifts.

    Bit r of ``necklace_values`` is the output on orbit r, orbits indexed by
    their representatives in increasing order (see :func:`necklaces`).
    """

    n: int
    necklace_values: int

    def expand(self) -> TruthTable:
        reps, orbit = necklaces(self.n)
        vbits = np.array(
            [(self.necklace_values >> r) & 1 for r in range(len(reps))], dtype=np.uint8
        )
        return TruthTable.from_array(vbits[orbit], self.n)


# --- Jobs and results ----------------------------------------------------------

_KNOWN_FILTERS = ("balanced", "plateaued", "weight1-max-walsh")


@dataclass(frozen=True)
class _Filters:
    """Row filters of a sweep, parsed once from the job's filter strings."""

    balanced: bool = False
    plateaued: bool = False
    weight1: bool = False
    resilient: int | None = None


def _parse_filters(filters: tuple[str, ...]) -> _Filters:
    balanced = plateaued = weight1 = False
    resilient: int | None = None
    for f in filters:
        if f == "balanced":
            balanced = True
        elif f == "plateaued":
            plateaued = True
        elif f == "weight1-max-walsh":
            weight1 = True
        elif f.startswith("resilient:"):
            order = f.split(":", 1)[1]
            if not re.fullmatch("[0-9]+", order):
                raise ValueError(f"filter {f!r}: the resilience order must be an integer >= 0")
            resilient = int(order)
        else:
            raise ValueError(f"unknown filter {f!r}; known: {_KNOWN_FILTERS} and resilient:<t>")
    return _Filters(balanced, plateaued, weight1, resilient)


@dataclass(frozen=True)
class SearchJob:
    """A sweep specification; identical jobs always produce identical results."""

    family: str
    n: int
    metric: str = "mei"
    filters: tuple[str, ...] = ()
    target: str = "maximize"  # "maximize" | "count"
    threshold: Fraction | None = None
    chunk_bits: int = 6
    witness_cap: int = 16
    checkpoint_path: str | None = None
    parsed_filters: _Filters = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.target not in ("maximize", "count"):
            raise ValueError("target must be 'maximize' or 'count'")
        if self.target == "count" and self.threshold is None:
            raise ValueError("count target needs a threshold")
        if not 0 <= self.chunk_bits <= 16:
            raise ValueError("chunk_bits must be in [0, 16]")
        if self.witness_cap < 0:
            raise ValueError("witness cap must be >= 0")
        parsed = _parse_filters(self.filters)
        missing = sorted({"balanced", "weight1-max-walsh"}.difference(self.filters))
        if self.metric == "ot1-mei" and missing:
            raise ValueError(
                "metric 'ot1-mei' is defined only on balanced seeds whose largest squared "
                f"correlation sits on a weight-1 point; add the filter(s) {', '.join(missing)}"
            )
        object.__setattr__(self, "parsed_filters", parsed)
        bound = {"general": GENERAL_N_MAX, "symmetric": SYMMETRIC_N_MAX, "rotsym": ROTSYM_N_MAX}[
            self.family
        ]
        if not 1 <= self.n <= bound:
            raise SweepBoundError(f"{self.family} sweeps support 1 <= n <= {bound}, got {self.n}")

    def canonical(self) -> dict:
        thr = self.threshold
        return {
            "family": self.family,
            "n": self.n,
            "metric": self.metric,
            "filters": sorted(self.filters),
            "target": self.target,
            "threshold": None if thr is None else f"{thr.numerator}/{thr.denominator}",
            "chunk_bits": self.chunk_bits,
            "witness_cap": self.witness_cap,
        }

    def digest(self) -> bytes:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).digest()[:16]


@dataclass(frozen=True)
class SearchResult:
    """Aggregated outcome of a sweep; exact keys allow exact re-verification."""

    job: SearchJob
    functions_scanned: int
    best_ratio: ExactValue | None
    max_corr_sq: int | None
    influence_numerator: int | None  # influence of the maximisers = this / 4^n
    witness_total: int
    witnesses: tuple[str, ...]
    balanced_at_best: int
    count_achieving: int | None
    elapsed: float
    resumed_chunks: int = 0


def expand_witness(job: SearchJob, func_id: int) -> TruthTable:
    if job.family == "general":
        return TruthTable(job.n, func_id)
    if job.family == "symmetric":
        return SymmetricFunction(job.n, func_id).expand()
    return RotSymFunction(job.n, func_id).expand()


# --- Exact metric keys ----------------------------------------------------------


def _cmp_int(a, b) -> int:
    return (a > b) - (a < b)


def _dyadic_log2(m: int) -> int | None:
    return m.bit_length() - 1 if m & (m - 1) == 0 else None


def _perfect_power_base(m: int) -> tuple[int, int]:
    """Smallest base b with m = b^k; returns (b, k). m must be >= 2."""
    for k in range(m.bit_length() - 1, 1, -1):
        b = round(m ** (1.0 / k))
        for cand in (b - 1, b, b + 1):
            if cand >= 2 and cand**k == m:
                return cand, k
    return m, 1


def _log_values_equal(k1: tuple[int, int], k2: tuple[int, int], n: int, p: int) -> bool:
    """Exact test of e2*(2n - log2 M1) == e1*(2n - log2 M2) with e = i^p.

    Equivalent to M1^e2 == M2^e1 * 2^(2n(e2-e1)), decided by factor
    structure instead of the (astronomically large) integer powers.
    """
    (m1, i1), (m2, i2) = k1, k2
    e1, e2 = i1**p, i2**p
    a1, odd1 = (m1 & -m1).bit_length() - 1, m1 >> ((m1 & -m1).bit_length() - 1)
    a2, odd2 = (m2 & -m2).bit_length() - 1, m2 >> ((m2 & -m2).bit_length() - 1)
    if a1 * e2 != a2 * e1 + 2 * n * (e2 - e1):
        return False
    if odd1 == 1 or odd2 == 1:
        return odd1 == odd2
    b1, q1 = _perfect_power_base(odd1)
    b2, q2 = _perfect_power_base(odd2)
    return b1 == b2 and q1 * e2 == q2 * e1


def _cmp_log_keys(k1: tuple[int, int], k2: tuple[int, int], n: int, p: int) -> int:
    """Exact three-way compare of (2n - log2 M) / i^p values.

    Rational cases compare as fractions; provably-unequal irrational cases
    are separated at escalating precision (60 digits always suffices for
    the integer ranges this library produces, the loop is a safety net).
    """
    if k1 == k2:
        return 0
    (m1, i1), (m2, i2) = k1, k2
    j1, j2 = _dyadic_log2(m1), _dyadic_log2(m2)
    if j1 is not None and j2 is not None:
        return _cmp_int(Fraction(2 * n - j1, i1**p), Fraction(2 * n - j2, i2**p))
    if j1 is None and j2 is None and _log_values_equal(k1, k2, n, p):
        return 0
    for dps in (60, 120, 240, 480, 960):
        with mpmath.workdps(dps):
            a = (2 * n - mpmath.log(m1, 2)) / mpmath.mpf(i1) ** p
            b = (2 * n - mpmath.log(m2, 2)) / mpmath.mpf(i2) ** p
            if abs(a - b) > mpmath.mpf(10) ** (30 - dps):
                return _cmp_int(a, b)
    raise ArithmeticError(f"could not separate metric keys {k1} and {k2}")


def _key_value(metric: str, key: tuple[int, int], n: int) -> ExactValue:
    m, i = key
    j = _dyadic_log2(m)
    if metric == "mei":
        if j is not None:
            return ExactValue.from_fraction(Fraction((2 * n - j) * 4**n, i))
        return ExactValue.from_float((2 * n - math.log2(m)) * 4**n / i)
    if metric == "ot1-mei":
        if j is not None:
            return ExactValue.from_fraction(Fraction(2 * (2 * n - j) * 16**n, i * i))
        return ExactValue.from_float(2 * (2 * n - math.log2(m)) * (4**n / i) ** 2)
    raise ValueError(metric)


def _cmp_keys(metric: str, k1: tuple[int, int], k2: tuple[int, int], n: int) -> int:
    return _cmp_log_keys(k1, k2, n, 1 if metric == "mei" else 2)


def _key_equals_threshold(metric: str, key: tuple[int, int], n: int, thr: Fraction) -> bool:
    m, i = key
    j = _dyadic_log2(m)
    if j is None:
        return False  # the value is irrational, the threshold rational
    v = _key_value(metric, key, n)
    return v.rational == thr


# --- Aggregation -----------------------------------------------------------------


@dataclass
class _Agg:
    """Associative, exact accumulator for one chunk or a merge of chunks."""

    n: int
    metric: str
    target: str
    threshold: Fraction | None
    cap: int
    scanned: int = 0
    best_float: float = -math.inf
    best_key: tuple[int, int] | None = None
    count: int = 0
    balanced: int = 0
    witnesses: list[int] = field(default_factory=list)

    def _add_witnesses(self, ids: np.ndarray | list[int]) -> None:
        fresh = np.unique(np.asarray(ids, dtype=np.int64))[: self.cap].tolist()
        self.witnesses = sorted(set(self.witnesses).union(fresh))[: self.cap]

    def update(
        self,
        ids: np.ndarray,
        m_arr: np.ndarray,
        inf_arr: np.ndarray,
        val: np.ndarray,
        corr0: np.ndarray,
        scanned: int,
        size: int = 1,
        orbit_ids: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """Fold in one batch of rows.

        Each row stands for ``size`` functions with the same metric values
        and the same balancedness; ``orbit_ids`` maps achieving ids to all of
        those functions, so the witnesses stay the smallest ids overall.
        """
        self.scanned += scanned
        if ids.size == 0:
            return
        if self.target == "count":
            rows = self._count_rows(m_arr, inf_arr, val)
        else:
            rows = self._max_rows(m_arr, inf_arr, val)
        if rows is None or rows.size == 0:
            return
        self.count += size * int(rows.size)
        self.balanced += size * int(np.count_nonzero(corr0[rows] == 0))
        if self.cap:
            hit = ids[rows]
            self._add_witnesses(hit if orbit_ids is None else orbit_ids(hit))

    def _count_rows(self, m_arr, inf_arr, val) -> np.ndarray:
        cand = np.nonzero(np.abs(val - float(self.threshold)) <= _FLOAT_TOL)[0]
        if self.metric == "ei" or cand.size == 0:
            return cand  # ei: float tolerance decides; entropy sums admit no exact test
        keys: dict[tuple[int, int], list[int]] = {}
        for r in cand:
            keys.setdefault((int(m_arr[r]), int(inf_arr[r])), []).append(r)
        return np.asarray(
            [
                r
                for key, rows in keys.items()
                if _key_equals_threshold(self.metric, key, self.n, self.threshold)
                for r in rows
            ],
            dtype=np.int64,
        )

    def _max_rows(self, m_arr, inf_arr, val) -> np.ndarray | None:
        """Rows at the running maximum after this batch (resetting it when beaten)."""
        mx = float(val.max())
        if not math.isfinite(mx):
            return None  # only ratio-less (constant) functions in this batch
        thresh = max(mx, self.best_float) - _FLOAT_TOL
        cand = np.nonzero(val >= thresh)[0]
        if cand.size == 0:
            return None
        if self.metric == "ei":
            if mx < self.best_float:
                return None
            if mx > self.best_float:
                self._reset(None, mx)
            return cand[val[cand] == self.best_float]
        groups: dict[tuple[int, int], list[int]] = {}
        for r in cand:
            groups.setdefault((int(m_arr[r]), int(inf_arr[r])), []).append(r)
        top_key = None
        for key in groups:
            if top_key is None or _cmp_keys(self.metric, key, top_key, self.n) > 0:
                top_key = key
        if self.best_key is not None:
            rel = _cmp_keys(self.metric, top_key, self.best_key, self.n)
            if rel < 0:
                return None
            fresh = rel > 0
        else:
            fresh = True
        if fresh:
            self._reset(top_key, _key_value(self.metric, top_key, self.n).value)
        rows: list[int] = []
        for key, members in groups.items():
            if _cmp_keys(self.metric, key, self.best_key, self.n) == 0:
                rows.extend(members)
        return np.asarray(rows, dtype=np.int64)

    def _reset(self, best_key: tuple[int, int] | None, best_float: float) -> None:
        self.best_key = best_key
        self.best_float = best_float
        self.count, self.balanced, self.witnesses = 0, 0, []

    def merge(self, other: "_Agg") -> None:
        self.scanned += other.scanned
        if other.count == 0 and other.best_key is None and other.best_float == -math.inf:
            return
        if self.target == "count":
            self.count += other.count
            self.balanced += other.balanced
            self._add_witnesses(other.witnesses)
            return
        if self.metric == "ei":
            if other.best_float < self.best_float:
                return
            if other.best_float > self.best_float:
                self.best_float = other.best_float
                self.count, self.balanced, self.witnesses = 0, 0, []
            self.count += other.count
            self.balanced += other.balanced
            self._add_witnesses(other.witnesses)
            return
        if other.best_key is None:
            return
        if self.best_key is None:
            rel = 1
        else:
            rel = _cmp_keys(self.metric, other.best_key, self.best_key, self.n)
        if rel < 0:
            return
        if rel > 0:
            self.best_key = other.best_key
            self.best_float = other.best_float
            self.count, self.balanced, self.witnesses = 0, 0, []
        self.count += other.count
        self.balanced += other.balanced
        self._add_witnesses(other.witnesses)


# --- Evaluation kernels -----------------------------------------------------------

@dataclass(frozen=True)
class _HalfTables:
    """Half-table spectra of the general family and the symmetry group on halves.

    A function on n variables is a pair of half tables (low: X_n = 0, high:
    X_n = 1) on 2^(n-1) points. The group of the 2^(n-1) translations of
    X1..X_{n-1} times output complement acts on both halves at once and
    leaves every squared correlation in place, so one low half per orbit,
    weighted by the orbit size, stands for all of them.
    """

    h: int  # points per half table
    nh: int  # number of half tables
    T: np.ndarray  # T[x] = correlations of half table x
    W: np.ndarray  # W[x] = sum over a of weight(a) * T[x, a]^2
    wt_half: np.ndarray  # Hamming weight of each half-table point
    images: np.ndarray  # images[g, x] = half table x under group element g
    reps: np.ndarray  # the smallest half table of each orbit, ascending
    sizes: np.ndarray  # orbit size of each representative

    def orbit_ids(self, ids: np.ndarray) -> np.ndarray:
        """Every function in the orbits of ``ids``, with repeats."""
        hi, lo = ids >> self.h, ids & (self.nh - 1)
        return (self.images[:, hi] << self.h) | self.images[:, lo]


_GENERAL_TABLES: dict[int, _HalfTables] = {}


def _general_tables(n: int) -> _HalfTables:
    cached = _GENERAL_TABLES.get(n)
    if cached is not None:
        return cached
    h = 1 << (n - 1)
    nh = 1 << h
    idx = np.arange(nh, dtype=np.int64)
    points = np.arange(h, dtype=np.int64)
    bits = (idx[:, None] >> points) & 1
    T = fwht_inplace(1 - 2 * bits)
    wt_half = popcounts(h)
    translated = np.stack([(bits[:, points ^ t] << points).sum(axis=1) for t in range(h)])
    images = np.concatenate([translated, translated ^ (nh - 1)])
    reps = np.nonzero(images.min(axis=0) == idx)[0]
    stabiliser = (images[:, reps] == reps).sum(axis=0)
    cached = _HalfTables(
        h=h,
        nh=nh,
        T=T,
        W=(T * T) @ wt_half,
        wt_half=wt_half,
        images=images,
        reps=reps,
        sizes=images.shape[0] // stabiliser,
    )
    _GENERAL_TABLES[n] = cached
    return cached


@dataclass(frozen=True)
class _OrbitKernel:
    """Walsh spectra of a structured family, one column per input orbit.

    The family's functions are constant on the orbits of a group that also
    acts on the spectral points, so a spectrum is constant on the same
    orbits: c(rep_p) = sum over orbits o of (-1)^f(o) * M[o, p].
    """

    M: np.ndarray  # M[o, p] = sum of (-1)^(x . rep_p) over the x in orbit o
    sizes: np.ndarray  # points per orbit
    weights: np.ndarray  # Hamming weight shared by an orbit's points

    def spectra(self, ids: np.ndarray) -> np.ndarray:
        """Correlations of functions ``ids`` (bit o = value on orbit o) at the representatives."""
        bits = (ids[:, None] >> np.arange(self.sizes.size)) & 1
        return (1 - 2 * bits) @ self.M


_ORBIT_KERNELS: dict[tuple[str, int], _OrbitKernel] = {}


def _orbit_kernel(family: str, n: int) -> _OrbitKernel:
    cached = _ORBIT_KERNELS.get((family, n))
    if cached is not None:
        return cached
    wt = popcounts(1 << n)
    if family == "symmetric":
        reps, orbit = [(1 << w) - 1 for w in range(n + 1)], wt
    else:
        reps, orbit = necklaces(n)
    reps = np.asarray(reps, dtype=np.int64)
    indicators = (orbit[None, :] == np.arange(reps.size)[:, None]).astype(np.int64)
    kernel = _OrbitKernel(
        M=fwht_inplace(indicators)[:, reps],
        sizes=np.bincount(orbit, minlength=reps.size),
        weights=wt[reps],
    )
    _ORBIT_KERNELS[(family, n)] = kernel
    return kernel


def _entropy_rows(c2: np.ndarray, n: int, sizes: np.ndarray | None = None) -> np.ndarray:
    """Row entropies from squared correlations (exact in float64 below 2^53).

    With ``sizes``, column p stands for sizes[p] spectral points. Its terms
    are summed in sorted order, so functions whose class rows are
    permutations of each other (e.g. under variable reversal) get the same
    float and tie in the float-decided ``ei`` maximum.
    """
    c2_f = c2.astype(np.float64)
    terms = c2_f * np.log2(np.maximum(c2_f, 1.0))
    total = terms.sum(axis=1) if sizes is None else np.sort(terms * sizes, axis=1).sum(axis=1)
    return 2 * n - total / float(4**n)


def _filter_rows(
    c2: np.ndarray, corr0: np.ndarray, m_arr: np.ndarray, wt_cols: np.ndarray, spec: _Filters
) -> np.ndarray:
    """Rows passing every filter; column j of ``c2`` holds points of weight wt_cols[j]."""
    mask = np.ones(c2.shape[0], dtype=bool)
    if spec.balanced:
        mask &= corr0 == 0
    if spec.resilient is not None:
        mask &= (c2[:, wt_cols <= spec.resilient] == 0).all(axis=1)
    if spec.plateaued:
        mask &= ((c2 == 0) | (c2 == m_arr[:, None])).all(axis=1)
    if spec.weight1:
        mask &= c2[:, wt_cols == 1].max(axis=1) == m_arr
    return mask


def _metric_values(metric: str, c2, m_arr, inf_arr, n: int, sizes=None) -> np.ndarray:
    tot = float(4**n)
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric == "ei":
            h = _entropy_rows(c2, n, sizes)
            val = np.where(inf_arr > 0, h * tot / inf_arr, -np.inf)
        else:
            hinf = 2 * n - np.log2(m_arr.astype(np.float64))
            val = np.where(inf_arr > 0, hinf * tot / inf_arr, -np.inf)
            if metric == "ot1-mei":
                val = np.where(inf_arr > 0, 2.0 * val * tot / inf_arr, -np.inf)
    return val


def _eval_general_chunk(job: SearchJob, rep_start: int, rep_stop: int, agg: _Agg) -> None:
    """Scan representatives rep_start..rep_stop-1 of the low half against every high half."""
    n = job.n
    tab = _general_tables(n)
    T, W, nh = tab.T, tab.W, tab.nh
    spec = job.parsed_filters
    parseval_half = 2 * 4 ** (n - 1)
    wt_cols = np.concatenate([tab.wt_half, tab.wt_half + 1])  # [S | D] column weights
    hi_ids = np.arange(nh, dtype=np.int64) << tab.h
    s_buf = np.empty_like(T)
    d_buf = np.empty_like(T)
    secondary = spec.plateaued or spec.weight1 or spec.resilient is not None
    reps, sizes = tab.reps[rep_start:rep_stop].tolist(), tab.sizes[rep_start:rep_stop].tolist()
    for lo, size in zip(reps, sizes):
        A = T[lo]
        corr0 = T[:, 0] + A[0]
        if spec.balanced:
            sel = np.nonzero(corr0 == 0)[0]
            if sel.size == 0:
                agg.scanned += nh * size
                continue
            t_sel, corr0, w_sel, ids = T[sel], corr0[sel], W[sel], hi_ids[sel] | lo
            s = np.add(t_sel, A)
            d = np.subtract(A, t_sel)
        else:
            t_sel, w_sel, ids = T, W, hi_ids | lo
            s = np.add(t_sel, A, out=s_buf)
            d = np.subtract(A, t_sel, out=d_buf)
        dot = t_sel @ A
        np.multiply(s, s, out=s)
        np.multiply(d, d, out=d)
        m_arr = np.maximum(s.max(axis=1), d.max(axis=1))
        inf_arr = 2 * (W[lo] + w_sel) + (parseval_half - 2 * dot)
        c2 = np.concatenate([s, d], axis=1) if (secondary or job.metric == "ei") else None
        if secondary:
            keep = np.nonzero(_filter_rows(c2, corr0, m_arr, wt_cols, spec))[0]
            if keep.size == 0:
                agg.scanned += nh * size
                continue
            c2, corr0, m_arr, inf_arr, ids = (
                c2[keep], corr0[keep], m_arr[keep], inf_arr[keep], ids[keep],
            )
        val = _metric_values(job.metric, c2, m_arr, inf_arr, n)
        agg.update(ids, m_arr, inf_arr, val, corr0, nh * size, size, tab.orbit_ids)


def _eval_orbit_chunk(job: SearchJob, id_start: int, id_stop: int, agg: _Agg) -> None:
    kernel = _orbit_kernel(job.family, job.n)
    influence_cols = kernel.sizes * kernel.weights
    rows_per_batch = max(1, _BATCH_CELLS // kernel.sizes.size)
    for start in range(id_start, id_stop, rows_per_batch):
        stop = min(start + rows_per_batch, id_stop)
        ids = np.arange(start, stop, dtype=np.int64)
        corr = kernel.spectra(ids)
        c2 = corr * corr
        corr0 = corr[:, 0]
        m_arr = c2.max(axis=1)
        inf_arr = c2 @ influence_cols
        if job.filters:
            sel = np.nonzero(_filter_rows(c2, corr0, m_arr, kernel.weights, job.parsed_filters))[0]
            if sel.size == 0:
                agg.scanned += int(ids.size)
                continue
            c2, corr0, m_arr, inf_arr, ids = c2[sel], corr0[sel], m_arr[sel], inf_arr[sel], ids[sel]
        val = _metric_values(job.metric, c2, m_arr, inf_arr, job.n, kernel.sizes)
        agg.update(ids, m_arr, inf_arr, val, corr0, int(stop - start))


def _unit_count(job: SearchJob) -> int:
    if job.family == "general":
        return int(_general_tables(job.n).reps.size)
    return 1 << _orbit_kernel(job.family, job.n).sizes.size


def _chunk_ranges(job: SearchJob) -> list[tuple[int, int]]:
    units = _unit_count(job)
    chunks = min(1 << job.chunk_bits, units)
    bounds = [units * i // chunks for i in range(chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)]


def _run_chunk(job: SearchJob, chunk_idx: int) -> _Agg:
    agg = _Agg(job.n, job.metric, job.target, job.threshold, job.witness_cap)
    start, stop = _chunk_ranges(job)[chunk_idx]
    if job.family == "general":
        _eval_general_chunk(job, start, stop, agg)
    else:
        _eval_orbit_chunk(job, start, stop, agg)
    return agg


# --- Checkpoints -------------------------------------------------------------------


def _record_struct(cap: int) -> struct.Struct:
    return struct.Struct(f"<QQQQQdQQQ{cap}Q")


def resolve_checkpoint_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(CHECKPOINT_DIR_ENV, "."), path)


def _write_header(fh, job: SearchJob) -> None:
    rec = _record_struct(job.witness_cap)
    fh.write(
        _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, job.witness_cap, rec.size, 0, job.digest())
    )
    fh.flush()
    os.fsync(fh.fileno())


def _append_record(fh, job: SearchJob, chunk_idx: int, agg: _Agg) -> None:
    rec = _record_struct(job.witness_cap)
    wit = list(agg.witnesses[: job.witness_cap])
    wit += [0] * (job.witness_cap - len(wit))
    m, i = agg.best_key if agg.best_key is not None else (0, 0)
    fh.write(
        rec.pack(
            chunk_idx,
            agg.scanned,
            1 if agg.best_key is not None else 0,
            m,
            i,
            agg.best_float,
            agg.count,
            agg.balanced,
            len(agg.witnesses),
            *wit,
        )
    )
    fh.flush()
    os.fsync(fh.fileno())


def _load_checkpoint(path: str, job: SearchJob) -> dict[int, _Agg]:
    rec = _record_struct(job.witness_cap)
    done: dict[int, _Agg] = {}
    with open(path, "rb") as fh:
        header = fh.read(_CKPT_HEADER.size)
        if len(header) != _CKPT_HEADER.size:
            raise CheckpointError(f"{path}: truncated header")
        magic, version, cap, rec_size, _, digest = _CKPT_HEADER.unpack(header)
        if magic != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a sweep checkpoint (bad magic)")
        if version != _CKPT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint format version {version}, this build reads version {_CKPT_VERSION}"
            )
        if cap != job.witness_cap or rec_size != rec.size:
            raise CheckpointError(f"{path}: record layout does not match the job")
        if digest != job.digest():
            raise CheckpointError(f"{path}: checkpoint belongs to a different job")
        while True:
            blob = fh.read(rec.size)
            if not blob:
                break
            if len(blob) != rec.size:
                raise CheckpointError(f"{path}: truncated record")
            fields = rec.unpack(blob)
            chunk_idx, scanned, has_best, m, i, best_float, count, balanced, nwit = fields[:9]
            wit = list(fields[9 : 9 + nwit])
            agg = _Agg(job.n, job.metric, job.target, job.threshold, job.witness_cap)
            agg.scanned = scanned
            agg.best_key = (m, i) if has_best else None
            agg.best_float = best_float if (has_best or job.metric == "ei") else -math.inf
            agg.count = count
            agg.balanced = balanced
            agg.witnesses = wit
            done[int(chunk_idx)] = agg
    return done


# --- Driver -------------------------------------------------------------------------


def _finalize(job: SearchJob, chunks: dict[int, _Agg], elapsed: float, resumed: int) -> SearchResult:
    total = _Agg(job.n, job.metric, job.target, job.threshold, job.witness_cap)
    for idx in sorted(chunks):
        total.merge(chunks[idx])
    best_ratio = None
    max_corr_sq = influence_numerator = None
    if job.target == "maximize":
        if job.metric == "ei":
            if total.best_float != -math.inf:
                best_ratio = ExactValue.from_float(total.best_float)
        elif total.best_key is not None:
            best_ratio = _key_value(job.metric, total.best_key, job.n)
            max_corr_sq, influence_numerator = total.best_key
    witnesses = tuple(expand_witness(job, w).to_hex() for w in total.witnesses)
    return SearchResult(
        job=job,
        functions_scanned=total.scanned,
        best_ratio=best_ratio,
        max_corr_sq=max_corr_sq,
        influence_numerator=influence_numerator,
        witness_total=total.count,
        witnesses=witnesses,
        balanced_at_best=total.balanced,
        count_achieving=total.count if job.target == "count" else None,
        elapsed=elapsed,
        resumed_chunks=resumed,
    )


def check_threads(threads: int | None) -> None:
    """Reject a worker count below 1; ``None`` means one worker per core."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1 (or None for every core), got {threads}")


def sweep(
    job: SearchJob,
    threads: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> SearchResult:
    """Run a sweep, optionally in parallel and resumably.

    The outcome is a pure function of the job: worker count, chunk layout,
    and resume points cannot change it. Every arity within the family's
    bound (see :class:`SearchJob`) is accepted. General-family work units
    are the orbit representatives of the low half: each one is scanned
    against every high half, and its rows count once per member of its
    orbit in ``functions_scanned``, ``witness_total`` and
    ``balanced_at_best``; witnesses are the smallest ids over the whole
    orbits. ``threads`` is the worker count (>= 1; ``None`` means one per
    core).
    """
    check_threads(threads)
    t0 = time.perf_counter()
    ranges = _chunk_ranges(job)
    done: dict[int, _Agg] = {}
    ckpt_path = None
    ckpt_fh = None
    if job.checkpoint_path is not None:
        ckpt_path = resolve_checkpoint_path(job.checkpoint_path)
        if os.path.exists(ckpt_path):
            done = _load_checkpoint(ckpt_path, job)
            ckpt_fh = open(ckpt_path, "ab")
        else:
            ckpt_fh = open(ckpt_path, "wb")
            _write_header(ckpt_fh, job)
    resumed = len(done)
    pending = [i for i in range(len(ranges)) if i not in done]
    try:
        if threads is None:
            threads = os.cpu_count() or 1
        if threads == 1 or len(pending) <= 1:
            for i in pending:
                done[i] = _run_chunk(job, i)
                if ckpt_fh is not None:
                    _append_record(ckpt_fh, job, i, done[i])
                if progress is not None:
                    progress(len(done), len(ranges))
        else:
            if job.family == "general":
                _general_tables(job.n)  # built pre-fork so workers share it
            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = {pool.submit(_run_chunk, job, i): i for i in pending}
                for fut in as_completed(futures):
                    i = futures[fut]
                    done[i] = fut.result()
                    if ckpt_fh is not None:
                        _append_record(ckpt_fh, job, i, done[i])
                    if progress is not None:
                        progress(len(done), len(ranges))
    finally:
        if ckpt_fh is not None:
            ckpt_fh.close()
    return _finalize(job, done, time.perf_counter() - t0, resumed)


def sweep_symmetric(n: int, metric: str = "ei", threads: int | None = None) -> SearchResult:
    """Scan all 2^(n+1) symmetric functions on n variables."""
    return sweep(SearchJob("symmetric", n, metric), threads=threads)


def sweep_rotsym(n: int, metric: str = "ei", threads: int | None = None) -> SearchResult:
    """Scan all rotation symmetric functions on n variables."""
    return sweep(SearchJob("rotsym", n, metric), threads=threads)


# --- Conjecture checks ----------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureCheck:
    """Outcome of the symmetric-function ratio checks for one arity."""

    n: int
    and_ei_ratio: float
    and_ratio_below_4: bool
    ei_max: float
    ei_achievers: int
    ei_achievers_conjugate_to_and: bool
    mei_max: float
    mei_claim_holds: bool
    bent_achievers: int
    passed: bool
    counterexample: str | None


def _mp_ei(c2: np.ndarray, sizes: np.ndarray, infnum: int, n: int) -> mpmath.mpf:
    tot = mpmath.mpf(4) ** n
    h = mpmath.mpf(0)
    for v, count in zip(c2.tolist(), sizes.tolist()):
        if v:
            h += count * mpmath.mpf(v) * mpmath.log(v, 2)
    h = 2 * n - h / tot
    return h * tot / infnum


def check_conjecture(ns: Iterable[int]) -> list[ConjectureCheck]:
    """Exhaustively test both symmetric-function ratio claims for each arity.

    Claim 1: the all-variable conjunction maximises the entropy/influence
    ratio, uniquely up to input/output complementation (which preserves
    squared spectra), and its ratio is below 4. Claim 2: the min-entropy/
    influence ratio never exceeds 2, with equality exactly at bent functions
    (even n) and strictly below 2 for odd n. A counterexample is reported as
    a result, not an error.
    """
    out = []
    for n in ns:
        if not 1 <= n <= SYMMETRIC_N_MAX:
            raise SweepBoundError(f"symmetric checks support 1 <= n <= {SYMMETRIC_N_MAX}")
        out.append(_check_one(n))
    return out


def _check_one(n: int) -> ConjectureCheck:
    size = 1 << n
    tot = float(4**n)
    kernel = _orbit_kernel("symmetric", n)
    corr = kernel.spectra(np.arange(1 << (n + 1)))
    c2_rows = corr * corr
    H = _entropy_rows(c2_rows, n, kernel.sizes)
    infnum = c2_rows @ (kernel.sizes * kernel.weights)
    m_arr = c2_rows.max(axis=1)
    bent = (c2_rows == size).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ei = np.where(infnum > 0, H * tot / infnum, -np.inf)
        mei = np.where(infnum > 0, (2 * n - np.log2(m_arr.astype(float))) * tot / infnum, -np.inf)
    and_id = and_function(n).value_vector
    and_c2 = c2_rows[and_id]
    and_ei = float(ei[and_id])
    and_below_4 = and_ei < 4.0 - 1e-9
    counterexample = None

    ei_max = float(ei.max())
    cand = np.nonzero(ei >= ei_max - _FLOAT_TOL)[0]
    achievers = 0
    all_conjugate = True
    with mpmath.workdps(60):
        and_mp = _mp_ei(and_c2, kernel.sizes, int(infnum[and_id]), n)
        for vid in cand:
            c2 = c2_rows[vid]
            if np.array_equal(c2, and_c2):
                achievers += 1
                continue
            other = _mp_ei(c2, kernel.sizes, int(infnum[vid]), n)
            if other >= and_mp - mpmath.mpf(10) ** -40:
                all_conjugate = False
                counterexample = SymmetricFunction(n, int(vid)).expand().to_hex()
    ei_part = all_conjugate and abs(ei_max - and_ei) <= _FLOAT_TOL and and_below_4

    mei_max = float(mei.max())
    mei_part = True
    bent_achievers = int(np.count_nonzero(bent))
    if n % 2 == 0 and bent_achievers:
        # every bent row must sit exactly at 2, everything else strictly below
        bent_exact = bool(
            (m_arr[bent] == size).all() and (2 * infnum[bent] == n * 4**n).all()
        )
        mei_part &= bent_exact
        rest = np.nonzero(~bent)[0]
        strict = _all_mei_strictly_below(rest, mei, m_arr, infnum, n, 2)
    else:
        bent_achievers = 0
        strict = _all_mei_strictly_below(np.arange(mei.size), mei, m_arr, infnum, n, 2)
    if strict is not True:
        mei_part = False
        counterexample = SymmetricFunction(n, int(strict)).expand().to_hex()

    return ConjectureCheck(
        n=n,
        and_ei_ratio=and_ei,
        and_ratio_below_4=and_below_4,
        ei_max=ei_max,
        ei_achievers=achievers,
        ei_achievers_conjugate_to_and=all_conjugate,
        mei_max=mei_max,
        mei_claim_holds=mei_part,
        bent_achievers=bent_achievers,
        passed=ei_part and mei_part,
        counterexample=counterexample,
    )


def _all_mei_strictly_below(rows, mei, m_arr, infnum, n, bound: int):
    """True when every row's mei ratio is strictly below the bound; else a row id."""
    near = rows[mei[rows] >= bound - _FLOAT_TOL]
    for r in near:
        m, i = int(m_arr[r]), int(infnum[r])
        j = _dyadic_log2(m)
        if j is not None:
            if Fraction((2 * n - j) * 4**n, i) >= bound:
                return int(r)
        else:
            with mpmath.workdps(60):
                if (2 * n - mpmath.log(m, 2)) * mpmath.mpf(4**n) / i >= bound:
                    return int(r)
    return True
