"""Exhaustive and class-restricted sweeps maximising spectral ratios.

Three function families are searchable: all functions on n <= 5 variables,
symmetric functions on n <= 16 (by weight-value vector), and rotation
symmetric functions on n <= 7 (by necklace-orbit assignment). A sweep either
maximises a metric or counts the functions achieving an exact threshold.

One kernel type (``_Kernel``) serves all three families and one loop scans
them. A kernel row holds a function's correlations, one column per class of
spectral points on which every function of the family agrees: single points
for the general family, input orbits (weight classes, necklaces) for the
structured ones. One cached, read-only map (``_classes``) gives each input's
class and each class's smallest input; the kernels, ``necklaces``, both
``expand`` methods and ``expand_witness`` are built from it. The largest
squared correlation, the influence (c^2 dotted with the columns' sizes times
weights), every filter and the float ratios are read from those columns,
weighted by their sizes; no function is ever transformed alone. With the
orbit-class matrix M (the Hadamard matrix for general functions), a row is a
signed sum over the K id bits: c(rep_p) = sum over classes o of
(-1)^(bit o) * M[o, p]. Two tables hold the sums over the low K // 2 bits and
over the rest, so a row is lo[low bits] + hi[high bits]; for general
functions they are [T | T] and [T | -T], T the half spectra.

Every family is scanned one orbit of a symmetry group at a time. The group
moves squared correlations only between points of equal weight (corr0 only
changes sign), so every metric, filter and balancedness is constant on its
orbits. For the general family it acts on low halves: the maps x -> pi(x)
xor t of the points of X1..X_{n-1} (pi a permutation of those variables, t a
translation), each with and without output complement, applied to both
halves of a function, (n-1)! * 2^(n-1) * 2 elements; a work unit is the smallest
low half of an orbit (222 of 65536 at n=5, one per NPN class of 4-variable
functions) against every high half. For the structured families it acts on
function ids: input complement, the variable maps i -> k*i mod n (k coprime
to n, rotation symmetric only) and output complement permute the orbit bits
of an id; a work unit is the smallest id of an orbit (55,232 of 2^20
rotation symmetric functions at n=7). Each row is weighted by its orbit
size, and the achievers are mapped through the group, so the witnesses are
still the smallest ids overall. One helper (``_IdOrbits``) finds every
family's representatives; it stores a group as two lookup tables per element
over the halves of the id bits.

Aggregation is one associative, exact fold. Every ratio of a function is an
exact ``LogLinear`` key (K + sum of e_p * log2 p) / D with integers K, e_p, D,
built from its squared correlations (|c| = 2^a * q, q odd): ``ei`` from all
of them (``metrics.entropy_of_levels``), ``mei`` and ``ot1-mei`` from the
largest. A key is the value ``metrics.classify`` reports, and a result's
``best_ratio`` is the key itself. Float ratios only pick candidate rows, one
window per target, and one builder (``_keys``) gives the candidates keys.
One rule, ``_Agg.add``, then decides every outcome on keys: of a batch, of a
sweep's chunks (in the calling thread or on worker threads) and of checkpoint
records. So results are identical for every chunking, worker count and resume
point. A count threshold is rational, so a row with an irrational ratio never
counts.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import TruthTable, _check_arity, _walsh_spectra, check_dense, popcounts
from .metrics import LogLinear, entropy_of_levels

FAMILIES = ("general", "symmetric", "rotsym")
METRICS = ("mei", "ei", "ot1-mei")
GENERAL_N_MAX = 5
SYMMETRIC_N_MAX = 16
ROTSYM_N_MAX = 7

# Float ratios only pick candidate rows. Each is within 4e-10 of its exact
# value: an entropy sums at most 32 terms of a few ulp error each, and
# 4^n / I <= 2^(n-1) / n for a nonconstant function, so the error is at most
# 36 * 2^-52 * 2^n plus a few ulp of the ratio (n <= 16); ot1-mei rows are
# balanced, so I >= 4^n. Twice that plus one ulp is below the tolerance, so no
# row at the exact maximum or threshold is dropped.
_FLOAT_TOL = 1e-9
_BATCH_CELLS = 1 << 18  # kernel cells (rows x columns) per batch
# group elements x ids per block while finding orbit representatives: 64-96 KiB
# blocks stay below the usual 128 KiB malloc mmap threshold, so freeing them does
# not raise it and leave freed heap resident (peak RSS). A block holds at least
# one high part, so the 768-element general group at n=5 takes 768 KiB blocks.
_ORBIT_BLOCK_CELLS = 1 << 14
# a sweep over fewer functions runs in this thread whatever the worker count:
# below this size, handing chunks to worker threads costs more than they save
# (rotation symmetric n=7 ei: 23-30 ms pooled against 12-20 ms here)
_POOL_MIN_FUNCTIONS = 1 << 24
# the most witnesses a job keeps: every symmetric id at n=16, as check_conjecture
# keeps them; each checkpoint record holds this many 8-byte slots
_WITNESS_CAP_MAX = 1 << 17

CHECKPOINT_DIR_ENV = "WALSHLAB_CHECKPOINT_DIR"
_CKPT_MAGIC = b"WLSWEEP1"
_CKPT_VERSION = 5  # 5: general chunk ids index low-half orbits under variable permutations too
_CKPT_HEADER = struct.Struct("<8sIIII16s")
_CKPT_CRC = struct.Struct("<I")


class SweepBoundError(ValueError):
    """A sweep was requested outside its family's feasible bounds."""


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupt, or belongs to another job."""


# --- Function classes ---------------------------------------------------------


@functools.cache
def _classes(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The input classes of a family: each input's class index and each class's
    smallest input, ascending, as cached read-only int64 arrays.

    A class is one input (general functions), one weight (symmetric) or one
    necklace, the orbit of cyclic rotations (rotation symmetric). The arity,
    then the dense cap, is checked before the 2^n-entry map is built.
    """
    _check_arity(n)
    check_dense(n)
    if family == "general":
        orbit = reps = np.arange(1 << n, dtype=np.int64)
    elif family == "symmetric":
        orbit, reps = popcounts(1 << n), (1 << np.arange(n + 1, dtype=np.int64)) - 1
    else:
        y = np.arange(1 << n, dtype=np.uint32)  # uint32 holds every n <= N_MAX
        least = y.copy()
        for _ in range(n):  # each rotation, in place; the n-th gives y = x again
            np.bitwise_or(y >> 1, (y & 1) << (n - 1), out=y)
            np.minimum(least, y, out=least)
        is_rep = least == y
        del y  # freed, as is_rep is, before the int64 rank and its gather: the peak, about 21.5 bytes a point
        reps, rank = np.flatnonzero(is_rep), np.cumsum(is_rep)
        del is_rep
        rank -= 1  # the rank of each least rotation among the representatives
        orbit = rank[least]
    for a in (orbit, reps):
        a.flags.writeable = False  # shared by every later caller
    return orbit, reps


@functools.cache
def necklaces(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Cyclic-rotation orbit representatives of n-bit strings, ascending.

    Returns the representatives (each the smallest integer in its orbit,
    i.e. the lexicographically minimal rotation) and a read-only array
    mapping every n-bit input to its orbit index. Both are cached.
    """
    orbit, reps = _classes("rotsym", n)
    return tuple(reps.tolist()), orbit


def _expand(family: str, n: int, values: int) -> TruthTable:
    """The table whose output on each input is bit (its class index) of ``values``."""
    orbit, reps = _classes(family, n)
    raw = np.frombuffer(values.to_bytes((reps.size + 7) // 8, "little"), dtype=np.uint8)
    return TruthTable.from_array(np.unpackbits(raw, bitorder="little")[orbit], n)


def necklace_count(n: int) -> int:
    """The number of binary necklaces of length n, (1/n) * sum over d | n of phi(d) * 2^(n/d)."""
    _check_arity(n)
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += sum(math.gcd(i, d) == 1 for i in range(1, d + 1)) << (n // d)
    return total // n


@dataclass(frozen=True)
class SymmetricFunction:
    """Boolean function invariant under every input permutation.

    Bit w of ``value_vector`` is the output on inputs of weight w.
    """

    n: int
    value_vector: int

    def __post_init__(self):
        _check_arity(self.n)
        if not 0 <= self.value_vector < 1 << (self.n + 1):
            raise ValueError("value vector needs exactly n+1 bits")

    def expand(self) -> TruthTable:
        return _expand("symmetric", self.n, self.value_vector)


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

    def __post_init__(self):
        if not 0 <= self.necklace_values < 1 << necklace_count(self.n):
            raise ValueError("necklace values need exactly one bit per necklace")

    def expand(self) -> TruthTable:
        return _expand("rotsym", self.n, self.necklace_values)


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
    """The filters of a job. Each is given at most once, with at most one resilience
    order written without leading zeros, so that equal filter sets have equal digests."""
    balanced = plateaued = weight1 = False
    resilient: int | None = None
    for i, f in enumerate(filters):
        if f in filters[:i]:
            raise ValueError(f"filter {f!r} is given twice")
        if f == "balanced":
            balanced = True
        elif f == "plateaued":
            plateaued = True
        elif f == "weight1-max-walsh":
            weight1 = True
        elif f.startswith("resilient:"):
            order = f.split(":", 1)[1]
            if not re.fullmatch("0|[1-9][0-9]*", order):
                raise ValueError(f"filter {f!r}: the order must be an integer >= 0, no leading zeros")
            if resilient is not None:
                raise ValueError(f"filter {f!r}: a job takes one resilience order, got resilient:{resilient}")
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
        if (self.target == "count") != (self.threshold is not None):
            raise ValueError("a count target needs a threshold, and a maximize target takes none")
        thr = self.threshold
        if thr is not None and (isinstance(thr, bool) or not isinstance(thr, (int, Fraction))):
            raise ValueError(f"threshold must be an int or a Fraction, got {thr!r}")
        for name in ("n", "chunk_bits", "witness_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.chunk_bits <= 16:
            raise ValueError("chunk_bits must be in [0, 16]")
        if not 0 <= self.witness_cap <= _WITNESS_CAP_MAX:
            raise ValueError(f"witness cap must be in [0, {_WITNESS_CAP_MAX}], got {self.witness_cap}")
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
    best_ratio: LogLinear | None
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
    return _expand(job.family, job.n, func_id)


# --- Exact metric keys ----------------------------------------------------------


@functools.lru_cache(maxsize=1 << 14)
def _ratio_key(
    metric: str, n: int, inf: int, c2: tuple[int, ...], sizes: tuple[int, ...]
) -> LogLinear:
    """Exact ratio of one function from its influence numerator and squared correlations.

    For ``ei`` entry c2[j] stands for sizes[j] spectral points; ``mei`` and
    ``ot1-mei`` read only the largest entry m. The values are the ones
    ``metrics.classify`` reports.
    """
    influence = Fraction(inf, 4**n)
    if metric == "ei":
        return entropy_of_levels(n, map(math.isqrt, c2), sizes) / influence
    hmin = LogLinear.log2(Fraction(4**n, max(c2)))
    # ot1-mei is the mei ratio after one disjoint self-composition: 2 * Hmin / I^2
    return hmin / influence if metric == "mei" else hmin * 2 / influence**2


def _keys(job: SearchJob, c2: np.ndarray, m_arr, inf_arr) -> tuple[list[LogLinear], np.ndarray]:
    """The distinct exact keys of some kernel rows and, per row, the index of its key.

    Each distinct (influence numerator, c^2 row or its largest entry) is keyed once.
    """
    data = np.column_stack([inf_arr, c2 if job.metric == "ei" else m_arr])
    index: dict[tuple[int, ...], int] = {}
    inverse = np.array([index.setdefault(tuple(row), len(index)) for row in data.tolist()])
    sizes = tuple(_kernel(job.family, job.n).sizes.tolist())
    keys: dict[LogLinear, int] = {}
    key_of = [keys.setdefault(_ratio_key(job.metric, job.n, r[0], r[1:], sizes), len(keys)) for r in index]
    return list(keys), np.array(key_of)[inverse]


def _function_key(job: SearchJob, fid: int) -> tuple[int, int, LogLinear]:
    """(largest c^2, influence numerator, exact ratio) of function ``fid`` of the job's family."""
    kernel = _kernel(job.family, job.n)
    c2 = kernel.spectra(np.array([fid], dtype=np.int64)) ** 2
    m, inf = c2.max(axis=1), c2 @ kernel.influence
    (key,), _ = _keys(job, c2, m, inf)
    return int(m[0]), int(inf[0]), key


# --- Aggregation -----------------------------------------------------------------


@dataclass
class _Agg:
    """Associative, exact accumulator for one chunk or a merge of chunks."""

    job: SearchJob
    scanned: int = 0
    best: LogLinear | None = None
    best_id: int = -1  # the first function at ``best`` in scan order; -1 without one
    count: int = 0
    balanced: int = 0
    witnesses: list[int] = field(default_factory=list)

    def add(self, key: LogLinear | None, first_id: int, count: int, balanced: int, witnesses) -> None:
        """Fold in ``count`` functions at exact key ``key``, ``balanced`` of them
        balanced, ``witnesses`` ids among them and ``first_id`` first in scan
        order. The one rule deciding outcomes: a count keeps them at its
        threshold (key None: a count chunk's outcome, already decided); a
        maximization keeps them at its best and restarts from them at a larger key.
        """
        if self.job.target == "count":
            if key is not None and key.rational != self.job.threshold:
                return
        else:
            rel = 1 if self.best is None else key.compare(self.best)
            if rel < 0:
                return
            if rel > 0:
                self.best, self.best_id = key, first_id
                self.count, self.balanced, self.witnesses = 0, 0, []
        self.count += count
        self.balanced += balanced
        self.witnesses = sorted(set(self.witnesses).union(witnesses))[: self.job.witness_cap]

    def update(self, ids, sizes, c2, m_arr, inf_arr, val, orbit_ids: Callable) -> None:
        """Fold in one batch of kernel rows.

        The float ratios ``val`` pick candidates, one window per target:
        [floor - tol, inf) to maximize, floor the larger of the batch's and the
        best's float, and threshold +- tol to count. ``c2`` holds the squared
        correlations (column 0 is zero exactly on balanced rows). Row i stands
        for ``sizes[i]`` functions with equal metric values and balancedness;
        ``orbit_ids`` maps ids to all of them, so witnesses stay the smallest ids.
        """
        if self.job.target == "count":
            cand = np.nonzero(np.abs(val - float(self.job.threshold)) <= _FLOAT_TOL)[0]
        else:
            floor = val.max(initial=-math.inf)
            if self.best is not None:
                floor = max(floor, self.best.value)
            if floor == -math.inf:
                return  # no ratio here: no rows, or constant functions only
            cand = np.nonzero(val >= floor - _FLOAT_TOL)[0]
        if cand.size == 0:
            return
        keys, inverse = _keys(self.job, c2[cand], m_arr[cand], inf_arr[cand])
        cap = self.job.witness_cap
        for j, key in enumerate(keys):
            rows = cand[inverse == j]
            witnesses = np.unique(orbit_ids(ids[rows]))[:cap].tolist() if cap else ()
            balanced = int(sizes[rows] @ (c2[rows, 0] == 0))
            self.add(key, int(ids[rows[0]]), int(sizes[rows].sum()), balanced, witnesses)

    def merge(self, other: "_Agg") -> None:
        self.scanned += other.scanned
        if other.best is not None or self.job.target == "count":
            self.add(other.best, other.best_id, other.count, other.balanced, other.witnesses)


# --- Evaluation kernels -----------------------------------------------------------

@dataclass(frozen=True)
class _IdOrbits:
    """Orbits of a group on b-bit ids; each element permutes the bits, then may complement them.

    With h = b // 2, the image of id (u << h) | v under element g is lo[g, v] ^
    hi[g, u] (a complement is folded into ``lo``), so the group is stored as
    two small tables per element instead of |G| x 2^b images.
    """

    bits: int  # b
    lo: np.ndarray
    hi: np.ndarray
    reps: np.ndarray  # the smallest id of each orbit, ascending
    sizes: np.ndarray  # orbit size of each representative

    def images(self, ids: np.ndarray) -> np.ndarray:
        """images[g, i] = ids[i] under element g, in int32."""
        h = self.bits // 2
        return self.lo[:, ids & ((1 << h) - 1)] ^ self.hi[:, ids >> h]


def _id_orbits(perms: np.ndarray) -> _IdOrbits:
    """Orbits of the group whose elements move bit perms[g, j] of an id to bit j,
    each with and without complementing the id afterwards."""
    bits = perms.shape[1]
    half = bits // 2
    target = np.argsort(perms, axis=1).astype(np.int32)  # target[g, s] = where g moves bit s

    def table(first: int, width: int) -> np.ndarray:
        """Images of the ids whose set bits all lie in first..first+width-1."""
        v = np.arange(1 << width, dtype=np.int32)
        out = np.zeros((perms.shape[0], v.size), dtype=np.int32)
        for j in range(width):
            out |= ((v >> j) & 1) << target[:, first + j, None]
        return out

    lo, hi = table(0, half), table(half, bits - half)
    lo, hi = np.concatenate([lo, lo ^ ((1 << bits) - 1)]), np.concatenate([hi, hi])
    order = lo.shape[0]
    step = max(1, (_ORBIT_BLOCK_CELLS // order) >> half)  # high parts per block
    reps, sizes = [], []
    for u in range(0, hi.shape[1], step):
        img = (hi[:, u : u + step, None] ^ lo[:, None, :]).reshape(order, -1)
        ids = np.arange(u << half, (u << half) + img.shape[1], dtype=np.int32)
        is_rep = img.min(axis=0) == ids
        reps.append(ids[is_rep])
        stabiliser = np.count_nonzero(img[:, is_rep] == ids[is_rep], axis=0)
        sizes.append((order // stabiliser).astype(np.int32))
    return _IdOrbits(bits, lo, hi, np.concatenate(reps), np.concatenate(sizes))


@dataclass(frozen=True)
class _Kernel:
    """Walsh spectra of a function family, one column per class of spectral points.

    Column j holds sizes[j] points of Hamming weight weights[j] on which
    every function of the family has the same correlation; a function id has
    one bit per column (its value on point j, or on input orbit j). Its
    correlations are lo[id & (2^split - 1)] + hi[id >> split], where a table
    row is the signed sum of the orbit-class matrix rows of its part of the
    id bits. ``orbits`` holds the work units: general low halves (``split``
    bits, each scanned against every high half) or whole functions.
    """

    sizes: np.ndarray  # spectral points per column
    weights: np.ndarray  # Hamming weight shared by a column's points
    influence: np.ndarray  # sizes * weights: c^2 @ influence is the influence numerator
    orbits: _IdOrbits  # work-unit orbits: low halves (general) or functions
    split: int  # id bits that index ``lo``; the higher ones index ``hi``
    lo: np.ndarray
    hi: np.ndarray
    space: int  # functions in the family: one id bit per column
    unit_rows: int  # functions per member of a work unit's orbit: every high half (general), else 1

    def functions(self, first: int, last: int) -> int:
        """Functions in work units first..last-1, every member of their orbits."""
        return self.unit_rows * int(self.orbits.sizes[first:last].sum())

    def spectra(self, ids: np.ndarray) -> np.ndarray:
        """Correlations of functions ``ids``, one column per point class."""
        return self.lo[ids & ((1 << self.split) - 1)] + self.hi[ids >> self.split]

    def units(
        self, first: int, last: int, balanced: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids, orbit sizes and correlations of the rows of work units first..last-1.

        With ``balanced``, a general unit keeps only the high halves that
        balance its low half (hi[u, 0] = -lo[v, 0]); other rows are all kept.
        """
        reps, sizes = self.orbits.reps[first:last], self.orbits.sizes[first:last]
        if self.orbits.bits == self.sizes.size:  # whole functions
            return reps, sizes, self.spectra(reps)
        if balanced:
            unit, high = np.nonzero(self.hi[:, 0] == -self.lo[reps, :1])
            ids = (high << self.split) | reps[unit]
            return ids, sizes[unit], self.spectra(ids)
        ids = (np.arange(self.hi.shape[0], dtype=np.int64) << self.split) | reps[:, None]
        corr = self.lo[reps][:, None, :] + self.hi
        return ids.ravel(), np.repeat(sizes, ids.shape[1]), corr.reshape(ids.size, -1)

    def orbit_ids(self, ids: np.ndarray) -> np.ndarray:
        """Every function in the orbits of ``ids``, with repeats. A group element
        acts alike on each unit-wide part of an id (both halves of a general id)."""
        width = self.orbits.bits
        parts = [
            self.orbits.images((ids >> s) & ((1 << width) - 1)).astype(np.int64) << s
            for s in range(0, self.sizes.size, width)
        ]
        return functools.reduce(np.bitwise_or, parts)


def _signed_sums(rows: np.ndarray, dtype: type) -> np.ndarray:
    """table[v] = sum over j of (-1)^(bit j of v) * rows[j], for every v < 2^len(rows).

    One float32 GEMM, exact: a column of an orbit-class matrix sums to at most
    2^n <= 2^16 in absolute value, so every partial sum is an integer below 2^24.
    """
    bits = np.arange(1 << len(rows), dtype=np.int32)[:, None] >> np.arange(len(rows), dtype=np.int32)
    signs = (1 - 2 * (bits & 1)).astype(np.float32)
    return (signs @ rows.astype(np.float32)).astype(dtype)


@functools.cache
def _kernel(family: str, n: int) -> _Kernel:
    orbit, reps = _classes(family, n)
    # The group's input maps are x -> sigma(x) ^ t (sigma a variable permutation);
    # bit o of an image id takes the bit of the class that rep o is mapped to.
    if family == "general":
        # every point is a class; the maps act on the low half (X_n = 0), with every
        # permutation of X1..X_{n-1} and every translation
        points, shifts = reps[: 1 << (n - 1)], range(1 << (n - 1))
        sigmas = np.array(list(itertools.permutations(range(n - 1))), dtype=np.int64)
    else:
        # i -> k*i mod n for k coprime to n (these take rotations to rotations; every k
        # fixes the weight classes, so symmetric functions take k = 1 only), each with
        # and without input complement
        points, shifts = reps, (0, (1 << n) - 1)
        mults = [k for k in range(1, n + 1) if math.gcd(k, n) == 1] if family == "rotsym" else [1]
        sigmas = [k * np.arange(n) % n for k in mults]
    moved = [(((points[:, None] >> np.arange(s.size)) & 1) << s).sum(axis=1) for s in sigmas]
    maps = np.array([orbit[x ^ t] for x in moved for t in shifts])
    # M[o, p] = sum of (-1)^(x . rep_p) over class o: the Hadamard matrix for general
    # functions. |c| <= 2^n, so c^2 and the influence numerator (<= n * 4^n) fit in
    # int32 below n * 4^n = 2^31, which halves the memory traffic of every batch
    M = _walsh_spectra(orbit[None, :] == np.arange(reps.size)[:, None])[:, reps]
    dtype = np.int32 if n * 4**n < 1 << 31 else np.int64
    split = reps.size // 2
    lo, hi = (_signed_sums(part, dtype) for part in (M[:split], M[split:]))
    sizes = np.bincount(orbit, minlength=reps.size).astype(dtype)
    weights, orbits = np.bitwise_count(reps).astype(dtype), _id_orbits(maps)
    space = 1 << reps.size
    return _Kernel(sizes, weights, sizes * weights, orbits, split, lo, hi, space, space >> orbits.bits)


def _entropy_rows(c2: np.ndarray, n: int, sizes: np.ndarray) -> np.ndarray:
    """Float row entropies from squared correlations; column p stands for sizes[p] points."""
    c2_f = c2.astype(np.float64)
    terms = c2_f * np.log2(np.maximum(c2_f, 1.0))
    return 2 * n - (terms @ sizes) / float(4**n)


def _filter_rows(
    c2: np.ndarray, m_arr: np.ndarray, wt_cols: np.ndarray, spec: _Filters
) -> np.ndarray:
    """Rows passing every filter; column j of ``c2`` holds points of weight wt_cols[j]."""
    mask = np.ones(c2.shape[0], dtype=bool)
    if spec.balanced:
        mask &= c2[:, 0] == 0
    if spec.resilient is not None:
        mask &= (c2[:, wt_cols <= spec.resilient] == 0).all(axis=1)
    if spec.plateaued:
        mask &= ((c2 == 0) | (c2 == m_arr[:, None])).all(axis=1)
    if spec.weight1:
        mask &= c2[:, wt_cols == 1].max(axis=1) == m_arr
    return mask


def _metric_values(metric: str, c2, m_arr, inf_arr, n: int, sizes: np.ndarray) -> np.ndarray:
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


def _chunk_ranges(job: SearchJob) -> list[tuple[int, int]]:
    units = _kernel(job.family, job.n).orbits.reps.size
    chunks = min(1 << job.chunk_bits, units)
    return [(units * i // chunks, units * (i + 1) // chunks) for i in range(chunks)]


def _run_chunk(job: SearchJob, first: int, last: int) -> _Agg:
    """The outcome of work units first..last-1, scanned in batches of about ``_BATCH_CELLS`` cells."""
    kernel = _kernel(job.family, job.n)
    spec = job.parsed_filters
    agg = _Agg(job, scanned=kernel.functions(first, last))
    step = max(1, _BATCH_CELLS // (kernel.unit_rows * kernel.sizes.size))
    for start in range(first, last, step):
        ids, sizes, c2 = kernel.units(start, min(start + step, last), spec.balanced)
        np.multiply(c2, c2, out=c2)
        m_arr = c2.max(axis=1)
        inf_arr = c2 @ kernel.influence
        if job.filters:
            keep = np.nonzero(_filter_rows(c2, m_arr, kernel.weights, spec))[0]
            ids, sizes, c2, m_arr, inf_arr = (
                ids[keep], sizes[keep], c2[keep], m_arr[keep], inf_arr[keep],
            )
        val = _metric_values(job.metric, c2, m_arr, inf_arr, job.n, kernel.sizes)
        agg.update(ids, sizes, c2, m_arr, inf_arr, val, kernel.orbit_ids)
    return agg


# --- Checkpoints -------------------------------------------------------------------


def _record_struct(cap: int) -> struct.Struct:
    """A record without its trailing CRC32: chunk id, scanned, best id, count,
    balanced, witness count and ``cap`` witness slots."""
    return struct.Struct(f"<QQqQQQ{cap}Q")


def resolve_checkpoint_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(CHECKPOINT_DIR_ENV, "."), path)


def _header(job: SearchJob) -> bytes:
    rec_size = _record_struct(job.witness_cap).size + _CKPT_CRC.size
    return _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, job.witness_cap, rec_size, 0, job.digest())


def _write_synced(fh, data: bytes) -> None:
    fh.write(data)
    fh.flush()
    os.fsync(fh.fileno())


def _append_record(fh, job: SearchJob, chunk_idx: int, agg: _Agg) -> None:
    wit = agg.witnesses + [0] * (job.witness_cap - len(agg.witnesses))
    body = _record_struct(job.witness_cap).pack(
        chunk_idx, agg.scanned, agg.best_id, agg.count, agg.balanced, len(agg.witnesses), *wit
    )
    _write_synced(fh, body + _CKPT_CRC.pack(zlib.crc32(body)))


def _load_checkpoint(path: str, job: SearchJob) -> tuple[dict[int, _Agg], int]:
    """The chunk outcomes recorded in ``path`` and the byte length of its intact part.

    A header cut short by an interrupted write (any prefix of this job's
    header) gives no records and length 0, so the sweep starts again. A torn
    last record (cut short, or failing its CRC) is dropped, so its chunk runs
    again; a bad record before it, a repeated chunk id, or a
    chunk id, best id, witness id or witness count outside the job's range
    raises ``CheckpointError``. So do counts that do not fit the chunk: its
    scanned count must equal the functions in its units, and count <=
    scanned, balanced <= count and witnesses <= count. A maximization's record
    has a best id exactly when its count is nonzero, and a count's never. The
    key of each record is rebuilt from its best id.
    """
    body = _record_struct(job.witness_cap)
    size = body.size + _CKPT_CRC.size
    with open(path, "rb") as fh:
        header = fh.read(_CKPT_HEADER.size)
        if len(header) != _CKPT_HEADER.size:
            if _header(job).startswith(header):
                return {}, 0
            raise CheckpointError(f"{path}: truncated header")
        magic, version, cap, rec_size, _, digest = _CKPT_HEADER.unpack(header)
        if magic != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a sweep checkpoint (bad magic)")
        if version != _CKPT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint format version {version}, this build reads version {_CKPT_VERSION}"
            )
        if cap != job.witness_cap or rec_size != size:
            raise CheckpointError(f"{path}: record layout does not match the job")
        if digest != job.digest():
            raise CheckpointError(f"{path}: checkpoint belongs to a different job")
        data = fh.read()
    kernel, ranges = _kernel(job.family, job.n), _chunk_ranges(job)
    done: dict[int, _Agg] = {}
    for start in range(0, len(data), size):
        blob = data[start : start + size]
        if len(blob) < size or _CKPT_CRC.unpack(blob[-4:])[0] != zlib.crc32(blob[:-4]):
            if start + size >= len(data):
                break  # torn by an interrupted write
            raise CheckpointError(f"{path}: record {start // size} fails its CRC check")
        chunk_idx, scanned, best_id, count, balanced, nwit, *wit = body.unpack(blob[:-4])
        where = f"{path}: chunk {chunk_idx}"
        if chunk_idx in done:
            raise CheckpointError(f"{where} is recorded twice")
        if chunk_idx >= len(ranges):
            raise CheckpointError(f"{where} is outside the job's {len(ranges)} chunks")
        functions = kernel.functions(*ranges[chunk_idx])
        if scanned != functions:
            raise CheckpointError(f"{where} records {scanned} functions scanned; its units hold {functions}")
        if count > scanned:
            raise CheckpointError(f"{where} counts {count} functions, above the {scanned} it scanned")
        if balanced > count:
            raise CheckpointError(f"{where} counts {balanced} balanced functions, above its count {count}")
        if not -1 <= best_id < kernel.space:
            raise CheckpointError(f"{where} has best id {best_id} outside [-1, {kernel.space})")
        if nwit > job.witness_cap:
            raise CheckpointError(f"{where} has {nwit} witnesses, above the cap {job.witness_cap}")
        if nwit > count:
            raise CheckpointError(f"{where} has {nwit} witnesses, above its count {count}")
        if any(w >= kernel.space for w in wit[:nwit]):
            raise CheckpointError(f"{where} has a witness id outside [0, {kernel.space})")
        if (best_id >= 0) != (job.target == "maximize" and count > 0):
            raise CheckpointError(f"{where} has best id {best_id} with count {count}, against its target")
        best = _function_key(job, best_id)[2] if best_id >= 0 else None
        done[chunk_idx] = _Agg(
            job, scanned, best, best_id, count=count, balanced=balanced, witnesses=wit[:nwit]
        )
    return done, _CKPT_HEADER.size + len(done) * size


# --- Driver -------------------------------------------------------------------------


def _finalize(job: SearchJob, chunks: dict[int, _Agg], elapsed: float, resumed: int) -> SearchResult:
    total = _Agg(job)
    for idx in sorted(chunks):
        total.merge(chunks[idx])
    max_corr_sq = influence_numerator = None
    if total.best is not None and job.metric != "ei":
        max_corr_sq, influence_numerator, _ = _function_key(job, total.best_id)
    witnesses = tuple(expand_witness(job, w).to_hex() for w in total.witnesses)
    return SearchResult(
        job=job,
        functions_scanned=total.scanned,
        best_ratio=total.best,
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


def _run_chunks(
    job: SearchJob, pending: dict[int, tuple[int, int]], threads: int
) -> Iterator[tuple[int, _Agg]]:
    """(index, outcome) of each pending chunk (index -> unit range), in order here or as workers finish."""
    if threads == 1 or len(pending) <= 1 or _kernel(job.family, job.n).space < _POOL_MIN_FUNCTIONS:
        for i, units in pending.items():
            yield i, _run_chunk(job, *units)
        return
    from concurrent.futures import ThreadPoolExecutor, as_completed  # only a pool needs it

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        futures = {pool.submit(_run_chunk, job, *units): i for i, units in pending.items()}
        for fut in as_completed(futures):
            yield futures[fut], fut.result()
    finally:  # a stopped sweep starts no more chunks; it waits only for the running ones
        pool.shutdown(cancel_futures=True)


def sweep(
    job: SearchJob,
    threads: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> SearchResult:
    """Run a sweep, optionally in parallel and resumably.

    The outcome is a pure function of the job: worker count, chunk layout,
    and resume points cannot change it. Every arity within the family's
    bound (see :class:`SearchJob`) is accepted. A chunk scans work units,
    orbit representatives under a group that keeps every metric (see the
    module docstring); a row counts once per member of its orbit in
    ``functions_scanned``, ``witness_total`` and ``balanced_at_best``, and
    witnesses are the smallest ids over the whole orbits. ``threads`` is the
    worker count (>= 1; ``None`` means one per core): chunks run on that many
    threads of this process, which overlap because numpy releases the GIL in
    a chunk's array work. A family with fewer than 2^24 functions at the
    job's arity (everything but general n=5) is swept in the calling thread
    whatever the count. Each finished chunk gets one synced checkpoint record
    and one ``progress`` call. If either raises, or the sweep is interrupted,
    no further chunk starts and the error propagates once the running ones
    end; every chunk recorded so far resumes. Keys are compared exactly (see
    ``metrics``), so no thread or chunk order can change a result.
    """
    check_threads(threads)
    t0 = time.perf_counter()
    ranges = _chunk_ranges(job)  # builds the family's kernel once, before any worker starts
    done: dict[int, _Agg] = {}
    ckpt_fh = None
    if job.checkpoint_path is not None:
        ckpt_path = resolve_checkpoint_path(job.checkpoint_path)
        done, intact = _load_checkpoint(ckpt_path, job) if os.path.exists(ckpt_path) else ({}, 0)
        if intact:
            os.truncate(ckpt_path, intact)  # new records follow the last intact one
            ckpt_fh = open(ckpt_path, "ab")
        else:
            ckpt_fh = open(ckpt_path, "wb")
            _write_synced(ckpt_fh, _header(job))
    resumed = len(done)
    pending = {i: units for i, units in enumerate(ranges) if i not in done}
    if threads is None:
        threads = os.cpu_count() or 1
    chunks = _run_chunks(job, pending, threads)
    try:
        for i, agg in chunks:
            done[i] = agg
            if ckpt_fh is not None:
                _append_record(ckpt_fh, job, i, agg)
            if progress is not None:
                progress(len(done), len(ranges))
    finally:
        chunks.close()  # cancels the chunks not yet started
        if ckpt_fh is not None:
            ckpt_fh.close()
    return _finalize(job, done, time.perf_counter() - t0, resumed)


def sweep_symmetric(n: int, metric: str = "ei") -> SearchResult:
    """Scan all 2^(n+1) symmetric functions on n variables, in this process."""
    return sweep(SearchJob("symmetric", n, metric))


def sweep_rotsym(n: int, metric: str = "ei") -> SearchResult:
    """Scan all rotation symmetric functions on n variables, in this process."""
    return sweep(SearchJob("rotsym", n, metric))


# --- Conjecture checks ----------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureCheck:
    """Outcome of the symmetric-function ratio checks for one arity."""

    n: int
    and_ei_ratio: LogLinear
    and_ratio_below_4: bool
    ei_max: LogLinear
    ei_achievers: int
    ei_achievers_conjugate_to_and: bool
    mei_max: LogLinear
    mei_claim_holds: bool
    bent_achievers: int
    passed: bool
    counterexample: str | None


def check_conjecture(ns: Iterable[int]) -> list[ConjectureCheck]:
    """Exhaustively test both symmetric-function ratio claims for each arity.

    Claim 1: the all-variable conjunction maximises the entropy/influence
    ratio, uniquely up to input/output complementation (which preserves
    squared spectra), and its ratio is below 4. Claim 2: the min-entropy/
    influence ratio never exceeds 2, with equality exactly at bent functions
    (even n) and strictly below 2 for odd n. Both are decided on exact keys.
    A counterexample is reported as a result, not an error.
    """
    out = []
    for n in ns:
        if not 1 <= n <= SYMMETRIC_N_MAX:
            raise SweepBoundError(f"symmetric checks support 1 <= n <= {SYMMETRIC_N_MAX}")
        out.append(_check_one(n))
    return out


def _check_one(n: int) -> ConjectureCheck:
    ids = np.arange(1 << (n + 1), dtype=np.int64)
    c2 = _kernel("symmetric", n).spectra(ids) ** 2
    jobs = [SearchJob("symmetric", n, metric, chunk_bits=0, witness_cap=ids.size) for metric in ("ei", "mei")]
    ei, mei = (_run_chunk(job, *_chunk_ranges(job)[0]) for job in jobs)  # each job's one chunk
    and_id = and_function(n).value_vector
    and_key = _function_key(ei.job, and_id)[2]
    and_below_4 = and_key < LogLinear.from_fraction(4)
    # every achiever must share the conjunction's squared spectrum
    strangers = [w for w in ei.witnesses if not np.array_equal(c2[w], c2[and_id])]
    # the min-entropy maximum is exactly 2 at the bent functions (even n), else below 2
    bent = np.flatnonzero((c2 == 1 << n).all(axis=1)).tolist()
    two = LogLinear.from_fraction(2)
    mei_part = mei.best == two and mei.witnesses == bent if bent else mei.best < two
    bad = strangers[:1] if mei_part else sorted(set(mei.witnesses) - set(bent))[:1]
    counterexample = SymmetricFunction(n, bad[0]).expand().to_hex() if bad else None
    return ConjectureCheck(
        n=n,
        and_ei_ratio=and_key,
        and_ratio_below_4=and_below_4,
        ei_max=ei.best,
        ei_achievers=ei.count,
        ei_achievers_conjugate_to_and=not strangers,
        mei_max=mei.best,
        mei_claim_holds=mei_part,
        bent_achievers=len(bent),
        passed=not strangers and and_below_4 and mei_part,
        counterexample=counterexample,
    )
