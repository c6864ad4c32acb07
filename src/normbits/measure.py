"""Exact evaluation of the normality measure of a finite binary sequence.

The measure is the maximum, over block lengths k with 2^k <= N, patterns X
of length k, and window counts M <= N+1-k, of |T(E,M,X) - M/2^k|, where T
counts the windows among the first M that equal X. Three evaluators are
provided:

* :func:`normality_naive` walks every (k, X, M) triple by definition and is
  the testing oracle.
* :func:`normality_fast` runs one pass per k. A pattern's 2^k*T - M rises
  by 2^k - 1 as one of its windows arrives and falls by 1 at every other
  step, so |2^k*T - M| peaks as a window arrives, just before one
  arrives, or at the last step. The pass works entirely in the windows'
  stable order by code, carried from k-1 to k by one O(N) radix pass, so
  no k sorts. Each window carries, in the same order, at least
  floor(log2 N) digits that end where it ends: its code is their low k
  bits, and the digit the pass for k prepends is bit k-1, so the digits
  are read once, before the first pass. In that order a window's
  occurrence rank is its position less its group's start, so both of its
  terms follow from its position and its end, and each side's peak over
  a chunk is one argmax or argmin; nothing is scattered back to window
  order. The positions run in pattern order, then M order, so the first
  position at the peak is the witness: the scan reads each chunk once
  per k, and nothing again. Every k's order and digits overwrite k-1's
  in one pair of N+1 int32 entries; the carry and the scan walk the
  positions one chunk at a time and write into one set of chunk buffers
  per call. Besides them and the pair, a call holds a side buffer of two
  int32 per digit equal to 1, and index and rank arrays of one chunk.
* :func:`normality_value` runs the same passes for the value alone and
  stops before the pass for k once G <= B, where B is the best value over
  the k's before it and G the largest group of equal codes among the
  N+2-k windows of length k-1 (G = N+1 for k = 1). Proof: take j >= k, X
  of length j and M <= N+1-j. Each window equal to X starts with one
  equal to X's first k-1 bits, so T - M/2^j < T <= G; and M/2^j - T <=
  (N+1-j)/2^j <= (N+1-k)/2^k, below the mean group size (N+2-k)/2^(k-1)
  <= G. So no j >= k exceeds B, and a tie there changes neither the value
  nor its smallest-k witness. Each pass returns its G, so the test is one
  integer comparison.

All deviations are carried as integers 2^k*T - M over the denominator 2^k;
cross-k comparisons shift to a common denominator. No floats are involved
in any decision.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitcore import BitSequence, ExactValue, Pattern, check_int

__all__ = [
    "NormalityReport", "count_occurrences", "normality_naive", "normality_fast",
    "normality_value",
]

MAX_MEASURE_N = 1 << 30


def max_block_length(n: int) -> int:
    """Largest admissible k (floor(log2 n)); 0 when the k-range is empty."""
    return n.bit_length() - 1 if n >= 1 else 0


@dataclass(frozen=True)
class NormalityReport:
    """Measure value with the witness triple attaining it.

    The witness is deterministic: smallest k, then smallest pattern value,
    then smallest M among all maximizers. For N <= 1 the k-range is empty,
    the value is 0, and the witness fields are None.
    """

    n: int
    value: ExactValue
    witness_k: Optional[int]
    witness_pattern: Optional[Pattern]
    witness_m: Optional[int]
    witness_t: Optional[int]
    per_k_max: tuple[tuple[int, ExactValue], ...]

    def to_json_dict(self) -> dict:
        return {
            **self.value.json_fields("value_"),
            "k": self.witness_k,
            "pattern": str(self.witness_pattern) if self.witness_pattern else None,
            "M": self.witness_m,
            "T": self.witness_t,
            "per_k": [{"k": k, **v.json_fields()} for k, v in self.per_k_max],
        }


def count_occurrences(seq: BitSequence, m: int, pattern: Pattern) -> int:
    """Number of windows among the first m that equal the pattern.

    Counts positions n with 0 <= n < m whose k-window (e_{n+1},...,e_{n+k})
    equals the pattern; requires 1 <= m <= N+1-k so every window fits.
    """
    n = len(seq)
    k = pattern.k
    if k > n:
        raise ValueError(f"pattern length {k} exceeds sequence length {n}")
    m = check_int(m, "M", 1, n + 1 - k)
    mask = (1 << k) - 1
    code = 0
    for i in range(k - 1):
        code = (code << 1) | seq[i]
    count = 0
    for i in range(m):
        code = ((code << 1) | seq[i + k - 1]) & mask
        if code == pattern.value:
            count += 1
    return count


def _report(n: int, best, per_k) -> NormalityReport:
    """The report of witness best = (num, k, x, m, t), or of no k when None."""
    if best is None:
        return NormalityReport(n, ExactValue(0), None, None, None, None, ())
    num, k, x, m, t = best
    return NormalityReport(n, ExactValue(num, k), k, Pattern(k, x), m, t, tuple(per_k))


def check_measure_n(n: int) -> None:
    """The measure's domain is N <= 2^30: window codes (< N) and indices are
    int32, and p*2^k for a position p and k <= 30 fits in int64."""
    if n > MAX_MEASURE_N:
        raise ValueError(f"sequence length {n} exceeds the measure's limit 2^30")


def _extend_codes(codes: np.ndarray, bits: np.ndarray, k: int) -> np.ndarray:
    """Window codes for length k from the codes for length k-1."""
    n = bits.shape[0]
    width = n + 1 - k
    return (codes[:width] << 1) | bits[k - 1 : k - 1 + width]


def _better(cand_num: int, cand_k: int, best_num: int, best_k: int) -> bool:
    """Exact comparison cand_num/2^cand_k > best_num/2^best_k."""
    return (cand_num << best_k) > (best_num << cand_k)


# -- definitional oracle -----------------------------------------------


def normality_naive(seq: BitSequence) -> NormalityReport:
    """Reference evaluator: enumerates every pattern and takes cumulative
    counts over M directly from the definition."""
    n = len(seq)
    check_measure_n(n)
    klim = max_block_length(n)
    if klim < 1:
        return _report(n, None, ())
    bits = seq.to_numpy().astype(np.int32)
    best: Optional[tuple[int, int, int, int, int]] = None  # num, k, x, m, t
    per_k: list[tuple[int, ExactValue]] = []
    # Scaled deviations are bounded by n << klim.
    dt = np.int32 if (n << klim) < (1 << 31) else np.int64
    codes = bits.copy()
    for k in range(1, klim + 1):
        if k > 1:
            codes = _extend_codes(codes, bits, k)
        width = n + 1 - k
        marr = np.arange(1, width + 1, dtype=dt)
        npat = 1 << k
        # Chunk the pattern axis to bound the (patterns x M) work matrix.
        chunk = max(1, min(npat, (1 << 14) // width))
        k_best: Optional[tuple[int, int, int, int]] = None  # num, x, m, t
        for x0 in range(0, npat, chunk):
            xs = np.arange(x0, min(x0 + chunk, npat), dtype=codes.dtype)
            t = np.cumsum(codes[None, :] == xs[:, None], axis=1, dtype=dt)
            dev = np.abs((t << k) - marr[None, :])
            maxs = dev.max(axis=1)
            arg = dev.argmax(axis=1)
            for j in range(xs.shape[0]):
                num = int(maxs[j])
                if k_best is None or num > k_best[0]:
                    mi = int(arg[j])
                    k_best = (num, x0 + j, mi + 1, int(t[j, mi]))
        assert k_best is not None
        per_k.append((k, ExactValue(k_best[0], k)))
        if best is None or _better(k_best[0], k, best[0], best[1]):
            best = (k_best[0], k, k_best[1], k_best[2], k_best[3])
    return _report(n, best, per_k)


# -- single-pass evaluator ---------------------------------------------

# Positions per chunk: the carry and the scan walk the positions this many
# at a time and write into the call's chunk buffers. The arrays they make
# per chunk are flatnonzero's index arrays and the scan's ranks, each of at
# most 8*CHUNK bytes.
CHUNK = 1 << 15


class _Buffers:
    """The chunk buffers of one call, each one entry longer than a chunk,
    written by every k's carry and scan."""

    def __init__(self, n: int):
        size = min(CHUNK, n + 1) + 1
        self.ramp = np.arange(size, dtype=np.int64)  # 0, 1, 2, ...
        self.codes = np.empty(size, np.int32)
        self.moved = np.empty((2, size), np.int32)
        self.new = np.empty(size, bool)
        self.sizes = np.empty(size, np.int64)  # of groups, or their parts in a chunk


def _position(ck: np.ndarray, mask: int, x: int) -> int:
    """The first position whose code ck & mask is at least x, where the
    positions are sorted by that code."""
    return bisect_left(range(ck.shape[0]), x, key=lambda p: ck.item(p) & mask)


def _carry(
    pair: np.ndarray, code0: int, k: int, side: np.ndarray, buf: _Buffers
) -> None:
    """Turn the windows' stable order by code for k-1, with their preceding
    digits in that order (the two rows of pair), into the pair for k, in
    place in the first pair.shape[1] - 1 columns. Window j-1 of length k is
    digit j-1 followed by window j of length k-1 and ends where it ends,
    so it keeps its entry in order (the end) and in ck, where that digit
    is bit k-1. So drop window 0, of code code0, and partition the rest
    stably by bit k-1, zeros first. One LSD radix pass, one chunk at a
    time: a chunk's ones go to the side buffer (ends in side[0], digits in
    side[1]) and its zeros move down, never past the positions read so
    far; the ones then fill the tail.
    """
    order, ck = pair
    # window 0 has the smallest end, k-1, so it comes first in its group
    drop = _position(ck, (1 << (k - 1)) - 1, code0)
    zeros = ones = 0
    for a in range(0, order.size, CHUNK):
        o, c = order[a : a + CHUNK], ck[a : a + CHUNK]
        # bit k-1 of each, cast to bool on the way out
        one = np.bitwise_and(c, 1 << (k - 1), out=buf.new[: c.size], casting="unsafe")
        idx = np.flatnonzero(one)
        end = ones + idx.size
        np.take(o, idx, out=side[0, ones:end], mode="clip")  # in range: no buffer
        np.take(c, idx, out=side[1, ones:end], mode="clip")
        ones = end
        zero = np.logical_not(one, out=one)
        if a <= drop < a + CHUNK:
            zero[drop - a] = False  # window 0 reads a zero before position 0
        idx = np.flatnonzero(zero)
        moved = buf.moved[:, : idx.size]  # take would copy an out that overlaps
        np.take(o, idx, out=moved[0], mode="clip")
        np.take(c, idx, out=moved[1], mode="clip")
        pair[:, zeros : zeros + idx.size] = moved
        zeros += idx.size
    pair[:, zeros : zeros + ones] = side[:, :ones]


def _scan_k(
    order: np.ndarray, ck: np.ndarray, k: int, buf: _Buffers
) -> tuple[int, tuple[int, int, int], int]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M|, the
    smallest (pattern, M, T) attaining it, and the size of the largest
    group of equal codes, from the windows' stable order by code and their
    preceding digits in that order, in one pass over the positions a chunk
    at a time.

    Position p of a group starting at s holds the window ending at
    e = order[p], i = e - k, with occurrence rank r = p - s + 1, so with
    d[p] = (r-1)*2^k - e, the term as it arrives, at M = i+1 with T = r,
    is 2^k*r - (i+1) = d[p] + 2^k + k - 1, and the term just before, at
    M = i with T = r-1, is i - 2^k*(r-1) = -d[p] - k; the two differ, as
    their sum is odd. The positions run in code order, then end order, so
    the first position at the largest term holds the smallest pattern and
    its smallest M. The last term, at step m, is m - 2^k*size, or m for a
    missing pattern, above every present one's and every term just
    before; it wins a tie only with a smaller pattern.
    """
    m = order.shape[0]
    mask = (1 << k) - 1
    first = groups = 0  # the start of the group holding a; groups started before a
    top, witness = -1, None  # the largest term so far and its (x, M, T)
    xmiss = -1  # the first missing code
    gmax, gmin, xmin = 0, m + 1, 0  # group sizes; the first smallest's code
    for a in range(0, m, CHUNK):
        b = min(a + CHUNK, m)
        e = min(b + 1, m)
        size = b - a
        codes = np.bitwise_and(ck[a:e], mask, out=buf.codes[: e - a])
        new = buf.new[: size + 1]  # whether a group starts at each of a .. b
        new[0] = new[size] = True  # new[size] stays True at b = m
        np.not_equal(codes[1:], codes[:-1], out=new[1 : e - a])
        starts = np.flatnonzero(new)  # from a; the last is b - a if new[size]
        g = starts.size - int(new[size])  # the groups with positions here
        groups += g - (first < a)
        if xmiss < 0 and not (
            groups == 1 << k if b == m else int(codes[size - 1]) == groups - 1
        ):  # the first group here whose code is past its index, else groups
            lag = groups - g  # the first group's index; every code below it occurs
            xmiss = lag + bisect_left(
                range(g), True, key=lambda j: codes.item(starts.item(j)) - j > lag
            )
        np.subtract(starts[1:g], starts[: g - 1], out=buf.sizes[: g - 1])
        buf.sizes[g - 1] = size - starts[g - 1]  # each group's positions here
        starts[0] = first - a
        d = np.repeat(starts[:g], buf.sizes[:g])  # each position's s, less a
        np.subtract(buf.ramp[:size], d, out=d)
        d <<= k
        d -= order[a:b]
        hi, lo = int(d.argmax()), int(d.argmin())
        up, down = int(d[hi]) + (1 << k) + k - 1, -int(d[lo]) - k
        # the larger; at a tie, the earlier position (hi != lo then)
        term, p, step = (up, hi, 1) if (up, lo) > (down, hi) else (down, lo, 0)
        if term > top:
            end = int(order[a + p])
            top = term
            witness = (int(codes[p]), end - k + step, ((int(d[p]) + end) >> k) + step)
        # the sizes of the groups that end by b
        sizes = np.subtract(starts[1:], starts[:-1], out=buf.sizes[: starts.size - 1])
        if sizes.size:
            gmax = max(gmax, int(sizes.max()))
            j = int(sizes.argmin())
            if sizes[j] < gmin:
                gmin, xmin = int(sizes[j]), int(codes[max(starts[j], 0)])
        first = a + int(starts[-1])
    if xmiss >= 0:
        gmin, xmin = 0, xmiss
    last = m - (gmin << k)
    if last > top or last == top and xmin < witness[0]:
        top, witness = last, (xmin, m, gmin)
    return top, witness, gmax


def _preceding_digits(
    bits: np.ndarray, width: int, out: np.ndarray, part: np.ndarray
) -> None:
    """Set out[i] for i = 0 .. n to at least `width` of the digits before
    position i as a binary number, digit i-1 lowest, reading zeros before
    position 0; digits past out's unsigned type shift out. Built by
    doubling the digits read, high chunks first, so each chunk reads
    entries not yet doubled, with the scratch `part` of one chunk."""
    n = bits.shape[0]
    out[0] = 0
    out[1:] = bits
    w = 1  # digits read so far
    while w < width:
        for b in range(n + 1, w, -CHUNK):
            a = max(b - CHUNK, w)
            high = np.left_shift(out[a - w : b - w], w, out=part[: b - a])
            np.bitwise_or(out[a:b], high, out=out[a:b])
        w <<= 1


def _sorted_windows(seq: BitSequence):
    """(k, the windows' stable order by code, their preceding digits in
    that order, the call's chunk buffers) for k = 1 .. floor(log2 N), each
    k's carry run only when k is asked for. Every k's pair is a view of
    one pair of n+1 entries, carried in place. Window i of length k is
    held by its end i+k in the order and carries the digits before
    position i+k, so its code is their low k bits."""
    n = len(seq)
    kmax = max_block_length(n)
    bits = seq.to_numpy()
    buf = _Buffers(n)
    pair = np.empty((2, n + 1), dtype=np.int32)
    order, ck = pair
    for a in range(0, n + 1, CHUNK):  # the n+1 empty windows (k = 0), by ends
        part = order[a : a + CHUNK]
        np.add(buf.ramp[: part.size], a, out=part)
    # unsigned, as the top digit may land on bit 31
    _preceding_digits(bits, kmax, ck.view(np.uint32), buf.codes.view(np.uint32))
    side = np.empty((2, np.count_nonzero(bits)), dtype=np.int32)
    code0 = 0  # the code of window 0
    for k in range(1, kmax + 1):
        size = n + 1 - k
        _carry(pair[:, : size + 1], code0, k, side, buf)
        code0 = (code0 << 1) | int(bits[k - 1])
        yield k, order[:size], ck[:size], buf


def normality_fast(seq: BitSequence) -> NormalityReport:
    """Single-pass-per-k evaluator; contract identical to normality_naive."""
    n = len(seq)
    check_measure_n(n)
    if max_block_length(n) < 1:
        return _report(n, None, ())
    per_k: list[tuple[int, ExactValue]] = []
    best: tuple[int, ...] = (-1, 0)  # num, k, x, m, t; k = 1 beats it
    for k, order, ck, buf in _sorted_windows(seq):
        num, witness, _ = _scan_k(order, ck, k, buf)
        per_k.append((k, ExactValue(num, k)))
        if _better(num, k, best[0], best[1]):
            best = (num, k, *witness)
    return _report(n, best, per_k)


def normality_value(seq: BitSequence) -> ExactValue:
    """normality_fast(seq).value, without the witness or the k's that
    cannot beat the best (module docstring)."""
    n = len(seq)
    check_measure_n(n)
    num = bk = 0  # the best value num/2^bk over the k's run so far
    g = n + 1  # the largest group of k-1's codes; k = 0: n+1 empty windows
    windows = _sorted_windows(seq)
    for k in range(1, max_block_length(n) + 1):
        if g << bk <= num:
            break
        _, order, ck, buf = next(windows)
        cand, _, g = _scan_k(order, ck, k, buf)
        if _better(cand, k, num, bk):
            num, bk = cand, k
    return ExactValue(num, bk)
