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
  occurrence rank is its position within its group of equal codes, so
  each side of every pattern is one segmented maximum or minimum over
  the groups; nothing is scattered back to window order. When a k takes
  the lead, the witness is read off the first pattern at the peak. Every
  k's order and digits overwrite k-1's in one pair of N+1 int32 entries;
  the carry and the scan walk the positions one chunk at a time and
  write into one set of chunk buffers per call. Besides them and the
  pair, a call holds a side buffer of two int32 per digit equal to 1,
  and index arrays of one chunk.
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

from .bitcore import BitSequence, ExactValue, Pattern

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
            "value_num": self.value.num,
            "value_log2_den": self.value.log2_den,
            "value_decimal": self.value.decimal(),
            "k": self.witness_k,
            "pattern": str(self.witness_pattern) if self.witness_pattern else None,
            "M": self.witness_m,
            "T": self.witness_t,
            "per_k": [
                {
                    "k": k,
                    "num": v.num,
                    "log2_den": v.log2_den,
                    "decimal": v.decimal(),
                }
                for k, v in self.per_k_max
            ],
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
    if not 1 <= m <= n + 1 - k:
        raise ValueError(f"M={m} outside [1, {n + 1 - k}]")
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


def _empty_report(n: int) -> NormalityReport:
    return NormalityReport(n, ExactValue(0), None, None, None, None, ())


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
        return _empty_report(n)
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
        chunk = max(1, min(npat, (1 << 21) // width))
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
    num, k, x, m, t = best
    return NormalityReport(
        n=n,
        value=ExactValue(num, k),
        witness_k=k,
        witness_pattern=Pattern(k, x),
        witness_m=m,
        witness_t=t,
        per_k_max=tuple(per_k),
    )


# -- single-pass evaluator ---------------------------------------------

# Positions per chunk: the carry and the scan walk the positions this many
# at a time and write into the call's chunk buffers. The arrays they make
# per chunk are flatnonzero's index arrays, of at most 8*CHUNK bytes, and,
# for a witness, _first_missing's differences.
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
        # sizes: also each group's lowest q
        self.dev, self.peaks, self.base, self.sizes = (
            np.empty(size, np.int64) for _ in range(4)
        )


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
    # window 0 has the smallest end, k-1, in the chunk before the first
    # chunk start whose code is at least code0 (or in the first chunk)
    starts = range(0, order.size, CHUNK)
    j = bisect_left(starts, code0, key=lambda a: ck.item(a) & ((1 << (k - 1)) - 1))
    a = starts[j - 1] if j else 0
    drop = a + int(order[a : a + CHUNK + 1].argmin())
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


def _chunk_peaks(
    order: np.ndarray, ck: np.ndarray, k: int, a: int, first: int, groups: int,
    buf: _Buffers,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Positions a .. b-1 (b = min(a+CHUNK, m)) of the windows' stable order
    by code, whose codes it leaves in buf.codes: the start, less a, of each
    group of equal codes there (the first one from `first`, the start of
    the group holding position a) followed by b - a when the last group
    ends at b, each group's largest term there plus k, the number of
    groups started before b, from the `groups` started before a, and
    whether all 2^k codes may still occur.

    Position p of a group starting at s holds the window ending at
    e = order[p], i = e - k, with occurrence rank r = p - s + 1, so with
    q[p] = p*2^k - e, the term as it arrives is 2^k*r - (i+1) =
    q[p] - s*2^k + 2^k + k - 1 and the term just before it arrives is
    i - 2^k*(r-1) = s*2^k - q[p] - k. The second is read only while the
    codes so far are exactly 0, 1, ..., groups - 1: a missing code peaks
    at the last step m, above it.
    """
    m = order.shape[0]
    b = min(a + CHUNK, m)
    e = min(b + 1, m)
    size = b - a
    codes = np.bitwise_and(ck[a:e], (1 << k) - 1, out=buf.codes[: e - a])
    new = buf.new[: size + 1]  # whether a group starts at each of a .. b
    new[0] = new[size] = True  # new[size] stays True at b = m
    np.not_equal(codes[1:], codes[:-1], out=new[1 : e - a])
    starts = np.flatnonzero(new)  # from a; the last is b - a if new[size]
    g = starts.size - int(new[size])  # the groups with positions here
    groups += g - (first < a)
    full = groups == 1 << k if b == m else int(codes[size - 1]) == groups - 1
    q = np.left_shift(buf.ramp[:size], k, out=buf.dev[:size])
    q -= order[a:b]  # q[p] less a*2^k, as every start below is less a
    peaks = np.maximum.reduceat(q, starts[:g], out=buf.peaks[:g])
    if full:
        lows = np.minimum.reduceat(q, starts[:g], out=buf.sizes[:g])
    starts[0] = first - a
    base = np.left_shift(starts[:g], k, out=buf.base[:g])
    peaks -= base
    peaks += (1 << k) - 1 + 2 * k  # plus k, as base - lows is too
    if full:
        np.maximum(peaks, np.subtract(base, lows, out=lows), out=peaks)
    return starts, peaks, groups, full


def _first_missing(ck: np.ndarray, mask: int, buf: _Buffers) -> int:
    """The smallest code absent from the codes ck & mask, sorted ascending."""
    x = 0  # every code below x occurs
    for a in range(0, ck.shape[0], CHUNK):
        c = ck[a : a + CHUNK]
        block = np.bitwise_and(c, mask, out=buf.codes[: c.size])
        gaps = np.flatnonzero(np.diff(block, prepend=x - 1) > 1)
        if gaps.size:
            return x if gaps[0] == 0 else int(block[gaps[0] - 1]) + 1
        x = int(block[-1]) + 1
    return x


def _scan_k(
    order: np.ndarray, ck: np.ndarray, k: int, best: Optional[tuple[int, ...]],
    buf: _Buffers,
) -> tuple[int, Optional[tuple[int, int, int]], int]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M|, if it
    beats `best` = (num, k, ...) the smallest (pattern, M, T) attaining it
    (never when best is None), and the size of the largest group of equal
    codes, from the windows' stable order by code and their preceding
    digits in that order, one chunk of positions at a time.

    A pattern's deviation peaks as one of its windows arrives, just before
    one arrives (both read by _chunk_peaks) or at the last step m, at m -
    2^k*size. A missing pattern peaks at m, above every present one's last
    two, so those are read only when all 2^k patterns occur. The witness
    pattern x is the smallest code at the peak: the code at the first
    position at the peak, the first group with the smallest size when its
    end term is the peak, or the first missing code when m is; then x's
    windows give M and T.
    """
    m = order.shape[0]
    mask = (1 << k) - 1
    first = groups = 0  # the start of the group holding a; groups started
    top, lead = -1, None  # the largest term, and the first chunk reaching it
    gmax, gmin, xmin = 0, m + 1, 0  # group sizes; the first smallest's code
    for a in range(0, m, CHUNK):
        starts, peaks, after, full = _chunk_peaks(order, ck, k, a, first, groups, buf)
        here = int(peaks.max()) - k
        if here > top:
            top, lead = here, (a, first, groups)
        # the sizes of the groups that end by b
        sizes = np.subtract(starts[1:], starts[:-1], out=buf.sizes[: starts.size - 1])
        if sizes.size:
            gmax = max(gmax, int(sizes.max()))
            if full:  # the end terms count only then
                j = int(sizes.argmin())
                if sizes[j] < gmin:
                    gmin, xmin = int(sizes[j]), int(buf.codes[max(starts[j], 0)])
        first, groups = a + int(starts[-1]), after
    full = groups == 1 << k
    end = m - (gmin << k) if full else m
    num = max(top, end)
    if best is None or not _better(num, k, best[0], best[1]):
        return num, None, gmax
    xs = []
    if top == num:
        starts, peaks = _chunk_peaks(order, ck, k, *lead, buf)[:2]
        xs.append(int(buf.codes[max(starts[int(np.argmax(peaks == num + k))], 0)]))
    if end == num:
        xs.append(xmin if full else _first_missing(ck, mask, buf))
    x = min(xs)
    s, e = _position(ck, mask, x), _position(ck, mask, x + 1)
    for a in range(s, e, CHUNK):
        b = min(a + CHUNK, e)
        d = np.left_shift(buf.ramp[: b - a], k, out=buf.dev[: b - a])
        d += ((a - s + 1) << k) + k
        d -= order[a:b]  # 2^k*r - i over x's windows i
        hits = [
            (int(order[a + j]) - k + step, a - s + int(j) + step)
            for target, step in ((num + 1, 1), ((1 << k) - num, 0))  # arrival, just before
            for j in np.flatnonzero(d == target)[:1]
        ]
        if hits:  # later windows, and the end at m, give no smaller (M, T)
            return num, (x, *min(hits)), gmax
    return num, (x, m, e - s), gmax


def _preceding_digits(
    bits: np.ndarray, width: int, ck: np.ndarray, buf: _Buffers
) -> None:
    """Set ck[i] for i = 0 .. n to at least `width` of the digits before
    position i as a binary number, digit i-1 lowest, reading zeros before
    position 0. Built by doubling the digits read, high chunks first, so
    each chunk reads entries not yet doubled."""
    n = bits.shape[0]
    ck[0] = 0
    ck[1:] = bits
    # unsigned, as the top digit may land on bit 31
    wide, part = ck.view(np.uint32), buf.codes.view(np.uint32)
    w = 1  # digits read so far
    while w < width:
        for b in range(n + 1, w, -CHUNK):
            a = max(b - CHUNK, w)
            high = np.left_shift(wide[a - w : b - w], w, out=part[: b - a])
            np.bitwise_or(wide[a:b], high, out=wide[a:b])
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
    _preceding_digits(bits, kmax, ck, buf)
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
        return _empty_report(n)
    per_k: list[tuple[int, ExactValue]] = []
    best: tuple[int, ...] = (-1, 0)  # num, k, x, m, t; k = 1 beats it
    for k, order, ck, buf in _sorted_windows(seq):
        num, found, _ = _scan_k(order, ck, k, best, buf)
        per_k.append((k, ExactValue(num, k)))
        if found is not None:
            best = (num, k, *found)
    num, k, x, m, t = best
    return NormalityReport(
        n=n,
        value=ExactValue(num, k),
        witness_k=k,
        witness_pattern=Pattern(k, x),
        witness_m=m,
        witness_t=t,
        per_k_max=tuple(per_k),
    )


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
        cand, _, g = _scan_k(order, ck, k, None, buf)
        if _better(cand, k, num, bk):
            num, bk = cand, k
    return ExactValue(num, bk)
