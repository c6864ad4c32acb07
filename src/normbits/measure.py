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
  stable order by code, carried with the codes in that order from k-1 to
  k by one O(N) radix pass, so no k sorts. In that order a window's
  occurrence rank is its position within its group of equal codes, so
  each side of every pattern is one segmented maximum or minimum over the
  groups; nothing is scattered back to window order. When a k takes the
  lead, the witness is read off the first pattern's group at the peak.
* :func:`normality_value` runs the same passes for the value alone and
  stops before the pass for k once G <= B, where B is the best value over
  the k's before it and G the largest group of equal codes among the
  N+2-k windows of length k-1 (G = N+1 for k = 1). Proof: take j >= k, X
  of length j and M <= N+1-j. Each window equal to X starts with one
  equal to X's first k-1 bits, so T - M/2^j < T <= G; and M/2^j - T <=
  (N+1-j)/2^j <= (N+1-k)/2^k, below the mean group size (N+2-k)/2^(k-1)
  <= G. So no j >= k exceeds B, and a tie there changes neither the value
  nor its smallest-k witness. The loop tests the implied, cheaper
  (N+1-k)/2^k <= B first and only then reads G off k-1's group starts;
  both tests are integer comparisons.

All deviations are carried as integers 2^k*T - M over the denominator 2^k;
cross-k comparisons shift to a common denominator. No floats are involved
in any decision.
"""

from __future__ import annotations

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


def _carry(
    order: np.ndarray, sc: np.ndarray, code0: int, prev: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The windows' stable order by code for k, and their codes in that
    order, from the pair for k-1: code_k[j-1] = bits[j-1]*2^(k-1) +
    code_{k-1}[j], so drop window 0 (the first window holding its code
    code0), partition the rest stably by prev[j] = bits[j-1], zeros first,
    shift them down one index and set bit k-1 of the ones' codes. One LSD
    radix pass.
    """
    ones = np.take(prev, order)  # window 0 reads the pad, a zero
    zeros = ~ones
    zeros[np.searchsorted(sc, np.int32(code0))] = False  # int32: no cast of sc
    split = np.count_nonzero(zeros)
    size = order.size - 1
    new_order = np.empty(size, dtype=np.int32)
    new_sc = np.empty(size, dtype=np.int32)
    for part, sel in ((slice(split), zeros), (slice(split, size), ones)):
        idx = np.flatnonzero(sel)
        np.take(order, idx, out=new_order[part])
        np.take(sc, idx, out=new_sc[part])
    new_order -= 1
    new_sc[split:] |= 1 << (k - 1)
    return new_order, new_sc


def _scan_k(
    order: np.ndarray, sc: np.ndarray, k: int, best: Optional[tuple[int, ...]]
) -> tuple[int, Optional[tuple[int, int, int]], np.ndarray]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M|, if it
    beats `best` = (num, k, ...) the smallest (pattern, M, T) attaining it
    (never when best is None), and the start of each group of equal codes,
    from the windows' stable order by code and the codes in that order.

    Position p of group g (the windows with one code, from starts[g]) holds
    window i = order[p] with occurrence rank r = p - starts[g] + 1, so with
    q[p] = p*2^k - i, 2^k*r - i = q[p] - starts[g]*2^k + 2^k. A pattern's
    deviation peaks as one of its windows arrives (step i+1, at 2^k*r -
    (i+1)), just before one arrives (step i, at i - 2^k*(r-1)) or at the
    last step m (at m - 2^k*size). A missing pattern peaks at m, above
    every present one's last two, so those are read only when all 2^k
    patterns occur.
    """
    m = sc.shape[0]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(sc[1:], sc[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    full = starts.size == 1 << k
    q = np.arange(0, m << k, 1 << k, dtype=np.int64)
    q -= order
    peaks = np.maximum.reduceat(q, starts)
    lows = np.minimum.reduceat(q, starts) if full else None
    del q  # before any other group-sized array
    base = starts << k
    peaks -= base
    peaks += (1 << k) - 1
    if full:
        np.maximum(peaks, np.subtract(base, lows, out=lows), out=peaks)
        np.maximum(peaks, m - (np.diff(starts, append=m) << k), out=peaks)
    num = max(int(peaks.max()), 0 if full else m)
    if best is None or not _better(num, k, best[0], best[1]):
        return num, None, starts
    peak = np.full(1 << k, m, dtype=np.int64)  # by code; a missing one peaks at m
    peak[sc[starts]] = peaks
    x = int(np.argmax(peak == num))
    s, e = (int(v) for v in np.searchsorted(sc, np.array([x, x + 1], np.int32)))
    d = np.arange(1 << k, (e - s + 1) << k, 1 << k, dtype=np.int64)
    d -= order[s:e]  # 2^k*r - i over x's windows i
    cands = [(m, e - s)] if m - ((e - s) << k) == num else []
    for target, step in ((num + 1, 1), ((1 << k) - num, 0)):  # arrival, just before
        for j in np.flatnonzero(d == target)[:1]:
            cands.append((int(order[s + j]) + step, int(j) + step))
    return num, (x, *min(cands)), starts


def _sorted_windows(seq: BitSequence):
    """(k, the windows' stable order by code, their codes in that order) for
    k = 1 .. floor(log2 N), each k's carry run only when k is asked for."""
    n = len(seq)
    bits = seq.to_numpy()
    # the n+1 empty windows (k = 0), all with code 0
    order = np.arange(n + 1, dtype=np.int32)
    sc = np.zeros(n + 1, dtype=np.int32)
    code0 = 0  # the code of window 0
    prev = np.concatenate((np.zeros(1, bits.dtype), bits)).view(bool)  # bits[j-1]
    for k in range(1, max_block_length(n) + 1):
        order, sc = _carry(order, sc, code0, prev, k)
        code0 = (code0 << 1) | int(bits[k - 1])
        yield k, order, sc


def normality_fast(seq: BitSequence) -> NormalityReport:
    """Single-pass-per-k evaluator; contract identical to normality_naive."""
    n = len(seq)
    check_measure_n(n)
    if max_block_length(n) < 1:
        return _empty_report(n)
    per_k: list[tuple[int, ExactValue]] = []
    best: tuple[int, ...] = (-1, 0)  # num, k, x, m, t; k = 1 beats it
    for k, order, sc in _sorted_windows(seq):
        num, found = _scan_k(order, sc, k, best)[:2]  # free starts before next carry
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
    starts = np.zeros(1, dtype=np.int64)  # k = 0: one group of n+1 windows
    windows = _sorted_windows(seq)
    for k in range(1, max_block_length(n) + 1):
        if (n + 1 - k) << bk <= num << k:  # implied by G <= B, and cheaper
            if int(np.diff(starts, append=n + 2 - k).max()) << bk <= num:
                break
        _, order, sc = next(windows)
        cand, _, starts = _scan_k(order, sc, k, None)
        if _better(cand, k, num, bk):
            num, bk = cand, k
    return ExactValue(num, bk)
