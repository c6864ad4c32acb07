"""Exhaustive minimization of the normality measure over all length-n
binary sequences, and Monte Carlo scans of its typical size.

The search walks the binary prefix tree one level at a time, on a frontier
of numpy rows. A row holds a prefix's bits, one uint8 count table whose
columns from 2^k - 2 on count the length-k patterns for each admissible k,
and each k's running maximum deviation. A level repeats every row into its
two children, adds each k's new window to its counts, and takes the high
side from the new window's count (a pattern's deviation only falls between
its own increments) and the low side from the row minimum of k's counts.
Deviation terms already fixed by a prefix lower-bound the measure of every
extension (k is always taken from the *target* length's range), and the
bound only grows along a path. A walk cuts a row once its bound strictly
exceeds the walk's limit, and records the smallest bound it cut. The first
walk has limit 0; while a walk reaches no leaf, the next one takes the
smallest cut bound as its limit. Every leaf lies below some cut of the
previous walk, so the limit never passes the minimum, and the strict cut
keeps every minimum-attaining leaf reachable: the first walk that reaches a
leaf reaches all minimizers. With pruning enabled only sequences starting
with 0 are enumerated, since complementing every bit permutes the patterns
of each length and leaves all deviations unchanged.

The frontier is a stack of pieces of at most ROWS rows, and the leftmost
piece always advances first. So leaves arrive in lexicographic order, which
makes the reported witness list the smallest minimizers up to the cap, and
memory stays within about n pieces however wide the tree grows.

At a leaf every deviation term is settled, so the bound *is* the exact
measure; no separate evaluation pass is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import BitSequence, ExactValue, check_int
from .generators import MAX_SEED, RANDOM_ALGORITHM, random_bits, splitmix64_outputs
from .measure import check_measure_n, max_block_length, normality_value

__all__ = ["SearchResult", "ScanStats", "exhaustive_min", "typical_scan"]

MAX_SEARCH_N = 51
MAX_PLAIN_N = 26  # prune=False visits 2^(n+1) - 2 nodes: over a minute past 26
MAX_SCAN_SAMPLES = 1 << 24
ROWS = 1 << 12  # rows per frontier piece; the tests shrink it

QUANTILE_KEYS = ("min", "p05", "p25", "median", "p75", "p95", "max")
_QUANTILE_LEVELS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


@dataclass(frozen=True)
class SearchResult:
    n: int
    min_value: ExactValue
    witnesses: tuple[BitSequence, ...]
    nodes_visited: int
    pruned: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            **self.min_value.json_fields("min_"),
            "witnesses": [w.to01() for w in self.witnesses],
            "nodes_visited": self.nodes_visited,
            "pruned": self.pruned,
        }


@dataclass(frozen=True)
class ScanStats:
    n: int
    samples: int
    seed: int
    algorithm: str
    quantiles: tuple[float, ...]  # of measure/sqrt(n), keyed by QUANTILE_KEYS

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "quantiles": dict(zip(QUANTILE_KEYS, self.quantiles)),
        }


def check_search_n(n: int, prune: bool = True) -> int:
    """n read in [1, MAX_SEARCH_N], or [1, MAX_PLAIN_N] without pruning."""
    return check_int(n, "n", 1, MAX_SEARCH_N if prune else MAX_PLAIN_N)


def _walk(n: int, klim: int, cap: int, limit: int, prune: bool) -> tuple:
    """One walk that cuts every bound above `limit`, on the 2^klim
    denominator: (best, witnesses, min_cut, nodes, pruned)."""
    ks = np.arange(1, klim + 1)
    starts = (1 << ks) - 2
    masks = ((1 << ks) - 1).astype(np.uint64)
    best = min_cut = (n << klim) + 1
    witnesses: list[int] = []
    nodes = pruned = 0
    width = (1 << (klim + 1)) - 2
    stack = [(0, np.zeros(1, np.uint64), np.zeros((1, width), np.uint8),
              np.zeros((1, klim), np.int64))]
    while stack:
        length, bits, counts, dev = stack.pop()
        reps = 1 if prune and length == 0 else 2
        bits = np.repeat(bits << np.uint64(1), reps)
        bits[1::2] |= np.uint64(1)
        counts = np.repeat(counts, reps, axis=0)
        dev = np.repeat(dev, reps, axis=0)
        length += 1
        nodes += bits.size
        a = min(length, klim)  # the ks with a complete window
        if a:
            k, m = ks[:a], length - ks[:a] + 1
            rows = np.arange(bits.size)[:, None]
            cols = starts[:a] + (bits[:, None] & masks[:a]).astype(np.int64)
            counts[rows, cols] += 1
            high = (counts[rows, cols].astype(np.int64) << k) - m
            low = np.minimum.reduceat(counts, starts, axis=1)[:, :a]
            low = m - (low.astype(np.int64) << k)
            dev[:, :a] = np.maximum(dev[:, :a], np.maximum(high, low))
        bound = (dev << (klim - ks)).max(axis=1, initial=0)
        cut = bound > limit
        if cut.any():
            pruned += int(np.count_nonzero(cut))
            min_cut = min(min_cut, int(bound[cut].min()))
            keep = ~cut
            bits, counts, dev, bound = (x[keep] for x in (bits, counts, dev, bound))
        if length == n:
            if bound.size and bound.min() < best:
                best, witnesses = int(bound.min()), []
            room = cap - len(witnesses)
            witnesses += [int(w) for w in bits[bound == best][:room]]
        else:
            for i in reversed(range(0, bits.size, ROWS)):
                piece = slice(i, i + ROWS)
                stack.append((length, bits[piece], counts[piece], dev[piece]))
    return best, witnesses, min_cut, nodes, pruned


def exhaustive_min(n: int, cap: int = 16, prune: bool = True) -> SearchResult:
    """Exact minimum of the normality measure over {0,1}^n.

    With pruning on, only the e_1 = 0 half is enumerated (complementation
    preserves the measure) by walks with a rising limit: the first cuts
    every bound above 0, and while a walk reaches no leaf the next takes
    the smallest bound it cut as its limit. The limit never passes the
    minimum, so the first walk with a leaf finds exactly the minimizers,
    in lexicographic order. Without pruning, one walk with no limit
    covers both halves. Witnesses are the lexicographically smallest
    minimizers, at most `cap`, all starting with 0 under pruning (each
    one's complement attains the same value and is not listed).
    `nodes_visited` and `pruned` are summed over all walks.
    """
    n = check_search_n(n, prune)
    cap = check_int(cap, "cap", 1)
    klim = max_block_length(n)
    # the measure never exceeds n, so n << klim cuts nothing
    limit = 0 if prune else n << klim
    nodes = pruned = 0
    while True:
        best, witnesses, limit, walk_nodes, walk_pruned = _walk(
            n, klim, cap, limit, prune
        )
        nodes += walk_nodes
        pruned += walk_pruned
        if witnesses:
            break
    return SearchResult(
        n=n,
        min_value=ExactValue(best, klim),
        witnesses=tuple(BitSequence.from01(format(w, f"0{n}b")) for w in witnesses),
        nodes_visited=nodes,
        pruned=pruned,
    )


def typical_scan(n: int, samples: int, seed: int) -> ScanStats:
    """Quantiles of measure/sqrt(n) over seeded random sequences.

    Sample i draws its bits from the documented PRNG under the derived
    seed sample_seed(seed, i), output i of splitmix64 under `seed`, so the
    scan is reproducible from (n, samples, seed) alone. Quantiles use
    numpy's linear interpolation (:func:`_linear_quantiles`).
    """
    samples = check_int(samples, "samples", 1, MAX_SCAN_SAMPLES)
    n = check_int(n, "n", 1)
    seed = check_int(seed, "seed", 0, MAX_SEED)
    check_measure_n(n)
    root = math.sqrt(n)
    ratios = np.empty(samples, dtype=np.float64)
    for i, sample in enumerate(splitmix64_outputs(seed, samples)):
        seq = random_bits(int(sample), n)
        ratios[i] = float(normality_value(seq)) / root
    return ScanStats(
        n=n,
        samples=samples,
        seed=seed,
        algorithm=RANDOM_ALGORITHM,
        quantiles=_linear_quantiles(ratios),
    )


def _linear_quantiles(values: np.ndarray) -> tuple[float, ...]:
    """np.quantile(values, _QUANTILE_LEVELS), numpy's default linear
    method, bit for bit, without the numpy.ma that np.quantile imports:
    level q reads the sorted values at position (S-1)*q, the last one at
    or past S-1, else a + d*t between its floor's value a and the next,
    d apart, as b - d*(1-t) from the next, b, where t >= 0.5."""
    ranked = np.sort(values).tolist()
    top = len(ranked) - 1
    out = []
    for q in _QUANTILE_LEVELS:
        pos = top * q
        if pos >= top:
            out.append(ranked[-1])
            continue
        i = math.floor(pos)
        t = pos - i
        a, b = ranked[i], ranked[i + 1]
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return tuple(out)
