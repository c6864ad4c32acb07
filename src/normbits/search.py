"""Exhaustive minimization of the normality measure over all length-n
binary sequences, and Monte Carlo scans of its typical size.

The search walks the binary prefix tree depth-first, maintaining for each
admissible block length k the per-pattern occurrence counts, a
count-of-counts histogram giving the minimum count in O(1) amortized, and
the running maximum deviation over the windows settled so far. Deviation
terms already fixed by a prefix lower-bound the measure of every extension
(k is always taken from the *target* length's range), and the bound only
grows along a path. A walk cuts a branch once its bound strictly exceeds
the walk's limit, and records the smallest bound it cut. The first walk
has limit 0; while a walk reaches no leaf, the next one takes the smallest
cut bound as its limit. Every leaf lies below some cut of the previous
walk, so the limit never passes the minimum, and the strict cut keeps
every minimum-attaining leaf reachable: the first walk that reaches a leaf
reaches all minimizers, in lexicographic order, which makes the reported
witness list complete up to the cap. With pruning enabled only sequences
starting with 0 are enumerated, since complementing every bit permutes the
patterns of each length and leaves all deviations unchanged.

At a leaf every deviation term is settled, so the bound *is* the exact
measure; no separate evaluation pass is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import BitSequence, ExactValue
from .generators import RANDOM_ALGORITHM, random_bits, splitmix64_outputs
from .measure import check_measure_n, max_block_length, normality_value

__all__ = ["SearchResult", "ScanStats", "exhaustive_min", "typical_scan"]

MAX_SEARCH_N = 51
MAX_SCAN_SAMPLES = 1 << 24

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
            "min_num": self.min_value.num,
            "min_log2_den": self.min_value.log2_den,
            "min_decimal": self.min_value.decimal(),
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


class _KState:
    """Incremental per-k pass: counts, count histogram, running deviation."""

    __slots__ = ("k", "mask", "counts", "hist", "minc", "maxdev")

    def __init__(self, k: int, n: int):
        self.k = k
        self.mask = (1 << k) - 1
        self.counts = [0] * (1 << k)
        hist = [0] * (n + 2)
        hist[0] = 1 << k
        self.hist = hist
        self.minc = 0
        self.maxdev = 0

    def push(self, window: int, m: int) -> tuple[int, int, int]:
        token = (window, self.minc, self.maxdev)
        c = self.counts[window]
        self.counts[window] = c + 1
        hist = self.hist
        hist[c] -= 1
        hist[c + 1] += 1
        if c == self.minc and hist[c] == 0:
            self.minc = c + 1
        d = ((c + 1) << self.k) - m
        if d > self.maxdev:
            self.maxdev = d
        d = m - (self.minc << self.k)
        if d > self.maxdev:
            self.maxdev = d
        return token

    def pop(self, token: tuple[int, int, int]) -> None:
        window, minc, maxdev = token
        c = self.counts[window] - 1
        self.counts[window] = c
        self.hist[c + 1] -= 1
        self.hist[c] += 1
        self.minc = minc
        self.maxdev = maxdev


class _Task:
    """One depth-first walk that cuts every branch whose bound exceeds
    `limit`; exact arithmetic on the 2^klim denominator."""

    def __init__(self, n: int, klim: int, cap: int, limit: int):
        self.n = n
        self.klim = klim
        self.cap = cap
        self.limit = limit
        self.kstates = [_KState(k, n) for k in range(1, klim + 1)]
        self.acc = 0
        self.best = (n << klim) + 1
        self.witnesses: list[int] = []
        self.min_cut = (n << klim) + 1
        self.nodes = 0
        self.pruned = 0

    def _push(self, bit: int, new_len: int) -> list:
        self.acc = (self.acc << 1) | bit
        self.nodes += 1
        tokens = []
        for st in self.kstates:
            if new_len >= st.k:
                tokens.append(st.push(self.acc & st.mask, new_len - st.k + 1))
            else:
                tokens.append(None)
        return tokens

    def _pop(self, tokens: list) -> None:
        self.acc >>= 1
        for st, token in zip(self.kstates, tokens):
            if token is not None:
                st.pop(token)

    def _bound(self) -> int:
        klim = self.klim
        best = 0
        for st in self.kstates:
            d = st.maxdev << (klim - st.k)
            if d > best:
                best = d
        return best

    def _leaf(self, value: int) -> None:
        if value < self.best:
            self.best = value
            self.witnesses = [self.acc]
        elif value == self.best and len(self.witnesses) < self.cap:
            self.witnesses.append(self.acc)

    def descend(self, length: int, bits: tuple[int, ...] = (0, 1)) -> None:
        for bit in bits:
            tokens = self._push(bit, length + 1)
            bound = self._bound()
            if bound > self.limit:
                self.pruned += 1
                self.min_cut = min(self.min_cut, bound)
            elif length + 1 == self.n:
                self._leaf(bound)
            else:
                self.descend(length + 1)
            self._pop(tokens)


def check_search_n(n: int) -> None:
    if not 1 <= n <= MAX_SEARCH_N:
        raise ValueError(f"n={n} outside [1, {MAX_SEARCH_N}]")


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
    check_search_n(n)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    klim = max_block_length(n)
    # the measure never exceeds n, so n << klim cuts nothing
    limit = 0 if prune else n << klim
    nodes = pruned = 0
    while True:
        task = _Task(n, klim, cap, limit)
        task.descend(0, (0,) if prune else (0, 1))
        nodes += task.nodes
        pruned += task.pruned
        if task.witnesses:
            break
        limit = task.min_cut
    return SearchResult(
        n=n,
        min_value=ExactValue(task.best, klim),
        witnesses=tuple(
            BitSequence.from01(format(w, f"0{n}b")) for w in task.witnesses
        ),
        nodes_visited=nodes,
        pruned=pruned,
    )


def typical_scan(n: int, samples: int, seed: int) -> ScanStats:
    """Quantiles of measure/sqrt(n) over seeded random sequences.

    Sample i draws its bits from the documented PRNG under the derived
    seed sample_seed(seed, i), output i of splitmix64 under `seed`, so the
    scan is reproducible from (n, samples, seed) alone. Quantiles use
    numpy's linear interpolation.
    """
    if not 1 <= samples <= MAX_SCAN_SAMPLES:
        raise ValueError(f"samples={samples} outside [1, 2^24]")
    if n < 1:
        raise ValueError("n must be >= 1")
    check_measure_n(n)
    root = math.sqrt(n)
    ratios = np.empty(samples, dtype=np.float64)
    for i, sample in enumerate(splitmix64_outputs(seed, samples)):
        seq = random_bits(int(sample), n)
        ratios[i] = float(normality_value(seq)) / root
    qs = np.quantile(ratios, _QUANTILE_LEVELS)
    return ScanStats(
        n=n,
        samples=samples,
        seed=seed,
        algorithm=RANDOM_ALGORITHM,
        quantiles=tuple(float(q) for q in qs),
    )
