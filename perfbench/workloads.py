"""The normbits benchmark workloads: their CLI commands, the fields that decide
each command's answer, independent oracle re-checks of a payload, and the
traced in-process replay that splits a workload's time by layer.

The replay reaches each layer only through its public entry points
(`GeneratorSpec.bits`, `orbit_points`, `prefix_deviation_numerators`,
`extreme_discrepancy`, `normality_fast`, `exhaustive_min`,
`random_bits`/`sample_seed`, `to_json_dict`), so the spans it records sit
on layer boundaries and nothing inside the program is instrumented.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from normbits.bitcore import BitSequence, Pattern
from normbits.discrepancy import extreme_discrepancy, prefix_deviation_numerators
from normbits.generators import DigitStream, GeneratorSpec, random_bits, sample_seed
from normbits.measure import count_occurrences, normality_fast, normality_naive
from normbits.orbit import default_checkpoints, orbit_points
from normbits.search import QUANTILE_KEYS, exhaustive_min

# Sizes of the measured workloads, and of the smoke mode used by selftest.py.
FULL = {
    "measure_n": 1 << 20,
    "scan_n": 4096,
    "scan_samples": 200,
    "verify_n": 1 << 15,
    "discrepancy_n": 1 << 17,
    "search_n": "2..22",
}
SMOKE = {
    "measure_n": 1 << 12,
    "scan_n": 256,
    "scan_samples": 20,
    "verify_n": 1 << 9,
    "discrepancy_n": 1 << 10,
    "search_n": "2..10",
}

# typical_scan's quantile levels, in QUANTILE_KEYS order.
_QUANTILE_LEVELS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)

# A percentile is reported only with at least ten samples beyond it.
_P95_MIN_CALLS = 200


def commands(workload: str, seed: int, size: dict) -> list[list[str]]:
    """The CLI argument lists of one iteration of the workload."""
    if workload == "measure":
        return [["measure", "--gen", f"random:{seed}", "--n", str(size["measure_n"])]]
    if workload == "scan":
        n, samples = size["scan_n"], size["scan_samples"]
        return [["scan", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]]
    if workload == "orbit":
        n, points = str(size["verify_n"]), str(size["discrepancy_n"])
        return [
            ["verify-lemma", "--gen", "champernowne", "--n", n, "--w", "64"],
            ["verify-lemma", "--gen", f"random:{seed}", "--n", n, "--w", "31"],
            ["discrepancy", "--gen", f"random:{seed}", "--n", points, "--w", "64"],
        ]
    if workload == "search":
        return [["search-min", "--n", size["search_n"]]]
    raise ValueError(f"unknown workload {workload!r}")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _pair(d: dict, num: str, den: str) -> list[int]:
    return [d[num], d[den]]


# -- decision fields ------------------------------------------------------


def decision_fields(payload: dict) -> dict:
    """The fields of a CLI payload that decide its answer.

    Search node and prune counts are left out (they are diagnostics a
    faster search may change), and so is any field not named here, so
    additive payload fields never break the comparison.
    """
    sub = payload["config"]["subcommand"]
    if sub == "measure":
        r = payload["report"]
        return {k: r[k] for k in ("value_num", "value_log2_den", "k", "pattern", "M", "T")}
    if sub == "discrepancy":
        r = payload["report"]
        w = r["witness"]
        return {
            "extreme": _pair(r, "extreme_num", "extreme_den"),
            "star": _pair(r, "star_num", "star_den"),
            "a": _pair(w["a"], "num", "den"),
            "a_side": w["a_side"],
            "b": _pair(w["b"], "num", "den"),
            "b_side": w["b_side"],
        }
    if sub == "verify-lemma":
        r = payload["report"]
        return {
            "overall_pass": r["overall_pass"],
            "checkpoints": [
                {
                    "n": c["n"],
                    "normality": _pair(c["normality"], "num", "log2_den"),
                    "phi": _pair(c["phi"], "num", "den"),
                    "pass": c["pass"],
                }
                for c in r["checkpoints"]
            ],
        }
    if sub == "search-min":
        return {
            "reports": [
                {
                    "n": r["n"],
                    "min": _pair(r, "min_num", "min_log2_den"),
                    "witnesses": r["witnesses"],
                }
                for r in payload["reports"]
            ]
        }
    if sub == "scan":
        return {"quantiles": payload["report"]["quantiles"]}
    raise ValueError(f"unknown subcommand {sub!r}")


# -- oracle re-checks -----------------------------------------------------


def oracle_problems(argv: list[str], payload: dict) -> list[str]:
    """Re-check a CLI payload with code independent of the fast paths.

    Returns a description of every check that fails (empty when all hold).
    """
    sub = argv[0]
    if sub == "measure":
        return _check_measure_witness(argv, payload["report"])
    if sub == "discrepancy":
        return _check_discrepancy_witness(argv, payload["report"])
    if sub == "verify-lemma":
        r = payload["report"]
        failed = [c["n"] for c in r["checkpoints"] if not c["pass"]]
        if failed or not r["overall_pass"]:
            return [f"verify: checkpoints {failed} fail"]
        return []
    if sub == "search-min":
        return _check_search_witnesses(payload["reports"])
    if sub == "scan":
        qs = [payload["report"]["quantiles"][k] for k in QUANTILE_KEYS]
        if qs != sorted(qs) or qs[0] <= 0:
            return [f"scan: quantiles {qs} not positive and nondecreasing"]
        return []
    raise ValueError(f"unknown subcommand {sub!r}")


def _check_measure_witness(argv: list[str], r: dict) -> list[str]:
    """Recount T with count_occurrences; |2^k T - M| / 2^k must be the value."""
    seq = GeneratorSpec.parse(_option(argv, "--gen")).bits(int(_option(argv, "--n")))
    k, m = r["k"], r["M"]
    t = count_occurrences(seq, m, Pattern.from01(r["pattern"]))
    value = Fraction(r["value_num"], 1 << r["value_log2_den"])
    per_k = max(Fraction(e["num"], 1 << e["log2_den"]) for e in r["per_k"])
    problems = []
    if t != r["T"]:
        problems.append(f"measure: witness count {r['T']} but recount gives {t}")
    if Fraction(abs((t << k) - m), 1 << k) != value:
        problems.append(f"measure: witness deviation differs from value {value}")
    if per_k != value:
        problems.append(f"measure: largest per-k value {per_k} is not the value {value}")
    return problems


def _check_discrepancy_witness(argv: list[str], r: dict) -> list[str]:
    """Recount the points in the witness interval, respecting its sides.

    A "left-limit" endpoint sits exactly at its value and a "right-limit"
    one just above it, so [a, b) contains y when y >= a (y > a for a
    right-limit a) and y < b (y <= b for a right-limit b).
    """
    n, w = int(_option(argv, "--n")), int(_option(argv, "--w"))
    spec = GeneratorSpec.parse(_option(argv, "--gen"))
    nums, _ = orbit_points(spec.stream(), n, w).dyadic_view()
    wit = r["witness"]
    a = Fraction(wit["a"]["num"], wit["a"]["den"])
    b = Fraction(wit["b"]["num"], wit["b"]["den"])
    a_int, b_int = int(a * (1 << w)), int(b * (1 << w))
    a_open = wit["a_side"] == "right-limit"
    b_closed = wit["b_side"] == "right-limit"
    inside = sum(
        1
        for y in nums.tolist()
        if (y > a_int if a_open else y >= a_int) and (y <= b_int if b_closed else y < b_int)
    )
    extreme = Fraction(r["extreme_num"], r["extreme_den"])
    star = Fraction(r["star_num"], r["star_den"])
    problems = []
    if abs(Fraction(inside, n) - (b - a)) != extreme:
        problems.append(f"discrepancy: witness [a, b) holds {inside} points, not extreme")
    if not 0 < star <= extreme:
        problems.append(f"discrepancy: star {star} not in (0, extreme {extreme}]")
    return problems


def _check_search_witnesses(reports: list[dict]) -> list[str]:
    """Re-measure every witness with the naive oracle."""
    problems = []
    for r in reports:
        minimum = Fraction(r["min_num"], 1 << r["min_log2_den"])
        if not r["witnesses"]:
            problems.append(f"search: n={r['n']} has no witness")
        for w in r["witnesses"]:
            value = normality_naive(BitSequence.from01(w)).value.as_fraction()
            if len(w) != r["n"] or value != minimum:
                problems.append(f"search: witness {w} measures {value}, not {minimum}")
    return problems


# -- tracing and replay ---------------------------------------------------


class Tracer:
    """In-memory spans and counters of one traced replay.

    A span is [name, start, end, parent index]; parents are the enclosing
    spans, so a layer's self time is its duration minus its children's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def summary(self) -> dict:
        """Per span name: how many, total seconds, and self seconds."""
        out: dict = {}
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out


def _bits(tr: Tracer, gen: str, n: int) -> BitSequence:
    with tr.span("generators.bits"):
        seq = GeneratorSpec.parse(gen).bits(n)
    tr.count("generators.digits", n)
    return seq


def _measure(tr: Tracer, seq: BitSequence):
    with tr.span("measure.fast"):
        report = normality_fast(seq)
    tr.count("measure.calls")
    tr.count("measure.digits", len(seq))
    return report


def _serialize(tr: Tracer, cli_payload: dict, body: dict) -> str:
    """Re-encode the payload the way the CLI does, from the replayed body."""
    with tr.span("cli.serialize"):
        body = {k: _json_dict(v) for k, v in body.items()}
        return json.dumps({"config": cli_payload["config"], **body}, indent=2) + "\n"


def _json_dict(value):
    if isinstance(value, list):
        return [_json_dict(v) for v in value]
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


def _replay_measure(tr, argv, cli):
    seq = _bits(tr, _option(argv, "--gen"), int(_option(argv, "--n")))
    return _serialize(tr, cli, {"report": _measure(tr, seq)})


def _replay_discrepancy(tr, argv, cli):
    gen = _option(argv, "--gen")
    n, w = int(_option(argv, "--n")), int(_option(argv, "--w"))
    digits = _bits(tr, gen, n + w - 1)
    with tr.span("orbit.points"):
        points = orbit_points(DigitStream(gen, digits.prefix), n, w)
    tr.count("orbit.points", n)
    with tr.span("discrepancy.extreme"):
        report = extreme_discrepancy(points)
    tr.count("discrepancy.points", n)
    return _serialize(tr, cli, {"report": report})


def _replay_search(tr, argv, cli):
    lo, _, hi = _option(argv, "--n").partition("..")
    reports = []
    for n in range(int(lo), int(hi or lo) + 1):
        with tr.span("search.exhaustive"):
            result = exhaustive_min(n)
        tr.count("search.nodes_visited", result.nodes_visited)
        tr.count("search.pruned", result.pruned)
        reports.append(result)
    return _serialize(tr, cli, {"reports": reports})


def _replay_verify(tr, argv, cli):
    """What lemma1_verify does, through public calls: digits, orbit points,
    the prefix engine, a running maximum, then the measure of each default
    checkpoint's digit prefix."""
    gen = _option(argv, "--gen")
    n, w = int(_option(argv, "--n")), int(_option(argv, "--w"))
    digits = _bits(tr, gen, n + w - 1)
    with tr.span("orbit.points"):
        points = orbit_points(DigitStream(gen, digits.prefix), n, w)
    tr.count("orbit.points", n)
    nums, _ = points.dyadic_view()
    with tr.span("discrepancy.prefix_engine" if w > 31 else "discrepancy.prefix_engine_w31"):
        dnums = prefix_deviation_numerators(nums, w)
    tr.count("discrepancy.prefix_steps", n)
    with tr.span("orbit.envelope"):
        envelope = list(itertools.accumulate(dnums, max))
    checkpoints = []
    for m in default_checkpoints(n):
        value = _measure(tr, digits.prefix(m)).value
        phi = Fraction(envelope[m - 1], 1 << w)
        checkpoints.append(
            {
                "n": m,
                "normality": [value.num, value.log2_den],
                "phi": [phi.numerator, phi.denominator],
                "pass": phi >= value.as_fraction(),
            }
        )
    replayed = {"overall_pass": all(c["pass"] for c in checkpoints), "checkpoints": checkpoints}
    if replayed != decision_fields(cli):
        raise ReplayMismatch(f"{command_key(argv)}: replayed checkpoints differ from the CLI")
    return _serialize(tr, cli, {"report": cli["report"]})


def _replay_scan(tr, argv, cli):
    """What typical_scan does: random_bits(sample_seed(S, i), n), then the
    measure, then numpy quantiles of measure / sqrt(n)."""
    n, samples = int(_option(argv, "--n")), int(_option(argv, "--samples"))
    seed = int(_option(argv, "--seed"))
    ratios = np.empty(samples, dtype=np.float64)
    for i in range(samples):
        with tr.span("generators.bits"):
            seq = random_bits(sample_seed(seed, i), n)
        tr.count("generators.digits", n)
        ratios[i] = float(_measure(tr, seq).value) / math.sqrt(n)
    quantiles = [float(q) for q in np.quantile(ratios, _QUANTILE_LEVELS)]
    if {"quantiles": dict(zip(QUANTILE_KEYS, quantiles))} != decision_fields(cli):
        raise ReplayMismatch(f"{command_key(argv)}: replayed quantiles differ from the CLI")
    return _serialize(tr, cli, {"report": cli["report"]})


class ReplayMismatch(Exception):
    """The traced replay did not reproduce the CLI's answer."""


_REPLAYS = {
    "measure": _replay_measure,
    "discrepancy": _replay_discrepancy,
    "search-min": _replay_search,
    "verify-lemma": _replay_verify,
    "scan": _replay_scan,
}


def replay(tr: Tracer, argv: list[str], cli_stdout: str) -> None:
    """Replay one CLI command in-process under spans; raise ReplayMismatch
    unless the re-encoded payload is byte-identical to the CLI's."""
    with tr.span("command"):
        text = _REPLAYS[argv[0]](tr, argv, json.loads(cli_stdout))
    tr.count("cli.payload_bytes", len(text.encode()))
    if text != cli_stdout:
        raise ReplayMismatch(f"{command_key(argv)}: replayed payload differs from the CLI")


LAYER_SPANS = (
    "generators.bits",
    "orbit.points",
    "orbit.envelope",
    "discrepancy.prefix_engine",
    "discrepancy.prefix_engine_w31",
    "discrepancy.extreme",
    "measure.fast",
    "search.exhaustive",
    "cli.serialize",
)

COUNTS = (
    "generators.digits",
    "orbit.points",
    "discrepancy.prefix_steps",
    "discrepancy.points",
    "measure.calls",
    "measure.digits",
    "search.nodes_visited",
    "search.pruned",
    "cli.payload_bytes",
)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer seconds and counts of a replay, keyed by metric name."""
    out = {f"{name}_s": tr.total(name) for name in LAYER_SPANS}
    out.update({name: tr.counts[name] for name in COUNTS})
    calls_ms = [1000 * d for d in tr.durations("measure.fast")]
    enough = len(calls_ms) >= _P95_MIN_CALLS
    out["measure.call_p50_ms"] = float(np.percentile(calls_ms, 50)) if enough else 0.0
    out["measure.call_p95_ms"] = float(np.percentile(calls_ms, 95)) if enough else 0.0
    visited = tr.counts["search.nodes_visited"]
    out["search.prune_ratio"] = tr.counts["search.pruned"] / visited if visited else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
