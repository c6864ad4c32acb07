"""Self-test of the benchmark, at smoke size (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs once at smoke size with the traced replay on: all
   runs must pass, every command must match its recorded reference, and
   the replays and oracle re-checks must agree with the CLI.
2. For every workload, one decision field of each command's reference is
   corrupted: then every run must fail (fail rate 1) and the result must
   say correct: false.
"""

from __future__ import annotations

import copy
import sys

import run

SEED = 1


def corrupt(value):
    """Change the first leaf of a decision-field structure."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: corrupt(value[key])}
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "?"


def main() -> int:
    wl = run.workloads_module()
    reference = run.load_reference()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in run.WORKLOADS:
        result, detail = run.run_workload(name, SEED, 0, True, wl.SMOKE, reference, probes=1)
        matched = all(c["reference"] == "match" for c in detail["checks"])
        problems = [p for c in detail["checks"] for p in c["problems"]]
        expect(
            result["correct"] and result["failed"] == 0 and matched and not problems,
            f"{name}: smoke run correct, referenced and replayed {problems}",
        )
        expect(
            detail["layers"]["cli.payload_bytes"] > 0
            and detail["spans_first_iteration"]["command"]["spans"] == len(detail["commands"]),
            f"{name}: traced replay recorded spans and counts",
        )

        bad = copy.deepcopy(reference)
        for argv in wl.commands(name, SEED, wl.SMOKE):
            key = wl.command_key(argv)
            bad[key] = corrupt(bad[key])
        result, _ = run.run_workload(name, SEED, 0, False, wl.SMOKE, bad, probes=1)
        expect(
            not result["correct"]
            and result["failed"] == result["attempted"]
            and result["metrics"]["ok_rate"]["value"] == 0,
            f"{name}: corrupted reference gives fail rate 1",
        )

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
