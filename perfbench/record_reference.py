"""Record the reference decision fields that run.py compares payloads with.

    python3 perfbench/record_reference.py

Runs every command the benchmark can issue for seeds 0..31 at full size,
and for seeds 1 and 2 at smoke size, and writes perfbench/reference.json.
Seed 1 is the default seed and seed 2 the held-out one; the other seeds
cover the seeds a series of runs is likely to use. The file was recorded
from the commit that introduced the benchmark. Record it again only from
that commit, never from a change under test, or the check would compare
the change with itself.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run

SEEDS = range(32)
SMOKE_SEEDS = (1, 2)
WORKERS = 2


def all_commands(wl) -> list[list[str]]:
    cmds = []
    for name in run.WORKLOADS:
        for seed in SEEDS:
            cmds += wl.commands(name, seed, wl.FULL)
        for seed in SMOKE_SEEDS:
            cmds += wl.commands(name, seed, wl.SMOKE)
    unique = {wl.command_key(argv): argv for argv in cmds}
    return list(unique.values())


def record(wl, argv: list[str], env: dict) -> dict:
    child = run.spawn(run.CLI + argv, env, timeout=600)
    if child.code != 0:
        raise RuntimeError(f"{argv}: exit {child.code}: {child.stderr.strip()}")
    payload = json.loads(child.stdout)
    problems = wl.oracle_problems(argv, payload)
    if problems:
        raise RuntimeError(f"{argv}: {problems}")
    return wl.decision_fields(payload)


def main() -> int:
    wl = run.workloads_module()
    env = run.child_env()
    cmds = all_commands(wl)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        fields = list(pool.map(lambda argv: record(wl, argv, env), cmds))
    reference = {
        "commands": {wl.command_key(argv): f for argv, f in zip(cmds, fields)},
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(cmds)} commands to {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
