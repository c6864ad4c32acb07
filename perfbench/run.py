"""Benchmark of the normbits CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload measure --seed 1 --seconds 25 --trace 0

For `--seconds` it runs whole iterations of the workload's CLI commands,
each as a fresh `python -m normbits.cli` subprocess, one at a time, and
checks every payload. With `--trace 0` the result holds the end-to-end
metrics; with `--trace 1` each iteration is followed by a traced
in-process replay of the same commands, and the result holds the
per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the JSON before it records the environment, every
sample and every check. perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 7
COMMAND_TIMEOUT_S = 60.0

CLI = [sys.executable, "-m", "normbits.cli"]
IMPORT_PROBE = [sys.executable, "-c", "import normbits.cli"]

WORKLOADS = ("measure", "scan", "orbit", "search")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s", "ok_rate": "ratio"}


def workloads_module():
    """Import perfbench/workloads.py, which imports normbits from SRC."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import normbits
    import workloads

    if not Path(normbits.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"normbits imported from {normbits.__file__}, not {SRC}")
    return workloads


def child_env() -> dict:
    """The whole environment of every child: fixed, so that both sides of a
    comparison run under the same one. BLAS threads are pinned to one, as
    nothing in normbits uses BLAS and idle pools add noise."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def environment(env: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "child_env": env,
        "max_concurrent_children": 1,
    }


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    code: int
    timed_out: bool
    stdout: str
    stderr: str


def spawn(argv: list, env: dict, timeout: float = COMMAND_TIMEOUT_S) -> Child:
    """Run one child to its end; wall time from spawn to reaped exit, CPU
    time and peak RSS from wait4. A child past `timeout` is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    timed_out = False
    deadline = start + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = None if timed_out else max(0.0, deadline - time.perf_counter())
            events = sel.select(left)
            if not events and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    out[key.fd] += data
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out[proc.stdout.fileno()].decode("utf-8", "replace")
    stderr = out[proc.stderr.fileno()].decode("utf-8", "replace")
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        code=proc.returncode,
        timed_out=timed_out,
        stdout=stdout,
        stderr=stderr,
    )


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def check_command(wl, argv: list, runs: list, reference: dict) -> dict:
    """Check every run of one command.

    A run fails when it exits nonzero, times out, or prints a payload that
    differs from the command's first good payload. All runs fail when that
    payload's decision fields differ from the recorded reference, or an
    oracle re-check of it fails.
    """
    key = wl.command_key(argv)
    good = next((r for r in runs if r.code == 0 and not r.timed_out), None)
    problems = []
    payload = None
    if good is None:
        problems.append(f"no successful run; last stderr: {runs[-1].stderr.strip()[-300:]}")
    else:
        try:
            payload = json.loads(good.stdout)
        except ValueError as exc:
            problems.append(f"payload is not JSON: {exc}")
    status = "none"
    if payload is not None:
        try:
            fields = wl.decision_fields(payload)
            problems += wl.oracle_problems(argv, payload)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"checking the payload raised {exc!r}")
            fields = None
        if key in reference:
            status = "match" if fields == reference[key] else "mismatch"
            if status == "mismatch":
                problems.append("decision fields differ from the recorded reference")
    return {
        "command": key,
        "reference": status,
        "problems": problems,
        "run_ok": [
            good is not None and r.code == 0 and not r.timed_out and r.stdout == good.stdout
            for r in runs
        ],
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: dict | None = None,
    reference: dict | None = None,
    probes: int = SETUP_PROBES,
) -> tuple[dict, dict]:
    """Measure one workload; return (result line, detail record)."""
    wl = workloads_module()
    size = wl.FULL if size is None else size
    reference = load_reference() if reference is None else reference
    env = child_env()
    cmds = wl.commands(workload, seed, size)

    # The first import writes the bytecode caches, as an install would.
    spawn(IMPORT_PROBE, env)
    setup = [spawn(IMPORT_PROBE, env) for _ in range(probes)]

    # Whole iterations, as many as end nearest to `seconds` after the start.
    # With tracing, each iteration's CLI runs are followed by a traced
    # replay of the same commands, so that both see the same machine state.
    iterations, tracers, replay_problems = [], [], {}
    start = time.perf_counter()
    elapsed = 0.0
    while not iterations or elapsed + elapsed / len(iterations) / 2 < seconds:
        runs = [spawn(CLI + argv, env) for argv in cmds]
        iterations.append(runs)
        if trace:
            tr = wl.Tracer()
            for argv, child in zip(cmds, runs):
                if child.code != 0:
                    continue
                try:
                    wl.replay(tr, argv, child.stdout)
                except Exception as exc:  # a broken program fails its check, not the run
                    replay_problems.setdefault(wl.command_key(argv), f"replay: {exc!r}")
            tracers.append(tr)
        elapsed = time.perf_counter() - start

    checks = [
        check_command(wl, argv, [it[j] for it in iterations], reference)
        for j, argv in enumerate(cmds)
    ]
    for check in checks:
        if check["command"] in replay_problems:
            check["problems"].append(replay_problems[check["command"]])

    walls = [sum(c.wall_s for c in it) for it in iterations]
    cpus = [sum(c.cpu_s for c in it) for it in iterations]
    rss = [max(c.maxrss_kib for c in it) / 1024 for it in iterations]
    setup_s = statistics.median([p.wall_s for p in setup])
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": statistics.median(rss),
        "setup_s": setup_s,
    }

    per_iteration = []
    for tr, wall in zip(tracers, walls):
        untraced = wall - len(cmds) * setup_s
        layers = wl.layer_metrics(tr)
        layers["trace.overhead_s"] = tr.total("command") - untraced
        covered = sum(tr.total(n) for n in wl.LAYER_SPANS)
        layers["trace.coverage"] = covered / untraced if untraced > 0 else 0.0
        per_iteration.append(layers)
    layers = {}
    for name in per_iteration[0] if per_iteration else ():
        values = [it[name] for it in per_iteration]
        layers[name] = values[0] if name in wl.COUNTS else statistics.median(values)
    counts_repeat = all(
        it[name] == per_iteration[0][name] for it in per_iteration for name in wl.COUNTS
    )

    attempted = sum(len(c["run_ok"]) for c in checks)
    failed = sum(
        len(c["run_ok"]) if c["problems"] else c["run_ok"].count(False) for c in checks
    )
    end_to_end["ok_rate"] = (attempted - failed) / attempted

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": E2E_UNITS.get(name) or wl.layer_unit(name)}
            for name, value in (layers if trace else end_to_end).items()
        },
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(env),
        "commands": [wl.command_key(argv) for argv in cmds],
        "samples": {
            "iterations": len(iterations),
            "setup_s": [p.wall_s for p in setup],
            "wall_s": walls,
            "cpu_s": cpus,
            "peak_rss_mib": rss,
            "command_wall_s": [[c.wall_s for c in it] for it in iterations],
        },
        "end_to_end": end_to_end,
        "checks": checks,
        "layers": layers,
        "counts_repeat_across_iterations": counts_repeat,
        "spans_first_iteration": tracers[0].summary() if tracers else {},
    }
    return result, detail


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS,
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "normbits" / "cli.py").is_file():
        print(f"error: no normbits source tree at {SRC}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
