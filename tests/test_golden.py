"""Golden CLI corpus: the payloads of every subcommand, JSON and CSV where
the subcommand has both, must stay byte-identical to the files under
tests/golden/.

`measure` runs both evaluators on Champernowne, random:1, 1/3 and all
zeros at N = 1000 and N = 4096 (where 2^12 patterns exceed the 4085
windows of length 12), and `normality_fast` on payloads that span many
chunks of positions: random:1 at N = 2^20; Champernowne at N = 2^20,
structured digits whose top k's lack patterns, so whether all 2^k occur
is decided across chunks; and all zeros at N = 2^18 - 1, whose witness
is at the top k. `scan` runs at N = 256 and at perfbench's
N = 4096 with 200 samples. `search-min` runs n = 2..12 in both formats,
and n = 1..51, the whole range it admits, in JSON. `generate` runs four
generators.

For `discrepancy` and `verify-lemma`, the corpus covers the window widths
on both sides of every limb boundary (w = 8, 31, 32, 33, 64), three
generators, and five points files: with duplicates and the point 0, with
numerators near 2^64, a lattice whose extremes tie with the boundary
t = 0, a lattice shifted by 2^-64 whose ties fall inside the high-limb
filter's band, and points over 2^65, 2^70 and 2^100 whose extremes tie,
which take the Python-int path instead of the uint64 kernel.
`verify-lemma` also runs at 2^14 points, once with explicit checkpoints
between the powers of two and once with the default ones at w = 31, where
its envelope search prunes most prefixes.

Commands run with tests/golden/ as the working directory, so the points
paths recorded in each payload's config are relative.

Re-record only for an intended, documented payload change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from normbits.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
MEASURE_GENS = ("champernowne", "random:1", "rational:1/3", "rational:0/1")


# verify-lemma at 2^14 points: explicit checkpoints that fall between the
# powers of two (and the first three m), and the default powers of two on
# a one-limb window.
_SCALE_VERIFY = (
    (
        "verify-lemma_random2_n16384_checkpoints",
        ["verify-lemma", "--gen", "random:2", "--n", "16384", "--w", "64"]
        + ["--checkpoints", "1,2,3,1000,5000,8191,8192,12345,16384"],
    ),
    (
        "verify-lemma_champernowne_n16384_w31",
        ["verify-lemma", "--gen", "champernowne", "--n", "16384", "--w", "31"],
    ),
)


def _tag(gen: str) -> str:
    return gen.replace(":", "").replace("/", "_")


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for fmt in ("json", "csv"):
        for gen in ("champernowne", "random:1", "rational:1/3"):
            for w in (8, 31, 32, 33, 64):
                n = 200 if w == 8 else 512
                for sub in ("discrepancy", "verify-lemma"):
                    argv = [sub, "--gen", gen, "--n", str(n), "--w", str(w)]
                    argv += ["--format", fmt]
                    cases.append((f"{sub}_{_tag(gen)}_w{w}.{fmt}", argv))
        for name, argv in _SCALE_VERIFY:
            cases.append((f"{name}.{fmt}", argv + ["--format", fmt]))
        for points in (
            "points_narrow.txt",
            "points_wide.txt",
            "points_lattice.txt",
            "points_shifted_lattice.txt",
            "points_beyond64.txt",
        ):
            argv = ["discrepancy", "--points", points, "--format", fmt]
            cases.append((f"discrepancy_{Path(points).stem}.{fmt}", argv))
        for gen in MEASURE_GENS:
            for n in (1000, 4096):
                for alg in ("fast", "naive"):
                    argv = ["measure", "--gen", gen, "--n", str(n), "--format", fmt]
                    argv += ["--algorithm", alg]
                    cases.append((f"measure_{_tag(gen)}_n{n}_{alg}.{fmt}", argv))
        for gen, n in (
            ("random:1", 1 << 20),
            ("champernowne", 1 << 20),
            ("rational:0/1", (1 << 18) - 1),
        ):
            argv = ["measure", "--gen", gen, "--n", str(n), "--format", fmt]
            cases.append((f"measure_{_tag(gen)}_n{n}_fast.{fmt}", argv))
        argv = ["search-min", "--n", "2..12", "--format", fmt]
        cases.append((f"search-min_2-12.{fmt}", argv))
        for n, samples in ((256, 20), (4096, 200)):
            argv = ["scan", "--n", str(n), "--samples", str(samples), "--seed", "1"]
            argv += ["--format", fmt]
            cases.append((f"scan_n{n}_s{samples}_seed1.{fmt}", argv))
    cases.append(("search-min_1-51.json", ["search-min", "--n", "1..51"]))
    for gen in MEASURE_GENS:
        argv = ["generate", "--gen", gen, "--n", "4096"]
        cases.append((f"generate_{_tag(gen)}.txt", argv))
    return cases


def _invoke(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


CASES = _cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_payload_byte_identical(name, argv):
    code, text = _invoke(argv)
    assert code == 0
    assert text == (GOLDEN / name).read_text(encoding="ascii")


if __name__ == "__main__":
    for name, argv in CASES:
        code, text = _invoke(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(text, encoding="ascii")
        print(name)
