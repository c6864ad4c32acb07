import json

import pytest

from normbits import cli, search
from normbits.cli import run


@pytest.fixture
def cap(capsys):
    def invoke(args):
        code = run(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestMeasure:
    def test_bits_json(self, cap):
        code, out, _ = cap(["measure", "--bits", "0110"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["value_decimal"] == "0.75"
        assert payload["config"]["subcommand"] == "measure"

    def test_invalid_digit_exit_2(self, cap):
        code, _, err = cap(["measure", "--bits", "012"])
        assert code == 2
        assert err.startswith("error:")

    def test_naive_algorithm(self, cap):
        code, out, _ = cap(["measure", "--bits", "0110", "--algorithm", "naive"])
        assert code == 0
        assert json.loads(out)["report"]["value_num"] == 3

    def test_generator_source(self, cap):
        code, out, _ = cap(["measure", "--gen", "rational:1/3", "--n", "8"])
        assert code == 0
        assert json.loads(out)["report"]["value_num"] == 19

    def test_input_file(self, cap, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01 10\n")
        code, out, _ = cap(["measure", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["config"]["n"] == 4

    def test_hex_file_both_routes(self, cap, tmp_path):
        path = tmp_path / "h16.txt"
        path.write_text("hex:6996/16\n")
        code, out, _ = cap(["measure", "--input", str(path)])
        assert code == 0
        via_input = json.loads(out)["report"]
        code, out, err = cap(["measure", "--gen", f"file:{path}", "--n", "16"])
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == via_input
        expected = json.loads(cap(["measure", "--bits", "0110100110010110"])[1])
        assert via_input == expected["report"]

    def test_requires_one_source(self, cap):
        assert cap(["measure"])[0] == 2
        assert cap(["measure", "--bits", "01", "--gen", "random:1"])[0] == 2
        assert cap(["measure", "--gen", "random:1"])[0] == 2  # missing --n

    def test_inline_cap(self, cap):
        code, _, err = cap(["measure", "--bits", "0" * ((1 << 16) + 1)])
        assert code == 2
        assert "--input" in err

    def test_csv(self, cap):
        code, out, _ = cap(["measure", "--bits", "0110", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "kind,k,pattern,M,T,num,log2_den,decimal"
        assert lines[2].startswith("max,2,00,3,0,3,2,")


class TestDiscrepancy:
    def test_points_file(self, cap, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("4/2^4\n12/2^4\n")
        code, out, _ = cap(["discrepancy", "--points", str(path)])
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["extreme_num"], rep["extreme_den"]) == (1, 2)

    def test_generator_orbit(self, cap):
        code, out, _ = cap(["discrepancy", "--gen", "rational:1/3", "--n", "8", "--w", "16"])
        assert code == 0
        assert json.loads(out)["report"]["n"] == 8

    def test_malformed_points(self, cap, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("nonsense\n")
        assert cap(["discrepancy", "--points", str(path)])[0] == 2

    def test_missing_file(self, cap):
        assert cap(["discrepancy", "--points", "/nonexistent/p.txt"])[0] == 2

    @pytest.mark.parametrize("w", ["4097", "1000000000000"])
    def test_points_exponent_bounded_before_power(self, cap, tmp_path, w):
        path = tmp_path / "pts.txt"
        path.write_text(f"1/2^4\n1/2^{w}\n")
        code, out, err = cap(["discrepancy", "--points", str(path)])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {path}:2: w={w} exceeds 4096"]

    def test_csv(self, cap, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1/2^1\n")
        code, out, _ = cap(["discrepancy", "--points", str(path), "--format", "csv"])
        assert code == 0
        assert "stat,num,den,decimal" in out


@pytest.mark.parametrize("subcommand", ["discrepancy", "verify-lemma"])
def test_short_file_stream_names_needed_digits(cap, tmp_path, subcommand):
    path = tmp_path / "h16.txt"
    path.write_text("hex:6996/16\n")
    argv = [subcommand, "--gen", f"file:{path}", "--n", "10", "--w", "14"]
    code, out, err = cap(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "16 < 23 digits" in err
    assert "10 orbit points of 14 bits need n + w - 1 = 23 digits" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--input", "{path}"],
        ["measure", "--gen", "file:{path}", "--n", "4"],
        ["discrepancy", "--points", "{path}"],
    ],
    ids=["input", "gen-file", "points"],
)
def test_non_ascii_file_names_path(cap, tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff0110\n")
    code, out, err = cap([a.format(path=path) for a in argv])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path}: non-ASCII byte 0xff"]


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--input", "{path}"],
        ["measure", "--gen", "file:{path}", "--n", "4"],
        ["discrepancy", "--gen", "file:{path}", "--n", "4", "--w", "8"],
        ["discrepancy", "--points", "{path}"],
    ],
    ids=["input", "gen-file", "discrepancy-gen-file", "points"],
)
def test_missing_file_one_message(cap, tmp_path, argv):
    path = tmp_path / "missing.txt"
    code, out, err = cap([a.format(path=path) for a in argv])
    assert (code, out) == (2, "")
    # every route opens the file through read_ascii, so the line is the same
    expected = cap(["measure", "--input", str(path)])[2]
    assert err == expected
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search-min", "--n", "3", "--threads", "2"],
        ["search-min", "--n", "3", "--threads", "0"],
        ["search-min", "--n", "3", "--threads", "-1"],
        ["search-min", "--n", "3", "--split-depth", "3"],
        ["search-min", "--n", "3", "--split-depth", "0"],
        ["search-min", "--n", "3", "--split-depth", "-2"],
        ["verify-lemma", "--gen", "rational:1/3", "--n", "8", "--w", "16",
         "--threads", "2"],
    ],
    ids=[
        "search-min_threads",
        "search-min_threads_0",
        "search-min_threads_-1",
        "search-min_split-depth",
        "search-min_split-depth_0",
        "search-min_split-depth_-2",
        "verify-lemma_threads",
    ],
)
def test_removed_flag_exit_2(cap, argv):
    code, out, err = cap(argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


@pytest.mark.parametrize("text", ["2..", "..3", "a", "2..3..4", ""])
def test_search_malformed_n_names_flag(cap, text):
    code, out, err = cap(["search-min", "--n", text])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: --n must be N or A..B, got {text!r}"]


@pytest.mark.parametrize("text,bad", [("29..52", 52), ("0..3", 0), ("60", 60)])
def test_search_range_checked_before_searching(cap, monkeypatch, text, bad):
    def fail(*args, **kwargs):
        raise AssertionError("exhaustive_min called")

    monkeypatch.setattr(cli, "exhaustive_min", fail)
    code, out, err = cap(["search-min", "--n", text])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: n={bad} outside [1, 51]"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["measure", "--gen", "random:1", "--n", str((1 << 30) + 1)],
         "sequence length 1073741825 exceeds the measure's limit 2^30"),
        (["scan", "--n", str((1 << 30) + 1), "--samples", "1", "--seed", "0"],
         "sequence length 1073741825 exceeds the measure's limit 2^30"),
        (["verify-lemma", "--gen", "random:1", "--n", str(1 << 26)],
         "prefix engine supports fewer than 2^26 points"),
        (["discrepancy", "--gen", "random:1", "--n", str(1 << 31), "--w", "64"],
         "discrepancy supports fewer than 2^31 points"),
        (["generate", "--gen", "random:1", "--n", str((1 << 30) + 1)],
         "sequence length 1073741825 exceeds the measure's limit 2^30"),
    ],
    ids=["measure", "scan", "verify-lemma", "discrepancy", "generate"],
)
def test_limits_checked_before_generating(cap, monkeypatch, argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("digits generated")

    monkeypatch.setattr(cli.GeneratorSpec, "bits", fail)
    monkeypatch.setattr(search, "random_bits", fail)
    code, out, err = cap(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


# Each argv is malformed; "{dir}" is a directory and "{missing}" a missing
# file. Argparse refuses the first list with its usage text; run() refuses
# the second.
_ARGPARSE_REFUSES = [
    ["measure", "--gen", "random:1", "--n", "x"],
    ["measure", "--bits", "01", "--format", "xml"],
    ["measure", "--bits", "01", "--algorithm", "slow"],
    ["search-min", "--n", "3", "--cap", "x"],
    ["scan", "--n", "x", "--samples", "1", "--seed", "1"],
    ["scan", "--n", "8", "--samples", "1"],
    ["generate", "--gen", "champernowne"],
]
_RUN_REFUSES = [
    ["measure", "--gen", "bogus", "--n", "8"],
    ["measure", "--gen", "champernowne:1", "--n", "8"],
    ["measure", "--gen", "rational:1/0", "--n", "8"],
    ["measure", "--gen", "rational:3/2", "--n", "8"],
    ["measure", "--gen", "random:", "--n", "8"],
    ["measure", "--gen", "file:", "--n", "8"],
    ["measure", "--gen", "file:{missing}", "--n", "8"],
    ["measure", "--gen", "file:{dir}", "--n", "8"],
    ["measure", "--input", "{dir}"],
    ["measure", "--gen", "random:1", "--n", "-1"],
    ["measure", "--bits", "012"],
    ["measure", "--bits", "hex:zz/4"],
    ["measure", "--bits", "hex:1/9"],
    ["measure", "--bits", "01", "--output", "{dir}"],
    ["measure", "--bits", "01", "--output", "{dir}/no/out.json"],
    ["discrepancy", "--gen", "bogus", "--n", "8"],
    ["discrepancy", "--gen", "rational:1/0", "--n", "8"],
    ["discrepancy", "--gen", "random:1", "--n", "-1"],
    ["discrepancy", "--gen", "random:1", "--n", "0"],
    ["discrepancy", "--gen", "random:1", "--n", "8", "--w", "0"],
    ["discrepancy", "--gen", "random:1", "--n", "8", "--w", "65"],
    ["discrepancy", "--gen", "random:1", "--n", "8", "--w", "2"],
    ["discrepancy", "--gen", "file:{dir}", "--n", "8", "--w", "8"],
    ["discrepancy", "--points", "{dir}"],
    ["verify-lemma", "--gen", "bogus", "--n", "8"],
    ["verify-lemma", "--gen", "random:", "--n", "8"],
    ["verify-lemma", "--gen", "file:{missing}", "--n", "8", "--w", "8"],
    ["verify-lemma", "--gen", "random:1", "--n", "0"],
    ["verify-lemma", "--gen", "random:1", "--n", "-5"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--w", "65"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--w", "0"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--checkpoints", "0"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--checkpoints", "9"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--checkpoints", ",,"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--checkpoints", "1..4"],
    ["verify-lemma", "--gen", "random:1", "--n", "8", "--output", "{dir}"],
    ["search-min", "--n", "0"],
    ["search-min", "--n", "-3"],
    ["search-min", "--n", "3..2"],
    ["search-min", "--n", "1...3"],
    ["search-min", "--n", "3", "--cap", "0"],
    ["search-min", "--n", "3", "--output", "{dir}"],
    ["scan", "--n", "0", "--samples", "1", "--seed", "1"],
    ["scan", "--n", "-1", "--samples", "1", "--seed", "1"],
    ["scan", "--n", "8", "--samples", "0", "--seed", "1"],
    ["scan", "--n", "8", "--samples", "1", "--seed", str(1 << 64)],
    ["generate", "--gen", "bogus", "--n", "8"],
    ["generate", "--gen", "champernowne:1", "--n", "8"],
    ["generate", "--gen", "rational:1/0", "--n", "8"],
    ["generate", "--gen", "rational:3/2", "--n", "8"],
    ["generate", "--gen", "random:", "--n", "8"],
    ["generate", "--gen", "file:", "--n", "8"],
    ["generate", "--gen", "file:{missing}", "--n", "8"],
    ["generate", "--gen", "file:{dir}", "--n", "8"],
    ["generate", "--gen", "random:1", "--n", "-1"],
    ["generate", "--gen", "random:1", "--n", str(10**15)],
    ["generate", "--gen", "rational:1/3", "--n", str(10**15)],
    ["generate", "--gen", "champernowne", "--n", "8", "--output", "{dir}"],
]


@pytest.mark.parametrize("argv", _ARGPARSE_REFUSES + _RUN_REFUSES, ids=" ".join)
def test_malformed_argv_exit_2(cap, tmp_path, argv):
    missing = tmp_path / "missing.txt"
    code, out, err = cap([a.format(dir=tmp_path, missing=missing) for a in argv])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    if argv in _RUN_REFUSES:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err.startswith("usage: normbits ")


def test_scan_samples_limit(cap, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("seeds drawn")

    monkeypatch.setattr(search, "splitmix64_outputs", fail)
    samples = str((1 << 24) + 1)
    code, out, err = cap(["scan", "--n", "16", "--samples", samples, "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: samples=16777217 outside [1, 2^24]"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["discrepancy", "--w", "8"], "provide exactly one of --points, --gen"),
        (["discrepancy", "--points", "p.txt", "--gen", "random:1", "--n", "8"],
         "provide exactly one of --points, --gen"),
        (["discrepancy", "--gen", "random:1", "--w", "8"], "--gen requires --n"),
        (["measure", "--gen", "random:1"], "--gen requires --n"),
        (["verify-lemma", "--gen", "random:1", "--n", "8", "--checkpoints", "1,x"],
         "invalid checkpoint list '1,x'"),
    ],
    ids=["discrepancy-neither", "discrepancy-both", "discrepancy-no-n",
         "measure-no-n", "verify-lemma-checkpoints"],
)
def test_source_and_checkpoint_validation(cap, argv, message):
    code, out, err = cap(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv,seed",
    [
        (["generate", "--gen", "random:-1", "--n", "8"], -1),
        (["generate", "--gen", f"random:{1 << 64}", "--n", "8"], 1 << 64),
        (["scan", "--n", "64", "--samples", "2", "--seed", "-1"], -1),
    ],
    ids=["random-minus-1", "random-2-64", "scan-minus-1"],
)
def test_seed_outside_64_bits_refused(cap, argv, seed):
    code, out, err = cap(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: seed {seed} outside [0, 2^64)"]


def test_largest_seed_accepted(cap):
    top = (1 << 64) - 1
    code, out, err = cap(["generate", "--gen", f"random:{top}", "--n", "64"])
    assert (code, err) == (0, "")
    assert out == format(_splitmix64(top), "064b") + "\n"


def _splitmix64(seed: int) -> int:
    """The first splitmix64 output in Python ints, for the seed alone."""
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestVerifyLemma:
    def test_pass_exit_0(self, cap):
        code, out, _ = cap(["verify-lemma", "--gen", "rational:1/3", "--n", "8", "--w", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall_pass"] is True

    def test_checkpoints_flag(self, cap):
        code, out, _ = cap(
            ["verify-lemma", "--gen", "random:3", "--n", "32", "--w", "16",
             "--checkpoints", "4,32"]
        )
        assert code == 0
        assert [c["n"] for c in json.loads(out)["report"]["checkpoints"]] == [4, 32]

    def test_bad_window_exit_2(self, cap):
        assert cap(["verify-lemma", "--gen", "random:3", "--n", "64", "--w", "2"])[0] == 2

    def test_csv(self, cap):
        code, out, _ = cap(
            ["verify-lemma", "--gen", "rational:1/3", "--n", "8", "--w", "16",
             "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[1].startswith("n,normality_num")


class TestSearchScanGenerate:
    def test_search_json(self, cap):
        code, out, _ = cap(["search-min", "--n", "4"])
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports[0]["min_decimal"] == "0.75"

    def test_search_range_csv(self, cap):
        code, out, _ = cap(["search-min", "--n", "2..4", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "N,min_num,min_log2_den,min_decimal,witness"
        assert lines[2] == "2,1,1,0.5,01"
        assert lines[4] == "4,3,2,0.75,0110"

    def test_search_bad_range(self, cap):
        assert cap(["search-min", "--n", "5..2"])[0] == 2
        assert cap(["search-min", "--n", "abc"])[0] == 2

    def test_scan_deterministic_bytes(self, cap):
        args = ["scan", "--n", "64", "--samples", "4", "--seed", "9"]
        code1, out1, _ = cap(args)
        code2, out2, _ = cap(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_scan_csv_header(self, cap):
        code, out, _ = cap(
            ["scan", "--n", "64", "--samples", "2", "--seed", "1", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[1] == "n,samples,seed,min,p05,p25,median,p75,p95,max"

    def test_generate(self, cap):
        code, out, _ = cap(["generate", "--gen", "champernowne", "--n", "12"])
        assert code == 0
        assert out == "110111001011\n"

    def test_generate_to_file(self, cap, tmp_path):
        path = tmp_path / "digits.txt"
        code, _, _ = cap(["generate", "--gen", "random:1", "--n", "8", "--output", str(path)])
        assert code == 0
        assert path.read_text() == "10010001\n"


PAYLOAD_ARGV = {
    "measure": ["measure", "--bits", "0110"],
    "discrepancy": ["discrepancy", "--gen", "rational:1/3", "--n", "8", "--w", "16"],
    "verify-lemma": ["verify-lemma", "--gen", "rational:1/3", "--n", "8", "--w", "16"],
    "search-min": ["search-min", "--n", "2..4"],
    "scan": ["scan", "--n", "64", "--samples", "2", "--seed", "1"],
}


class TestDispatch:
    def test_unknown_subcommand(self, cap):
        assert cap(["frobnicate"])[0] == 2

    def test_no_subcommand(self, cap):
        assert cap([])[0] == 2

    def test_help_exit_0(self, cap):
        assert cap(["--help"])[0] == 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", list(PAYLOAD_ARGV.values()), ids=list(PAYLOAD_ARGV))
    def test_output_file_byte_identical(self, cap, tmp_path, argv, fmt):
        argv = argv + ["--format", fmt]
        code, expected, _ = cap(argv)
        path = tmp_path / f"payload.{fmt}"
        assert cap(argv + ["--output", str(path)]) == (code, "", "")
        # the file holds the stdout payload, except for the config's output
        assert expected.count('"output": null') == 1
        echo = '"output": ' + json.dumps(str(path))
        assert path.read_bytes() == expected.replace('"output": null', echo).encode()
