import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import normbits
from normbits import search
from normbits.bitcore import BitSequence, ExactValue
from normbits.generators import sample_seed
from normbits.measure import normality_naive
from normbits.search import exhaustive_min, typical_scan


class TestExhaustiveMin:
    def test_n2(self):
        res = exhaustive_min(2)
        assert res.min_value == ExactValue(1, 1)
        assert [w.to01() for w in res.witnesses] == ["01"]

    def test_n4(self):
        res = exhaustive_min(4)
        assert res.min_value == ExactValue(3, 2)
        assert [w.to01() for w in res.witnesses] == ["0110"]

    def test_n1_empty_k_range(self):
        res = exhaustive_min(1)
        assert res.min_value == ExactValue(0)
        assert [w.to01() for w in res.witnesses] == ["0"]

    def test_bounds(self):
        with pytest.raises(ValueError):
            exhaustive_min(0)
        with pytest.raises(ValueError):
            exhaustive_min(52)
        with pytest.raises(ValueError):
            exhaustive_min(4, cap=0)
        with pytest.raises(ValueError, match=r"^n=27 outside \[1, 26\]$"):
            exhaustive_min(27, prune=False)

    def test_prune_matches_plain(self):
        # The pruned walks list the plain oracle's minimizers that start
        # with 0; the plain walk's first 64 include all of those first.
        for n in range(1, 15):
            pruned = exhaustive_min(n, cap=64, prune=True)
            plain = exhaustive_min(n, cap=64, prune=False)
            assert pruned.min_value == plain.min_value, n
            assert [w.to01() for w in pruned.witnesses] == [
                w.to01() for w in plain.witnesses if w.to01()[0] == "0"
            ], n
            assert pruned.nodes_visited <= plain.nodes_visited

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_piece_size_changes_nothing(self, rows, monkeypatch):
        # Pieces of 1, 3 and 7 rows split every level the default keeps whole.
        configs = [
            (n, cap, prune)
            for n in range(1, 13)
            for cap in (1, 5, 64)
            for prune in (True, False)
        ]
        expected = [exhaustive_min(*c).to_json_dict() for c in configs]
        monkeypatch.setattr(search, "ROWS", rows)
        assert [exhaustive_min(*c).to_json_dict() for c in configs] == expected

    def test_plain_visits_every_node(self):
        for n in range(1, 17):
            res = exhaustive_min(n, prune=False)
            assert (res.nodes_visited, res.pruned) == ((1 << (n + 1)) - 2, 0), n

    def test_plain_frontier_memory_is_bounded(self):
        # One unbounded frontier would peak at about 240 MiB here.
        tracemalloc.start()
        try:
            exhaustive_min(20, prune=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_witnesses_recheck_and_complement(self):
        for n in (3, 5, 7, 9):
            res = exhaustive_min(n)
            assert res.witnesses
            for w in res.witnesses:
                assert normality_naive(w).value == res.min_value
                assert normality_naive(w.complement()).value == res.min_value

    def test_witness_list_is_lex_smallest(self):
        # Against brute force: all minimizers starting with 0, lex order.
        for n in (4, 6, 8):
            res = exhaustive_min(n, cap=64)
            best = res.min_value
            expected = [
                "".join(map(str, bits))
                for bits in itertools.product((0, 1), repeat=n)
                if bits[0] == 0
                and normality_naive(BitSequence(bits)).value == best
            ]
            assert [w.to01() for w in res.witnesses] == expected[:64]

    def test_cap(self):
        res = exhaustive_min(8, cap=2)
        assert len(res.witnesses) <= 2
        full = exhaustive_min(8, cap=64)
        assert list(res.witnesses) == list(full.witnesses[:2])

    def test_minima_floor_small_table(self):
        # weak consistency at desk scale: minima never dip below 1/2
        for n in (4, 8, 16):
            assert exhaustive_min(n).min_value >= ExactValue(1, 1)

    def test_minima_table_to_51(self):
        # min(n) >= min(n - 1): a prefix's (k, M) ranges are subsets.
        pinned = {
            32: ExactValue(41, 5),
            37: ExactValue(21, 4),
            43: ExactValue(43, 5),
            46: ExactValue(11, 3),
            49: ExactValue(45, 5),
            50: ExactValue(23, 4),
            51: ExactValue(47, 5),
        }
        previous = ExactValue(0)
        for n in range(1, 52):
            res = exhaustive_min(n, cap=1)
            assert res.min_value >= previous, n
            assert normality_naive(res.witnesses[0]).value == res.min_value, n
            if n in pinned:
                assert res.min_value == pinned[n], n
            previous = res.min_value

    def test_json_shape(self):
        d = exhaustive_min(4).to_json_dict()
        assert (d["n"], d["min_num"], d["min_log2_den"]) == (4, 3, 2)
        assert d["min_decimal"] == "0.75"
        assert d["witnesses"] == ["0110"]
        assert d["nodes_visited"] > 0


class TestTypicalScan:
    def test_single_sample_constant_quantiles(self):
        stats = typical_scan(64, 1, 3)
        assert len(set(stats.quantiles)) == 1

    def test_deterministic(self):
        a = typical_scan(128, 12, 99)
        b = typical_scan(128, 12, 99)
        assert a == b

    def test_quantiles_nondecreasing(self):
        stats = typical_scan(256, 16, 5)
        qs = list(stats.quantiles)
        assert qs == sorted(qs)

    def test_validation(self):
        with pytest.raises(ValueError):
            typical_scan(16, 0, 1)
        with pytest.raises(ValueError):
            typical_scan(0, 4, 1)

    @pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
    def test_seeds_drawn_once_match_sample_seed(self, seed, monkeypatch):
        seeds = []
        draw = search.random_bits

        def spy(sample, n):
            seeds.append(sample)
            return draw(sample, n)

        monkeypatch.setattr(search, "random_bits", spy)
        typical_scan(16, 500, seed)
        assert seeds == [sample_seed(seed, i) for i in range(500)]

    def test_samples_limit_checked_before_allocating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(search, "splitmix64_outputs", fail)
        monkeypatch.setattr(search.np, "empty", fail)
        with pytest.raises(ValueError, match=r"^samples=16777217 outside \[1, 16777216\]$"):
            typical_scan(16, (1 << 24) + 1, 1)

    def test_quantiles_match_numpy(self):
        # sizes 1 to 400, half of them with ties, at every level the scan
        # reports; np.quantile is the oracle, compared bit for bit
        rng = np.random.default_rng(20260)
        for i in range(20000):
            size = int(rng.integers(1, 401))
            if i % 2:
                values = rng.integers(0, int(rng.integers(1, 50)), size) / 7
            else:
                values = rng.random(size) * 10
            got = search._linear_quantiles(values)
            want = np.quantile(values, search._QUANTILE_LEVELS)
            assert [q.hex() for q in got] == [float(q).hex() for q in want], values

    def test_scan_imports_no_numpy_ma(self):
        # np.quantile imports numpy.ma, about 12 ms in every scan process
        code = (
            "import sys\n"
            "from normbits.cli import run\n"
            "run(['scan', '--n', '256', '--samples', '20', '--seed', '1'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(normbits.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"

    def test_json_shape(self):
        d = typical_scan(64, 3, 7).to_json_dict()
        assert d["algorithm"] == "splitmix64"
        assert list(d["quantiles"]) == [
            "min",
            "p05",
            "p25",
            "median",
            "p75",
            "p95",
            "max",
        ]
