import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import read_instance, read_tour
from tsplab.errors import ParseError, TsplabError
from tsplab.experiment import CSV_COLUMNS, parse_config

from conftest import SRC_DIR, cli_env


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tsplab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


class TestGenerate:
    def test_convex_writes_readable_file(self, tmp_path):
        out = tmp_path / "a.tsp"
        r = cli("generate", "--family", "convex", "--n", "10", "--m", "256", "--seed", "1", "--out", str(out))
        assert r.returncode == 0
        assert "k=0" in r.stdout
        inst = read_instance(out)
        assert inst.n == 10
        assert inst.inner_count == 0

    def test_inner_reports_k_recomputed_on_load(self, tmp_path):
        out = tmp_path / "b.tsp"
        r = cli("generate", "--family", "inner", "--h", "8", "--k", "2", "--m", "256", "--seed", "2", "--out", str(out))
        assert r.returncode == 0
        assert "k=2" in r.stdout
        assert read_instance(out).inner_count == 2

    def test_grid_exhaustion_exit_code(self, tmp_path):
        r = cli("generate", "--family", "grid", "--n", "10", "--m", "3", "--seed", "1", "--out", str(tmp_path / "x.tsp"))
        assert r.returncode == 2
        assert "could not place" in r.stderr

    def test_missing_params_exit_code(self, tmp_path):
        r = cli("generate", "--family", "inner", "--m", "256", "--out", str(tmp_path / "x.tsp"))
        assert r.returncode == 1

    def test_deterministic_stdout(self, tmp_path):
        args = ("generate", "--family", "grid", "--n", "8", "--m", "64", "--seed", "5", "--out", str(tmp_path / "g.tsp"))
        assert cli(*args).stdout == cli(*args).stdout


class TestSolve:
    @pytest.fixture
    def square_file(self, tmp_path):
        path = tmp_path / "square.tsp"
        path.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n", encoding="utf-8")
        return path

    def test_rls_square(self, square_file):
        r = cli("solve", str(square_file), "--algorithm", "rls", "--budget", "10000", "--seed", "3")
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        rec = dict(zip(CSV_COLUMNS, row.split(",")))
        assert rec["reached_optimum"] == "true"
        assert rec["final_length"] == "4.0"
        assert rec["algorithm"] == "rls"
        assert int(rec["fitness_evals"]) == 1 + int(rec["generations"])

    def test_ea_accounting(self, square_file):
        r = cli(
            "solve", str(square_file), "--algorithm", "ea", "--budget", "5000",
            "--seed", "4", "--mu", "3", "--lambda", "5", "--mutation", "mixed",
        )
        rec = dict(zip(CSV_COLUMNS, r.stdout.strip().splitlines()[1].split(",")))
        assert int(rec["fitness_evals"]) == 3 + 5 * int(rec["generations"])
        assert rec["mutation"] == "mixed"
        assert int(rec["alpha_steps"]) + int(rec["beta_steps"]) == int(rec["generations"])

    def test_explicit_optimum_and_no_oracle(self, square_file):
        r = cli("solve", str(square_file), "--algorithm", "rls", "--budget", "100", "--seed", "3", "--optimum", "4.0")
        rec = dict(zip(CSV_COLUMNS, r.stdout.strip().splitlines()[1].split(",")))
        assert rec["optimum_length"] == "4.0"
        r2 = cli("solve", str(square_file), "--algorithm", "rls", "--budget", "100", "--seed", "3", "--no-oracle")
        rec2 = dict(zip(CSV_COLUMNS, r2.stdout.strip().splitlines()[1].split(",")))
        assert rec2["optimum_length"] == ""
        assert rec2["reached_optimum"] == "false"

    def test_missing_file(self):
        r = cli("solve", "nope.tsp", "--algorithm", "rls", "--budget", "10")
        assert r.returncode == 1


class TestOracleCmd:
    def test_square_brute(self, tmp_path):
        path = tmp_path / "square.tsp"
        path.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n", encoding="utf-8")
        r = cli("oracle", str(path), "--method", "brute", "--tour-out", str(tmp_path / "opt.tour"))
        assert r.returncode == 0
        assert r.stdout.startswith("optimum=4.0")
        assert read_tour(tmp_path / "opt.tour") == (1, 2, 3, 4)

    def test_methods_agree(self, tmp_path):
        out = tmp_path / "g.tsp"
        cli("generate", "--family", "inner", "--h", "10", "--k", "2", "--m", "256", "--seed", "6", "--out", str(out))
        values = set()
        for method in ("held_karp", "hull_order"):
            r = cli("oracle", str(out), "--method", method)
            values.add(r.stdout.split()[0])
        assert len(values) == 1

    def test_brute_too_large_exit_code(self, tmp_path):
        out = tmp_path / "big.tsp"
        cli("generate", "--family", "grid", "--n", "20", "--m", "64", "--seed", "1", "--out", str(out))
        r = cli("oracle", str(out), "--method", "brute")
        assert r.returncode == 2


class TestExperimentCmd:
    CONFIG = """\
# tiny convex sweep
family = convex
n = 8,16
m = 256
algorithm = rls
budget = 100000
runs = 3
base_seed = 42
out = {out}
"""

    def test_runs_and_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "runs.csv"
        cfg.write_text(self.CONFIG.format(out=out), encoding="utf-8")
        r1 = cli("experiment", str(cfg))
        assert r1.returncode == 0
        first = out.read_bytes()
        rows = first.decode().strip().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 3
        r2 = cli("experiment", str(cfg))
        assert out.read_bytes() == first
        assert r1.stdout == r2.stdout
        assert "# summary" in r1.stdout

    def test_paired_mutation_sweep(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        out = tmp_path / "p.csv"
        cfg.write_text(
            f"family = inner\nh = 6\nk = 2\nm = 256\nalgorithm = ea\n"
            f"mutation = two_opt,mixed\nbudget = 100000\nruns = 2\nbase_seed = 9\nout = {out}\n",
            encoding="utf-8",
        )
        r = cli("experiment", str(cfg))
        assert r.returncode == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        kinds = {row.split(",")[9] for row in rows}
        assert kinds == {"two_opt", "mixed"}
        # paired seeds: same seeds for both kinds
        seeds = {}
        for row in rows:
            cells = row.split(",")
            seeds.setdefault(cells[9], set()).add(cells[10])
        assert seeds["two_opt"] == seeds["mixed"]

    def test_malformed_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family convex\n", encoding="utf-8")
        r = cli("experiment", str(cfg))
        assert r.returncode == 1
        assert "line 1" in r.stderr

    def test_unknown_key_diagnostic(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("family = convex\nbogus = 3\n", encoding="utf-8")
        r = cli("experiment", str(cfg))
        assert r.returncode == 1
        assert "line 2" in r.stderr


class TestParseConfig:
    BASE = "family = convex\nn = 8\nm = 256\nalgorithm = rls\nbase_seed = 1\nout = o.csv\n"
    GRID = BASE.replace("convex", "grid")
    INNER = "family = inner\nh = 6\nk = 2\nm = 256\nalgorithm = ea\nbase_seed = 1\nout = o.csv\n"

    def test_valid(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(self.BASE + "budget = 1\nruns = 1\n", encoding="utf-8")
        parsed = parse_config(cfg)
        assert (parsed.budget, parsed.runs) == (1, 1)

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("budget = 100\nruns = -3\n", "line 8: runs must be >= 1"),
            ("budget = 100\nruns = 0\n", "line 8: runs must be >= 1"),
            ("budget = 0\nruns = 3\n", "line 7: budget must be >= 1"),
            ("budget = 100\nruns = 3\nm = 512\n", "line 9: duplicate key 'm'"),
            ("budget = 100\nruns = 3\nmutation = mixed,mixed\n", "line 9: repeated value mixed in 'mutation'"),
            ("budget = 100\nruns = 3\nh = 5\n", "line 9: 'h' does not apply to family 'convex'"),
            ("k = 2\nbudget = 100\nruns = 3\n", "line 7: 'k' does not apply to family 'convex'"),
            ("budget = 100\nruns = 3\nmutation = mixed\n", "line 9: 'mutation' does not apply to algorithm 'rls'"),
            ("budget = 100\nmu = 2\nruns = 3\n", "line 8: 'mu' does not apply to algorithm 'rls'"),
            ("budget = 100\nruns = 3\nlambda = 2\n", "line 9: 'lambda' does not apply to algorithm 'rls'"),
        ],
    )
    def test_rejected_at_parse_time(self, tmp_path, extra, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.BASE + extra, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "text,message",
        [
            (BASE.replace("n = 8", "n = 6,6"), "line 2: repeated value 6 in 'n'"),
            (GRID.replace("n = 8", "n = 8,10,8"), "line 2: repeated value 8 in 'n'"),
            (GRID + "h = 5\n", "line 7: 'h' does not apply to family 'grid'"),
            (INNER.replace("h = 6", "h = 6,7,6"), "line 2: repeated value 6 in 'h'"),
            (INNER.replace("k = 2", "k = 2,2"), "line 3: repeated value 2 in 'k'"),
            (INNER + "n = 8\n", "line 8: 'n' does not apply to family 'inner'"),
        ],
    )
    def test_rejected_config(self, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "budget = 1\nruns = 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "text,message",
        [
            (BASE.replace("m = 256", "m = ٦٤"), "^line 3: m must be an integer"),
            (BASE + "budget = 1_0\n", "^line 7: budget must be an integer"),
            (BASE.replace("n = 8", "n = 8,１６"), "^line 2: bad list value for n"),
            (BASE.replace("n = 8", "n = 1_0"), "^line 2: bad list value for n"),
            (BASE.replace("n = 8", "n = 8,,16"), "^line 2: bad list value for n"),
        ],
    )
    def test_non_ascii_integers_rejected(self, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "budget = 1\nruns = 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            parse_config(cfg)

    def test_signs_spaces_and_leading_zeros_accepted(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        text = self.BASE.replace("n = 8", "n = 8, +16 ,032").replace("base_seed = 1", "base_seed = -7")
        cfg.write_text(text + "budget = 010\nruns = +1\n", encoding="utf-8")
        parsed = parse_config(cfg)
        assert (parsed.n_values, parsed.base_seed, parsed.budget, parsed.runs) == ([8, 16, 32], -7, 10, 1)

    @pytest.mark.parametrize("name", ["convex_sweep.cfg", "grid_rls.cfg", "inner_paired.cfg"])
    def test_example_configs_parse(self, name):
        parse_config(SRC_DIR.parent / "configs" / name)


_CONFIG_KEYS = [
    "family", "n", "h", "k", "m", "algorithm", "mu", "lambda", "mutation", "budget", "runs", "base_seed", "out", "x"
]
_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-5, 40).map(str),
    st.lists(st.integers(-2, 12), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["grid", "convex", "inner", "rls", "ea", "two_opt", "mixed", "two_opt,mixed", "o.csv"]),
)
_INT_ROW = st.tuples(st.integers(-3, 2**31 + 1), st.integers(-3, 2**31 + 1)).map(lambda xy: f"{xy[0]} {xy[1]}")

# arbitrary UTF-8 text, plus lines shaped like each format, so that the
# examples also get past the first checks
_CONFIG_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.one_of(st.text(max_size=20), st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(_CONFIG_KEYS), _VALUES)),
        max_size=12,
    ).map("\n".join),
)
_INSTANCE_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(st.text(max_size=12), _INT_ROW, st.integers(0, 9).map(lambda m: f"{m} 4")), max_size=8).map(
        "\n".join
    ),
)
_TOUR_TEXT = st.one_of(st.text(), st.lists(st.integers(-2, 8).map(str), max_size=9).map(" ".join))


class TestArbitraryText:
    """Every reader fails on malformed text with a TsplabError subclass."""

    @pytest.mark.parametrize(
        "reader,texts",
        [(parse_config, _CONFIG_TEXT), (read_instance, _INSTANCE_TEXT), (read_tour, _TOUR_TEXT)],
        ids=["parse_config", "read_instance", "read_tour"],
    )
    def test_only_tsplab_errors(self, tmp_path_factory, reader, texts):
        path = tmp_path_factory.mktemp("fuzz") / "input.txt"

        @settings(max_examples=500)
        @given(texts)
        def check(text):
            path.write_text(text, encoding="utf-8")
            try:
                reader(path)
            except TsplabError:
                pass

        check()


class TestMutationStatsCmd:
    def test_report_and_determinism(self):
        args = ("mutation-stats", "--n", "6", "--samples", "100000", "--seed", "7")
        r1 = cli(*args)
        assert r1.returncode == 0
        assert "p_one_inversion=" in r1.stdout
        assert "chi_square_stat=" in r1.stdout
        assert cli(*args).stdout == r1.stdout

    def test_sample_floor_enforced(self):
        r = cli("mutation-stats", "--n", "6", "--samples", "999")
        assert r.returncode == 1


class TestUsage:
    def test_unknown_command(self):
        assert cli("frobnicate").returncode == 1

    def test_help_exits_zero(self):
        assert cli("--help").returncode == 0
