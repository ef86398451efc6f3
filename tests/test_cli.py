import subprocess
import sys

import pytest

from tsplab import read_instance, read_tour
from tsplab.errors import ParseError
from tsplab.experiment import CSV_COLUMNS, parse_config

from conftest import cli_env


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
        ],
    )
    def test_rejected_at_parse_time(self, tmp_path, extra, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.BASE + extra, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            parse_config(cfg)


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
