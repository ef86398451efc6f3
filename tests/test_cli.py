import csv
import dataclasses
import hashlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsplab.cli
import tsplab.experiment
from tsplab import generate_with_inner, read_instance, read_tour
from tsplab.errors import GenerationExhaustedError, ParseError, TsplabError
from tsplab.experiment import CSV_COLUMNS, make_instance, parse_config, run_experiment, strongest_oracle, write_csv

from conftest import BAD_SIZES, SRC_DIR, cli_env


def cli(*args, cwd=None, timeout=120):
    """Run the CLI in a fresh interpreter; a hang fails the calling test
    after `timeout` seconds instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "tsplab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=timeout,
    )


def forbid(monkeypatch, module, *names, why="ran before the flags were checked"):
    """Make each named function of module fail the test if it is called."""
    for name in names:

        def must_not_run(*_, name=name, **__):
            raise AssertionError(f"{name} {why}")

        monkeypatch.setattr(module, name, must_not_run)


# the run CSV header, written out so that a change to the schema shows here
CSV_HEADER = (
    "instance_id,n,k,m,epsilon,gamma,algorithm,mu,lambda,mutation,seed,generations,"
    "fitness_evals,alpha_steps,beta_steps,reached_optimum,reached_local_optimum,"
    "final_length,optimum_length"
)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.tsp"
    path.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n", encoding="utf-8")
    return path


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

    def test_grid_side_above_2_31_named(self, tmp_path):
        r = cli("generate", "--family", "grid", "--n", "5", "--m", "4294967296", "--seed", "1", "--out", str(tmp_path / "x.tsp"))
        assert r.returncode == 1
        assert "m=4294967296" in r.stderr and "coordinate" not in r.stderr

    @pytest.mark.parametrize("family,sizes,message", BAD_SIZES)
    def test_bad_size_exits_1_and_names_it(self, tmp_path, capsys, family, sizes, message):
        out = tmp_path / "x.tsp"
        args = [f"--{key}={value}" for key, value in sizes.items()]
        assert tsplab.cli.main(["generate", "--family", family, *args, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_grid_exhaustion_exit_code(self, tmp_path):
        r = cli("generate", "--family", "grid", "--n", "10", "--m", "3", "--seed", "1", "--out", str(tmp_path / "x.tsp"))
        assert r.returncode == 2
        assert "could not place" in r.stderr

    def test_missing_params_exit_code(self, tmp_path):
        r = cli("generate", "--family", "inner", "--m", "256", "--out", str(tmp_path / "x.tsp"))
        assert r.returncode == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--family", "grid"), "family 'grid' needs --n"),
            (("--family", "convex"), "family 'convex' needs --n"),
            (("--family", "inner", "--h", "6"), "family 'inner' needs --h and --k"),
            (("--family", "inner", "--k", "2"), "family 'inner' needs --h and --k"),
        ],
    )
    def test_missing_size_flag_message(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.tsp"
        assert tsplab.cli.main(["generate", *args, "--m", "256", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, args",
        [
            ("--n", ("--family", "inner", "--h", "6", "--k", "2", "--n", "40")),
            ("--h", ("--family", "grid", "--n", "8", "--h", "6")),
            ("--k", ("--family", "convex", "--n", "8", "--k", "2")),
        ],
    )
    def test_inapplicable_flag_rejected(self, tmp_path, monkeypatch, capsys, flag, args):
        forbid(monkeypatch, tsplab.cli, "make_instance")
        out = tmp_path / "x.tsp"
        assert tsplab.cli.main(["generate", *args, "--m", "256", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"{flag} does not apply to family" in err
        assert not out.exists()

    def test_deterministic_stdout(self, tmp_path):
        args = ("generate", "--family", "grid", "--n", "8", "--m", "64", "--seed", "5", "--out", str(tmp_path / "g.tsp"))
        assert cli(*args).stdout == cli(*args).stdout


class TestSolve:
    def test_rls_square(self, square_file):
        r = cli("solve", str(square_file), "--algorithm", "rls", "--budget", "10000", "--seed", "3")
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header == CSV_HEADER
        rec = dict(zip(CSV_COLUMNS, row.split(",")))
        assert rec["reached_optimum"] == "true"
        assert rec["final_length"] == "4.0"
        assert rec["algorithm"] == "rls"
        assert int(rec["fitness_evals"]) == 1 + int(rec["generations"])

    def test_comma_in_instance_id_is_quoted(self, tmp_path):
        gen = cli("generate", "--family", "grid", "--n", "6", "--m", "32", "--seed", "1", "--out", "a,b.tsp", cwd=tmp_path)
        assert gen.returncode == 0
        r = cli("solve", "a,b.tsp", "--algorithm", "rls", "--budget", "100", "--seed", "1", cwd=tmp_path)
        assert r.returncode == 0
        header, row = csv.reader(io.StringIO(r.stdout))
        assert header == list(CSV_COLUMNS)
        assert len(row) == 19
        assert row[0] == "a,b.tsp"

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

    @pytest.mark.parametrize("flags", [["--optimum", "4.0", "--no-oracle"], ["--no-oracle", "--optimum", "4.0"]])
    def test_no_oracle_with_explicit_optimum_rejected(self, square_file, capsys, flags):
        assert tsplab.cli.main(["solve", str(square_file), "--algorithm", "rls", "--budget", "100", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: argument --") and "not allowed with argument --" in err
        assert "--optimum" in err and "--no-oracle" in err

    @pytest.mark.parametrize("algorithm", ["ea", "rls"])
    def test_optimum_above_a_tour_rejected(self, tmp_path, capsys, algorithm):
        # the grid's optimum is 134.9922578862372
        path = tmp_path / "g.tsp"
        generate = ["generate", "--family", "grid", "--n", "8", "--m", "64", "--seed", "1", "--out", str(path)]
        assert tsplab.cli.main(generate) == 0
        capsys.readouterr()
        args = [str(path), "--algorithm", algorithm, "--budget", "2000", "--seed", "3", "--optimum", "142.5"]
        assert tsplab.cli.main(["solve", *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: optimum_value 142.5 is above a tour of length ")

    def test_missing_file(self):
        r = cli("solve", "nope.tsp", "--algorithm", "rls", "--budget", "10")
        assert r.returncode == 1

    @pytest.mark.parametrize(
        "flag, args",
        [
            ("--mu", ("--algorithm", "ea", "--mu", "0", "--budget", "10")),
            ("--lambda", ("--algorithm", "ea", "--lambda", "0", "--budget", "10")),
            ("--budget", ("--algorithm", "rls", "--budget", "0")),
            ("--budget", ("--algorithm", "ea", "--budget", "-3")),
        ],
    )
    def test_bad_counts_rejected_before_any_work(self, square_file, monkeypatch, capsys, flag, args):
        forbid(monkeypatch, tsplab.cli, "read_instance", "strongest_oracle")
        assert tsplab.cli.main(["solve", str(square_file), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"{flag} must be >= 1" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_bad_optimum_rejected_before_any_work(self, square_file, monkeypatch, capsys, value):
        forbid(monkeypatch, tsplab.cli, "read_instance")
        argv = ["solve", str(square_file), "--algorithm", "rls", "--budget", "10", f"--optimum={value}"]
        assert tsplab.cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "--optimum must be finite and > 0" in err
    @pytest.mark.parametrize(
        "flag, args", [("--mu", ("--mu", "4")), ("--lambda", ("--lambda", "2")), ("--mutation", ("--mutation", "mixed"))]
    )
    def test_ea_flags_rejected_for_rls(self, square_file, monkeypatch, capsys, flag, args):
        forbid(monkeypatch, tsplab.cli, "read_instance")
        argv = ["solve", str(square_file), "--algorithm", "rls", "--budget", "10", *args]
        assert tsplab.cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"{flag} does not apply to algorithm 'rls'" in err

    def test_ea_defaults_when_flags_absent(self, square_file):
        r = cli("solve", str(square_file), "--algorithm", "ea", "--budget", "50", "--seed", "4")
        assert r.returncode == 0
        rec = dict(zip(CSV_COLUMNS, r.stdout.strip().splitlines()[1].split(",")))
        assert (rec["mu"], rec["lambda"], rec["mutation"]) == ("1", "1", "two_opt")


class TestOracleCmd:
    def test_square_brute(self, tmp_path, square_file):
        r = cli("oracle", str(square_file), "--method", "brute", "--tour-out", str(tmp_path / "opt.tour"))
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
        assert rows[0] == CSV_HEADER
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

    def test_grid_side_beyond_64_bits_exits_1(self, tmp_path):
        # m above 2^64 once made the grid generator's first draw loop forever
        cfg = tmp_path / "huge.cfg"
        m = 10**23
        cfg.write_text(f"family = grid\nn = 8\nm = {m}\nalgorithm = rls\nbudget = 100\nruns = 1\nbase_seed = 1\nout = {tmp_path / 'r.csv'}\n", encoding="utf-8")
        r = cli("experiment", str(cfg), timeout=60)
        assert r.returncode == 1
        assert f"m={m}" in r.stderr

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

    @pytest.mark.parametrize(
        "out, message",
        [("nodir/runs.csv", "directory {d}/nodir does not exist"), ("", "{d}/ is a directory")],
        ids=["missing_directory", "directory"],
    )
    def test_unwritable_out_rejected_before_any_instance(self, tmp_path, monkeypatch, capsys, out, message):
        forbid(monkeypatch, tsplab.experiment, "make_instance", why="ran before out was checked")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.format(out=f"{tmp_path}/{out}"), encoding="utf-8")
        assert tsplab.cli.main(["experiment", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out = {tmp_path}/{out}")
        assert message.format(d=tmp_path) in err

    def test_existing_out_untouched_when_a_size_fails(self, tmp_path, monkeypatch):
        def exhausted(*_):
            raise GenerationExhaustedError("no room")

        monkeypatch.setattr(tsplab.experiment, "make_instance", exhausted)
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "runs.csv"
        out.write_text("earlier results\n", encoding="utf-8")
        cfg.write_text(self.CONFIG.format(out=out), encoding="utf-8")
        assert tsplab.cli.main(["experiment", str(cfg)]) == 2
        assert out.read_text(encoding="utf-8") == "earlier results\n"


class TestOutputPathCheckedFirst:
    """A command that writes a file rejects a path it cannot write
    before it reads or builds anything, and prints nothing."""

    @pytest.fixture(params=["missing_directory", "directory"])
    def bad_out(self, request, tmp_path):
        return str(tmp_path / "nodir" / "x.out") if request.param == "missing_directory" else str(tmp_path)

    def rejects(self, monkeypatch, capsys, spied, argv, name, bad_out):
        for module, attr in spied:
            forbid(monkeypatch, module, attr, why="ran before the output path was checked")
        assert tsplab.cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {name} = {bad_out}")

    def test_generate(self, monkeypatch, capsys, bad_out):
        argv = ["generate", "--family", "grid", "--n", "6", "--m", "32", "--out", bad_out]
        self.rejects(monkeypatch, capsys, [(tsplab.cli, "make_instance")], argv, "--out", bad_out)

    def test_oracle(self, monkeypatch, capsys, square_file, bad_out):
        argv = ["oracle", str(square_file), "--method", "held_karp", "--tour-out", bad_out]
        spied = [
            (tsplab.cli, attr)
            for attr in ("read_instance", "brute_force_optimum", "held_karp_optimum", "hull_order_optimum")
        ]
        self.rejects(monkeypatch, capsys, spied, argv, "--tour-out", bad_out)

    def test_experiment(self, monkeypatch, capsys, tmp_path, bad_out):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestExperimentCmd.CONFIG.format(out=bad_out), encoding="utf-8")
        spied = [(tsplab.cli, "run_experiment"), (tsplab.experiment, "make_instance")]
        self.rejects(monkeypatch, capsys, spied, ["experiment", str(cfg)], "out", bad_out)


class TestTwoPhases:
    """run_experiment builds every instance and its optimum before the first run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("make_instance", "strongest_oracle", "run_single"):
            def spy(*args, _name=name, _real=getattr(tsplab.experiment, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(tsplab.experiment, name, spy)
        return calls

    def test_every_size_built_before_the_first_run(self, tmp_path, calls):
        cfg = tmp_path / "inner.cfg"
        cfg.write_text(TestCsvContract.CONFIGS["inner"] + f"out = {tmp_path / 'o.csv'}\n", encoding="utf-8")
        records, _ = run_experiment(parse_config(cfg))
        assert len(records) == 4 * 2 * 2  # (h, k) pairs x mutations x runs
        assert calls == ["make_instance", "strongest_oracle"] * 4 + ["run_single"] * len(records)

    def test_unplaceable_size_fails_before_any_run(self, tmp_path, calls):
        cfg = tmp_path / "full.cfg"
        cfg.write_text(
            "family = grid\nn = 12, 40\nm = 16\nalgorithm = rls\nbudget = 1000000\nruns = 5\n"
            f"base_seed = 1\nout = {tmp_path / 'o.csv'}\n",
            encoding="utf-8",
        )
        with pytest.raises(GenerationExhaustedError, match="no free cell is admissible"):
            run_experiment(parse_config(cfg))
        assert calls == ["make_instance", "strongest_oracle", "make_instance"]


class TestExperimentParts:
    def test_make_instance_calls_the_generator_bound_at_call_time(self, monkeypatch):
        calls = []

        def spy(*args, _real=tsplab.experiment.generate_convex):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(tsplab.experiment, "generate_convex", spy)
        instance_id, inst = make_instance("convex", {"n": 8}, 128, 5)
        assert calls == [(8, 128, 5)]
        assert (instance_id, inst.n) == ("convex-n8-m128-s5", 8)

    @pytest.mark.parametrize("name, mutation", [("rls", ""), ("ea", "two_opt")])
    def test_direct_config_without_mutations_runs_the_default(self, tmp_path, name, mutation):
        cfg = tmp_path / f"{name}.cfg"
        text = TestCsvContract.CONFIGS[name].replace("two_opt,mixed", "two_opt")
        cfg.write_text(text + f"out = {tmp_path / 'o.csv'}\n", encoding="utf-8")
        parsed = parse_config(cfg)
        records = run_experiment(dataclasses.replace(parsed, mutations=None))[0]
        assert records == run_experiment(parsed)[0]
        assert len(records) == len(parsed.n_values) * parsed.runs
        assert {r.mutation for r in records} == {mutation}

    def test_no_oracle_above_the_hull_order_budget(self):
        inst = generate_with_inner(14, 6, 256, 1)  # n = 20; C(20, 6) * 6! = 27,907,200 interleavings
        assert strongest_oracle(inst) is None

    def test_inner_paired_shape_runs_no_held_karp(self, monkeypatch):
        # h = 9, k = 3: hull order builds 990 tours, Held-Karp's table has 11 * 2^11 entries
        forbid(monkeypatch, tsplab.experiment, "held_karp_optimum", why="ran where hull order builds fewer tours")
        cfg = dataclasses.replace(parse_config(SRC_DIR.parent / "configs" / "inner_paired.cfg"), budget=50, runs=1)
        records = run_experiment(cfg)[0]
        assert len(records) == 2
        assert all(r.optimum_length is not None for r in records)


class TestCsvContract:
    """The run CSV's bytes, pinned across commits.

    RLS without an optimum leaves mu, lambda, mutation and optimum_length
    empty; the (2+3) EA with a Held-Karp optimum leaves
    reached_local_optimum empty. Together the two files hold every cell
    type: strings, ints, floats, true, false and empty. The inner file
    pins the instance seeds over several (h, k) sizes, h-major, and the
    (size, mutation, run) row order. The convex file pins convex ids.
    """

    CONFIGS = {
        "rls": "family = grid\nn = 20\nm = 64\nalgorithm = rls\nbudget = 3000\nruns = 2\nbase_seed = 5\n",
        "ea": (
            "family = grid\nn = 8\nm = 64\nalgorithm = ea\nmu = 2\nlambda = 3\nmutation = two_opt,mixed\n"
            "budget = 2000\nruns = 2\nbase_seed = 5\n"
        ),
        "inner": (
            "family = inner\nh = 6,7\nk = 1,2\nm = 64\nalgorithm = ea\nmutation = two_opt,mixed\n"
            "budget = 2000\nruns = 2\nbase_seed = 5\n"
        ),
        "convex": "family = convex\nn = 8,10\nm = 128\nalgorithm = rls\nbudget = 2000\nruns = 2\nbase_seed = 5\n",
    }
    SHA256 = {
        "rls": "ca9af9f7a78f6e33b8e83dd40eb212f25dc2e4810e950dcd71451d7981e78ccb",
        "ea": "82ed1c6aba38d580fe56d00abf736756391c88b32131e8a2b28e12e8c75bb73c",
        "inner": "81a05f8626897137e52f565b85d01a154a4270ff83956e950fbc27e7ead91ba0",
        "convex": "5980a72b9d8057176464c5e1b5e600c7b5f0bd0bbc0e1efa8cc87ddc9225fe8f",
    }

    @pytest.mark.parametrize("name", ["rls", "ea", "inner", "convex"])
    def test_pinned_bytes(self, tmp_path, name):
        cfg = tmp_path / f"{name}.cfg"
        out = tmp_path / f"{name}.csv"
        cfg.write_text(self.CONFIGS[name] + f"out = {out}\n", encoding="utf-8")
        records, _ = run_experiment(parse_config(cfg))
        write_csv(records, out)
        data = out.read_bytes()
        assert data.decode().splitlines()[0] == CSV_HEADER
        cells = {c for line in data.decode().splitlines()[1:] for c in line.split(",")}
        assert {"", "true"} <= cells
        assert hashlib.sha256(data).hexdigest() == self.SHA256[name]


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
            ("budget = 100\nruns = 3\nmu = 0\n", "line 9: mu must be >= 1"),
            ("budget = 100\nruns = 3\nlambda = 0\n", "line 9: lambda must be >= 1"),
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
            (BASE.replace("convex", "ring"), "^family must be grid, convex, or inner, got 'ring'$"),
            (GRID.replace("grid", "Grid"), "^family must be grid, convex, or inner, got 'Grid'$"),
            (BASE.replace("rls", "sa"), "^algorithm must be rls or ea, got 'sa'$"),
            (INNER.replace("ea", "EA"), "^algorithm must be rls or ea, got 'EA'$"),
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
    # SHA-256 of the report, recorded when the statistics sampled a second,
    # readable copy of the operator; sampling run_ea's pricer must keep it
    REPORT_SHA256 = "df9410e87ffb069435c552b664a97a841ff65ac84a684b39d9382110a23b687b"

    def test_report_and_determinism(self):
        args = ("mutation-stats", "--n", "6", "--samples", "100000", "--seed", "7")
        r1 = cli(*args)
        assert r1.returncode == 0
        assert "p_one_inversion=" in r1.stdout
        assert "chi_square_stat=" in r1.stdout
        assert hashlib.sha256(r1.stdout.encode()).hexdigest() == self.REPORT_SHA256
        assert cli(*args).stdout == r1.stdout

    def test_sample_floor_enforced(self):
        r = cli("mutation-stats", "--n", "6", "--samples", "999")
        assert r.returncode == 1

    @pytest.mark.parametrize("n", ["0", "1", "2"])
    def test_too_few_points_rejected(self, n):
        r = cli("mutation-stats", "--n", n, "--samples", "100000")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: mutation statistics need n >= 3 points, got {n}\n"


class TestUsage:
    def test_unknown_command(self):
        assert cli("frobnicate").returncode == 1

    def test_help_exits_zero(self):
        assert cli("--help").returncode == 0
