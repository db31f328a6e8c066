import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from pibounds import primes
from pibounds.bounds import ScaledLog, builtin_bounds, evaluate
from pibounds.cli import build_parser, floor_exact, main

from numerics import integers_where_log_differs
from oracle import pi_oracle_trial_division, pi_rows_counts

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "bench" / "reference" / "verify_full.json"

# prints on stderr the SIMD targets numpy dispatches to, the points where a
# point value is off the scans' kernel (the integers on stdin and a seeded
# sample), the sampled logs not within eps and the rows of a 2,000-row table
# over every builtin bound whose cells are not what `bound eval` prints at
# their x; then runs verify
VERIFY_CHILD = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from pibounds.bounds import builtin_bounds, evaluate
from pibounds.cli import main
from numerics import log_points, logs_outside_eps, point_sample, points_off_the_kernel
print(*[t for t in __cpu_dispatch__ if __cpu_features__[t]], file=sys.stderr)
xs = json.load(sys.stdin) + point_sample(1000, seed=33)
print("points off the kernel:", points_off_the_kernel(xs), file=sys.stderr)
print("logs outside eps:", logs_outside_eps(log_points(sample=True)), file=sys.stderr)
bounds = builtin_bounds()
with contextlib.redirect_stdout(io.StringIO()) as table:
    main(["table", "--from", "4", "--to", "4997504", "--step", "2500",
          "--bounds", ",".join(bounds)])
rows = [row.split(",") for row in table.getvalue().splitlines()[1:]]
off = [x for x, _, *cells in rows
       if cells != [repr(evaluate(b, float(x)).value) for b in bounds.values()]]
print("table rows off bound eval:", len(rows), off, file=sys.stderr)
sys.exit(main(["verify", "--format", "json"]))
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPi:
    @pytest.fixture
    def legendre_queries(self, monkeypatch):
        """The x of each Legendre query pi_at makes, in order."""
        queries, query = [], primes.pi_point_legendre
        monkeypatch.setattr(primes, "pi_point_legendre",
                            lambda x, cap: queries.append(x) or query(x, cap=cap))
        return queries

    def test_pi_100(self, capsys):
        code, out, _ = run(capsys, "pi", "100")
        assert code == 0
        assert out.strip() == "25"

    def test_pi_floors_reals(self, capsys):
        code, out, _ = run(capsys, "pi", "16.999")
        assert code == 0
        assert out.strip() == "6"

    def test_pi_legendre(self, capsys, legendre_queries):
        assert run(capsys, "pi", "1000000") == (0, "78498\n", "")
        # above the cap, a Legendre query
        assert run(capsys, "pi", "10000000000") == (0, "455052511\n", "")
        assert legendre_queries == [10**10]

    def test_pi_sieve(self, capsys, legendre_queries):
        # the words serve n up to the cap, and the next n takes a Legendre query
        assert run(capsys, "--cap", "1000", "pi", "1000") == (0, "168\n", "")
        assert legendre_queries == []
        assert run(capsys, "--cap", "1000", "pi", "1001") == (0, "168\n", "")
        assert legendre_queries == [1001]

    def test_pi_of_2_reads_the_words_at_cap_0(self, capsys, legendre_queries):
        # as a table's rows do; psi's table is sized from n, so it refuses 2
        assert run(capsys, "--cap", "0", "pi", "2") == (0, "1\n", "")
        assert legendre_queries == []
        assert run(capsys, "--cap", "0", "psi", "2")[0] == 2

    def test_pi_floors_exactly_above_the_cap(self, capsys):
        # as a float, x would round up to the prime 1000003
        code, out, _ = run(capsys, "--cap", "1000", "pi", "1000002.99999999999999999999")
        assert code == 0
        assert out.strip() == "78498"

    def test_pi_negative(self, capsys):
        code, _, err = run(capsys, "pi", "--", "-3")
        assert code == 2
        assert "error" in err


class TestPsi:
    def test_psi_10(self, capsys):
        code, out, _ = run(capsys, "psi", "10")
        assert code == 0
        assert float(out.strip()) == pytest.approx(7.832014180505469, rel=1e-15)

    @pytest.mark.parametrize("argv, n", [
        pytest.param(("psi", "1e3"), 1000, id="1e3-1000"),
        pytest.param(("psi", "12.7"), 12, id="12.7-12"),
        # psi(1) = 0 needs no table, so no cap refuses it, as for pi
        pytest.param(("--cap", "0", "psi", "1"), 1, id="cap0-1"),
    ])
    def test_psi_floors_decimals(self, capsys, argv, n):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == f"{primes.psi_at(n).value}\n"


class TestBound:
    def test_list_names(self, capsys):
        code, out, _ = run(capsys, "bound", "list")
        assert code == 0
        for name in builtin_bounds():
            assert name in out

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "bound", "eval", "cheb_upper", "100")
        assert code == 0
        assert float(out.strip()) == pytest.approx(24.0067225069, abs=1e-9)

    def test_eval_domain_error(self, capsys):
        # log 3 ~ 1.0986 < 1.11, outside the shifted-log domain
        code, _, err = run(capsys, "bound", "eval", "pan_upper", "3")
        assert code == 2
        assert "pan_upper" in err

    def test_unknown_bound_lists_options(self, capsys):
        code, _, err = run(capsys, "bound", "eval", "nope", "10")
        assert code == 2
        assert "cheb_upper" in err and "pan_lower" in err


class TestScan:
    def test_pass_exits_zero(self, capsys):
        code, out, _ = run(capsys, "scan", "--bound", "cheb_upper", "--dir", "upper",
                           "--from", "96098", "--to", "112006")
        assert code == 0
        assert out.startswith("PASS")

    def test_fail_exits_one(self, capsys):
        code, out, _ = run(capsys, "scan", "--bound", "cheb_upper", "--dir", "upper",
                           "--from", "96097", "--to", "96097")
        assert code == 1
        assert out.startswith("FAIL")
        assert "witness=96097" in out

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run(capsys, "scan", "--bound", "pan_upper", "--dir", "upper",
                           "--from", "3", "--to", "10")
        assert code == 2


class TestCrossover:
    def test_prints_threshold(self, capsys):
        code, out, _ = run(capsys, "crossover", "--left", "dusart_upper",
                           "--right", "pan_upper", "--from", "30", "--to", "50000")
        assert code == 0
        assert "threshold=28516" in out
        assert "sign_changes=1" in out

    def test_not_found_exits_one(self, capsys):
        code, _, err = run(capsys, "crossover", "--left", "dusart_upper",
                           "--right", "pan_upper", "--from", "30", "--to", "20000")
        assert code == 1


class TestVerify:
    def test_single_claim_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "C3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["all_match"] is True
        assert obj["claims"][0]["id"] == "C3"

    def test_c2_c4_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "C2,C4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [e["status"] for e in obj["claims"]] == ["MATCH", "MATCH"]

    def test_mismatch_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "C8b", "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["claims"][0]["status"] == "MISMATCH"
        assert obj["claims"][0]["witness"] == 24254

    @pytest.mark.parametrize("ids, named", [("C99", "C99"), (",", "no claim ids")])
    def test_unknown_claim_exits_two(self, capsys, ids, named):
        code, _, err = run(capsys, "verify", "--claims", ids)
        assert code == 2
        assert named in err and "C13" in err
        assert err.count("error:") == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "C1,C15")
        assert code == 0
        assert "C1" in out and "C15" in out and "all_match: true" in out

    def test_reruns_give_identical_output(self, capsys):
        def scrubbed(*argv):
            code, out, _ = run(capsys, *argv)
            obj = json.loads(out)
            for e in obj["claims"]:
                e["elapsed_ms"] = 0
            return code, json.dumps(obj)

        a = scrubbed("verify", "--claims", "C5,C13", "--format", "json")
        b = scrubbed("verify", "--claims", "C5,C13", "--format", "json")
        assert a == b

    def test_every_simd_path_of_this_cpu_gives_the_pinned_report(self):
        """numpy picks its float64 log at run time from the SIMD targets the
        CPU has.  NPY_DISABLE_CPU_FEATURES turns the targets this CPU has off
        from the top down, one setting a subprocess, to numpy's baseline, and
        each must print the pinned report, give point values equal to the
        scans' kernel, table cells equal to `bound eval`'s values, which the
        table takes from the kernel a block at a time, and a log within eps at
        the seeded sample.  The points
        include the integers where this CPU's top path differs from libm.  No
        target the CPU lacks is simulated, so another machine may run a path
        that this one never does."""
        found = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                   os.environ.get("PYTHONPATH")]))
        differ = json.dumps(integers_where_log_differs())
        ran = []
        for k in range(len(found), -1, -1):
            env = {**os.environ, "PYTHONPATH": pythonpath,
                   "NPY_DISABLE_CPU_FEATURES": " ".join(found[k:])}
            done = subprocess.run([sys.executable, "-c", VERIFY_CHILD], env=env, input=differ,
                                  capture_output=True, text=True, timeout=60)
            assert done.stderr.splitlines() == [" ".join(found[:k]), "points off the kernel: []",
                                                "logs outside eps: []",
                                                "table rows off bound eval: 2000 []"], done.stderr
            obj = json.loads(done.stdout)
            for e in obj["claims"]:
                e["elapsed_ms"] = 0
            top = found[k - 1] if k else "baseline " + " ".join(__cpu_baseline__)
            assert json.dumps(obj, indent=2) + "\n" == PINNED.read_text(), top
            ran.append(top)
        print("pinned report, point values and log sample on SIMD paths: " + ", ".join(ran))


class TestTable:
    def test_csv_round_trips(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "90", "--to", "110",
                           "--step", "2", "--bounds", "cheb_upper,unit_lower")
        assert code == 0
        assert "\r" not in out
        lines = out.strip().split("\n")
        assert lines[0] == "x,pi,cheb_upper,unit_lower"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(pi) for _, pi, *_ in rows] == [primes.pi_at(int(x)) for x, *_ in rows]
        # each cell is the value a scan's kernel gives at its row
        xs = np.array([float(x) for x, *_ in rows])
        registry = builtin_bounds()
        for col, name in enumerate(("cheb_upper", "unit_lower"), start=2):
            vals, _ = registry[name].values_with_error(xs, np.log(xs))
            assert [float(row[col]) for row in rows] == vals.tolist(), name

    def test_without_bounds(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "2", "--to", "5", "--step", "1")
        assert code == 0
        assert out.splitlines()[0] == "x,pi"

    def test_unknown_bound(self, capsys):
        code, _, err = run(capsys, "table", "--from", "2", "--to", "5",
                           "--step", "1", "--bounds", "zzz")
        assert code == 2

    def test_rows_up_to_the_cap_build_the_count_table_once(self, capsys):
        primes.clear_caches()
        code, out, _ = run(capsys, "--cap", "2000", "table",
                           "--from", "1910", "--to", "2000", "--step", "10")
        assert code == 0
        rank = primes.table_stats()["rank"]
        assert (rank["builds"], rank["growths"]) == (1, 0)
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [str(x) for x in range(1910, 2001, 10)]
        for r in rows:
            x, pi = map(int, r.split(","))
            assert pi == pi_oracle_trial_division(x)


    def test_rows_past_the_cap_count_as_point_queries(self, capsys):
        # one Legendre query at the first row past the cap, or pi(cap), then
        # a sieved running count: the same pi as a point query at every row
        # (the words unbuilt, from 5 with step 500 the last row below the cap is 495 below it)
        for start, step in (("990", "3"), ("1001", "3"), ("5", "500")):
            primes.clear_caches()
            code, out, _ = run(capsys, "--cap", "1000", "table", "--from", start,
                               "--to", "1900", "--step", step, "--bounds", "pan_upper")
            assert code == 0
            for row in out.splitlines()[1:]:
                x, pi, _ = row.split(",")
                assert int(pi) == primes.pi_at(int(x), cap=1000)

    def test_blocks_give_the_scalar_path_cell_for_cell(self, capsys):
        # two full blocks and a partial one; the old path, a scalar evaluate
        # per cell and pi_at per row, is the oracle
        bounds = builtin_bounds()
        code, out, _ = run(capsys, "table", "--from", "4", "--to", "10000",
                           "--bounds", ",".join(bounds))
        assert code == 0
        want = [",".join(["x", "pi", *bounds])]
        want += [",".join([str(x), str(primes.pi_at(x)),
                           *(repr(evaluate(b, float(x)).value) for b in bounds.values())])
                 for x in range(4, 10001)]
        assert out.splitlines() == want
        code, out, _ = run(capsys, "table", "--from", "0", "--to", "9000")
        assert code == 0
        assert out.splitlines() == ["x,pi"] + [f"{x},{primes.pi_at(x)}" for x in range(9001)]

    @pytest.mark.parametrize("rows, cap", [
        (range(0, 9000), 10**4),  # the rank directory, in blocks
        (range(0, 3000), 1000),  # then a sieved running count
        (range(500, 10**8, 2 * 10**7), 10**4),  # then a Legendre query a row
    ], ids=["below", "sieved", "legendre"])
    def test_pi_rows_yields_blocks_of_rows_and_their_counts(self, rows, cap):
        pi_rows_counts(rows, cap=cap)

    def test_a_non_finite_cell_ends_the_table_after_the_rows_before_it(self, capsys,
                                                                        monkeypatch):
        # inf in the second block, not at its first row; neither the first
        # column's bad cell a row later nor the last column's in the same row
        # comes first
        kernel = ScaledLog.values_with_error
        bad = {"unit_lower": 5001.0, "cheb_upper": 5000.0, "d125506": 5000.0}

        def patched(self, xs, logs):
            vals, errs = kernel(self, xs, logs)
            return np.where(xs == bad.get(self.name), np.inf, vals), errs

        code, want, _ = run(capsys, "table", "--from", "2", "--to", "4999",
                            "--bounds", ",".join(bad))
        assert code == 0
        monkeypatch.setattr(ScaledLog, "values_with_error", patched)
        code, out, err = run(capsys, "table", "--from", "2", "--to", "6000",
                             "--bounds", ",".join(bad))
        assert (code, out) == (2, want)
        assert err == ("error: bound 'cheb_upper' has no finite value or error bound "
                       "at x=5000.0\n")

    @pytest.mark.parametrize("argv, read", [
        (["--from", "100", "--to", "200099", "--bounds", "cheb_upper"], 200_099),
        # past the cap: a Legendre query at 5*10**6 on the primes up to its
        # root 2236, then a sieved running count
        (["--from", "5000001", "--to", "5200000"], 2236),
    ], ids=["below", "past_cap"])
    def test_a_long_table_streams(self, traced_peak, argv, read):
        # one block fits under the bound; a whole column of floats, strings or
        # lines of these 2*10**5 rows would not, nor a window's rows as ints
        primes.pi_at(read)  # the rank directory it reads, built before tracing

        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        def table():
            with contextlib.redirect_stdout(Discard()):
                return main(["table", *argv])

        code, peak = traced_peak(table)
        assert code == 0
        assert peak < 4 * 2**20

    def test_sparse_rows_far_past_the_cap_are_point_queries(self, capsys):
        # wider than the cap, 10**7 apart: a Legendre query a row, not a sieve of 10**8
        code, out, _ = run(capsys, "table", "--from", "1000000000",
                           "--to", "1100000000", "--step", "10000000")
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [int(x) for x, _ in rows] == list(range(10**9, 11 * 10**8 + 1, 10**7))
        assert rows[0][1] == "50847534"  # pi(10**9)
        assert int(rows[-1][1]) == primes.pi_point_legendre(11 * 10**8)


class TestEdgeInputs:
    """Non-finite arguments and a negative cap: one error line, exit 2."""

    @staticmethod
    def rejected(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    def test_pi_inf(self, capsys):
        assert "finite" in self.rejected(capsys, "pi", "inf")

    def test_pi_nan(self, capsys):
        assert "finite" in self.rejected(capsys, "pi", "nan")

    def test_bound_eval_inf(self, capsys):
        assert "finite" in self.rejected(capsys, "bound", "eval", "cheb_upper", "inf")

    def test_bound_eval_nan(self, capsys):
        assert "finite" in self.rejected(capsys, "bound", "eval", "cheb_upper", "nan")

    @pytest.mark.parametrize("name", ["psi_upper", "cheb_upper_2x", "d125506"])
    def test_bound_eval_overflow(self, capsys, name):
        # x is finite, but the bound's value or error bound at it is not
        assert "finite" in self.rejected(capsys, "bound", "eval", name, "1.7e308")

    def test_bound_eval_near_the_float_ceiling(self, capsys):
        # a bound that stays finite there is still evaluated
        code, out, err = run(capsys, "bound", "eval", "unit_lower", "1.7e308")
        assert (code, err) == (0, "")
        assert 1e305 < float(out) < 1e306

    def test_negative_cap(self, capsys):
        assert "cap -5 must be >= 0" in self.rejected(capsys, "--cap", "-5", "pi", "100")

    @pytest.mark.parametrize("cap, x", [
        ("100000000000000000000000", "1" + "0" * 42),  # once numpy's bare size error
        (str(primes.MAX_CAP + 1), "1000"),
    ])
    def test_cap_above_the_ceiling(self, capsys, no_tables, cap, x):
        err = self.rejected(capsys, "--cap", cap, "pi", x)
        assert f"MAX_CAP = {primes.MAX_CAP}" in err

    @pytest.mark.parametrize("x", ["1e30"], ids=["auto"])
    def test_pi_far_above_the_cap(self, capsys, x):
        assert "cap" in self.rejected(capsys, "pi", x)

    @pytest.mark.parametrize("argv, quoted", [
        pytest.param(("pi", "1e4000"), "isqrt(1.000000e+4000) = 1.000000e+2000",
                     id="argv0-isqrt(1.000000e+4000) = 1.000000e+2000"),
        pytest.param(("psi", "1e400"), "argument 1.000000e+400 exceeds",
                     id="argv2-argument 1.000000e+400 exceeds"),
        pytest.param(("--cap", "9" * 400, "pi", "10"), "cap 1.000000e+400 is above",
                     id="argv3-cap 1.000000e+400 is above"),
    ])
    def test_a_huge_number_is_quoted_short(self, capsys, argv, quoted):
        # quoted in full, 1e4000 and its root once made a 6,090-character line
        err = self.rejected(capsys, *argv)
        assert len(err) < 200 and quoted in err

    def test_pi_huge_exponent(self, capsys):
        assert "10**" in self.rejected(capsys, "pi", "1e999999999")

    def test_pi_not_a_number(self, capsys):
        assert "decimal" in self.rejected(capsys, "pi", "0x10")

    @pytest.mark.parametrize("x", ["nan", "inf", "-1", "abc"])
    def test_psi_bad_x(self, capsys, x):
        self.rejected(capsys, "psi", x)

    @pytest.mark.parametrize("argv, message", [
        (("table", "--from", "1", "--to", "3", "--bounds", "cheb_upper"), "undefined"),
        (("--cap", "10", "table", "--from", "100", "--to", "200", "--step", "50"), "cap"),
        (("table", "--from", "-2", "--to", "2"), "--from"),
        (("table", "--from", "3", "--to", "2"), "--to"),
        (("table", "--from", "0", "--to", "1" + "0" * 30), "cap"),  # len(rows) overflows
        (("--cap", "1000", "table", "--from", "0", "--to", "999999", "--step", "2"),
         "span more than"),
    ])
    def test_table_rejects_before_the_header(self, capsys, argv, message):
        assert message in self.rejected(capsys, *argv)

    def test_crossover_beyond_the_cap(self, capsys):
        # without the cap check this scans 1e12 integers
        assert "cap" in self.rejected(capsys, "crossover",
                                      "--left", "dusart_upper", "--right", "pan_upper",
                                      "--from", "30", "--to", "1000000000000")


class TestFloorExact:
    def test_integers_above_2_53_stay_exact(self):
        assert floor_exact("9007199254740993") == 9007199254740993

    def test_decimals_floor(self):
        assert floor_exact("12.7") == 12
        assert floor_exact("1e3") == 1000
        assert floor_exact("16.999") == 16
        assert floor_exact("0") == 0

    def test_exponent_beyond_float_range(self):
        assert floor_exact("1e400") == 10**400


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_the_threads_option_is_gone(self, capsys):
        # scans run on the calling thread; no option chooses otherwise
        assert not hasattr(build_parser().parse_args(["verify"]), "threads")
        assert run(capsys, "--threads", "1", "verify")[0] == 2
        assert run(capsys, "--threads", "-1", "scan", "--bound", "cheb_upper", "--dir",
                   "upper", "--from", "96098", "--to", "96200")[0] == 2

    def test_every_option_is_named_here(self):
        # a new option, or one dropped, changes this test on purpose
        def options(parser, path=()):
            found = {" ".join(path): {o for a in parser._actions for o in a.option_strings}}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        found.update(options(child, (*path, name)))
            return found

        help_ = {"-h", "--help"}
        assert options(build_parser()) == {
            "": {"--cap", *help_},
            "pi": help_,
            "psi": help_,
            "bound": help_,
            "bound list": help_,
            "bound eval": help_,
            "scan": {"--bound", "--dir", "--from", "--to", *help_},
            "crossover": {"--left", "--right", "--from", "--to", *help_},
            "verify": {"--claims", "--format", *help_},
            "table": {"--from", "--to", "--step", "--bounds", *help_},
        }

    def test_failed_parse_leaves_the_parser_usable(self, capsys):
        assert run(capsys, "psi")[0] == 2
        code, out, _ = run(capsys, "pi", "100")
        assert code == 0
        assert out.strip() == "25"
