import json

import pytest

from pibounds import primes
from pibounds.bounds import builtin_bounds, evaluate
from pibounds.cli import build_parser, floor_exact, main

from oracle import pi_oracle_trial_division


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPi:
    def test_pi_100(self, capsys):
        code, out, _ = run(capsys, "pi", "100")
        assert code == 0
        assert out.strip() == "25"

    def test_pi_floors_reals(self, capsys):
        code, out, _ = run(capsys, "pi", "16.999")
        assert code == 0
        assert out.strip() == "6"

    def test_pi_legendre(self, capsys):
        code, out, _ = run(capsys, "pi", "1000000", "--method", "legendre")
        assert code == 0
        assert out.strip() == "78498"
        # above the cap, auto takes the same route
        code, out, _ = run(capsys, "pi", "10000000000")
        assert code == 0
        assert out.strip() == "455052511"

    def test_pi_sieve(self, capsys):
        code, out, _ = run(capsys, "pi", "100", "--method", "sieve")
        assert code == 0
        assert out.strip() == "25"
        # the sieve serves n up to the cap and refuses the next one
        code, out, _ = run(capsys, "--cap", "1000", "pi", "1000", "--method", "sieve")
        assert code == 0
        assert out.strip() == "168"
        err = TestEdgeInputs.rejected(capsys, "--cap", "1000", "pi", "1001", "--method", "sieve")
        assert "cap" in err

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


class TestTable:
    def test_csv_round_trips(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "90", "--to", "110",
                           "--step", "2", "--bounds", "cheb_upper,unit_lower")
        assert code == 0
        assert "\r" not in out
        lines = out.strip().split("\n")
        assert lines[0] == "x,pi,cheb_upper,unit_lower"
        registry = builtin_bounds()
        for line in lines[1:]:
            xs, pis, *vals = line.split(",")
            x = int(xs)
            assert int(pis) == primes.pi_at(x)
            assert float(vals[0]) == evaluate(registry["cheb_upper"], x).value
            assert float(vals[1]) == evaluate(registry["unit_lower"], x).value

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
        assert "--cap" in self.rejected(capsys, "--cap", "-5", "pi", "100")

    @pytest.mark.parametrize("cap, x", [
        ("100000000000000000000000", "1" + "0" * 42),  # once numpy's bare size error
        (str(primes.MAX_CAP + 1), "1000"),
    ])
    def test_cap_above_the_ceiling(self, capsys, no_tables, cap, x):
        err = self.rejected(capsys, "--cap", cap, "pi", x)
        assert f"MAX_CAP = {primes.MAX_CAP}" in err

    @pytest.mark.parametrize("method", ["auto", "legendre", "sieve"])
    def test_pi_far_above_the_cap(self, capsys, method):
        assert "cap" in self.rejected(capsys, "pi", "1e30", "--method", method)

    @pytest.mark.parametrize("argv, quoted", [
        (("pi", "1e4000"), "isqrt(1.000000e+4000) = 1.000000e+2000"),
        (("pi", "1e4000", "--method", "sieve"), "query 1.000000e+4000 exceeds"),
        (("psi", "1e400"), "argument 1.000000e+400 exceeds"),
        (("--cap", "9" * 400, "pi", "10"), "cap 1.000000e+400 is above"),
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

    def test_failed_parse_leaves_the_parser_usable(self, capsys):
        assert run(capsys, "psi")[0] == 2
        code, out, _ = run(capsys, "pi", "100")
        assert code == 0
        assert out.strip() == "25"
