import json
import os
import subprocess
import sys
from pathlib import Path

from kreps.cli import (
    EXIT_FAMILY_ASSERTION,
    EXIT_NOT_A_KNOT,
    EXIT_NOT_COMMUTING,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_kreps_bindings(monkeypatch, original, replacement):
    """Replace ``original`` at every kreps module binding that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "kreps" or name.startswith("kreps."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_knot_trefoil_json(capsys):
    report = run_json(capsys, "knot", "1^3", "-n", "2", "--json")
    assert report["determinant"] == "3"
    assert report["alexander_poly"] == "1 - t + t^2"
    assert report["rep_count"] == 1
    assert len(report["classes"]) == 1
    assert report["classes"][0]["modulus"] == 3
    assert all(report["checks"].values())


def test_knot_figure_eight(capsys):
    report = run_json(capsys, "knot", "1 -2 1 -2", "-n", "3", "--json")
    assert report["determinant"] == "5"
    assert report["rep_count"] == 2


def test_knot_unknot(capsys):
    report = run_json(capsys, "knot", "1", "-n", "2", "--json")
    assert report["determinant"] == "1"
    assert report["rep_count"] == 0
    assert report["classes"] == []


def test_knot_profile(capsys):
    report = run_json(capsys, "knot", "1^3", "-n", "2", "--rmax", "9", "--json")
    profile = {entry["r"]: entry for entry in report["colorings"]}
    assert profile[3]["condition_o"] == 3
    assert profile[3]["total"] == 9
    assert profile[4]["condition_o"] == 1


def test_knot_table_output(capsys):
    code, out, _ = run(capsys, "knot", "1^3", "-n", "2")
    assert code == EXIT_OK
    assert "determinant" in out
    assert "3" in out


def test_surface_pair(capsys):
    report = run_json(capsys, "surface", "1^3", "1^6", "-n", "2", "--json")
    assert report["determinant"] == "3"
    assert report["rep_count"] == 1
    assert report["checks"]["determinant_odd"]


def test_surface_fulltwist_flag(capsys):
    report = run_json(
        capsys, "surface", "1^3 2^3", "--fulltwist", "2", "-n", "3", "--json"
    )
    assert report["determinant"] == "9"
    assert report["rep_count"] == 4


def test_surface_only_p_cross_check(capsys):
    report = run_json(
        capsys,
        "surface", "1^3 2^3", "--fulltwist", "2", "-n", "3", "--rmax", "12", "--json",
    )
    assert report["checks"]["only_3_count_rule"] is True
    profile = {entry["r"]: entry["condition_o"] for entry in report["colorings"]}
    assert set(profile.values()) == {1, 9}


def test_surface_empty_second_braid(capsys):
    report = run_json(capsys, "surface", "1^3", "", "-n", "2", "--json")
    knot = run_json(capsys, "knot", "1^3", "-n", "2", "--json")
    assert report["determinant"] == knot["determinant"]


def test_family_cases(capsys):
    for n, p, m, count in ((2, 3, 1, 1), (3, 3, 1, 4), (2, 5, 1, 2)):
        report = run_json(capsys, "family", str(n), str(p), str(m), "--json")
        assert report["family"]["passed"]
        assert report["rep_count"] == count
        assert report["family"]["colorings_mod_p"] == p**n


def test_family_with_signs_and_perm(capsys):
    report = run_json(
        capsys, "family", "3", "3", "1", "--signs", "+-", "--perm", "2,1", "--json"
    )
    assert report["family"]["passed"]
    assert report["rep_count"] == 4


def test_family_signs_attached_dashes(capsys):
    # argparse may strip the value of --signs=--; it must then fail cleanly
    code, out, err = run(capsys, "family", "3", "3", "1", "--signs=--", "--json")
    if code == EXIT_OK:
        assert json.loads(out)["input"]["signs"] == [-1, -1]
    else:
        assert code == EXIT_USAGE
        assert err.startswith("error:")
    report = run_json(capsys, "family", "3", "3", "1", "--signs=-,-", "--json")
    assert report["input"]["signs"] == [-1, -1]


def test_knot_report_never_builds_free_words(capsys, monkeypatch):
    import kreps.presentations as presentations

    argv = ("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json")
    code, expected, _ = run(capsys, *argv)
    assert code == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a knot report reached the free-word route")

    for retired in (presentations.closure_presentation, presentations.fox_derivative_abelianized):
        patch_kreps_bindings(monkeypatch, retired, refuse)
    assert run(capsys, *argv)[:2] == (EXIT_OK, expected)


def test_reports_reduce_each_matrix_once(capsys, monkeypatch):
    import kreps.intlinalg as intlinalg

    original = intlinalg.smith_normal_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the figure-eight knot has one matrix; the family surface has its own
    # and its base knot's
    for argv, expected_calls in (
        (("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json"), 1),
        (("family", "3", "3", "1"), 2),
    ):
        code, expected, _ = run(capsys, *argv)
        assert code == EXIT_OK
        with monkeypatch.context() as patch:
            patch_kreps_bindings(patch, original, counted)
            calls.clear()
            assert run(capsys, *argv)[:2] == (EXIT_OK, expected)
        assert len(calls) == expected_calls, argv


def test_knot_report_takes_one_minor(capsys, monkeypatch):
    import kreps.laurent as laurent

    argv = ("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json")
    code, expected, _ = run(capsys, *argv)
    assert code == EXIT_OK
    calls = {"laurent_det": 0, "poly_gcd": 0}

    def counter(name):
        original = getattr(laurent, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return original, counted

    def refuse(*args, **kwargs):
        raise AssertionError("a knot report did Laurent-polynomial work")

    for name in calls:
        patch_kreps_bindings(monkeypatch, *counter(name))
    monkeypatch.setattr(laurent.LaurentPoly, "shifted_sum", refuse)
    monkeypatch.setattr(laurent.LaurentMatrix, "__post_init__", refuse)
    assert run(capsys, *argv)[:2] == (EXIT_OK, expected)
    # the minor and the Burau determinant are integer determinants
    assert calls == {"laurent_det": 0, "poly_gcd": 0}


def test_parser_is_reused_across_calls(capsys):
    import kreps
    import kreps.cli as cli

    assert cli.build_parser() is cli.build_parser()
    code, _, err = run(capsys, "knot", "1^3", "--json")
    assert code == EXIT_USAGE and "required" in err
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK and out.startswith("usage: kreps")
    argv = ["knot", "1^3", "-n", "2", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    env = dict(os.environ, PYTHONPATH=str(Path(kreps.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "kreps", *argv], capture_output=True, text=True, env=env, check=True
    )
    assert out == fresh.stdout


def test_exit_code_family_assertion(capsys, monkeypatch):
    import kreps.cli as cli
    from kreps.colorings import ColoringCensus

    def broken_census(a, b, r, cap=None):
        return ColoringCensus(modulus=r, total=1, nontrivial=0, nondegenerate=False, condition_o=1)

    monkeypatch.setattr(cli, "surface_coloring_census", broken_census)
    code, _, err = run(capsys, "family", "2", "3", "1", "--json")
    assert code == EXIT_FAMILY_ASSERTION
    assert "diverged" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "knot", "9", "-n", "2", "--json")
    assert code == EXIT_USAGE
    assert "error" in err


def test_huge_run_is_a_parse_error(capsys):
    code, out, err = run(capsys, "knot", "1^1000000000", "-n", "2", "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and "exceeds" in err


def test_family_words_over_the_cap_are_refused(capsys):
    import time

    # c would have 2 * 10007 letters, b 3 * 2 * 2 * 2000 letters
    for argv in (("family", "3", "10007", "1"), ("family", "3", "3", "2000")):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and "10000 letters" in err, argv


def test_exit_code_not_a_knot(capsys):
    code, _, _ = run(capsys, "knot", "1^2", "-n", "2", "--json")
    assert code == EXIT_NOT_A_KNOT


def test_exit_code_not_commuting(capsys):
    code, _, _ = run(capsys, "surface", "1 2", "1", "-n", "3", "--json")
    assert code == EXIT_NOT_COMMUTING


def test_surface_rejects_double_second_braid(capsys):
    code, _, _ = run(capsys, "surface", "1^3", "1^6", "--fulltwist", "1", "-n", "2")
    assert code == EXIT_USAGE


def test_verify_mismatch_path(capsys, monkeypatch):
    import kreps.cli as cli

    monkeypatch.setattr(cli, "_braid_mismatch", lambda a: "synthetic mismatch")
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    report = json.loads(out)
    assert not report["passed"]
    assert "synthetic mismatch" in report["failure"]


def test_verify_checks_the_base_column_gcd(capsys, monkeypatch):
    import kreps.cli as cli
    from kreps.laurent import LaurentPoly

    monkeypatch.setattr(cli, "alexander_poly", lambda m: LaurentPoly.zero())
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "base-column gcd 0" in json.loads(out)["failure"]
    # the twisted-pair sweep runs the same check on its own
    monkeypatch.setattr(cli, "_braid_mismatch", lambda a: None)
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "all-minors gcds differ" in json.loads(out)["failure"]


def test_verify_checks_the_packed_routes_on_long_words(capsys, monkeypatch):
    import kreps.cli as cli
    from kreps.laurent import LaurentPoly

    # wrong only past the 8 letters of the random sweep, so only the long words see it
    for name in ("knot_poly", "burau_alexander"):
        original = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda a, f=original: f(a) if len(a.letters) <= 8 else LaurentPoly.one()
        )
        code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "4", "--json")
        assert code == cli.EXIT_VERIFY_MISMATCH
        report = json.loads(out)
        assert report["braids_checked"] == 4
        assert report["failure"].startswith("long braid 1^101 on 2 strands: ")
        monkeypatch.setattr(cli, name, original)
    assert run(capsys, "verify", "--seed", "3", "--trials", "4")[0] == EXIT_OK


def test_verify_deterministic(capsys):
    first = run_json(capsys, "verify", "--seed", "7", "--trials", "6", "--json")
    second = run_json(capsys, "verify", "--seed", "7", "--trials", "6", "--json")
    assert first == second
    assert first["passed"]
    assert first["braids_checked"] == 6


def test_json_round_trip(capsys):
    report = run_json(capsys, "knot", "1^5", "-n", "2", "--json")
    again = json.loads(json.dumps(report))
    assert again == report
    assert int(report["determinant"]) == 5
