import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.braids import closure_component_count, parse_braid
from kreps.cli import (
    EXIT_FAMILY_ASSERTION,
    EXIT_NOT_A_KNOT,
    EXIT_NOT_COMMUTING,
    EXIT_OK,
    EXIT_USAGE,
    _json_text,
    _odd_prime_factors,
    _parse_argv,
    _parse_perm,
    _parse_signs,
    main,
)
from kreps.colorings import ProfileRow
from kreps.metabelian import RepClass


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


FIGURE_EIGHT_TABLE = """\
input.kind               knot
input.braid              1 -2 1 -2
input.strands            3
determinant              5
alexander_poly           1 - 3*t + t^2
rep_count                2
class                    mod 5  coloring [1, 4, 0]  angles [6, 4, 0]
class                    mod 5  coloring [2, 3, 0]  angles [2, 8, 0]
colorings                r=2  total=2  condition_o=1
colorings                r=3  total=3  condition_o=1
colorings                r=4  total=4  condition_o=1
colorings                r=5  total=25  condition_o=5
colorings                r=6  total=6  condition_o=1
colorings                r=7  total=7  condition_o=1
colorings                r=8  total=8  condition_o=1
colorings                r=9  total=9  condition_o=1
check.burau_matches_fox  True
check.determinant_matches_poly True
check.class_count_matches_determinant True
"""

SURFACE_TABLE = """\
input.kind               surface
input.braid_a            1 1 1 2 2 2
input.braid_b            1 2 1 2 1 2 1 2 1 2 1 2
input.strands            3
determinant              9
alexander_poly           1 - 2*t + 3*t^2 - 2*t^3 + t^4
rep_count                4
class                    mod 9  coloring [0, 3, 0]  angles [0, 12, 0]
class                    mod 9  coloring [3, 0, 0]  angles [12, 0, 0]
class                    mod 9  coloring [3, 3, 0]  angles [12, 12, 0]
class                    mod 9  coloring [3, 6, 0]  angles [12, 6, 0]
colorings                r=2  total=2  condition_o=1
colorings                r=3  total=27  condition_o=9
colorings                r=4  total=4  condition_o=1
colorings                r=5  total=5  condition_o=1
colorings                r=6  total=54  condition_o=9
colorings                r=7  total=7  condition_o=1
colorings                r=8  total=8  condition_o=1
colorings                r=9  total=81  condition_o=9
colorings                r=10  total=10  condition_o=1
colorings                r=11  total=11  condition_o=1
colorings                r=12  total=108  condition_o=9
census                   r=3  total=27  condition_o=9  nondegenerate=True
check.determinant_odd    True
check.class_count_matches_determinant True
check.base_knot_determinant 9
check.census_consistent_mod_3 True
check.only_3_count_rule  True
"""


def test_knot_table_output(capsys):
    assert run(capsys, "knot", "1 -2 1 -2", "-n", "3", "--rmax", "9") == (
        EXIT_OK, FIGURE_EIGHT_TABLE, "")
    # (1 -2)^3 closes to the Borromean rings, a link
    assert run(capsys, "knot", "1 -2 1 -2 1 -2", "-n", "3", "--rmax", "9") == (
        EXIT_NOT_A_KNOT, "", "error: the closure of the braid is not a knot\n")


def test_surface_table_output(capsys):
    argv = ("surface", "1^3 2^3", "--fulltwist", "2", "-n", "3", "--rmax", "12")
    assert run(capsys, *argv) == (EXIT_OK, SURFACE_TABLE, "")


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
    for signs in ("--signs=--", "--signs=-,-"):
        report = run_json(capsys, "family", "3", "3", "1", signs, "--json")
        assert report["input"]["signs"] == [-1, -1], signs


def test_values_and_words_that_start_with_a_dash(capsys):
    # argparse read each of these dash-led tokens as an option and refused the line
    code, out, err = run(capsys, "knot", "-1^3", "-n", "2")
    assert (code, err) == (EXIT_OK, "")
    assert run(capsys, "knot", "-n", "2", "--", "-1^3") == (code, out, err)
    assert run(capsys, "surface", "-1^3", "-1^6", "-n", "2") == run(capsys, "surface", "-n", "2", "--", "-1^3", "-1^6")
    report = run_json(capsys, "family", "3", "3", "1", "--signs", "-+", "--json")
    assert report["input"]["signs"] == [-1, 1]
    assert _parse_argv(["family", "3", "3", "1", "--perm", "-2,1"]).perm == "-2,1"


def test_knot_report_never_builds_free_words(capsys, monkeypatch):
    import kreps.oracles as oracles

    # knot, surface and family reports alike
    argvs = (
        ("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json"),
        ("surface", "1^3", "1^6", "-n", "2", "--rmax", "12", "--json"),
        ("family", "3", "3", "1"),
    )
    expected = [run(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in expected] == [EXIT_OK] * len(argvs)

    def refuse(*args, **kwargs):
        raise AssertionError("a report reached the free-word route")

    for name in ("FreeWord", "free_reduce", "artin_act", "free_words_commute", "closure_presentation",
                 "fox_derivative_abelianized"):
        patch_kreps_bindings(monkeypatch, getattr(oracles, name), refuse)
    assert [run(capsys, *argv)[:2] for argv in argvs] == expected


def test_knot_report_runs_each_polynomial_route_once(capsys, monkeypatch):
    import kreps.cli as cli

    calls = []
    for name in ("knot_poly", "burau_alexander"):
        def counted(a, _route=getattr(cli, name), _name=name):
            calls.append(_name)
            return _route(a)

        monkeypatch.setattr(cli, name, counted)
    code, _, err = run(capsys, "knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json")
    assert code == EXIT_OK, err
    assert sorted(calls) == ["burau_alexander", "knot_poly"]


def test_reports_reduce_each_matrix_once(capsys, monkeypatch):
    import kreps.intlinalg as intlinalg

    original = intlinalg.smith_normal_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the figure-eight knot has one matrix; the family surface has its own,
    # its base knot's and its polynomial's content check at t = 1
    for argv, expected_calls in (
        (("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json"), 1),
        (("family", "3", "3", "1"), 3),
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
    import kreps.oracles as oracles

    argv = ("knot", "1 -2 1 -2", "-n", "3", "--rmax", "12", "--json")
    code, expected, _ = run(capsys, *argv)
    assert code == EXIT_OK
    calls = {"laurent_det": 0, "poly_gcd": 0}

    def counter(name):
        original = getattr(oracles, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return original, counted

    def refuse(*args, **kwargs):
        raise AssertionError("a knot report did Laurent-polynomial work")

    for name in calls:
        patch_kreps_bindings(monkeypatch, *counter(name))
    monkeypatch.setattr(laurent.LaurentMatrix, "__init__", refuse)
    # the Burau division is one integer divmod
    patch_kreps_bindings(monkeypatch, oracles.exact_div, refuse)
    monkeypatch.setattr(laurent.LaurentPoly, "__mul__", refuse)
    assert run(capsys, *argv)[:2] == (EXIT_OK, expected)
    # the minor and the Burau determinant are integer determinants
    assert calls == {"laurent_det": 0, "poly_gcd": 0}


def test_surface_report_takes_no_minor(capsys, monkeypatch):
    import kreps.oracles as oracles

    def refuse(*args, **kwargs):
        raise AssertionError("a surface report expanded a minor")

    # the polynomial is one elimination of the base-free columns
    for original in (oracles.laurent_det, oracles.poly_gcd):
        patch_kreps_bindings(monkeypatch, original, refuse)
    report = run_json(capsys, "family", "8", "3", "1", "--json")
    assert report["family"]["passed"] is True


def test_parser_is_reused_across_calls(capsys):
    import kreps
    import kreps.cli as cli

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

    def broken_census(a, b, r):
        return ColoringCensus(modulus=r, total=1, nondegenerate=False, condition_o=1)

    monkeypatch.setattr(cli, "surface_coloring_census", broken_census)
    code, _, err = run(capsys, "family", "2", "3", "1", "--json")
    assert code == EXIT_FAMILY_ASSERTION
    assert "diverged" in err


def test_odd_prime_factors_match_trial_division():
    def reference(n):
        return [d for d in range(3, n + 1, 2) if n % d == 0 and all(d % e for e in range(3, d, 2))]

    for n in range(1, 2000):
        assert _odd_prime_factors(n) == reference(n), n
    assert _odd_prime_factors(3**5 * 5 * 999_983**2 * 1_000_003) == [3, 5, 999_983, 1_000_003]


def test_large_determinants_are_factored_or_refused_at_once():
    import time

    prime = 1_000_000_000_000_000_009
    start = time.perf_counter()
    assert _odd_prime_factors(prime) == [prime]
    assert _odd_prime_factors(3 * 5 * prime) == [3, 5, prime]
    with pytest.raises(ValueError, match="cannot factor the determinant"):
        _odd_prime_factors((10**9 + 7) * (10**9 + 9))
    # beyond 3.3e24 Miller-Rabin with fixed bases proves nothing
    with pytest.raises(ValueError, match="cannot factor the determinant"):
        _odd_prime_factors(2**89 - 1)
    assert time.perf_counter() - start < 1


def test_unfactored_determinants_exit_1(capsys, monkeypatch):
    import kreps.cli as cli

    # with no trial divisors, the determinant 9 = 3 * 3 cannot be factored
    monkeypatch.setattr(cli, "_TRIAL_BOUND", 1)
    code, out, err = run(capsys, "surface", "1^3 2^3", "--fulltwist", "2", "-n", "3", "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: cannot factor the determinant")


def test_a_malformed_enumeration_cap_is_refused(capsys, monkeypatch):
    # a negative value, which int() accepted, is refused like one it did not
    for value in ("-1", "abc"):
        monkeypatch.setenv("KREPS_ENUM_CAP", value)
        code, out, err = run(capsys, "knot", "1^3", "-n", "2", "--json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: KREPS_ENUM_CAP must be a non-negative decimal integer, not {value!r}\n"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "knot", "9", "-n", "2", "--json")
    assert code == EXIT_USAGE
    assert "error" in err


def test_huge_run_is_a_parse_error(capsys):
    code, out, err = run(capsys, "knot", "1^1000000000", "-n", "2", "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and "exceeds" in err


def test_huge_strand_counts_are_parse_errors(capsys):
    import time

    for argv in (("knot", "", "-n", "100000000"), ("surface", "", "-n", "200000", "--fulltwist", "0")):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error:") and "strands" in err, argv


def test_family_words_over_the_cap_are_refused(capsys):
    import time

    # c would have 2 * 10007 letters, b 3 * 2 * 2 * 2000 letters
    for argv in (("family", "3", "10007", "1"), ("family", "3", "3", "2000")):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and "10000 letters" in err, argv


def test_full_twist_powers_over_the_cap_are_refused(capsys):
    import time

    # the full twist on n strands has n(n-1) letters
    for argv in (
        ("surface", "1 2", "-n", "3", "--fulltwist", "1667"),
        ("surface", "1 2", "-n", "3", "--fulltwist", "-2000"),
        ("surface", "", "-n", "200000", "--fulltwist", "1"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and "10000 letters" in err, argv
    # the zeroth power builds no full twist: it is the identity on any
    # number of strands, one included
    for braid, strands in (("1^3", "2"), ("", "1")):
        identity = run(capsys, "surface", braid, "", "-n", strands)
        assert identity[0] == EXIT_OK
        assert run(capsys, "surface", braid, "-n", strands, "--fulltwist", "0") == identity


def test_surface_reports_check_commutation_once(capsys, monkeypatch):
    import kreps.braids as braids

    original = braids.braids_commute
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    patch_kreps_bindings(monkeypatch, original, counted)
    for argv in (("surface", "1^3", "1^6", "-n", "2", "--rmax", "12", "--json"), ("family", "3", "3", "1", "--json")):
        calls.clear()
        report = run_json(capsys, *argv)
        assert report["censuses"], argv
        assert len(calls) == 1, argv


def test_commutation_of_long_powers_is_polynomial(capsys):
    import time

    # a and a^3 for a = (1 -2)^4: the free-word images took 45 s
    a = " ".join(["1 -2"] * 4)
    start = time.monotonic()
    code, out, err = run(capsys, "surface", a, " ".join(["1 -2"] * 12), "-n", "3")
    assert time.monotonic() - start < 5.0
    assert (code, err) == (EXIT_OK, "") and out


def test_exit_code_not_a_knot(capsys):
    code, _, _ = run(capsys, "knot", "1^2", "-n", "2", "--json")
    assert code == EXIT_NOT_A_KNOT
    # the knot check comes first: sigma_1^2 closes to a 3-component link and
    # does not commute with sigma_2
    code, out, err = run(capsys, "surface", "1^2", "2", "-n", "3", "--json")
    assert (code, out) == (EXIT_NOT_A_KNOT, "")
    assert err == "error: the closure of the first braid is not a knot\n"


def test_exit_code_not_commuting(capsys):
    code, _, _ = run(capsys, "surface", "1 2", "1", "-n", "3", "--json")
    assert code == EXIT_NOT_COMMUTING


def test_cheap_refusals_come_first(capsys):
    import time

    # the class cap is decided from the coloring form before the polynomial
    # routes run, and the knot check comes before the free-word commutation
    # check; each input took minutes when the order was the other way round
    knot_over_the_cap = " ".join(["1 -2"] * 2501)
    link = " ".join(["1 -2"] * 15)
    for argv, expected in (
        (("knot", knot_over_the_cap, "-n", "3"), EXIT_USAGE),
        (("surface", link, "-n", "3", "--fulltwist", "1"), EXIT_NOT_A_KNOT),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 5.0, argv[0]
        assert (code, out) == (expected, ""), argv[0]
        assert err.startswith("error: "), argv[0]
    # the error is one short line, which gives the solution count by its digits
    err = run(capsys, "knot", knot_over_the_cap, "-n", "3")[2]
    assert "exceed the cap" in err and "1,046-digit" in err
    assert len(err.encode()) < 200 and err.count("\n") == 1


def test_only_verify_reaches_the_oracles():
    import ast

    import kreps

    package = Path(kreps.__file__).parent

    def oracle_imports(module):
        tree = ast.parse((package / f"{module}.py").read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                found.append(node)
        return tree, found

    for module in ("__init__", "braids", "laurent", "intlinalg", "presentations", "colorings", "metabelian"):
        assert oracle_imports(module)[1] == [], module
    # no module but the oracles defines, imports or names a free word
    def names(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.alias):
            return {node.name, node.asname}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return {node.name}
        return set()

    for path in package.glob("*.py"):
        if path.stem != "oracles":
            for node in ast.walk(ast.parse(path.read_text())):
                assert not names(node) & {"FreeWord", "artin_act", "free_reduce"}, (path.name, names(node))
    # cli imports the sweep alone, inside main, where it runs verify
    tree, found = oracle_imports("cli")
    assert [[alias.name for alias in node.names] for node in found] == [["verify_report"]]
    main_def = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert found[0] in list(ast.walk(main_def))
    script = (
        "import contextlib, io, sys\n"
        "from kreps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['knot', '1^3', '-n', '2']) == 0\n"
        "    assert main(['surface', '1^3', '1^6', '-n', '2']) == 0\n"
        "    assert main(['family', '2', '3', '1']) == 0\n"
        "    assert 'kreps.oracles' not in sys.modules\n"
        "    assert main(['verify', '--trials', '1']) == 0\n"
        "assert 'kreps.oracles' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


def test_surface_rejects_double_second_braid(capsys):
    code, _, _ = run(capsys, "surface", "1^3", "1^6", "--fulltwist", "1", "-n", "2")
    assert code == EXIT_USAGE


def test_verify_mismatch_path(capsys, monkeypatch):
    import kreps.cli as cli
    import kreps.oracles as oracles

    monkeypatch.setattr(oracles, "braid_mismatch", lambda a: "synthetic mismatch")
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    report = json.loads(out)
    assert not report["passed"]
    assert "synthetic mismatch" in report["failure"]


def test_verify_checks_the_base_column_gcd(capsys, monkeypatch):
    import kreps.cli as cli
    import kreps.oracles as oracles
    from kreps.laurent import LaurentPoly

    monkeypatch.setattr(oracles, "alexander_poly", lambda m: LaurentPoly.zero())
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "base-column gcd 0" in json.loads(out)["failure"]
    # the twisted-pair sweep runs the same check on its own
    monkeypatch.setattr(oracles, "braid_mismatch", lambda a: None)
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "all-minors gcds differ" in json.loads(out)["failure"]


def test_verify_checks_the_packed_routes_on_long_words(capsys, monkeypatch):
    import kreps.cli as cli
    import kreps.oracles as oracles
    from kreps.laurent import LaurentPoly

    # wrong only past the 8 letters of the random sweep, so only the long words see it
    for name in ("knot_poly", "burau_alexander"):
        original = getattr(oracles, name)
        monkeypatch.setattr(
            oracles, name, lambda a, f=original: f(a) if len(a.letters) <= 8 else LaurentPoly.one()
        )
        code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "4", "--json")
        assert code == cli.EXIT_VERIFY_MISMATCH
        report = json.loads(out)
        assert report["braids_checked"] == 4
        assert report["failure"].startswith("long braid 1^101 on 2 strands: ")
        monkeypatch.setattr(oracles, name, original)
    assert run(capsys, "verify", "--seed", "3", "--trials", "4")[0] == EXIT_OK


def test_verify_checks_every_class_on_the_relators(capsys, monkeypatch):
    import kreps.cli as cli
    import kreps.oracles as oracles

    for name, message in (("verify_representation", "fails a free-word relator"), ("is_irreducible", "is reducible")):
        with monkeypatch.context() as patch:
            patch.setattr(oracles, name, lambda *args: False)
            # the fifth braid of seed 0 is the first with classes
            code, out, _ = run(capsys, "verify", "--seed", "0", "--trials", "5", "--json")
        assert code == cli.EXIT_VERIFY_MISMATCH, name
        assert message in json.loads(out)["failure"], name


def test_verify_checks_commutation_and_non_degeneracy(capsys, monkeypatch):
    import kreps.cli as cli
    import kreps.oracles as oracles

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "braid_mismatch", lambda a: None)
        patch.setattr(oracles, "braids_commute", lambda a, b: False)
        code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "Dynnikov and free-word commutation checks differ" in json.loads(out)["failure"]
    census = oracles.coloring_census
    monkeypatch.setattr(oracles, "coloring_census", lambda form, r: census(form, r)._replace(nondegenerate=True))
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "2", "--json")
    assert code == cli.EXIT_VERIFY_MISMATCH
    assert "census mismatch at r=2: matrix 2/1 nondegenerate, transport 2/1, diagram 2/1" in json.loads(out)["failure"]


@pytest.mark.parametrize(
    "options, option",
    [
        (["--trials", "-1"], "--trials"),
        (["--trials", "0"], "--trials"),
        (["--max-strands", "1"], "--max-strands"),
        (["--max-len", "0"], "--max-len"),
        (["--max-len", "-5", "--max-strands", "2"], "--max-len"),
        (["--max-strands", "1000000000", "--max-len", "3", "--trials", "1"], "--max-strands"),
        (["--max-strands", "6", "--max-len", "4"], "--max-strands"),
        # past these the free-word relators take minutes, or the transport
        # census of braid_mismatch exceeds the enumeration cap
        (["--max-len", "25"], "--max-len"),
        (["--max-len", "1000000000"], "--max-len"),
        (["--max-strands", "8", "--max-len", "24"], "--max-strands"),
        (["--trials", "20", "--max-strands", "12", "--max-len", "24"], "--max-strands"),
    ],
)
def test_verify_refuses_options_that_check_nothing(capsys, monkeypatch, options, option):
    from kreps.oracles import random_knot_braid

    # refused before any braid is drawn
    patch_kreps_bindings(monkeypatch, random_knot_braid, None)
    code, out, err = run(capsys, "verify", *options)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: " + option) and err.count("\n") == 1, err


def test_verify_accepts_the_smallest_options(capsys):
    report = run_json(capsys, "verify", "--trials", "1", "--max-strands", "2", "--max-len", "1", "--json")
    assert report["passed"] and report["braids_checked"] == 1
    report = run_json(capsys, "verify", "--trials", "1", "--max-strands", "4", "--max-len", "3", "--json")
    assert report["passed"] and report["class_forms_checked"] == 25


def test_verify_accepts_the_largest_options(capsys):
    import kreps.cli as cli

    assert (cli.MAX_VERIFY_STRANDS, cli.MAX_VERIFY_LEN) == (7, 24)
    report = run_json(capsys, "verify", "--trials", "1", "--max-strands", "7", "--max-len", "24", "--json")
    assert report["passed"] and report["braids_checked"] == 1


def test_rmax_over_the_bound_is_refused_before_any_work(capsys, monkeypatch):
    import kreps.cli as cli

    monkeypatch.setattr(cli, "parse_braid", None)
    for argv in (
        ["knot", "1^3", "-n", "2", "--rmax", "10001"],
        ["knot", "1^3", "-n", "2", "--rmax", str(10**30), "--json"],
        ["surface", "1^3", "-n", "2", "--fulltwist", "1", "--rmax", "20000"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == f"error: --rmax {argv[argv.index('--rmax') + 1]} exceeds 10000\n", argv
    monkeypatch.undo()
    # an --rmax below 2 is refused after the cheap knot and commutation
    # checks, which keep their exit codes, and before the coloring form
    monkeypatch.setattr(cli, "coloring_form", None)
    for argv in (
        ["knot", "1^4001", "-n", "2", "--rmax", "1"],
        ["knot", "1^3", "-n", "2", "--rmax", "-5", "--json"],
        ["surface", "1^3", "-n", "2", "--fulltwist", "1", "--rmax", "0"],
        ["surface", "1^3", "1^6", "-n", "2", "--rmax", "1", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == f"error: --rmax {argv[argv.index('--rmax') + 1]} must be at least 2\n", argv
    assert run(capsys, "knot", "1^2", "-n", "2", "--rmax", "1")[0] == EXIT_NOT_A_KNOT
    assert run(capsys, "surface", "1 2", "1", "-n", "3", "--rmax", "1")[0] == EXIT_NOT_COMMUTING
    monkeypatch.undo()
    assert cli.MAX_RMAX == 10_000
    report = run_json(capsys, "knot", "1^3", "-n", "2", "--rmax", "12", "--json")
    assert [row["r"] for row in report["colorings"]] == list(range(2, 13))


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


# -- the argv parser against argparse -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``kreps`` used before its own, kept as the
    reference reading of a command line."""
    parser = argparse.ArgumentParser(prog="kreps")
    sub = parser.add_subparsers(dest="command", required=True)

    knot = sub.add_parser("knot")
    knot.add_argument("braid")
    knot.add_argument("-n", "--strands", type=int, required=True)
    knot.add_argument("--rmax", type=int, default=None)
    knot.add_argument("--json", action="store_true")

    surface = sub.add_parser("surface")
    surface.add_argument("braid_a")
    surface.add_argument("braid_b", nargs="?", default="")
    surface.add_argument("-n", "--strands", type=int, required=True)
    surface.add_argument("--fulltwist", type=int, default=None, metavar="K")
    surface.add_argument("--rmax", type=int, default=None)
    surface.add_argument("--json", action="store_true")

    family = sub.add_parser("family")
    family.add_argument("n", type=int)
    family.add_argument("p", type=int)
    family.add_argument("m", type=int)
    family.add_argument("--signs", default=None)
    family.add_argument("--perm", default=None)
    family.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--max-strands", type=int, default=4)
    verify.add_argument("--max-len", type=int, default=8)
    verify.add_argument("--json", action="store_true")

    return parser


INT_ARGUMENTS = {"strands", "rmax", "fulltwist", "n", "p", "m", "seed", "trials", "max_strands", "max_len"}
VALUE_OPTIONS = {
    "knot": ("--strands", "--rmax"),
    "surface": ("--strands", "--fulltwist", "--rmax"),
    "family": ("--signs", "--perm"),
    "verify": ("--seed", "--trials", "--max-strands", "--max-len"),
}
HELP_TOKENS = {"-h", "--h", "--he", "--hel", "--help"}
NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def argparse_reading(argv, back=None):
    """("ok", values), ("help",) or ("error",) from the reference parser,
    with each placeholder of ``back`` read as the token it stands for."""
    back = back or {}
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            values = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return ("error",) if exc.code else ("help",)
    # argparse removes the "--" from an attached value, so --signs=-- gave
    # [] and --seed=-- an unconverted []; the value is "--"
    if any(value == [] and key in INT_ARGUMENTS for key, value in values.items()):
        return ("error",)
    return "ok", {key: "--" if value == [] else back.get(value, value) for key, value in values.items()}


def new_reading(argv):
    try:
        values = _parse_argv(argv)
    except ValueError:
        return ("error",)
    return ("help",) if values is None else ("ok", vars(values))


def takes_value(command, token):
    """Whether token names an option of command that takes a value and has
    none attached."""
    if token == "-n":
        return command in ("knot", "surface")
    if not token.startswith("--") or token == "--" or "=" in token:
        return False
    found = [flag for flag in VALUE_OPTIONS.get(command, ()) + ("--json", "--help") if flag.startswith(token)]
    return len(found) == 1 and found[0] in VALUE_OPTIONS.get(command, ())


def with_placeholders(argv):
    """argv with each dash-led token that argparse read as an option but that
    is an option's value or a word as -1^3 replaced by a plain placeholder,
    and the map from placeholders back to tokens: the two fixes, in which the
    parser reads such a token like any other."""
    out, back, value_next = list(argv), {}, False
    for i, token in enumerate(argv[1:], 1):
        if token == "--":
            break
        is_value, value_next = value_next, not value_next and takes_value(argv[0], token)
        if not token.startswith("-") or token == "-" or " " in token or NEGATIVE_NUMBER.fullmatch(token):
            continue
        if is_value or token[1].isdigit():
            out[i] = f"Z{i}"
            back[out[i]] = token
    return out, back


def agrees_with_argparse(argv):
    """Whether the parser reads argv as the reference does, up to the two
    fixes, two faults of argparse 3.11 and the answer to -h on a line that
    is wrong elsewhere."""
    sub, back = with_placeholders(argv)
    reference, reading = argparse_reading(sub, back), new_reading(argv)
    if reference == reading:
        return True
    if reference == ("help",) and reading == ("error",):
        # argparse prints the usage as soon as it meets -h; the parser reads
        # the whole line first and refuses it if it is wrong without -h too
        end = sub.index("--", 1) if "--" in sub[1:] else len(sub)
        return argparse_reading([t for i, t in enumerate(sub) if i >= end or t not in HELP_TOKENS]) == ("error",)
    if reference == ("error",) and reading != ("error",):
        # argparse refuses a "--" that no positional follows, unless it
        # directly follows the last one
        if argv[-1:] == ["--"] and "--" not in argv[1:-1]:
            return new_reading(argv[:-1]) == reading and agrees_with_argparse(argv[:-1])
        # and gives the second braid of surface its default as soon as an
        # option follows the first
        if reading[0] == "ok" and argv[:1] == ["surface"] and reading[1]["braid_b"]:
            alone = ("ok", reading[1] | {"braid_b": ""})
            return any(
                new_reading(argv[:i] + argv[i + 1 :]) == alone and agrees_with_argparse(argv[:i] + argv[i + 1 :])
                for i, token in enumerate(argv)
                if i and token == reading[1]["braid_b"]
            )
    return False


ARGV_TOKENS = (
    ["knot", "surface", "family", "verify", "kn", "--", "-", "-h", "--help", "--h", "--he", "-h=", "--bogus", "-x"]
    + ["-n", "--strands", "--rmax", "--json", "--fulltwist", "--signs", "--perm", "--seed", "--trials"]
    + ["--max-strands", "--max-len", "--str", "--r", "--js", "--full", "--sig", "--pe", "--se", "--tr"]
    + ["--max-s", "--max-l", "--max-", "--m", "--s", "--=x"]
    + ["--strands=3", "--str=2", "-n=3", "-n3", "-n-2", "-n 3", "--rmax=9", "--signs=-+", "--signs=--"]
    + ["--perm=2,1", "--perm=--", "--json=1", "--js=", "--seed=5", "--fulltwist=2", "--max-len=-1"]
    + ["0", "1", "2", "3", "5", "-1", "-3", "1^3", "1 -2 1 -2", "-1^3", "-1 2", "- 2", "--str 3", "x", "+-", "-+", "2,1"]
)


# pieces of well-formed command lines, so that many drawn lines are valid:
# words and values, some starting with '-', options in every spelling, and "--"
WORDS = ["1^3", "1 -2 1 -2", "-1^3", "-1 2", "-2", "x", "- 2"]
VALUES = ["2", "3", "-1", "0", "x", "-h", "--json", "-1^3", "-+", "--", "--str 3"]
PIECES = {
    "knot": [[w] for w in WORDS] + [["-n", v] for v in VALUES] + [["--str", "3"], ["-n3"], ["-n=2"], ["--strands=3"]]
    + [["--rmax", v] for v in VALUES] + [["--r=9"], ["--json"], ["--js"]],
    "surface": [[w] for w in WORDS] + [["-n", v] for v in VALUES] + [["--strands", "2"], ["-n3"]]
    + [["--fulltwist", v] for v in VALUES] + [["--full=2"], ["--rmax", "9"], ["--json"]],
    "family": [["3"], ["-1"], ["5"], ["x"], ["-1^3"]] + [["--signs", v] for v in ["+-", "-+", "--", "-,-", "-h"]]
    + [["--sig=-+"], ["--signs=--"], ["--perm", "2,1"], ["--perm", "-1"], ["--pe=2,1"], ["--perm=--"], ["--json"]],
    "verify": [["--seed", v] for v in VALUES] + [["--trials", "3"], ["--max-s", "3"], ["--max-l=3"], ["--max-", "3"]]
    + [["--m", "3"], ["--json"], ["--json=1"]],
}


N_PIECES = [["-n", "2"], ["--strands", "3"], ["--str", "2"], ["-n3"], ["-n=2"], ["--strands=3"]]
# the pieces that make each command line valid, each one of several spellings
CORES = {
    "knot": [[["1^3"], ["-1^3"], ["-1 2"]], N_PIECES],
    "surface": [[["1^3"], ["-1^3"]], N_PIECES],
    "family": [[["3"], ["-1"], ["5"]]] * 3,
    "verify": [],
}


@st.composite
def argv_lines(draw):
    """A command with a valid core and a few more pieces, in any order."""
    command = draw(st.sampled_from(list(PIECES)))
    core = [draw(st.sampled_from(spellings)) for spellings in CORES[command]]
    more = PIECES[command] + [["--"], ["-h"]] + [[token] for token in ARGV_TOKENS]
    extra = draw(st.lists(st.sampled_from(PIECES[command]) | st.sampled_from(more), max_size=4))
    return [command] + [token for piece in draw(st.permutations(core + extra)) for token in piece]


@settings(max_examples=600, deadline=None)
@given(
    argv_lines()
    | st.builds(list.__add__, st.sampled_from([["knot"], ["surface"], ["family"], ["verify"], []]),
                st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
)
def test_parser_reads_argv_as_argparse_did(argv):
    assert agrees_with_argparse(argv), (argparse_reading(argv), new_reading(argv))


def test_parser_keeps_every_documented_form():
    knot = {"command": "knot", "braid": "1^3", "strands": 2, "rmax": None, "json": False}
    for argv in (
        ["knot", "1^3", "-n", "2"],
        ["knot", "-n", "2", "1^3"],
        ["knot", "-n2", "1^3"],
        ["knot", "-n=2", "1^3"],
        ["knot", "--strands=2", "1^3"],
        ["knot", "--str", "2", "1^3"],
        ["knot", "-n", "5", "1^3", "--strands", "2"],
        ["knot", "-n", "2", "--", "1^3"],
    ):
        assert vars(_parse_argv(argv)) == knot, argv
        assert argparse_reading(argv) == ("ok", knot), argv
    assert _parse_argv(["knot", "1 -2", "-n", "-3", "--js"]).json is True
    # after the "--" that ends the options every token is a positional, "--" too
    assert _parse_argv(["knot", "-n", "2", "--", "--"]).braid == "--"
    assert argparse_reading(["knot", "-n", "2", "--", "--"])[1]["braid"] == "--"
    # a token that holds a space is a positional, though it starts with '-'
    assert _parse_argv(["knot", "-x 2", "-n", "2"]).braid == "-x 2"
    assert argparse_reading(["knot", "-x 2", "-n", "2"])[1]["braid"] == "-x 2"
    assert _parse_argv(["knot", "1 -2", "-n", "-3"]).strands == -3
    surface = _parse_argv(["surface", "-1 2", "-n", "3", "--fulltwist", "-2", "--rmax=12"])
    assert (surface.braid_a, surface.braid_b, surface.fulltwist, surface.rmax) == ("-1 2", "", -2, 12)
    assert _parse_argv(["verify", "--max-s", "3", "--max-l=2"]).max_strands == 3
    for argv, message in (
        (["verify", "--max-", "3"], "ambiguous"),
        (["knot", "1^3"], "required"),
        (["knot", "-n", "2"], "required"),
        (["family", "3", "3"], "required"),
        ([], "command"),
        (["kn"], "command"),
        (["knot", "1", "2", "-n", "2"], "unrecognized"),
        (["knot", "1", "-n", "2", "--bogus"], "unrecognized"),
        (["knot", "1", "-n"], "expected one argument"),
        (["knot", "1", "-n", "--"], "expected one argument"),
        (["family", "3", "3", "1", "--signs", "--"], "expected one argument"),
        (["knot", "1", "-n", "2", "--json=1"], "explicit"),
        (["knot", "1", "-n", "x"], "int"),
    ):
        with pytest.raises(ValueError, match=message):
            _parse_argv(argv)


def test_help_and_usage_errors(capsys):
    for argv in (["-h"], ["--help"], ["--he", "knot"], ["knot", "-h"], ["family", "3", "--help"], ["verify", "--h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        assert out.startswith("usage: kreps") and "verify" in out, argv
    for argv in ([], ["knot", "1^3"], ["verify", "--max-", "3"], ["knot", "1^3", "-n", "2", "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_kreps_does_not_import_argparse():
    import kreps

    script = "import sys\nimport kreps.cli\nassert 'argparse' not in sys.modules\n"
    env = dict(os.environ, PYTHONPATH=str(Path(kreps.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


def test_import_loads_what_reports_run_and_nothing_else():
    """``import kreps.cli`` loads no stdlib machinery that no report runs,
    and every module a report runs is loaded by it: a knot report in both
    forms, a surface report, a family report and a refused word then
    import nothing.  ``-S`` keeps site's own imports out of the check."""
    import kreps

    src = str(Path(kreps.__file__).parents[1])
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import kreps.cli\n"
        "unused = {'dataclasses', 'json', 'inspect', 'random', '__future__'} & set(sys.modules)\n"
        "assert not unused, unused\n"
        "loaded = set(sys.modules)\n"
        "runs = [(['knot', '1 2 1 2', '-n', '3', '--rmax', '12', '--json'], 0),\n"
        "        (['knot', '1 -2 1 -2', '-n', '3', '--rmax', '6'], 0),\n"
        "        (['surface', '1^3', '1^6', '-n', '2', '--rmax', '8', '--json'], 0),\n"
        "        (['family', '3', '3', '1', '--json'], 0),\n"
        "        (['knot', '1 1', '-n', '2'], 2)]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [(argv, kreps.cli.main(argv)) for argv, _ in runs]\n"
        "assert codes == [(argv, code) for argv, code in runs], codes\n"
        "assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)\n"
    )
    subprocess.run([sys.executable, "-S", "-c", script], check=True, timeout=60)


# -- hostile and malformed input -------------------------------------------------


def test_parse_signs_and_perm_edge_cases():
    assert _parse_signs(None) is None and _parse_perm(None) is None


@given(st.text(alphabet="+-, x", max_size=8))
def test_parse_signs_reads_plus_and_minus_between_commas(text):
    cleaned = text.replace(",", "")
    if set(cleaned) <= {"+", "-"}:
        assert _parse_signs(text) == tuple(1 if ch == "+" else -1 for ch in cleaned)
    else:
        with pytest.raises(ValueError):
            _parse_signs(text)


@given(st.text(alphabet="0123456789-, x\t", max_size=10))
def test_parse_perm_reads_integers_between_commas_and_spaces(text):
    tokens = text.replace(",", " ").split()
    if all(re.fullmatch(r"-?[0-9]+", token) for token in tokens):
        assert _parse_perm(text) == tuple(int(token) for token in tokens)
    else:
        with pytest.raises(ValueError):
            _parse_perm(text)


# mostly well-formed words on 2-4 strands, so that valid input is common
braid_texts = st.lists(
    st.tuples(
        st.sampled_from(["", "-"]),
        st.one_of(st.integers(1, 3), st.integers(0, 6)),
        st.sampled_from(["", "", "", "^2", "^3", "^9", "^0", "x"]),
    ),
    max_size=4,
).map(lambda tokens: " ".join(f"{sign}{index}{tail}" for sign, index, tail in tokens))
strand_counts = st.one_of(st.integers(2, 4), st.integers(-1, 6))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parses(text, strands):
    try:
        return parse_braid(text, strands)
    except ValueError:
        return None


def assert_refused(result, argv):
    code, out, err = result
    assert (code, out) == (EXIT_USAGE, ""), argv
    assert err.startswith("error: "), argv


@settings(max_examples=60, deadline=None)
@given(braid_texts, strand_counts, st.one_of(st.none(), st.integers(-1, 9)), st.booleans())
def test_main_knot_exit_codes(text, strands, rmax, as_json):
    argv = ["knot", "-n", str(strands)]
    argv += [] if rmax is None else ["--rmax", str(rmax)]
    argv += ["--json"] if as_json else []
    argv += ["--", text]
    result = run_main(argv)
    a = parses(text, strands)
    if a is None:
        assert_refused(result, argv)
    elif closure_component_count(a) != 1:
        assert result[0] == EXIT_NOT_A_KNOT, argv
    elif rmax is not None and rmax < 2:
        assert_refused(result, argv)
    else:
        assert result[0] == EXIT_OK and result[1], argv


@settings(max_examples=40, deadline=None)
@given(
    braid_texts,
    st.one_of(braid_texts, st.integers(-9, 9)),
    st.integers(-1, 4),
    st.booleans(),
)
def test_main_surface_exit_codes(text, second, strands, both):
    if isinstance(second, int):
        argv = ["surface", "-n", str(strands), "--fulltwist", str(second), "--", text]
        argv += ["1"] if both else []
        bad = both or (second != 0 and strands < 2)
    else:
        argv = ["surface", "-n", str(strands), "--", text, second]
        bad = parses(second, strands) is None
    # the transport census is r^n work; a small cap keeps every run short
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KREPS_ENUM_CAP", "5000")
        result = run_main(argv)
    if bad or parses(text, strands) is None:
        assert_refused(result, argv)
    else:
        assert result[0] in (EXIT_OK, EXIT_USAGE, EXIT_NOT_A_KNOT, EXIT_NOT_COMMUTING), argv
        assert bool(result[1]) == (result[0] == EXIT_OK), argv


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-1, 3),
    st.sampled_from(["3", "5", "9", "2", "-3", "x"]),
    st.integers(-1, 2),
    st.one_of(st.none(), st.text(alphabet="+-,x", max_size=4)),
    st.one_of(st.none(), st.text(alphabet="120, -", max_size=5)),
)
def test_main_family_exit_codes(n, p, m, signs, perm):
    argv = ["family", str(n), p, str(m)]
    argv += [] if signs is None else [f"--signs={signs}"]
    argv += [] if perm is None else [f"--perm={perm}"]
    result = run_main(argv)
    try:
        _parse_signs(signs)
        _parse_perm(perm)
        int(p)
    except ValueError:
        assert result[0] == EXIT_USAGE and result[1] == "", argv
    else:
        assert result[0] in (EXIT_OK, EXIT_USAGE, EXIT_FAMILY_ASSERTION), argv


# strings with quotes, backslashes, control characters and non-ASCII text
json_strings = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001d11e'), st.characters()),
    max_size=8,
)
json_scalars = st.one_of(
    st.integers(-(2**200), 2**200), st.booleans(), st.none(), json_strings
)
json_trees = st.recursive(
    st.one_of(json_scalars, st.lists(st.integers(-(2**200), 2**200), max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_strings, children, max_size=5),
    ),
    max_leaves=30,
)


json_ints = st.integers(-(2**200), 2**200)
int_tuples = st.lists(json_ints, max_size=5).map(tuple)
json_records = st.one_of(
    st.builds(RepClass, json_ints, int_tuples, int_tuples),
    st.builds(ProfileRow, json_ints, json_ints),
)
json_record_trees = st.recursive(
    st.one_of(json_scalars, json_records, st.lists(json_records, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_strings, children, max_size=5),
    ),
    max_leaves=30,
)


# lists of classes whose colorings and angles all have one length, and
# lists of profile rows, which _json_text writes by one template per list
class_lists = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.builds(
            RepClass,
            json_ints,
            st.lists(json_ints, min_size=n, max_size=n).map(tuple),
            st.lists(json_ints, min_size=n, max_size=n).map(tuple),
        ),
        min_size=1,
        max_size=6,
    )
)
row_lists = st.lists(st.builds(ProfileRow, json_ints, json_ints), min_size=1, max_size=8)
class_list_trees = st.recursive(
    st.one_of(json_scalars, class_lists, row_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=12,
)


def as_plain(value):
    """The tree with each record replaced by the dict a report writes for it."""
    if isinstance(value, RepClass):
        return {"modulus": value.modulus, "coloring": list(value.coloring), "angles": list(value.angles)}
    if isinstance(value, ProfileRow):
        return {"r": value.r, "total": value.total, "condition_o": value.condition_o}
    if isinstance(value, dict):
        return {key: as_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_plain(item) for item in value]
    return value


@settings(max_examples=100, deadline=None)
@given(json_trees)
def test_json_text_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(json_record_trees)
def test_json_text_writes_records_as_their_dicts(tree):
    assert _json_text(tree) == json.dumps(as_plain(tree), indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(class_list_trees)
def test_json_text_writes_class_and_row_lists_as_their_dicts(tree):
    assert _json_text(tree) == json.dumps(as_plain(tree), indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.one_of(class_lists, row_lists), st.sampled_from(["", "  ", "      "]))
def test_json_text_writes_a_record_list_as_its_records(records, pad):
    inner = pad + "  "
    items = (",\n" + inner).join([_json_text(record, inner) for record in records])
    assert _json_text(records, pad) == f"[\n{inner}{items}\n{pad}]"


def test_json_text_writes_records_with_bools_as_the_record_path_does():
    classes = [RepClass(3, (True, 0), (4, False)), RepClass(3, (1, 0), (4, 0))]
    assert _json_text(classes) == _json_text([RepClass(3, (1, 0), (4, 0))] * 2)
    assert _json_text([ProfileRow(3, True)] * 2) == _json_text([ProfileRow(3, 1)] * 2)


def test_json_text_refuses_floats_and_keys_that_are_not_strings():
    for value in (1.5, [1, 2.0], {"a": (3, float("nan"))}, {1: 2}):
        with pytest.raises(TypeError):
            _json_text(value)
    records = (
        RepClass(3, (1, 0), (4, 0.5)),
        RepClass(3, (1.0, 0), (4, 0)),
        RepClass(3.0, (1, 0), (4, 0)),
        ProfileRow(2.0, 1),
        ProfileRow(2, 1.5),
    )
    for record in records:
        for value in (record, [record], {"a": [1, record]}):
            with pytest.raises(TypeError):
                _json_text(value)
    # inside lists of classes that all have one length, and past 2^200
    big = RepClass(2**200 + 1, (2**201, 0), (-(2**199), 0))
    for record in records[:3]:
        for value in ([big, record], [record, big, big], {"classes": [big] * 3 + [record]}):
            with pytest.raises(TypeError):
                _json_text(value)
    for value in ([big, RepClass(3, (float("nan"), 0), (4, 0))], [RepClass(3, (1, 0), (4, float("inf")))] * 2):
        with pytest.raises(TypeError):
            _json_text(value)
    # and inside lists of profile rows, where the total is r times the count
    row = ProfileRow(2**200 + 1, -(2**201))
    for value in ([row, ProfileRow(2.0, 1)], [row] * 3 + [ProfileRow(2, 1.5)], [ProfileRow("ab", 2**70)]):
        with pytest.raises(TypeError):
            _json_text(value)
