"""Command-line interface.

Commands:

* ``knot``     invariants of the closure of one braid word
* ``surface``  invariants of the surface knot spanned by a commuting pair
* ``family``   the prime-power family with full-twist second braid, with
               built-in count assertions
* ``verify``   seeded randomized sweep of all cross-oracle checks

Exit codes: 0 ok, 1 parse or usage error, 2 closure is not a knot,
3 basis braids do not commute, 4 family assertion failed, 5 verify sweep
found a mismatch.

The oracles and the ``verify`` sweep live in ``kreps.oracles``, which
``main`` imports only to run ``verify``; no report loads it.
"""

import sys
# the C string encoder that json.encoder wraps, without loading the json package
from _json import encode_basestring_ascii
from functools import lru_cache
from itertools import chain
from operator import mul
from types import SimpleNamespace
from typing import Any, Sequence

from .braids import (
    MAX_BRAID_LETTERS,
    BraidWord,
    braids_commute,
    closure_component_count,
    full_twist,
    is_odd_prime,
    parse_braid,
    prime_twist_family,
)
from .colorings import (
    ProfileRow,
    coloring_census,
    colorability_profile,
    is_p_colorable,
    surface_coloring_census,
)
from .intlinalg import EnumerationCapExceeded, _enum_cap, determinantal_divisor
from .laurent import poly_str
from .metabelian import (
    RepClass,
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
)
from .presentations import (
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    coloring_form,
    knot_poly,
)

# the largest --rmax: the profile has one row per modulus up to it
MAX_RMAX = 10_000
# the largest `verify --max-len`: the oracles' free-word relators grow
# exponentially with the word
MAX_VERIFY_LEN = 24
# the largest `verify --max-strands`: braid_mismatch runs the r^n transport
# census for r up to 7, and 7^7 is under the default enumeration cap
MAX_VERIFY_STRANDS = 7

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_A_KNOT = 2
EXIT_NOT_COMMUTING = 3
EXIT_FAMILY_ASSERTION = 4
EXIT_VERIFY_MISMATCH = 5


class PipelineError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# trial division stops here, after about 0.1 s
_TRIAL_BOUND = 10**6


def _odd_prime_factors(n: int) -> list[int]:
    """The distinct odd prime factors of n >= 1, ascending.

    Trial division stops once the cofactor is 1 or ``is_odd_prime``.  A
    cofactor that is still unresolved at ``_TRIAL_BOUND`` is refused with a
    ValueError rather than factored further."""
    while n % 2 == 0:
        n //= 2
    out = []
    d = 3
    resolved = n == 1 or is_odd_prime(n)
    while not resolved and d * d <= n:
        if d > _TRIAL_BOUND:
            raise ValueError(
                f"cannot factor the determinant: its cofactor {n} has no factor "
                f"below {_TRIAL_BOUND} and is not provably prime"
            )
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            resolved = n == 1 or is_odd_prime(n)
        d += 2
    if n > 1:
        out.append(n)
    return out


def knot_report(a: BraidWord, rmax: int | None) -> dict[str, Any]:
    # both polynomial routes check this too, but a non-knot must exit 2
    # before --rmax is checked and before any other work
    if closure_component_count(a) != 1:
        raise PipelineError("the closure of the braid is not a knot", EXIT_NOT_A_KNOT)
    if rmax is not None and rmax < 2:
        raise ValueError(f"--rmax {rmax} must be at least 2")
    form = coloring_form(a)
    det = determinantal_divisor(form, form.cols)
    # the classes come from the form alone, so a word whose classes exceed
    # the enumeration cap is refused before the polynomial routes run
    classes = enumerate_rep_classes(form)
    poly = knot_poly(a)
    rep_count = count_irreducible_metabelian(det)
    checks = {
        "burau_matches_fox": poly == burau_alexander(a),
        "determinant_matches_poly": det == abs(poly.evaluate(-1)),
        "class_count_matches_determinant": rep_count == len(classes),
    }
    report: dict[str, Any] = {
        "input": {"kind": "knot", "braid": str(a), "strands": a.strands},
        "determinant": str(det),
        "alexander_poly": poly_str(poly),
        "rep_count": rep_count,
        "classes": classes,
        "colorings": [],
        "checks": checks,
    }
    if rmax is not None:
        report["colorings"] = colorability_profile(form, rmax)
    return report


def surface_report(a: BraidWord, b: BraidWord, rmax: int | None) -> dict[str, Any]:
    # the knot check is one walk over the strands; the commutation check is
    # one Dynnikov letter rule per letter of ab and of ba
    if closure_component_count(a) != 1:
        raise PipelineError("the closure of the first braid is not a knot", EXIT_NOT_A_KNOT)
    if not braids_commute(a, b):
        raise PipelineError("basis braids do not commute", EXIT_NOT_COMMUTING)
    if rmax is not None and rmax < 2:
        raise ValueError(f"--rmax {rmax} must be at least 2")
    form = coloring_form(a, b)
    poly = alexander_poly(alexander_matrix(a, b))
    det = determinantal_divisor(form, form.cols)
    classes = enumerate_rep_classes(form)
    rep_count = count_irreducible_metabelian(det)
    checks: dict[str, Any] = {
        "determinant_odd": det % 2 == 1,
        "class_count_matches_determinant": rep_count == len(classes),
    }

    # classical data of the first braid's closure, for the counting cross-checks
    base_form = coloring_form(a)
    base_det = determinantal_divisor(base_form, base_form.cols)
    checks["base_knot_determinant"] = str(base_det)
    if base_det >= 2 and is_p_colorable(form, base_det):
        checks["det_colorable_count_rule"] = rep_count == (base_det - 1) // 2

    transported = {p: surface_coloring_census(a, b, p) for p in _odd_prime_factors(det)}
    censuses = []
    for prime, census in transported.items():
        algebraic = coloring_census(form, prime)
        censuses.append(
            {
                "r": prime,
                "total": census.total,
                "condition_o": census.condition_o,
                "nondegenerate": census.nondegenerate,
            }
        )
        checks[f"census_consistent_mod_{prime}"] = (
            census.total == algebraic.total
            and census.condition_o == algebraic.condition_o
        )
    report: dict[str, Any] = {
        "input": {
            "kind": "surface",
            "braid_a": str(a),
            "braid_b": str(b),
            "strands": a.strands,
        },
        "determinant": str(det),
        "alexander_poly": poly_str(poly),
        "rep_count": rep_count,
        "classes": classes,
        "colorings": [],
        "censuses": censuses,
        "checks": checks,
    }
    if rmax is not None:
        report["colorings"] = profile = colorability_profile(form, rmax)
        # when the profile certifies only-p-colorability, the coloring
        # count determines the class count; base, the count mod p, is a
        # power of p, so count_from_colorings accepts p * base
        for prime, census in transported.items():
            if rmax < 2 * prime:
                continue
            counts = {cond for _, cond in profile}
            base = dict(profile).get(prime)
            if base is None or counts != {1, base}:
                continue
            checks[f"only_{prime}_count_rule"] = (
                census.total == prime * base
                and count_from_colorings(census.total, prime) == rep_count
            )
    return report


def family_report(
    n: int, p: int, m: int, signs: Sequence[int] | None, perm: Sequence[int] | None
) -> dict[str, Any]:
    sign_list = tuple(signs) if signs is not None else (1,) * (n - 1)
    c, b = prime_twist_family(n, p, sign_list, perm, m)
    report = surface_report(c, b, rmax=4 * p)
    expected_count = (p ** (n - 1) - 1) // 2
    # p divides the determinant whenever the family counts hold
    colorings_mod_p = {entry["r"]: entry["total"] for entry in report["censuses"]}.get(p)
    expected_colorings = p**n
    passed = (
        report["rep_count"] == expected_count
        and colorings_mod_p == expected_colorings
    )
    report["input"] = {
        "kind": "family",
        "n": n,
        "p": p,
        "m": m,
        "signs": list(sign_list),
        "perm": list(perm) if perm is not None else list(range(1, n)),
        "braid_a": str(c),
        "braid_b": str(b),
    }
    report["family"] = {
        "expected_rep_count": expected_count,
        "expected_colorings_mod_p": expected_colorings,
        "colorings_mod_p": colorings_mod_p,
        "passed": passed,
    }
    if not passed:
        raise PipelineError(
            f"family counts diverged: reps {report['rep_count']} vs {expected_count}, "
            f"colorings {colorings_mod_p} vs {expected_colorings}",
            EXIT_FAMILY_ASSERTION,
        )
    return report


# -- rendering ---------------------------------------------------------------


def _print_table(report: dict[str, Any], stream) -> None:
    def line(key: str, value: Any) -> None:
        print(f"{key:24s} {value}", file=stream)

    for key, value in report.get("input", {}).items():
        line(f"input.{key}", value)
    for key in ("determinant", "alexander_poly", "rep_count"):
        if key in report:
            line(key, report[key])
    for rc in report.get("classes", []):
        line("class", f"mod {rc.modulus}  coloring {list(rc.coloring)}  angles {list(rc.angles)}")
    for row in report.get("colorings", []):
        line("colorings", f"r={row.r}  total={row.total}  condition_o={row.condition_o}")
    for entry in report.get("censuses", []):
        line(
            "census",
            f"r={entry['r']}  total={entry['total']}  condition_o={entry['condition_o']}"
            f"  nondegenerate={entry['nondegenerate']}",
        )
    for key, value in report.get("checks", {}).items():
        line(f"check.{key}", value)
    if "family" in report:
        for key, value in report["family"].items():
            line(f"family.{key}", value)
    for key in (
        "braids_checked",
        "matrices_checked",
        "commuting_pairs_checked",
        "class_forms_checked",
        "failure",
        "passed",
    ):
        if key in report:
            line(key, report[key])


@lru_cache(maxsize=64)
def _record_template(kind: type, lengths: tuple[int, ...], pad: str) -> str:
    """The text of one record of ``kind`` nested at the indentation ``pad``,
    its keys sorted, with one ``%d`` for each int it writes: a ``RepClass``
    with ``lengths`` the lengths of its angles and its coloring, or a
    ``ProfileRow``, whose lengths are ``()``."""
    inner = pad + "  "
    lists = [f"[\n{inner}  " + f",\n{inner}  ".join(["%d"] * n) + f"\n{inner}]" if n else "[]" for n in lengths]
    if kind is RepClass:
        fields = {"angles": lists[0], "coloring": lists[1], "modulus": "%d"}
    else:
        fields = dict.fromkeys(("condition_o", "r", "total"), "%d")
    body = (",\n" + inner).join([f'"{key}": {text}' for key, text in fields.items()])
    return f"{{\n{inner}{body}\n{pad}}}"


def _records_text(records: Sequence[Any], pad: str) -> str:
    """Records of one type, ``RepClass`` or ``ProfileRow``, each nested at
    the indentation ``pad`` and joined as ``_json_text`` joins list items.

    Their ints are flattened into one tuple in the order they are written,
    checked by one ``map(type, ...)`` (an entry that is not an int raises
    TypeError, and a bool is written as 1 or 0) and written by one ``%`` of
    the record template repeated once per record.  A list of classes whose
    angles and colorings do not all have one length is joined from one call
    per class."""
    kind = type(records[0])
    if kind is RepClass:
        moduli, colorings, angles = zip(*records)
        if len(records) > 1 and len(set(map(len, colorings + angles))) > 1:
            return (",\n" + pad).join([_records_text((record,), pad) for record in records])
        lengths = len(angles[0]), len(colorings[0])
        ints = tuple(chain.from_iterable(chain.from_iterable(zip(angles, colorings, zip(moduli)))))
    else:
        lengths = ()
        rs, counts = zip(*records)
        ints = rs + counts
    if not {int, bool}.issuperset(map(type, ints)):
        raise TypeError(f"a report cannot hold a {kind.__name__} with an entry that is not an int")
    if kind is ProfileRow:
        # a row's total, r times its count, is taken once both are known to be ints
        ints = [0] * (3 * len(rs))
        ints[::3], ints[1::3], ints[2::3] = counts, rs, map(mul, rs, counts)
    template = _record_template(kind, lengths, pad)
    return (template + (",\n" + pad + template) * (len(records) - 1)) % tuple(ints)


def _json_text(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at the
    indentation ``pad``, for the types a report holds: dicts with string
    keys, lists and tuples, strings, ints, booleans and None, and the two
    record types a report is mostly made of, ``RepClass`` and
    ``ProfileRow``, written as the dicts of their fields (and a profile
    row's ``total``); any other type raises TypeError.

    Every record goes through ``_records_text``: a bare record as a tuple
    of one, and a list of records of one type as a whole.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is RepClass or kind is ProfileRow:
        return _records_text((value,), pad)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a string
        body = (",\n" + inner).join(
            [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {RepClass} or kinds == {ProfileRow}:
            body = _records_text(value, inner)
        else:
            body = (",\n" + inner).join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(_json_text(report))
    else:
        _print_table(report, sys.stdout)


def _parse_signs(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    cleaned = text.replace(",", "")
    for ch in cleaned:
        if ch not in "+-":
            raise ValueError(f"signs must be '+' or '-' characters, got {ch!r}")
    return tuple(1 if ch == "+" else -1 for ch in cleaned)


def _parse_perm(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    return tuple(_parse_int("--perm", x) for x in text.replace(",", " ").split())


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"argument {key}: invalid int value: {value!r}") from None


_USAGE = """usage: kreps knot BRAID -n N [--rmax R] [--json]
       kreps surface BRAID_A [BRAID_B | --fulltwist K] -n N [--rmax R] [--json]
       kreps family N P M [--signs +-+] [--perm 2,1] [--json]
       kreps verify [--seed S] [--trials T] [--max-strands N] [--max-len L] [--json]"""
# per command: each positional and option with its type and default (... if required)
_COMMANDS: dict[str, dict[str, tuple[type, Any]]] = {
    "knot": {"braid": (str, ...), "--strands": (int, ...), "--rmax": (int, None)},
    "surface": {"braid_a": (str, ...), "braid_b": (str, ""), "--strands": (int, ...),
                "--fulltwist": (int, None), "--rmax": (int, None)},
    "family": {**dict.fromkeys("npm", (int, ...)), "--signs": (str, None), "--perm": (str, None)},
    "verify": {"--seed": (int, 0), "--trials": (int, 100), "--max-strands": (int, 4), "--max-len": (int, 8)},
}
# per command, built once: the table with the common options, the defaults and the positionals
_TABLES = {name: {**spec, "--json": (bool, False), "--help": (bool, False)} for name, spec in _COMMANDS.items()}
_DEFAULTS = {name: {key: default for key, (_, default) in t.items()} for name, t in _TABLES.items()}
_POSITIONALS = {name: [key for key in t if key[0] != "-"] for name, t in _TABLES.items()}


def _option(tok: str, table: dict[str, Any]) -> tuple[str | None, str | None]:
    """The option of table that tok names (by -h, -n, its name or a unique prefix) and its attached
    value or None; ("", tok) for an unknown option; (None, tok) for a positional, a token that does
    not start with '-', is '-', holds a space or starts with '-' and a digit."""
    short = {"-h": "--help", "-n": "--strands"}.get(tok[:2])
    if short in table:
        return short, tok[2:].removeprefix("=") if tok[2:] else None
    name, eq, value = tok.partition("=")
    found = [key for key in table if key.startswith(name)] if len(name) > 2 and name[:2] == "--" else []
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return (None if tok[:1] != "-" or tok == "-" or " " in tok or tok[1].isdigit() else ""), tok


def _parse_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The command and its arguments by keyword, or None for -h/--help; a usage error raises
    ValueError.  An option's value is the next token unless that is the ``--`` ending the options."""
    if not argv or argv[0] not in _TABLES:
        if argv and _option(argv[0], {"--help": ...}) == ("--help", None):
            return None
        raise ValueError("the first argument must be a command: knot, surface, family or verify")
    table, values = _TABLES[argv[0]], dict(_DEFAULTS[argv[0]])
    free, tokens, dashed = iter(_POSITIONALS[argv[0]]), iter(argv[1:]), False
    for tok in tokens:
        if tok == "--" and not dashed:
            dashed = True
            continue
        key, value = (None, tok) if dashed else _option(tok, table)
        if key is None:
            key = next(free, "")
        if not key:
            raise ValueError(f"unrecognized arguments: {tok}")
        if table[key][0] is bool and value is not None:
            raise ValueError(f"argument {key}: ignored explicit argument {value!r}")
        if value is None:
            value = True if table[key][0] is bool else next(tokens, "--")
            if value == "--":
                raise ValueError(f"argument {key}: expected one argument")
        # a bool's value is already True, a str's already its token
        values[key] = _parse_int(key, value) if table[key][0] is int else value
    if values.pop("--help"):
        return None
    if missing := [key for key, value in values.items() if value is ...]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=argv[0], **{k.lstrip("-").replace("-", "_"): v for k, v in values.items()})


def _check_verify_options(args: SimpleNamespace) -> None:
    """Refuse ``verify`` options that leave nothing to check, no knot to
    draw or no end to the sweep: a knot word on n strands needs at least
    n - 1 letters, so ``oracles.random_knot_braid`` would never return past
    max_len + 1 strands; past ``MAX_VERIFY_LEN`` letters the free-word
    relators of the oracles take minutes, and past ``MAX_VERIFY_STRANDS``
    strands the transport census exceeds the enumeration cap."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.max_strands < 2:
        raise ValueError(f"--max-strands must be at least 2, got {args.max_strands}")
    if args.max_len < 1:
        raise ValueError(f"--max-len must be at least 1, got {args.max_len}")
    if args.max_strands > args.max_len + 1:
        raise ValueError(
            f"--max-strands {args.max_strands} needs --max-len at least {args.max_strands - 1}, "
            f"got {args.max_len}"
        )
    if args.max_len > MAX_VERIFY_LEN:
        raise ValueError(f"--max-len must be at most {MAX_VERIFY_LEN}, got {args.max_len}")
    if args.max_strands > MAX_VERIFY_STRANDS:
        raise ValueError(f"--max-strands must be at most {MAX_VERIFY_STRANDS}, got {args.max_strands}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_USAGE)
            return EXIT_OK
        _enum_cap()  # so that every command refuses a malformed KREPS_ENUM_CAP
        if getattr(args, "rmax", None) is not None and args.rmax > MAX_RMAX:
            raise ValueError(f"--rmax {args.rmax} exceeds {MAX_RMAX}")
        if args.command == "knot":
            a = parse_braid(args.braid, args.strands)
            report = knot_report(a, args.rmax)
        elif args.command == "surface":
            twist = args.fulltwist
            if twist is not None:
                if args.braid_b:
                    raise ValueError("give either a second braid or --fulltwist, not both")
                # the full twist has n(n-1) letters
                if args.strands * (args.strands - 1) * abs(twist) > MAX_BRAID_LETTERS:
                    raise ValueError(f"the full-twist power exceeds {MAX_BRAID_LETTERS} letters")
            a = parse_braid(args.braid_a, args.strands)
            if twist is None:
                b = parse_braid(args.braid_b, args.strands)
            else:
                b = full_twist(args.strands) ** twist if twist else BraidWord.identity(args.strands)
            report = surface_report(a, b, args.rmax)
        elif args.command == "family":
            signs = _parse_signs(args.signs)
            perm = _parse_perm(args.perm)
            report = family_report(args.n, args.p, args.m, signs, perm)
        else:
            _check_verify_options(args)
            from .oracles import verify_report

            report, failure = verify_report(
                args.seed, args.trials, args.max_strands, args.max_len
            )
            _emit(report, args.json)
            return EXIT_VERIFY_MISMATCH if failure else EXIT_OK
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EnumerationCapExceeded as exc:
        print(f"error: {exc} (raise KREPS_ENUM_CAP to override)", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _emit(report, args.json)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
