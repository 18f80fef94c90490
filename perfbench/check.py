"""Checks of each operation's output against exact reference values.

Outputs are parsed and compared as values (integers, polynomials, rows),
never as bytes, so a change of layout that keeps every value passes.
`check` returns None for a correct output and a one-line reason
otherwise.  Nothing here imports kbonacci.
"""

from __future__ import annotations

import csv
import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

from reference import FAMILY_VARS, TOTALS, Oracle

DEFAULT_HAM_CAP = 14
# exact limits of the degree-j vertex proportion at k = 2: (a + b sqrt5) / c
LIMITS = {2: (7, -1, 22), 3: (4, 1, 11), 4: (7, -1, 22)}
LIMIT_TEXT = {2: "(7 - sqrt(5))/22", 3: "(4 + sqrt(5))/11", 4: "(7 - sqrt(5))/22"}


def options(argv: list[str]) -> dict[str, str]:
    """--name value pairs of a CLI argument list; a bare flag maps to ''."""
    out = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = ""
            i += 1
    return out


def parse_poly(text: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """A polynomial in kbonacci's text form: terms such as 3*p^5*q^4 joined
    by ' + ' and ' - '."""
    text = text.strip()
    if text == "0":
        return {}
    index = {v: i for i, v in enumerate(variables)}
    out: dict[tuple[int, ...], int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coef, exps = 1, [0] * len(variables)
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coef = int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coef
    return {e: c for e, c in out.items() if c}


def specialize(poly: dict[tuple[int, ...], int], variables: tuple[str, ...],
               at_one: set[str]) -> dict[tuple[int, ...], int]:
    keep = [i for i, v in enumerate(variables) if v not in at_one]
    out: dict[tuple[int, ...], int] = {}
    for exps, coef in poly.items():
        key = tuple(exps[i] for i in keep)
        out[key] = out.get(key, 0) + coef
    return out


def _series_coefficients(out: str, fmt: str, variables: tuple[str, ...]) -> list[dict]:
    if fmt == "json":
        return [{tuple(t["exp"]): int(t["coef"]) for t in c["terms"]}
                for c in json.loads(out)["coefficients"]]
    lines = out.splitlines()
    if fmt == "csv":
        lines = [line.split(",", 1)[1] for line in lines[1:]]
    return [parse_poly(line, variables) for line in lines]


def check_series(opts: dict[str, str], out: str, oracle: Oracle) -> str | None:
    family, k, terms = opts["family"], int(opts["k"]), int(opts["terms"])
    at_one = {v for v in opts.get("vars-at-1", "").split(",") if v}
    total = family[:-len("-total")] if family.endswith("-total") else None
    variables = () if total else tuple(v for v in FAMILY_VARS[family] if v not in at_one)
    coeffs = _series_coefficients(out, opts.get("format", "text"), variables)
    if len(coeffs) != terms:
        return f"{len(coeffs)} coefficients, expected {terms}"
    for n, got in enumerate(coeffs, start=1):
        if total:
            value = oracle.totals(k, n)[total]
            if got != ({(): value} if value else {}):
                return f"x^{n}: {got.get((), 0)} != {value}"
            continue
        if sum(got.values()) != oracle.count(n, k):
            return f"x^{n}: coefficient sum {sum(got.values())} != {oracle.count(n, k)}"
        if n <= 10:
            want = specialize(oracle.poly(family, k, n), FAMILY_VARS[family], at_one)
            if got != want:
                return f"x^{n}: polynomial differs from brute force"
    return None


def check_count(opts: dict[str, str], out: str, oracle: Oracle) -> str | None:
    want = oracle.count(int(opts["n"]), int(opts["k"]))
    return None if int(out) == want else "count differs from F(n+2, k)"


def check_enumerate(opts: dict[str, str], out: str, oracle: Oracle) -> str | None:
    n, k = int(opts["n"]), int(opts["k"])
    rows = list(csv.reader(out.splitlines()))
    if rows[0] != ["word", "area", "sper", "ver", "edg", "d2", "d3", "d4", "ham"]:
        return f"unexpected header {rows[0]}"
    table = oracle.word_table(n, k)
    if [r[0] for r in rows[1:]] != [w for w, _ in table]:
        return "word list differs"
    for row, (word, s) in zip(rows[1:], table):
        want = [s["area"], s["perimeter"], s["vertices"], s["edges"],
                s["deg2"], s["deg3"], s["deg4"]]
        if [int(v) for v in row[1:8]] != want:
            return f"statistics of {word} differ"
        ham = "true" if s["ham"] else "false"
        if row[8] != ham and not (row[8] == "-" and n > DEFAULT_HAM_CAP):
            return f"ham of {word}: {row[8]} != {ham}"
    return None


def _close(text: str, value: float, digits: int = 10) -> bool:
    """A display rounded to `digits` significant digits is within one unit
    of the last digit of `value`."""
    unit = 10 ** (math.floor(math.log10(abs(value))) - digits + 1)
    return abs(Decimal(text) - Decimal(value)) <= Decimal(unit)


def check_asymptotics(opts: dict[str, str], out: str, oracle: Oracle) -> str | None:
    j, n = int(opts["degree"]), int(opts["n"])
    totals = oracle.totals(2, n)
    ratio = Fraction(totals[f"deg{j}"], totals["vertices"])
    m = re.fullmatch(r"ratio (\d+)/(\d+) = (\S+)\n"
                     r"limit (.+) = (\S+)\n"
                     r"\|ratio - limit\| <= (\S+)\n", out)
    if not m:
        return "unexpected layout"
    if Fraction(int(m[1]), int(m[2])) != ratio:
        return "ratio differs"
    if m[4] != LIMIT_TEXT[j]:
        return f"limit {m[4]} != {LIMIT_TEXT[j]}"
    a, b, c = LIMITS[j]
    with localcontext() as ctx:
        ctx.prec = 60
        limit = (a + b * Decimal(5).sqrt()) / c
        gap = abs(Decimal(ratio.numerator) / ratio.denominator - limit)
    if not (_close(m[3], float(ratio)) and _close(m[5], float(limit))
            and _close(m[6], float(gap))):
        return "decimal display differs"
    return None


def _verify_expected_keys(max_n: int, max_k: int) -> set[tuple[str, int, int]]:
    keys = set()
    for k in range(2, max_k + 1):
        for n in range(1, max_n + 1):
            keys.update((f, k, n) for f in FAMILY_VARS)
            keys.update((f"total:{t}", k, n) for t in TOTALS)
        keys.update(("reversal", k, n) for n in range(1, min(max_n, 10) + 1))
    for j in range(1, (max_k - 1) // 2 + 1):
        keys.update(("ham-pair", 2 * j, n) for n in range(1, max(max_n, 12) + 1))
    return keys


def check_verify(opts: dict[str, str], out: str, oracle: Oracle) -> str | None:
    """Every check of `verify --suite all` is present and passes, and its
    expected and actual values equal the reference."""
    max_n, max_k = int(opts["max-n"]), int(opts["max-k"])
    ham_cap = int(opts.get("ham-cap", DEFAULT_HAM_CAP))
    rows = json.loads(out)
    missing = _verify_expected_keys(max_n, max_k) - {(r["family"], r["k"], r["n"]) for r in rows}
    if missing:
        return f"{len(missing)} checks missing, e.g. {sorted(missing)[0]}"
    for r in rows:
        family, k, n, status = r["family"], r["k"], r["n"], r["status"]
        where = f"{family} k={k} n={n}"
        if status == "skip":
            if family in ("ham", "total:ham") and n > ham_cap:
                continue
            return f"{where}: unexpected skip"
        if status not in ("pass", "proved"):
            return f"{where}: status {status}"
        if family in FAMILY_VARS:
            want = oracle.poly(family, k, n)
            for side in ("expected", "actual"):
                if parse_poly(r[side], FAMILY_VARS[family]) != want:
                    return f"{where}: {side} polynomial differs from brute force"
        elif family.startswith("total:"):
            b = oracle.totals(k, n)[family[len("total:"):]]
            if r["actual"] != f"named={b} weighted={b}" or r["expected"] != r["actual"]:
                return f"{where}: totals differ from {b}"
        elif family == "ham-pair":
            b = oracle.totals(k, n)["ham"]
            if r["expected"] != str(b) or r["actual"] != str(b):
                return f"{where}: Hamiltonian counts differ from {b}"
    return None


def check_brute_totals(op: dict, out: str, oracle: Oracle) -> str | None:
    got = json.loads(out)
    want = oracle.totals(op["k"], op["n"])
    for name in TOTALS:
        if got.get(name) == want[name]:
            continue
        if name == "ham" and got.get(name) is None and op["n"] > DEFAULT_HAM_CAP:
            continue
        return f"{name}: {got.get(name)} != {want[name]}"
    return None


_CLI_CHECKS = {"count": check_count, "enumerate": check_enumerate,
               "series": check_series, "verify": check_verify,
               "asymptotics": check_asymptotics}


def check(op: dict, out: str, oracle: Oracle) -> str | None:
    """None if the output of a successful operation is exactly right."""
    try:
        if op["kind"] == "brute_totals":
            return check_brute_totals(op, out, oracle)
        return _CLI_CHECKS[op["argv"][0]](options(op["argv"]), out, oracle)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
