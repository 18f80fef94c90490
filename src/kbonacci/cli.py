"""Command-line front end: count, enumerate, series, verify, asymptotics.

Every subcommand is deterministic (identical flags produce identical
bytes), numbers that can grow without bound are serialized as decimal
strings in JSON, and `verify` exits nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formulas, graph, polyomino, series, verify, words
from .formulas import format_fraction


def _at_least(low: int):
    """An argparse type: an int that is at least `low`."""
    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
        return v
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="Exact enumeration of binary words avoiding k consecutive "
                    "1's, their bargraph polyominoes and grid graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="number of valid words of length n")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--k", type=_at_least(2), default=2)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list words, optionally with their statistics")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--k", type=_at_least(2), default=2)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--with-stats", action="store_true",
                      help="add area, semiperimeter, vertex/edge counts, degree "
                           "profile and Hamiltonicity")
    mode.add_argument("--render", action="store_true",
                      help="draw each polyomino as two rows of block characters")
    mode.add_argument("--dot", action="store_true",
                      help="emit each word's grid graph in DOT format instead")

    p = sub.add_parser("series", parents=[common],
                       help="expand a generating function")
    p.add_argument("--family", required=True,
                   choices=(*verify.FAMILIES, *(f"{name}-total" for name in verify.TOTALS)))
    p.add_argument("--k", type=_at_least(2), default=2)
    p.add_argument("--terms", type=_at_least(1), default=10)
    p.add_argument("--vars-at-1", default="", metavar="VARS",
                   help="comma-separated auxiliary variables to set to 1")

    p = sub.add_parser("verify", parents=[common],
                       help="run oracle cross-checks; exit 0 iff all pass")
    p.add_argument("--suite", choices=("all", *verify.SUITES), default="all")
    p.add_argument("--max-n", type=_at_least(1), default=10)
    p.add_argument("--max-k", type=_at_least(2), default=5)
    p.add_argument("--ham-cap", type=_at_least(1), metavar="N",
                   help="ignored: Hamiltonicity is checked at every word length")

    p = sub.add_parser("asymptotics", parents=[common],
                       help="empirical degree proportion vs its exact limit")
    p.add_argument("--degree", type=int, choices=tuple(formulas.DEGREES), required=True)
    p.add_argument("--n", type=_at_least(1), default=2000)

    return parser


def cmd_count(args) -> int:
    value = words.count_words(args.n, args.k)
    if args.format == "json":
        print(json.dumps({"n": args.n, "k": args.k, "count": str(value)}))
    elif args.format == "csv":
        print("n,k,count")
        print(f"{args.n},{args.k},{value}")
    else:
        print(value)
    return 0


def cmd_enumerate(args) -> int:
    if args.dot and args.format != "text":
        raise ValueError(f"--dot prints DOT only; it takes no --format {args.format}")
    if args.render and args.format != "text":
        raise ValueError(f"--render prints blocks only; it takes no --format {args.format}")
    word_iter = words.iter_words(args.n, args.k)
    if args.dot:
        for w, geo in polyomino.geometries(word_iter):
            print(graph.to_dot(geo, name=f"w{w.text}"))
        return 0
    if args.render:
        for w in word_iter:
            print(w.text or "ε")
            print(polyomino.render(polyomino.from_word(w)))
            print()
        return 0
    if not args.with_stats:
        if args.format == "json":
            _print_json_list(json.dumps({"word": w.text}) for w in word_iter)
        elif args.format == "csv":
            print("word")
            for w in word_iter:
                print(w.text)
        else:
            for w in word_iter:
                print(w.text or "ε")
        return 0
    # Hamiltonicity by the proved odd-run rule, at every n; the frontier DP
    # is left to `verify` as its oracle
    rows = ((w, s, graph.hamiltonian_by_odd_runs(w))
            for w, s in graph.sweep_stats(word_iter, False))
    if args.format == "json":
        _print_json_list(json.dumps(
            {"word": w.text, "heights": list(polyomino.from_word(w).heights),
             "area": s.area, "sper": s.perimeter, "vertices": s.vertices,
             "edges": s.edges, "deg": [s.deg2, s.deg3, s.deg4], "hamiltonian": ham})
            for w, s, ham in rows)
        return 0
    if args.format == "csv":
        print("word,area,sper,ver,edg,d2,d3,d4,ham")
        for w, s, ham in rows:
            print(f"{w.text},{s.area},{s.perimeter},{s.vertices},"
                  f"{s.edges},{s.deg2},{s.deg3},{s.deg4},{str(ham).lower()}")
    else:
        width = max(4, args.n)
        print(f"{'word':<{width}} {'area':>4} {'sper':>4} {'ver':>4} "
              f"{'edg':>4} {'d2':>3} {'d3':>3} {'d4':>3} ham")
        for w, s, ham in rows:
            print(f"{w.text:<{width}} {s.area:>4} {s.perimeter:>4} {s.vertices:>4} "
                  f"{s.edges:>4} {s.deg2:>3} {s.deg3:>3} {s.deg4:>3} {str(ham).lower()}")
    return 0


def _print_json_list(items, head: str = "[", tail: str = "]") -> None:
    """Print `head`, the already-encoded items of a JSON list one at a
    time, then `tail`: with the defaults, the bytes of `json.dumps` of the
    list.  A document whose last member is the list passes its text up to
    the list's "[" as `head` and the closing text after its "]" as
    `tail`."""
    write = sys.stdout.write
    write(head)
    separator = ""
    for item in items:
        write(separator + item)
        separator = ", "
    write(tail + "\n")


def cmd_series(args) -> int:
    if args.family in verify.FAMILIES:
        gf = verify.FAMILIES[args.family].gf(args.k)
    else:  # a named total, "<name>-total"
        gf = series.gf_named_total(args.family.removesuffix("-total"), args.k)
    at_one = [v for v in args.vars_at_1.split(",") if v]
    unknown = set(at_one) - set(gf.aux_variables)
    if unknown:
        raise ValueError(f"variables {sorted(unknown)} not in {gf.aux_variables}")
    # specialized before expanding: with every marker at 1 the gf is in x
    # alone, and the expansion runs on integers; each coefficient is
    # rendered as the recurrence yields it
    render = series.iter_json_terms if args.format == "json" else series.iter_text
    texts = render(gf.specialize({v: 1 for v in at_one}), args.terms)
    next(texts)  # c_0, which no format prints; taken before any output
    if args.format == "json":
        head = json.dumps({"family": args.family, "k": args.k, "coefficients": []})
        _print_json_list((f'{{"n": {n}, "terms": {terms}}}'
                          for n, terms in enumerate(texts, 1)),
                         head[:-2], "]}")
    elif args.format == "csv":
        print("n,coefficient")
        for n, text in enumerate(texts, 1):
            print(f"{n},{text}")
    else:
        for text in texts:
            print(text)
    return 0


def cmd_verify(args) -> int:
    suites = tuple(verify.SUITES) if args.suite == "all" else (args.suite,)
    summary = verify.run_all(args.max_n, args.max_k, suites)
    if args.format == "json":
        print(json.dumps(verify.to_json_obj(summary)))
    elif args.format == "csv":
        print(verify.to_csv(summary))
    else:
        print(verify.to_text(summary))
    return 0 if summary.ok else 1


def cmd_asymptotics(args) -> int:
    ratio = formulas.empirical_degree_ratio(args.degree, args.n)
    limit = formulas.degree_proportion_limit(args.degree)
    gap = limit.gap_upper_bound(ratio)
    ratio_text = format_fraction(ratio, 10)
    limit_text = limit.decimal(10)
    gap_text = format_fraction(gap, 10)
    sign = "+" if limit.b >= 0 else "-"
    scale = "" if abs(limit.b) == 1 else f"{abs(limit.b)}*"
    limit_expr = f"({limit.a} {sign} {scale}sqrt(5))/{limit.c}"
    if args.format == "json":
        print(json.dumps({
            "degree": args.degree,
            "n": args.n,
            "ratio": {"numerator": str(ratio.numerator),
                      "denominator": str(ratio.denominator)},
            "ratio_decimal": ratio_text,
            "limit": limit_expr,
            "limit_decimal": limit_text,
            "gap_decimal": gap_text,
        }))
    elif args.format == "csv":
        print("degree,n,ratio,limit,gap")
        print(f"{args.degree},{args.n},{ratio_text},{limit_text},{gap_text}")
    else:
        print(f"ratio {ratio.numerator}/{ratio.denominator} = {ratio_text}")
        print(f"limit {limit_expr} = {limit_text}")
        print(f"|ratio - limit| <= {gap_text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "series": cmd_series,
        "verify": cmd_verify,
        "asymptotics": cmd_asymptotics,
    }
    # exact integers of any size print in full: lift the int-to-str digit
    # limit (0 = none; Pythons before 3.10.7 have none) for this call only
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: stop writing, and point stdout at
        # devnull so that the flush at interpreter exit has nothing to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
