"""Golden corpus: sha256 digests of `kbonacci` stdout.

- golden/series_sha256.json: every series family at k = 2..5 and
  --terms 20 in text, json and csv, plus --vars-at-1 p and --vars-at-1 p,q
  on poly and graph, and --vars-at-1 q3 and --vars-at-1 q2,q4 on degree at
  k = 3 and 5.  Taken from the plain MultiPoly recurrence; the partly
  specialized degree cases from the packed recurrence that yielded
  MultiPoly coefficients to `to_text` and to a JSON term list, whose
  bytes `series._json_terms` now writes from exponent columns.
- golden/enumerate_sha256.json: `enumerate --with-stats` at k = 2..5 and
  n = 1..6 in text, json and csv, plus `--n 16 --k 3` in csv, whose ham
  column comes from the odd-run rule, as at every n.
- golden/dot_sha256.json: `enumerate --dot` at k = 2..5 and n = 1..6.
  Taken from `to_dot` of each word's `Geometry`, the id 3x + y named x,y.
- golden/verify_sha256.json: `verify --suite S --max-n 6 --max-k 4
  --format text` for every suite, `all` included.
- golden/verify_json_sha256.json: `verify --suite S --max-n 6 --max-k 5
  --format json` for S = formulas and ham, hashed with every row's
  elapsed_ms set to 0, so the expected and actual strings of passing
  rows, which the text table leaves out, are pinned too.
- golden/asymptotics_sha256.json: `asymptotics --degree D --n N` for
  D = 2, 3, 4 and N = 1, 255, 256, 1111, 2000, 3461 in text, json and
  csv; 255/256 straddle the old table's power-of-two rounding.
- golden/large_n_sha256.json: `count --n N --k K` for N = 0, 1, 2, 50,
  4086, 29727 and K = 2, 3, 79 in text, json and csv; every named
  total at --terms 2500, one k each, in text and json; and --vars-at-1
  on degree (q2,q3,q4 and q3) and ham (q) at k = 2..5 and --terms 30 in
  text, json and csv.  Taken from the running-sum ring at every k, the
  packed multivariate recurrence and the term-sorting renderer.

Any change to the code behind these commands must keep them byte for
byte.  Regenerate one corpus (only for a deliberate output change,
recorded in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py series > tests/golden/series_sha256.json
    PYTHONPATH=src python tests/test_golden.py enumerate > tests/golden/enumerate_sha256.json
    PYTHONPATH=src python tests/test_golden.py dot > tests/golden/dot_sha256.json
    PYTHONPATH=src python tests/test_golden.py verify > tests/golden/verify_sha256.json
    PYTHONPATH=src python tests/test_golden.py verify_json > tests/golden/verify_json_sha256.json
    PYTHONPATH=src python tests/test_golden.py asymptotics > tests/golden/asymptotics_sha256.json
    PYTHONPATH=src python tests/test_golden.py large_n > tests/golden/large_n_sha256.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from kbonacci import cli, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"
SERIES_FAMILIES = (*verify.FAMILIES, *(f"{name}-total" for name in verify.TOTALS))


def _series_cases() -> list[tuple[str, ...]]:
    cases = []
    for family in SERIES_FAMILIES:
        for k in range(2, 6):
            for fmt in ("text", "json", "csv"):
                cases.append(("series", "--family", family, "--k", str(k),
                              "--terms", "20", "--format", fmt))
    for family in ("poly", "graph"):
        for at_one in ("p", "p,q"):
            for k in range(2, 6):
                for fmt in ("text", "json", "csv"):
                    cases.append(("series", "--family", family, "--k", str(k),
                                  "--terms", "20", "--format", fmt,
                                  "--vars-at-1", at_one))
    for at_one in ("q3", "q2,q4"):
        for k in (3, 5):
            for fmt in ("text", "json", "csv"):
                cases.append(("series", "--family", "degree", "--k", str(k),
                              "--terms", "20", "--format", fmt,
                              "--vars-at-1", at_one))
    return cases


def _enumerate_cases() -> list[tuple[str, ...]]:
    cases = [("enumerate", "--n", str(n), "--k", str(k), "--with-stats",
              "--format", fmt)
             for k in range(2, 6) for n in range(1, 7)
             for fmt in ("text", "json", "csv")]
    cases.append(("enumerate", "--n", "16", "--k", "3", "--with-stats",
                  "--format", "csv"))
    return cases


def _dot_cases() -> list[tuple[str, ...]]:
    return [("enumerate", "--n", str(n), "--k", str(k), "--dot")
            for k in range(2, 6) for n in range(1, 7)]


def _verify_cases() -> list[tuple[str, ...]]:
    return [("verify", "--suite", suite, "--max-n", "6", "--max-k", "4",
             "--format", "text")
            for suite in ("all", *verify.SUITES)]


def _verify_json_cases() -> list[tuple[str, ...]]:
    return [("verify", "--suite", suite, "--max-n", "6", "--max-k", "5",
             "--format", "json")
            for suite in ("formulas", "ham")]


def _asymptotics_cases() -> list[tuple[str, ...]]:
    return [("asymptotics", "--degree", str(degree), "--n", str(n), "--format", fmt)
            for degree in (2, 3, 4) for n in (1, 255, 256, 1111, 2000, 3461)
            for fmt in ("text", "json", "csv")]


def _large_n_cases() -> list[tuple[str, ...]]:
    cases = [("count", "--n", str(n), "--k", str(k), "--format", fmt)
             for n in (0, 1, 2, 50, 4086, 29727) for k in (2, 3, 79)
             for fmt in ("text", "json", "csv")]
    cases += [("series", "--family", f"{name}-total", "--k", str(k),
               "--terms", "2500", "--format", fmt)
              for k, name in enumerate(verify.TOTALS, start=2)
              for fmt in ("text", "json")]
    cases += [("series", "--family", family, "--k", str(k), "--terms", "30",
               "--format", fmt, "--vars-at-1", at_one)
              for family, at_one in (("degree", "q2,q3,q4"), ("degree", "q3"),
                                     ("ham", "q"))
              for k in range(2, 6) for fmt in ("text", "json", "csv")]
    return cases


CORPORA = {
    "series": _series_cases,
    "enumerate": _enumerate_cases,
    "dot": _dot_cases,
    "verify": _verify_cases,
    "verify_json": _verify_json_cases,
    "asymptotics": _asymptotics_cases,
    "large_n": _large_n_cases,
}


def _digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    text = out.getvalue()
    if argv[0] == "verify" and argv[-1] == "json":
        # timings vary from run to run; every other byte is pinned
        rows = json.loads(text)
        for row in rows:
            row["elapsed_ms"] = 0
        text = json.dumps(rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _recorded(corpus: str) -> dict[str, str]:
    return json.loads((GOLDEN / f"{corpus}_sha256.json").read_text())


def test_corpus_covers_every_case():
    for corpus, cases in CORPORA.items():
        assert sorted(_recorded(corpus)) == sorted(" ".join(c) for c in cases()), corpus


@pytest.mark.parametrize("family", SERIES_FAMILIES)
def test_series_output_byte_identical(family):
    recorded = _recorded("series")
    for argv in _series_cases():
        if argv[2] == family:
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("k", range(2, 6))
def test_enumerate_output_byte_identical(k):
    recorded = _recorded("enumerate")
    for argv in _enumerate_cases():
        if argv[4] == str(k):
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("k", range(2, 6))
def test_dot_output_byte_identical(k):
    recorded = _recorded("dot")
    for argv in _dot_cases():
        if argv[4] == str(k):
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("argv", _verify_cases(), ids=lambda argv: argv[2])
def test_verify_output_byte_identical(argv):
    assert _digest(argv) == _recorded("verify")[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("argv", _verify_json_cases(), ids=lambda argv: argv[2])
def test_verify_json_rows_byte_identical(argv):
    assert _digest(argv) == _recorded("verify_json")[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("degree", (2, 3, 4))
def test_asymptotics_output_byte_identical(degree):
    recorded = _recorded("asymptotics")
    for argv in _asymptotics_cases():
        if argv[2] == str(degree):
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


@pytest.mark.parametrize("command", ("count", "series"))
def test_large_n_output_byte_identical(command):
    recorded = _recorded("large_n")
    for argv in _large_n_cases():
        if argv[0] == command:
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


if __name__ == "__main__":
    corpus = sys.argv[1] if len(sys.argv) > 1 else ""
    if corpus not in CORPORA:
        sys.exit(f"usage: test_golden.py {{{','.join(CORPORA)}}}")
    print(json.dumps({" ".join(c): _digest(c) for c in CORPORA[corpus]()}, indent=1))
