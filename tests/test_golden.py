"""Golden corpus: sha256 digests of `kbonacci series` stdout.

Every series family at k = 2..5 and --terms 20 in text, json and csv,
plus --vars-at-1 p and --vars-at-1 p,q on poly and graph.  The digests in
golden/series_sha256.json were taken from the plain MultiPoly recurrence;
any change to the series core must keep them byte for byte.

Regenerate (only for a deliberate output change, recorded in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py > tests/golden/series_sha256.json
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from kbonacci import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "series_sha256.json"


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for family in cli.SERIES_FAMILIES + cli.TOTAL_FAMILIES:
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
    return cases


def _digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _recorded() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(_recorded()) == sorted(" ".join(c) for c in _cases())


@pytest.mark.parametrize("family", cli.SERIES_FAMILIES + cli.TOTAL_FAMILIES)
def test_series_output_byte_identical(family):
    recorded = _recorded()
    for argv in _cases():
        if argv[2] == family:
            assert _digest(argv) == recorded[" ".join(argv)], " ".join(argv)


if __name__ == "__main__":
    print(json.dumps({" ".join(c): _digest(c) for c in _cases()}, indent=1))
