import json
import os
import sys
import tracemalloc

import pytest

from kbonacci import cli, graph, polyomino, series, verify, words
from kbonacci.verify import CheckReport, Summary


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reference_json_terms(p):
    """The terms of `p` in graded-lex order, as `series --format json`
    lists them."""
    return [{"exp": list(e), "coef": str(c)}
            for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))]


class TestCount:
    def test_paper_listings(self, capsys):
        assert run(capsys, "count", "--n", "3", "--k", "2") == (0, "5\n")
        assert run(capsys, "count", "--n", "3", "--k", "3") == (0, "7\n")
        assert run(capsys, "count", "--n", "0", "--k", "4") == (0, "1\n")

    def test_json(self, capsys):
        code, out = run(capsys, "count", "--n", "40", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 40, "k": 2, "count": "267914296"}

    def test_csv(self, capsys):
        code, out = run(capsys, "count", "--n", "3", "--k", "2", "--format", "csv")
        assert out == "n,k,count\n3,2,5\n"

    def test_beyond_int_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "count", "--n", "30000", "--k", "2")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        # F(30002) by an additive loop, which shares no code with the
        # doubling that `count` runs
        a, b = 0, 1
        for _ in range(30002):
            a, b = b, a + b
        sys.set_int_max_str_digits(0)
        try:
            expected = str(a)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) == 6270
        assert out == expected + "\n"

    def test_negative_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--n", "-1", "--k", "2"])
        assert exc.value.code == 2

    def test_k_below_two_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--n", "3", "--k", "1"])
        assert exc.value.code == 2


class TestEnumerate:
    def test_plain_listing(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "2", "--k", "3")
        assert code == 0
        assert out.splitlines() == ["00", "01", "10", "11"]

    def test_stats_row_values(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "1", "--k", "2",
                        "--with-stats", "--format", "json")
        rows = json.loads(out)
        assert rows == [
            {"word": "0", "heights": [1], "area": 1, "sper": 2, "vertices": 4,
             "edges": 4, "deg": [4, 0, 0], "hamiltonian": True},
            {"word": "1", "heights": [2], "area": 2, "sper": 3, "vertices": 6,
             "edges": 7, "deg": [4, 2, 0], "hamiltonian": True},
        ]

    def test_stats_text_table(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "1", "--k", "2", "--with-stats")
        lines = out.splitlines()
        assert lines[0].split() == ["word", "area", "sper", "ver", "edg",
                                    "d2", "d3", "d4", "ham"]
        assert lines[1].split() == ["0", "1", "2", "4", "4", "4", "0", "0", "true"]
        assert lines[2].split() == ["1", "2", "3", "6", "7", "4", "2", "0", "true"]

    def test_ham_column_filled_past_the_search_cap(self, capsys):
        # the column is read from the odd-run rule, so it is filled at
        # every n, n = 16 included
        code, out = run(capsys, "enumerate", "--n", "16", "--k", "3",
                        "--with-stats", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == words.count_words(16, 3)
        assert {row[8] for row in rows} == {"true", "false"}
        # all runs odd at k = 3 means all runs of length 1: Fibonacci many
        assert sum(row[8] == "true" for row in rows) == 2584
        for row in rows[::613]:
            geo = polyomino.geometry(polyomino.from_word(words.Word.from_text(row[0], 3)))
            ham = graph.is_hamiltonian(geo)
            assert row[8] == str(ham).lower(), row[0]

    def test_ham_column_in_every_format(self, capsys):
        # 0110 has a run of even length; 0101 has none
        _, out = run(capsys, "enumerate", "--n", "4", "--k", "3", "--with-stats",
                     "--format", "json")
        ham = {row["word"]: row["hamiltonian"] for row in json.loads(out)}
        assert (ham["0101"], ham["0110"]) == (True, False)
        _, out = run(capsys, "enumerate", "--n", "4", "--k", "3", "--with-stats")
        ham = {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:]}
        assert (ham["0101"], ham["0110"]) == ("true", "false")
        assert set(ham.values()) == {"true", "false"}

    def test_zero_length_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "--n", "0", "--k", "2"])
        assert exc.value.code == 2

    def test_dot_output(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "1", "--k", "2", "--dot")
        assert code == 0
        assert out.startswith("graph w0 {")
        assert "graph w1 {" in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_dot_rejects_json_and_csv(self, capsys, fmt):
        code = cli.main(["enumerate", "--n", "1", "--k", "2", "--dot", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --dot prints DOT only; it takes no --format {fmt}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_render_rejects_json_and_csv(self, capsys, fmt):
        code = cli.main(["enumerate", "--n", "1", "--k", "2", "--render", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: --render prints blocks only; it takes no --format {fmt}\n")

    @pytest.mark.parametrize("modes", [["--with-stats", "--render"], ["--render", "--dot"],
                                       ["--dot", "--with-stats"]])
    def test_modes_are_exclusive(self, capsys, modes):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "--n", "1", "--k", "2", *modes])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {modes[1]}: not allowed with argument {modes[0]}" in captured.err

    def test_json_listing_is_one_array(self, capsys):
        _, out = run(capsys, "enumerate", "--n", "4", "--k", "3", "--format", "json")
        assert out == json.dumps([{"word": w.text} for w in words.iter_words(4, 3)]) + "\n"

    @pytest.mark.parametrize("argv", [[], ["--with-stats"]])
    def test_json_rows_stream_as_the_words_come(self, capsys, monkeypatch, argv):
        iter_words = words.iter_words

        def two_then_fail(n, k):
            it = iter_words(n, k)
            yield next(it)
            yield next(it)
            raise RuntimeError("no more words")

        monkeypatch.setattr(words, "iter_words", two_then_fail)
        code = cli.main(["enumerate", "--n", "3", "--k", "2", "--format", "json", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: RuntimeError: no more words\n"
        assert captured.out.startswith('[{"word": "000"')
        assert ', {"word": "001"' in captured.out
        assert captured.out.endswith("}")

    @pytest.mark.parametrize("argv", [[], ["--format", "csv"], ["--with-stats"],
                                      ["--with-stats", "--format", "csv"]])
    def test_rows_stream_as_the_words_come(self, capsys, monkeypatch, argv):
        iter_words = words.iter_words

        def two_then_fail(n, k):
            it = iter_words(n, k)
            yield next(it)
            yield next(it)
            raise RuntimeError("no more words")

        monkeypatch.setattr(words, "iter_words", two_then_fail)
        monkeypatch.setattr(words, "enumerate_words", None)
        code = cli.main(["enumerate", "--n", "3", "--k", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: RuntimeError: no more words\n"
        # a header line, except in the plain text listing, then two rows
        lines = captured.out.splitlines()
        assert [line.split(",")[0].split()[0] for line in lines[-2:]] == ["000", "001"]
        assert len(lines) == (3 if argv else 2)

    def test_render_blocks(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "2", "--k", "3", "--render")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert blocks[0] == "00\n██"
        assert blocks[3] == "11\n██\n██"

    def test_json_round_trip(self, capsys):
        _, out = run(capsys, "enumerate", "--n", "3", "--k", "3",
                     "--with-stats", "--format", "json")
        assert json.dumps(json.loads(out)) == out.strip()

    def test_weights_of_length_three_words(self, capsys):
        # (sper, area) over all 7 words of length 3 with k = 3 matches the
        # x^3 coefficient p^4*q^3 + 3*p^5*q^4 + 2*p^5*q^5 + p^6*q^5
        _, out = run(capsys, "enumerate", "--n", "3", "--k", "3",
                     "--with-stats", "--format", "json")
        weights = sorted((r["sper"], r["area"]) for r in json.loads(out))
        assert weights == [(4, 3), (5, 4), (5, 4), (5, 4), (5, 5), (5, 5), (6, 5)]

    def test_deterministic(self, capsys):
        a = run(capsys, "enumerate", "--n", "4", "--k", "3", "--with-stats")
        b = run(capsys, "enumerate", "--n", "4", "--k", "3", "--with-stats")
        assert a == b


class TestSeries:
    def test_polyomino_k3_last_line(self, capsys):
        code, out = run(capsys, "series", "--family", "poly", "--k", "3",
                        "--terms", "3")
        assert code == 0
        assert out.splitlines()[-1] == "p^4*q^3 + 3*p^5*q^4 + 2*p^5*q^5 + p^6*q^5"

    def test_ham_total(self, capsys):
        code, out = run(capsys, "series", "--family", "ham-total", "--k", "2",
                        "--terms", "4")
        assert out.splitlines() == ["2", "3", "5", "8"]

    def test_vars_at_one(self, capsys):
        code, out = run(capsys, "series", "--family", "poly", "--k", "2",
                        "--terms", "2", "--vars-at-1", "p,q")
        assert out.splitlines() == ["2", "3"]

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--family", "nope", "--k", "2"])
        assert exc.value.code == 2

    def test_unknown_specialization_var(self, capsys):
        code = cli.main(["series", "--family", "poly", "--k", "2",
                         "--terms", "2", "--vars-at-1", "z"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: variables ['z'] not in ('p', 'q')\n"

    def test_json_round_trip(self, capsys):
        _, out = run(capsys, "series", "--family", "degree", "--k", "3",
                     "--terms", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["family"] == "degree"
        assert payload["coefficients"][0]["n"] == 1
        assert json.dumps(payload) == out.strip()

    def test_csv(self, capsys):
        _, out = run(capsys, "series", "--family", "area-total", "--k", "2",
                     "--terms", "2", "--format", "csv")
        assert out == "n,coefficient\n1,3\n2,8\n"

    @pytest.mark.parametrize("family, k, at_one", [
        ("poly", 3, ""), ("graph", 2, "p"), ("ham", 4, ""), ("edges-total", 3, "")])
    def test_streamed_json_is_one_dumps(self, capsys, family, k, at_one):
        _, out = run(capsys, "series", "--family", family, "--k", str(k),
                     "--terms", "12", "--vars-at-1", at_one, "--format", "json")
        gf = (verify.FAMILIES[family].gf(k) if family in verify.FAMILIES
              else series.gf_named_total(family.removesuffix("-total"), k))
        coeffs = series.expand(gf.specialize({v: 1 for v in at_one.split(",") if v}), 12)
        payload = {"family": family, "k": k,
                   "coefficients": [{"n": n, "terms": _reference_json_terms(coeffs[n])}
                                    for n in range(1, 13)]}
        assert out == json.dumps(payload) + "\n"

    @pytest.mark.parametrize("argv", [["series", "--family", "poly", "--k", "3", "--terms", "1"],
                                      ["enumerate", "--n", "3", "--k", "2"]])
    def test_json_lists_share_one_helper(self, capsys, monkeypatch, argv):
        helper, calls = cli._print_json_list, []

        def spy(*args):
            calls.append(args)
            helper(*args)

        monkeypatch.setattr(cli, "_print_json_list", spy)
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0 and len(calls) == 1
        assert json.dumps(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("at_one", ["z", "p,z"])
    def test_bad_vars_at_one_print_nothing(self, capsys, fmt, at_one):
        code = cli.main(["series", "--family", "poly", "--k", "3", "--terms", "3",
                         "--vars-at-1", at_one, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: variables ['z'] not in ('p', 'q')\n"

    @staticmethod
    def _assert_two_then_error(capsys, monkeypatch, stream, family, k, fmt):
        """Patch `series.<stream>` to fail after its third coefficient and
        check that `series` printed c_1 and c_2 of `family` before the error."""
        c1, c2 = series.expand(verify.FAMILIES[family].gf(k) if family in verify.FAMILIES
                               else series.gf_named_total(family.removesuffix("-total"), k),
                               2)[1:]
        original = getattr(series, stream)

        def three_then_fail(gf, n_max):
            it = original(gf, n_max)
            yield from (next(it) for _ in range(3))
            raise RuntimeError("no more terms")

        monkeypatch.setattr(series, stream, three_then_fail)
        code = cli.main(["series", "--family", family, "--k", str(k),
                         "--terms", "5", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: RuntimeError: no more terms\n"
        assert captured.out == {
            "text": f"{c1.to_text()}\n{c2.to_text()}\n",
            "csv": f"n,coefficient\n1,{c1.to_text()}\n2,{c2.to_text()}\n",
            "json": f'{{"family": "{family}", "k": {k}, "coefficients": ['
                    f'{{"n": 1, "terms": {json.dumps(_reference_json_terms(c1))}}}, '
                    f'{{"n": 2, "terms": {json.dumps(_reference_json_terms(c2))}}}'}[fmt]
        return c1, c2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_coefficients_stream_as_they_come(self, capsys, monkeypatch, fmt):
        # a gf in x alone prints from the shared stream
        c1, c2 = self._assert_two_then_error(capsys, monkeypatch, "_coefficients",
                                             "area-total", 2, fmt)
        assert [c1.to_text(), c2.to_text()] == ["3", "8"]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_marker_coefficients_stream_as_they_come(self, capsys, monkeypatch, fmt):
        # a gf with markers prints from the packed recurrence under that stream
        self._assert_two_then_error(capsys, monkeypatch, "_iter_packed", "degree", 3, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_marker_coefficients_build_no_polynomial(self, capsys, monkeypatch, fmt):
        # the coefficients go from the recurrence's exponent columns to
        # stdout: the only polynomials built are those of the gf itself
        built = []
        trusted, init = series.MultiPoly._trusted.__func__, series.MultiPoly.__init__

        def counting_trusted(cls, *args):
            built.append("_trusted")
            return trusted(cls, *args)

        def counting_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        monkeypatch.setattr(series.MultiPoly, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(series.MultiPoly, "__init__", counting_init)
        verify.FAMILIES["degree"].gf(3).specialize({})
        gf_only, built[:] = list(built), []
        assert gf_only
        code, out = run(capsys, "series", "--family", "degree", "--k", "3",
                        "--terms", "20", "--format", fmt)
        assert code == 0 and len(out) > 10_000
        assert built == gf_only

    @pytest.mark.parametrize("family, k, terms", [("graph", 3, 75), ("edges-total", 4, 2500)])
    def test_json_holds_no_whole_expansion(self, monkeypatch, family, k, terms):
        # holding every coefficient and one JSON document of them peaked at
        # 9.5 MB and 6.4 MB; streaming holds the recurrence window and one
        # coefficient, under 1 MB
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(["series", "--family", family, "--k", str(k),
                                 "--terms", str(terms), "--format", "json"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20


class TestVerify:
    def test_small_suite_exits_zero(self, capsys):
        code, out = run(capsys, "verify", "--suite", "poly",
                        "--max-n", "4", "--max-k", "3")
        assert code == 0
        assert out.splitlines()[-1] == "passes=8 fails=0 skips=0"

    def test_ham_suite_with_pairs(self, capsys):
        code, out = run(capsys, "verify", "--suite", "ham",
                        "--max-n", "5", "--max-k", "7")
        assert code == 0
        assert "ham-pair" in out

    def test_ham_checked_at_every_length(self, capsys):
        code, out = run(capsys, "verify", "--suite", "ham",
                        "--max-n", "16", "--max-k", "3")
        assert code == 0
        assert out.splitlines()[-1] == "passes=49 fails=0 skips=0"

    def test_ham_cap_changes_nothing(self, capsys):
        argv = ("verify", "--suite", "all", "--max-n", "6", "--max-k", "3")
        assert run(capsys, *argv) == run(capsys, *argv, "--ham-cap", "4")

    def test_failure_exits_one(self, capsys, monkeypatch):
        bad = Summary([CheckReport("poly", 2, 1, "fail", "a", "b", 0)])
        monkeypatch.setattr(verify, "run_all", lambda *a, **k: bad)
        code, out = run(capsys, "verify", "--suite", "poly")
        assert code == 1
        assert "fails=1" in out

    def test_csv_format(self, capsys):
        code, out = run(capsys, "verify", "--suite", "reversal", "--max-n", "3",
                        "--max-k", "2", "--format", "csv")
        assert out.splitlines()[0] == "family,k,n,status,elapsed_ms"


class TestErrors:
    def test_unexpected_exception_one_line_exit_two(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_count", boom)
        code = cli.main(["count", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: RuntimeError: boom\n"

    def test_value_error_keeps_its_message(self, capsys, monkeypatch):
        def bad(args):
            raise ValueError("bad input")

        monkeypatch.setattr(cli, "cmd_count", bad)
        assert cli.main(["count", "--n", "3"]) == 2
        assert capsys.readouterr().err == "error: bad input\n"


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["series", "--family", "poly", "--k", "3", "--terms", "75"],
        ["enumerate", "--n", "20", "--k", "2"]])
    def test_reader_that_leaves_ends_the_command_quietly(self, argv):
        # each command prints well over a pipe's buffer, so it is still
        # writing when the reader closes the pipe after one line
        import subprocess

        proc = subprocess.Popen([sys.executable, "-m", "kbonacci.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestAsymptotics:
    def test_text_output(self, capsys):
        code, out = run(capsys, "asymptotics", "--degree", "2", "--n", "500")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ratio ")
        assert lines[1] == "limit (7 - sqrt(5))/22 = 0.2165423647"
        assert lines[2].startswith("|ratio - limit| <= 0.00")

    def test_json(self, capsys):
        code, out = run(capsys, "asymptotics", "--degree", "3", "--n", "100",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["limit"] == "(4 + sqrt(5))/11"
        assert payload["ratio"]["denominator"].isdigit()

    def test_bad_degree_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asymptotics", "--degree", "5"])
        assert exc.value.code == 2


class TestParser:
    @pytest.mark.parametrize("argv, message", [
        (["count", "--n", "-1"], "argument --n: must be >= 0, got -1"),
        (["enumerate", "--n", "0"], "argument --n: must be >= 1, got 0"),
        (["enumerate", "--n", "3", "--k", "1"], "argument --k: must be >= 2, got 1"),
        (["verify", "--max-k", "1"], "argument --max-k: must be >= 2, got 1"),
        (["count", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["asymptotics", "--degree", "5"],
         "argument --degree: invalid choice: 5 (choose from 2, 3, 4)"),
    ])
    def test_bound_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"kbonacci {argv[0]}: error: {message}"

    def test_degree_choices_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["asymptotics", "--help"])
        assert "  --degree {2,3,4}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["count", "--n", "3"],
                                      ["series", "--family", "poly"],
                                      ["asymptotics", "--degree", "2"],
                                      ["enumerate", "--n", "1"],
                                      ["enumerate", "--n", "5", "--with-stats"]])
    def test_ham_cap_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--ham-cap", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ham-cap 4" in capsys.readouterr().err
        parser = cli.build_parser()
        assert parser.parse_args(["verify", "--ham-cap", "4"]).ham_cap == 4

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_entry_point_shape(self):
        parser = cli.build_parser()
        assert parser.prog == "kbonacci"

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "kbonacci.cli", "count", "--n", "3", "--k", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "5\n"
