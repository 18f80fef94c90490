"""The package's surface: no dead module-level API in src/kbonacci, one
family registry (`verify.FAMILIES`) that the CLI choices, the named totals
and `graph.WordStats` agree with, records that behave as values, and a
start-up that loads no `dataclasses`."""

import argparse
import ast
import copy
import importlib
import importlib.util
import inspect
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import kbonacci
from kbonacci import cli, graph, polyomino, series, verify
from kbonacci.words import Word

SRC = pathlib.Path(kbonacci.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent

# public functions that only tests call, kept on purpose as reference code
TEST_ONLY = {
    "series.gf_deg4_alternate",  # the rejected deg4 denominator, for criterion 4
    # one area at a time, for criterion 8 and test_formulas; the formula
    # suite reads all of them from one sweep
    "formulas.count_polyominoes_by_area",
    # d_{n,j} by its index j; perfbench traces it by this name, while the
    # formula suite reads every d_{n,j} from one walk per family
    # (`formulas.recurrence_sides`)
    "formulas.degree_poly",
}


def _statements(module: str, tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement with the definitions it uses, as
    "module.name": bare names resolve through the module's relative
    imports or else to the module itself, and `m.name` to module m."""
    modules, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    imported[local] = f"{node.module}.{alias.name}"
                else:
                    modules.add(local)
    out = []
    for stmt in tree.body:
        uses = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                uses.add(imported.get(node.id, f"{module}.{node.id}"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                uses.add(f"{node.value.id}.{node.attr}")
        out.append((stmt, uses))
    return out


def test_no_dead_public_definitions():
    statements = []  # (module, top-level statement, the definitions it uses)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        statements += [(path.stem, stmt, uses) for stmt, uses in _statements(path.stem, tree)]
    dead = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = f"{module}.{node.name}"
        if node.name.startswith("_") or node.name in kbonacci.__all__ or name in TEST_ONLY:
            continue
        if not any(name in uses for _, other, uses in statements if other is not node):
            dead.append(name)
    assert dead == []


def _choices(command: str, option: str) -> tuple[str, ...]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if option in a.option_strings)
    return tuple(action.choices)


def test_cli_choices_come_from_the_registry():
    assert _choices("series", "--family") == (
        *verify.FAMILIES, *(f"{name}-total" for name in verify.TOTALS))
    assert _choices("verify", "--suite") == ("all", *verify.SUITES)
    assert tuple(verify.SUITES)[:len(verify.FAMILIES)] == tuple(verify.FAMILIES)


def test_named_totals_are_exactly_the_totals():
    for name in verify.TOTALS:
        assert series.gf_named_total(name, 3).aux_variables == ()
    expected = re.escape(str(tuple(verify.TOTALS)))
    for name in ("", "poly", "total", "sper", "area-total"):
        with pytest.raises(ValueError, match=f"expected one of {expected}$"):
            series.gf_named_total(name, 3)


def test_word_stats_fields_are_the_totals_in_order():
    assert list(graph.WordStats._fields) == list(verify.TOTALS)


def test_each_statistic_belongs_to_one_family():
    fields = [f for family in verify.FAMILIES.values() for f in family.fields]
    assert sorted(fields) == sorted(verify.TOTALS)
    for name, family in verify.FAMILIES.items():
        variables = family.gf(3).aux_variables
        assert len(variables) == len(family.fields), name
        for field, var in zip(family.fields, variables):
            assert verify.TOTALS[field] == (name, var)


def test_verify_threads_one_run_object():
    """The checks share state through one keyword-only `run` and nothing
    else: no other knob, no second state class, and no Hamiltonicity cap
    but `run_all`'s, which sets the run's."""
    public = {name: obj for name, obj in vars(verify).items()
              if inspect.isfunction(obj) and obj.__module__ == verify.__name__
              and not name.startswith("_")}
    knobs = {name: [p.name for p in inspect.signature(f).parameters.values()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY]
             for name, f in public.items()}
    assert {name for name, kw in knobs.items() if kw} == {
        "brute_stats_poly", "brute_totals", "cross_check", "totals_check",
        "ham_pair_check", "reversal_check"}
    assert all(kw in ([], ["run"]) for kw in knobs.values()), knobs
    capped = {name for name, f in public.items()
              if "ham_cap" in inspect.signature(f).parameters}
    assert capped == {"run_all"}
    assert not hasattr(verify, "_Sweeps")
    assert not hasattr(verify, "_Clock")


def _called_names(node: ast.AST) -> list[tuple[str, ast.Call]]:
    """The name of every function called under `node` (`f(...)` or
    `m.f(...)`), with its call."""
    out = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                out.append((func.id, call))
            elif isinstance(func, ast.Attribute):
                out.append((func.attr, call))
    return out


def _readers(name: str) -> set[tuple[str, str | None]]:
    """Each (module, definition) in src/kbonacci that reads the global
    `name` (bare, as an attribute or imported), a method named
    `Class.method` and a statement outside any definition None."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            parts = ([(f"{top.name}.{getattr(part, 'name', None)}", part) for part in top.body]
                     if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
            for qualified, part in parts:
                for node in ast.walk(part):
                    if (isinstance(node, ast.Name) and node.id == name
                            and isinstance(node.ctx, ast.Load)
                            or isinstance(node, ast.Attribute) and node.attr == name
                            or isinstance(node, ast.alias) and node.name == name):
                        out.add((path.stem, qualified))
    return out


def test_hamiltonicity_has_one_fast_path_and_one_oracle():
    """The CLI reads Hamiltonicity only from the odd-run rule, and
    verify's sweep only from the frontier DP.  The DP has one step,
    `graph._step`: the line automaton, which the sweep and the rule's
    proof walk, and `is_hamiltonian` run it and nothing else does, and
    only graph.py reads its closed mark, so a second step function cannot
    appear without this test failing."""
    assert _readers("_step") == {("graph", "_Automaton.edge"), ("graph", "is_hamiltonian")}
    assert {module for module, _ in _readers("_CLOSED")} == {"graph"}

    calls = _called_names(ast.parse((SRC / "cli.py").read_text()))
    names = {name for name, _ in calls}
    assert "hamiltonian_by_odd_runs" in names
    assert not names & {"is_hamiltonian", "word_stats"}
    assert "sweep_stats" in names
    for name, call in calls:
        if name == "sweep_stats":
            ham = call.args[1] if len(call.args) > 1 else next(
                kw.value for kw in call.keywords if kw.arg == "ham")
            assert isinstance(ham, ast.Constant) and ham.value is False, ast.unparse(call)

    tree = ast.parse((SRC / "verify.py").read_text())
    run = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Run")
    stats = next(node for node in run.body
                 if isinstance(node, ast.FunctionDef) and node.name == "stats")
    names = {name for name, _ in _called_names(stats)}
    assert "sweep_stats" in names
    assert "hamiltonian_by_odd_runs" not in names


def test_only_series_builds_unchecked_polynomials():
    """`MultiPoly._trusted` skips validation, so it is called only where
    series.py builds terms from valid polynomials; every other module
    goes through the checking constructor."""
    for path in sorted(SRC.glob("*.py")):
        names = {name for name, _ in _called_names(ast.parse(path.read_text()))}
        assert ("_trusted" in names) == (path.name == "series.py"), path.name


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The module functions and methods of `tree`, by bare name, that call
    `name` (nested functions count as their enclosing one), plus
    "<module>" for a call outside every function."""
    callers, inside = set(), 0
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [call for called, call in _called_names(d) if called == name]
                inside += len(calls)
                if calls:
                    callers.add(d.name)
    if inside < sum(called == name for called, _ in _called_names(tree)):
        callers.add("<module>")
    return callers


def test_the_caller_finder():
    tree = ast.parse("def f(xs):\n    def g():\n        return sorted(xs)\n    return g\n"
                     "class A:\n    def m(self):\n        self.xs.sort()\n"
                     "    ORDER = sorted([2, 1])\n"
                     "def h():\n    return 1\n")
    assert _callers(tree, "sorted") == {"f", "<module>"}
    assert _callers(tree, "sort") == {"m"}
    assert _callers(tree, "len") == set()


def test_series_orders_terms_only_where_they_are_made():
    """`MultiPoly.terms` iterate in graded-lex order from the moment they
    are made, so series.py sorts only in `_graded`, which orders the
    terms of the checked constructor, `+`, `*` and `specialize`, and in
    `_iter_packed`, which unpacks each coefficient from one sort of its
    packed keys.  A renderer that sorts again fails here."""
    tree = ast.parse((SRC / "series.py").read_text())
    assert _callers(tree, "sorted") | _callers(tree, "sort") == {"_graded", "_iter_packed"}
    assert _callers(tree, "_graded") == {"__init__", "__add__", "__mul__", "specialize"}
    assert not hasattr(series.MultiPoly, "sorted_terms")


def _self_calls(tree: ast.AST) -> list[str]:
    """Every function under `tree` that calls itself, by its bare name or
    as `self.<name>` (a call on another object, such as
    `self.numerator.specialize`, is not a self call)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                func = call.func if isinstance(call, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == node.name
                        or isinstance(func, ast.Attribute) and func.attr == node.name
                        and isinstance(func.value, ast.Name) and func.value.id == "self"):
                    out.append(node.name)
                    break
    return out


def test_the_self_call_finder():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class A:\n"
                     "    def g(self):\n        return self.g()\n"
                     "    def h(self):\n        return self.x.h()\n"
                     "def outer():\n"
                     "    def inner(k):\n        return inner(k - 1)\n"
                     "    return inner(3)\n")
    assert sorted(_self_calls(tree)) == ["f", "g", "inner"]


def test_no_function_calls_itself():
    """No recursion in the package, so no recursion limit caps n."""
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _self_calls(ast.parse(path.read_text()))]
    assert found == []


def _free_names(func: ast.FunctionDef) -> set[str]:
    """The names that the body of `func` reads and does not bind: its
    globals and builtins (annotations left out)."""
    annotations = {id(name) for node in ast.walk(func) if isinstance(node, ast.AnnAssign)
                   for name in ast.walk(node.annotation)}
    names = [node for stmt in func.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and id(node) not in annotations]
    bound = {a.arg for a in func.args.args}
    bound |= {node.id for node in names if isinstance(node.ctx, ast.Store)}
    return {node.id for node in names if isinstance(node.ctx, ast.Load)} - bound


def _graph_oracle(*roots: str) -> dict[str, ast.FunctionDef]:
    """`roots` and every function or class of graph.py and polyomino.py
    that any of them reads, each class as its methods and its bases, by
    qualified name."""
    defs = {node.name: node for path in ("graph.py", "polyomino.py")
            for node in ast.parse((SRC / path).read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = list(roots)
    found: dict[str, ast.FunctionDef] = {}
    while todo:
        node = defs[todo.pop()]
        if isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef)]
            todo += [base.id for base in node.bases
                     if isinstance(base, ast.Name) and base.id in defs]
        else:
            funcs = [(node.name, node)]
        for name, func in funcs:
            if name not in found:
                found[name] = func
                todo += sorted(_free_names(func) & defs.keys())
    return found


def _read(found: dict[str, ast.FunctionDef]) -> set[str]:
    """The free names and the attribute names that `found` reads."""
    attributes = {node.attr for func in found.values() for node in ast.walk(func)
                  if isinstance(node, ast.Attribute)}
    return set().union(*map(_free_names, found.values())) | attributes


def test_the_search_reads_only_the_graph():
    """The Hamiltonicity DP and the degree counts stay an oracle
    independent of the odd-run rule and of the line table: the search
    core (`is_hamiltonian`, `degree_profile`, the DP's step, the per-line
    degree count and every function they call) reads only ids, edges,
    each other and builtins, never a word's letters, the rule's tables,
    the line table or the rule's proof.  The line automaton and the
    sweep that walks it may read the line table, but never the rule, so
    the sweep's `ham` stays the DP's own verdict."""
    found = _graph_oracle("is_hamiltonian", "degree_profile")
    assert set(found) == {"is_hamiltonian", "degree_profile", "_one_line", "_step",
                          "_corner_degrees"}
    free = set().union(*map(_free_names, found.values()))
    assert free == {"_CLOSED", "_START", "_corner_degrees", "_one_line", "_step", "ValueError",
                    "all", "any", "dict", "divmod", "enumerate", "frozenset", "int", "len",
                    "list", "max", "range", "set", "sorted", "sum", "tuple", "type"}
    rule = {"ODD_RUN_STEP", "ODD_RUN_ACCEPT", "hamiltonian_by_odd_runs", "check_ham_rule"}
    assert not _read(found) & (rule | {"bits", "text", "_LINES", "frontier", "polyomino",
                                       "words"})
    builder = _graph_oracle("_Automaton", "sweep_stats", "_kept_lines")
    assert {"_Automaton.__init__", "_Automaton.edge", "_step", "_corner_degrees"} <= set(builder)
    assert "_LINES" in _read(builder)
    assert not _read(builder) & rule


def test_graph_keeps_no_module_level_container():
    """The DP's memo lives on the `_Automaton` that each sweep makes and
    owns, so it is dropped with its sweep: graph.py binds no dict, list
    or set at module level, by assignment or as a cache decorator, and
    `_CLOSED` is immutable."""
    tree = ast.parse((SRC / "graph.py").read_text())
    bound = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    assert "_CLOSED" in bound
    assert not [name for name in bound
                if isinstance(getattr(graph, name), (dict, list, set, bytearray))]
    assert not [name for name, value in vars(graph).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))]
    decorators = {ast.unparse(d) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) for d in node.decorator_list}
    assert decorators <= {"classmethod"}


def test_only_the_line_builder_and_the_automaton_read_the_line_table():
    """`polyomino._LINES` has one reader that builds geometry,
    `polyomino._add_lines`, and one other, the line automaton that the
    sweep and the rule's proof walk, which runs the per-line rules over
    it, so a second line builder cannot appear without this test
    failing."""
    assert _readers("_LINES") == {("polyomino", "_add_lines"), ("graph", "_Automaton.edge")}


def test_the_readme_layout_lists_every_module():
    """The Layout block of README.md names exactly the modules of
    src/kbonacci, so adding or deleting one cannot leave it out of date."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block.split("src/kbonacci/\n", 1)[1], re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in SRC.glob("*.py"))
    assert len(listed) == len(set(listed))


def test_every_traced_name_resolves():
    """Each (module, attribute) of the benchmark tracer's `TARGETS`
    (perfbench/tracing.py, read and not edited) resolves as its `install`
    resolves it: a module attribute, or a method in the class's own
    `__dict__`, so deleting or renaming a traced function fails here
    rather than in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"kbonacci.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_the_readme_library_block_shows_what_it_gives(capsys):
    """README's Library block runs statement by statement, and each result
    it shows in a comment is what the statement gives: the words of the
    first line, the printed polynomial, and the value of each bare
    expression (on its line, or the comment line after it)."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []  # (the result comment, what the statement gives)
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        given = capsys.readouterr().out.rstrip("\n") if value is None else repr(value)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        shown.append((comment or lines[stmt.end_lineno].lstrip("# "), given))
    assert [given for _, given in shown] == [
        "p^4*q^3 + 3*p^5*q^4 + 2*p^5*q^5 + p^6*q^5", "True",
        "WordStats(area=5, perimeter=6, vertices=12, edges=16, deg2=6, deg3=4, deg4=2, ham=1)"]
    for comment, given in shown:
        assert comment == given
    first = next(line for line in lines if line.startswith("words = "))
    assert " ".join(w.text for w in namespace["words"]) == first.partition("#")[2].strip()


def test_start_up_loads_no_dataclasses():
    """Importing the CLI and building its parser, the set-up of every
    command, loads neither `dataclasses` nor the `inspect` it imports (a
    bare interpreter loads neither)."""
    code = ("import sys; from kbonacci import cli; cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# each slotted record class: an instance, its fields in order, and its repr
SLOTTED = [(Word((1, 0), 2), {"bits": (1, 0), "k": 2}, "Word(bits=(1, 0), k=2)"),
           (polyomino.Polyomino((2, 1), 2), {"heights": (2, 1), "k": 2},
            "Polyomino(heights=(2, 1), k=2)")]


@pytest.mark.parametrize("record, fields, text", SLOTTED, ids=["Word", "Polyomino"])
def test_slotted_records_are_values(record, fields, text):
    same = type(record)(*fields.values())
    assert same == record and not same != record
    assert hash(same) == hash(record)
    assert record != tuple(fields.values())
    assert all(record != other for other, _, _ in SLOTTED if other is not record)
    assert repr(record) == text
    for name, value in {**fields, "extra": 1}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError):
        iter(record)


@pytest.mark.parametrize("record", [
    Word((1, 0), 2),
    polyomino.Polyomino((2, 1), 2),
    graph.word_stats(Word((1, 0), 2), True),
    polyomino.geometry(polyomino.Polyomino((2, 1), 2)),
    verify.CheckReport("poly", 2, 1, "pass", "x", "x", 3),
], ids=lambda record: type(record).__name__)
def test_records_survive_pickle_and_deepcopy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)
