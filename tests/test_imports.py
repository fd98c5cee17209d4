import ast
import contextlib
import importlib
import inspect
import io
import pathlib
import types

import numpy as np
import pytest

import walshvp
import walshvp.cli
import walshvp.kernels
import walshvp.means
from walshvp.weights import build_scheme

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "walshvp").glob("*.py"))


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A package re-exports what it lists in __all__.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import math\nimport os.path\nfrom typing import List\nos.sep\n")
    assert _unused_imports(tree) == ["List (line 3)", "math (line 1)"]


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module):
    """Each read of the process environment: os.environ, os.getenv and
    their bytes forms, as an attribute of any object or imported by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in _ENVIRONMENT]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    # What a run computes is set by its arguments alone: the resolution cap
    # is a constant, and no variable moves it.
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_read_is_reported():
    tree = ast.parse(
        "import os\nos.environ.get('A')\nfrom os import getenv, sep\nos.getenv('B')\nos.sep\n"
    )
    assert _environment_reads(tree) == ["environ (line 2)", "getenv (line 3)", "getenv (line 4)"]


def _dead_private_names(modules: dict):
    """Module-level private names (functions, classes, constants) that no
    other top-level statement of the given modules refers to."""
    defined, refs = [], []
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target.id]
            else:
                targets = []
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            refs.append(names)
            private = [t for t in targets if t.startswith("_") and not t.startswith("__")]
            defined += [(module, t, len(refs) - 1) for t in private]
    return sorted(
        f"{module}.{name}"
        for module, name, own in defined
        if not any(name in names for i, names in enumerate(refs) if i != own)
    )


def test_every_private_name_is_used():
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _dead_private_names(modules) == []


def test_dead_private_name_is_reported():
    a = ast.parse("_LIMIT = 3\n_SPARE = 4\ndef _helper(n):\n    return _helper(n - 1)\n")
    b = ast.parse("from .a import _LIMIT\n__all__ = []\n")
    assert _dead_private_names({"a": a, "b": b}) == ["a._SPARE", "a._helper"]


def _tile_calls(modules: dict):
    """module.function for each call of np.tile, by top-level statement."""
    found = []
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "tile":
                        found.append(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_only_the_synthesis_tiles():
    # Every period, of samples or of kernel numerators, is repeated to the
    # 2^N cells by dyadic._periods, so no other code tiles a period.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _tile_calls(modules) == ["dyadic._periods"]


def _view_calls(modules: dict):
    """module.name of each top-level statement that calls .view() on any
    object, such as the uint64 view of float samples."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "view":
                        found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_no_module_reads_the_bits_of_samples():
    # The paper's objects read the values of f: a rank, a prefix or a check
    # that compared bits would tell -0.0 from +0.0, and hold a zero
    # function at 2^N cells.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _view_calls(modules) == []


def test_view_call_is_reported():
    tree = ast.parse(
        "import numpy as np\n"
        "def rank(a):\n    return a.view(np.uint64)\n"
        "ZERO = np.float64(-0.0).view(np.uint64)\n"
        "class Held:\n    def bits(self):\n        return self.head.view('u8')\n"
        "def shape(a):\n    return a.reshape(-1).viewed\n"
    )
    assert _view_calls({"m": tree}) == ["m.<module>", "m.Held", "m.rank"]


def _adjacent_pair_slices(modules: dict):
    """module.name of each top-level statement that slices the even or odd
    entries ([0::2], [1::2], [::2]), the pairs a summation tree adds."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Slice) and ast.unparse(node) in ("0::2", "1::2", "::2"):
                    found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_only_the_pairwise_total_sums_pairs():
    # Every sum is the one tree of dyadic._pairwise_total; a second copy
    # of it could drift from the first, and the fast routes that match the
    # full-size sums bit for bit would then no longer match.  The one other
    # adjacent-pair pass is the butterfly's stage kernel, whose sum half is
    # that tree: tests/test_walsh.py pins entry 0 of every butterfly to
    # _pairwise_total bit for bit.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _adjacent_pair_slices(modules) == [
        "dyadic._pairwise_total", "walsh_system._pair_stages",
    ]


def test_adjacent_pair_slice_is_reported():
    tree = ast.parse(
        "def tree(a):\n    return a[0::2] + a[1::2]\n"
        "def strided(a):\n    return a[::4] + a[2::2]\n"
        "class Table:\n    def rows(self, a):\n        return a[:, ::2]\n"
    )
    assert _adjacent_pair_slices({"m": tree}) == ["m.Table", "m.tree"]


def _radix4_views(modules: dict):
    """module.name of each top-level statement that takes the radix-4 view
    a.reshape(-1, 4, h), the four quarters a fused pair of butterfly stages
    adds and subtracts."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reshape"
                    and len(node.args) == 3
                    and [ast.unparse(arg) for arg in node.args[:2]] == ["-1", "4"]
                ):
                    found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_no_module_takes_the_radix4_view():
    # Every butterfly stage, chunked or not, is a walsh_system._pair_stages
    # stage; a fused radix-4 pass would be a second stage engine, and the
    # routes that match the radix-2 butterfly bit for bit would then have
    # two pass bodies to keep in step.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _radix4_views(modules) == []


def _callers(modules: dict, name: str):
    """module.name of each top-level statement that calls name, by name or
    as an attribute."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def _layout_names(modules: dict):
    """Each name, of a function or class defined at any depth or of a
    call by name or as an attribute, that speaks of a butterfly or of
    columns."""
    found = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            else:
                continue
            if "butterfl" in name.lower() or "column" in name.lower():
                found.add(name)
    return sorted(found)


def test_only_the_row_butterfly_runs_stages():
    # Every butterfly of the package runs on rows: _butterfly is the one
    # butterfly defined or called, and the one caller of _pair_stages, the
    # one stage kernel, which runs the flat blocks, the chunks and the
    # high stages of rows past _CHUNK_SIZE alike; no module defines a
    # second one such as _stages.  A second layout, such as (2^N, B)
    # column blocks, would show here before it grew a pass body of its own.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _callers(modules, "_pair_stages") == ["walsh_system._butterfly"]
    defined = {
        node.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "_pair_stages" in defined and "_stages" not in defined
    assert _layout_names(modules) == ["_butterfly"]


def test_layout_names_are_reported():
    tree = ast.parse(
        "def _butterfly(a):\n    def low(b):\n        return b\n    return low(a)\n"
        "def rows(a):\n    return w._butterfly_columns(a) + _butterfly(a)\n"
        "class ColumnBlock:\n    def run(self, a):\n        return a.sum(axis=0)\n"
        "def other(a):\n    return a.columns\n"
    )
    assert _layout_names({"m": tree}) == ["ColumnBlock", "_butterfly", "_butterfly_columns"]


def test_callers_are_reported():
    tree = ast.parse(
        "from . import w\n"
        "def rows(a):\n    return _stages(a, 1, a.size, None)\n"
        "def columns(a):\n    w._stages(a.reshape(-1), 2, a.size, None)\n"
        "def other(a):\n    return _stagesx(a) + stages(a)\n"
        "class Blocked:\n    def run(self, a):\n        _stages(a, 4, 16, None)\n"
        "STAGED = _stages\n"
    )
    assert _callers({"m": tree}, "_stages") == ["m.Blocked", "m.columns", "m.rows"]


def _references(modules: dict, names: set):
    """module.name: referenced, for each top-level statement of the modules
    and each of names it refers to: by name, as an attribute, or by
    importing it."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    hits = {node.id}
                elif isinstance(node, ast.Attribute):
                    hits = {node.attr}
                elif isinstance(node, ast.alias):
                    hits = {node.name}
                else:
                    continue
                own = getattr(stmt, "name", "<module>")
                found |= {f"{module}.{own}: {name}" for name in hits & names}
    return sorted(found)


def test_the_checks_build_every_kernel_as_rows():
    # Every kernel of verify-lemmas comes from a rows builder of kernels
    # (_walsh_sum_rows, _dirichlet_rec_int, _fejer_numerators,
    # _vp_numerators): no function of experiments builds one by its order,
    # synthesizes one alone or holds one as a KernelFunction, and kernels
    # has no per-order synthesis beside the builders.  The definition rows
    # the recursion is checked against call neither the recursion nor a
    # butterfly: their one synthesis, of the identity, is _walsh_tables'.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    per_order = {"dirichlet", "fejer", "hadamard_transform", "KernelFunction"}
    assert _references({"experiments": modules["experiments"]}, per_order) == []
    assert _references({"kernels": modules["kernels"]}, {"hadamard_transform"}) == []
    calls = _calls_by_function({"kernels": modules["kernels"]})
    assert "_walsh_tables" in calls["kernels._walsh_sum_rows"]
    assert not calls["kernels._walsh_sum_rows"] & {"_dirichlet_rec_int", "_butterfly"}
    assert "_butterfly" in calls["kernels._walsh_tables"]
    assert not calls["kernels._walsh_tables"] & {"_dirichlet_rec_int", "_walsh_sum_rows"}


def test_references_are_reported():
    tree = ast.parse(
        "from .kernels import KernelFunction, fejer as kernel\n"
        "def check(n):\n    return kernel(n, 4).values\n"
        "def held(w):\n    return w.hadamard_transform(KernelFunction._own(1, w))\n"
        "class Rows:\n    def build(self):\n        return dirichlet(3, 4)\n"
        "def other(fejer_rows):\n    return 'fejer'\n"
    )
    names = {"dirichlet", "fejer", "hadamard_transform", "KernelFunction"}
    assert _references({"m": tree}, names) == [
        "m.<module>: KernelFunction", "m.<module>: fejer", "m.Rows: dirichlet",
        "m.held: KernelFunction", "m.held: hadamard_transform",
    ]


def test_a_lemmas_op_runs_one_butterfly_per_batch_of_kernels(monkeypatch):
    # The N = 10 op of the lemmas workload.  Each batch of Fejer g and each
    # batch of VP kernels and parts is one butterfly, 70 in all; the
    # recursion check's definition rows over its 17 batches (16 of 64
    # orders, then the order 2^10) take theirs from one synthesis of a
    # 32-row identity, and the closed-form row reads the recursion check's
    # rows: 71 calls.  A synthesis per Fejer g, per power of two or per
    # batch of definition rows, or a second butterfly per VP batch, would
    # change the count.
    calls = []
    butterfly = walshvp.walsh_system._butterfly

    def counted(a):
        calls.append(a.shape)
        return butterfly(a)

    for path in SOURCES:
        module = importlib.import_module(f"walshvp.{path.stem}")
        if hasattr(module, "_butterfly"):
            monkeypatch.setattr(module, "_butterfly", counted)
    argv = ["verify-lemmas", "--resolution", "10", "--lemma5-count", "40",
            "--random-schemes", "6", "--seed", "1", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert walshvp.cli.main(argv) == 0
    assert len(calls) == 71


def test_radix4_view_is_reported():
    tree = ast.parse(
        "def fork(a, h):\n    return a.reshape(-1, 4, h).transpose(1, 0, 2)\n"
        "def pairs(a, h):\n    return a.reshape(-1, 2, h)\n"
        "def buffers(w, h):\n    return w.reshape(4, -1, h)\n"
        "class Blocked:\n    def quarters(self, a):\n        return np.reshape(a, (-1, 4))\n"
        "    def run(self, a, h):\n        x = a.reshape(-1, 4, 2 * h)\n"
    )
    assert _radix4_views({"m": tree}) == ["m.Blocked", "m.fork"]


_PARSER_MAKERS = {"ArgumentParser", "add_parser", "add_subparsers"}


def _parser_builders(modules: dict):
    """module.name of each top-level statement that names a maker of
    argparse parsers (ArgumentParser, add_parser, add_subparsers), called
    or passed on."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in _PARSER_MAKERS:
                    found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_only_build_parser_builds_a_parser():
    # main reuses the one parser that the cached build_parser makes; a parser
    # built anywhere else would be rebuilt on every call.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _parser_builders(modules) == ["cli.build_parser"]


def test_parser_builder_is_reported():
    tree = ast.parse(
        "import argparse\nfrom argparse import ArgumentParser\n"
        "def main(argv):\n    return argparse.ArgumentParser().parse_args(argv)\n"
        "def sub(parser):\n    add = parser.add_subparsers().add_parser\n"
        "class Cli:\n    def parse(self, argv):\n        return self.parser.parse_args(argv)\n"
        "PARSER = ArgumentParser(prog='m')\n"
    )
    assert _parser_builders({"m": tree}) == ["m.<module>", "m.main", "m.sub"]


def test_only_walsh_system_builds_walsh_signs():
    # Walsh sign rows are the space-domain route; outside the tests' oracles
    # only walsh_system builds them, and every other module synthesizes.
    signs = {"bit_parity", "walsh_signs", "walsh", "_walsh_rows"}
    found = set()
    for path in SOURCES:
        if path.stem == "walsh_system":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            found |= {f"{path.stem}.{name}" for name in names & signs}
    assert sorted(found) == []


def test_one_function_owns_the_modulus_tables():
    # Which kept table serves a modulus, and which route builds a new one,
    # is decided in one place: no other code reads or writes f._moduli
    # (SampledFunction.__init__ sets it by name, not as an attribute).
    owners = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr == "_moduli":
                    owners.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert sorted(owners) == ["dyadic._modulus_table"]


def _spectrum_users(modules: dict):
    """module.qualname of each innermost function or class that names the
    _spectrum slot: as an attribute, or as the name string passed to
    object.__setattr__."""
    found = set()

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute):
                hit = child.attr == "_spectrum"
            elif isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__":
                hit = [ast.unparse(arg) for arg in child.args[1:2]] == ["'_spectrum'"]
            else:
                hit = False
            if hit:
                found.add(".".join([module] + (scope or ["<module>"])))
            visit(module, child, scope)

    for module, tree in modules.items():
        visit(module, tree, [])
    return sorted(found)


def _rank_slots_and_cells(modules: dict):
    """Each definition, import or read of _cells, and each _rank slot: an
    attribute _rank, or the string "_rank" as a slot name or attribute
    name, by module and line."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                hit = node.name == "_cells"
            elif isinstance(node, ast.Name):
                hit = node.id == "_cells"
            elif isinstance(node, ast.alias):
                hit = node.name == "_cells"
            elif isinstance(node, ast.Attribute):
                hit = node.attr in ("_cells", "_rank")
            elif isinstance(node, ast.Constant):
                hit = node.value == "_rank"
            else:
                hit = False
            if hit:
                found.append(f"{module} (line {node.lineno})")
    return found


def test_one_entry_makes_every_spectrum():
    # Every function is held at its rank, so its head is the one size of it
    # that any route reads: no slot caches a rank and no helper cuts a head
    # to it.  A spectrum is kept only by walsh_system._keep_spectra, of
    # which fwht_forward is the batch of one; SampledFunction._hold starts
    # every function without one.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _spectrum_users(modules) == [
        "dyadic.SampledFunction._hold", "walsh_system._keep_spectra", "walsh_system.fwht_forward",
    ]
    assert _rank_slots_and_cells(modules) == []


def test_second_spectrum_entry_and_rank_slot_are_reported():
    a = ast.parse(
        "class Held:\n"
        "    __slots__ = ('_rank', '_spectrum')\n"
        "    def _hold(self):\n        object.__setattr__(self, '_spectrum', None)\n"
        "def _cells(f):\n    return f._head[: 1 << f._rank]\n"
        "def _with_spectra(fs):\n"
        "    for f in fs:\n        object.__setattr__(f, '_spectrum', _spectra(f))\n"
        "def forward(f):\n    return f._spectrum\n"
        "SPARE = object.__setattr__(Held, '_moduli', None)\n"
    )
    b = ast.parse("from .a import _cells\ndef rows(f):\n    return _cells(f)\n")
    modules = {"a": a, "b": b}
    assert _spectrum_users(modules) == ["a.Held._hold", "a._with_spectra", "a.forward"]
    assert _rank_slots_and_cells(modules) == [
        "a (line 5)", "a (line 2)", "a (line 6)", "b (line 1)", "b (line 3)",
    ]


def _unserved_exports(modules: dict, package):
    """The names of package.__all__ that the cli and experiments modules do
    not serve: a function or constant they do not name, or a class they
    neither name nor get back from an exported function they name, as its
    return annotation."""
    referenced = set()
    for module in ("cli", "experiments"):
        for node in ast.walk(modules[module]):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    returned = set()
    for name in package.__all__:
        value = getattr(package, name)
        if name in referenced and inspect.isfunction(value):
            annotation = inspect.signature(value).return_annotation
            returned.add(getattr(annotation, "__name__", annotation))
    return [
        name
        for name in package.__all__
        if name not in referenced
        and not (inspect.isclass(getattr(package, name)) and name in returned)
    ]


def test_every_public_function_serves_the_cli_or_the_checks():
    # The package exports what the command line and the verification suite
    # call, and the types they name or get back; oracles, helpers and the
    # types of their results stay in their modules.  ValidationReport is
    # served as what validate returns.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _unserved_exports(modules, walshvp) == []


def test_stray_export_is_reported():
    def report() -> "Report":
        return Report()

    def helper():
        return None

    class Report:
        pass

    class Named:
        pass

    class Stray:
        pass

    exports = {"report": report, "helper": helper, "Report": Report, "Named": Named,
               "Stray": Stray, "LIMIT": 3}
    package = types.SimpleNamespace(__all__=list(exports), **exports)
    modules = {
        "cli": ast.parse("def main():\n    return report()\n"),
        "experiments": ast.parse("def check(x):\n    return isinstance(x, Named)\n"),
    }
    assert _unserved_exports(modules, package) == ["helper", "Stray", "LIMIT"]


_TEXT_ENCODERS = {"json", "csv", "encode_basestring", "encode_basestring_ascii"}


def _record_text_builders(modules: dict):
    """module.name of each top-level statement that builds JSON or CSV
    text: that names the json or csv module or json's string encoders, or
    names such a statement in turn.  Names of _emit, the writer's one entry,
    are not followed, so its callers are not builders."""
    statements = {}
    for module, tree in modules.items():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.ImportFrom):
                    names.update((node.module or "").split("."))
            own = getattr(stmt, "name", "<module>")
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                own = stmt.targets[0].id
            statements.setdefault(f"{module}.{own}", set()).update(names)
    found = {key for key, names in statements.items() if names & _TEXT_ENCODERS}
    while True:
        reached = {key.rpartition(".")[2] for key in found} - {"_emit", "<module>"}
        grown = found | {key for key, names in statements.items() if names & reached}
        if grown == found:
            return sorted(found)
        found = grown


def _json_dump_calls(modules: dict):
    """module.name of each top-level statement that calls json.dump or
    json.dumps, as attributes or imported by name."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                    hit = isinstance(node.value, ast.Name) and node.value.id == "json"
                elif isinstance(node, ast.ImportFrom) and node.module == "json":
                    hit = any(alias.name in ("dump", "dumps") for alias in node.names)
                else:
                    hit = False
                if hit:
                    found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_only_emit_builds_record_text():
    # Every CSV and JSON record goes out through cli._emit and the helpers
    # it alone calls; a second writer could drift from its bytes, its null
    # for non-finite floats, or its one pass over the records.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _record_text_builders(modules) == [
        "cli.<module>", "cli._CSV_COLUMNS", "cli._JSON_COLUMNS", "cli._emit",
        "cli._row_template",
    ]
    assert _json_dump_calls(modules) == []


def test_second_record_writer_is_reported():
    writer = ast.parse(
        "from json.encoder import encode_basestring_ascii\n"
        "def _quote(key):\n    return encode_basestring_ascii(key)\n"
        "def _emit(rows):\n    return [_quote(k) for row in rows for k in row]\n"
        "def command(rows):\n    return _emit(rows)\n"
    )
    other = ast.parse(
        "import json\nfrom json import dumps as text\n"
        "def report(rows):\n    return json.dumps(rows, indent=2)\n"
        "def table(rows):\n    return report(rows) + text(rows)\n"
        "def total(rows):\n    return len(rows)\n"
    )
    modules = {"a": writer, "b": other}
    assert _record_text_builders(modules) == [
        "a.<module>", "a._emit", "a._quote", "b.<module>", "b.report", "b.table",
    ]
    assert _json_dump_calls(modules) == ["b.<module>", "b.report"]


def _calls_by_function(modules: dict):
    """module.name -> the names each top-level function calls, by name or
    as an attribute."""
    calls = {}
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                funcs = [node.func for node in ast.walk(stmt) if isinstance(node, ast.Call)]
                calls[f"{module}.{stmt.name}"] = {
                    func.id if isinstance(func, ast.Name) else func.attr
                    for func in funcs
                    if isinstance(func, (ast.Name, ast.Attribute))
                }
    return calls


def test_means_and_records_share_one_core():
    # A mean has one route: vp_mean and the sweep both synthesize it by
    # _mean_period, one block at a time, and approximation_error is the
    # sweep of one block; no batch layer, per-block record builder or
    # second synthesis of a mean is left beside them.
    calls = _calls_by_function({path.stem: ast.parse(path.read_text()) for path in SOURCES})
    for gone in ("_block_records", "_sweep_blocks", "_finish_blocks", "_residual_rows"):
        assert f"experiments.{gone}" not in calls, gone
    assert "means._mean_rows" not in calls
    assert "_mean_period" in calls["means.vp_mean"]
    assert not calls["means.vp_mean"] & {"_butterfly", "hadamard_transform"}
    assert "ratio_sweep" in calls["experiments.approximation_error"]
    assert sorted(name for name, called in calls.items() if "_mean_period" in called) == [
        "experiments.ratio_sweep", "means.vp_mean",
    ]
    assert sorted(name for name, called in calls.items() if "vp_mean" in called) == []


def _stray_references(modules: dict, names: set, allowed: set):
    """The _references of names from any statement that is not allowed: a
    module of allowed, or a module.name key of one."""
    return [
        ref for ref in _references(modules, names)
        if ref.partition(":")[0] not in allowed and ref.partition(".")[0] not in allowed
    ]


def test_only_dyadic_scales_and_sums_powers():
    # The scale of a power sum and the summation tree serve the norms and
    # tables of dyadic, the approx errors among them; another module that
    # scaled or summed by them would hold a second copy of a norm.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _stray_references(modules, {"_power_scale", "_pairwise_total"}, {"dyadic"}) == []


def _power_steps(tree: ast.Module):
    """function: step, for each in-place division or power (/=, **=) and
    each np.divide or np.power in a top-level function of the module."""
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Div, ast.Pow)):
                step = ast.unparse(node)
            elif isinstance(node, ast.Attribute) and node.attr in ("divide", "power"):
                step = ast.unparse(node)
            else:
                continue
            found.append(f"{getattr(stmt, 'name', '<module>')}: {step}")
    return sorted(found)


def test_one_kernel_scales_and_raises_every_power():
    # _scaled_powers is the one power step of dyadic's norms, errors and
    # tables: no other function divides by a scale or raises to p in place.
    tree = ast.parse(next(path for path in SOURCES if path.stem == "dyadic").read_text())
    assert [step for step in _power_steps(tree) if not step.startswith("_scaled_powers:")] == []
    assert _power_steps(tree)  # the kernel itself is seen


def test_power_step_is_reported():
    tree = ast.parse(
        "def _scaled_powers(w, p, s):\n    w /= s\n    w **= p\n"
        "def sums(w, p, s):\n    np.divide(w, s, out=w)\n    w **= 2\n    w *= 2.0\n"
        "def table(w, p):\n    np.power(w, p, out=w)\n    return w / 2.0 + w ** p\n"
    )
    assert _power_steps(tree) == [
        "_scaled_powers: w **= p", "_scaled_powers: w /= s",
        "sums: np.divide", "sums: w **= 2", "table: np.power",
    ]


def _branches_on(function: ast.FunctionDef, name: str):
    """The source of each if, while or conditional-expression test in
    function that reads name."""
    tests = [
        node.test for node in ast.walk(function)
        if isinstance(node, (ast.If, ast.While, ast.IfExp))
    ]
    return [
        ast.unparse(test) for test in tests
        if any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(test))
    ]


def test_every_sweep_error_is_one_norm_of_the_residual():
    # Every p, 2 included, reads its error off the residual of the block's
    # mean through _lp_of_values: no module defines or names a Parseval
    # error, experiments reads no Parseval route, and the sweep does not
    # branch on p.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined = [f"{m}.{s.name}" for m, tree in modules.items() for s in tree.body
               if getattr(s, "name", None) == "_l2_error"]
    assert defined == [] and _references(modules, {"_l2_error"}) == []
    assert _references({"experiments": modules["experiments"]}, {"_l2_table"}) == []
    calls = _calls_by_function(modules)["experiments.ratio_sweep"]
    assert {"_mean_period", "_lp_of_values"} <= calls
    sweep = next(s for s in modules["experiments"].body if getattr(s, "name", None) == "ratio_sweep")
    assert _branches_on(sweep, "p") == []


def test_branch_on_a_name_is_reported():
    function = ast.parse(
        "def sweep(ps):\n"
        "    for p in ps:\n"
        "        if p == 2.0:\n            x = 1\n"
        "        y = 0 if error < p else 1\n"
        "        while q:\n            break\n"
    ).body[0]
    assert _branches_on(function, "p") == ["p == 2.0", "error < p"]


def test_stray_reference_is_reported():
    dyadic = ast.parse(
        "def _pairwise_total(a):\n    return a\n"
        "def norm(a):\n    return _pairwise_total(a)\n"
    )
    experiments = ast.parse(
        "from .dyadic import _l2_error, _pairwise_total\n"
        "def ratio_sweep(f, m):\n    return _l2_error(f, m)\n"
        "def error(f, m):\n    return dyadic._l2_table(f, 1) + _l2_error(f, m)\n"
        "def total(a):\n    return a._power_scale(1.0)\n"
    )
    modules = {"dyadic": dyadic, "experiments": experiments}
    assert _stray_references(modules, {"_power_scale", "_pairwise_total"}, {"dyadic"}) == [
        "experiments.<module>: _pairwise_total", "experiments.total: _power_scale",
    ]
    sweep = {"experiments.<module>", "experiments.ratio_sweep"}
    assert _stray_references(modules, {"_l2_table", "_l2_error"}, sweep) == [
        "experiments.error: _l2_error", "experiments.error: _l2_table",
    ]


def _read_only_error(call, array):
    """The message of the ValueError that call raises on a read-only copy of
    array, or None when it raises none."""
    frozen = array.copy()
    frozen.flags.writeable = False
    try:
        call(frozen)
    except ValueError as exc:
        return str(exc)
    return None


def test_the_mean_only_reads_its_weights():
    # The mean builds its own multiplier from the weights and multiplies the
    # spectrum into it in place, so the weights are only read, and the mean
    # is the synthesis of the multiplier's products.
    f = walshvp.SampledFunction(6, np.arange(64.0) ** 0.5)
    weights = build_scheme("linear_down", 2).weights
    multiplier = walshvp.kernels._block_multiplier(weights, 3)
    products = multiplier * walshvp.walsh_system.fwht_forward(f)._prefix(8)
    read = []
    assert _read_only_error(lambda w: read.append(walshvp.means._mean_period(f, w, 2)),
                            weights) is None
    assert read[0].tobytes() == walshvp.walsh_system.hadamard_transform(products).tobytes()


def test_write_to_a_read_only_argument_is_reported():
    def doubled(a):
        a *= 2.0
        return a

    assert _read_only_error(doubled, np.ones(4)) == "output array is read-only"
    assert _read_only_error(lambda a: a * 2.0, np.ones(4)) is None


def test_calls_by_function_are_reported():
    tree = ast.parse(
        "import numpy as np\n"
        "def mean(f):\n    return _rows(f)[0] + np.abs(f.head)\n"
        "def sweep(f):\n    return [mean(g) for g in f]\n"
        "class Table:\n    def rows(self):\n        return _rows(self)\n"
        "VALUE = _rows(1)\n"
    )
    assert _calls_by_function({"m": tree}) == {"m.mean": {"_rows", "abs"}, "m.sweep": {"mean"}}


def _budget_readers(modules: dict):
    """module.name of each top-level statement that reads _BLOCK_CELLS: by
    name, as an attribute of any object, or by importing it."""
    found = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    hit = node.id == "_BLOCK_CELLS" and isinstance(node.ctx, ast.Load)
                elif isinstance(node, ast.Attribute):
                    hit = node.attr == "_BLOCK_CELLS"
                elif isinstance(node, ast.ImportFrom):
                    hit = any(alias.name == "_BLOCK_CELLS" for alias in node.names)
                else:
                    hit = False
                if hit:
                    found.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return sorted(found)


def test_one_function_reads_the_batch_budget():
    # The block budget has one meaning: every batch is sized through
    # dyadic._rows_per_block, the three batchers of the lemma checks through
    # the one driver dyadic._batches, so a change of the budget reaches all
    # of them.  The approx sweep runs block after block and batches nothing.
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _budget_readers(modules) == ["dyadic._rows_per_block"]
    calls = _calls_by_function(modules)
    assert "_rows_per_block" in calls["dyadic._batches"]
    for batcher in (
        "experiments._check_dirichlet_recursion", "experiments._check_translate_difference",
        "experiments._check_decomposition",
    ):
        assert "_batches" in calls[batcher], batcher
    assert "_batches" not in calls["experiments.ratio_sweep"]
    assert "_rows_per_block" in calls["dyadic._translate_sums"]
    assert "_rows_per_block" in calls["dyadic._l2_table"]
    # The sign split's bincount chunks order its sums, so they take their
    # size from the route's own constant, not from the budget.
    split = next(
        stmt for stmt in modules["dyadic"].body
        if getattr(stmt, "name", None) == "_sign_split_sums"
    )
    names = {node.id for node in ast.walk(split) if isinstance(node, ast.Name)}
    assert "_SPLIT_CHUNK_CELLS" in names and "_rows_per_block" not in names


def test_budget_reader_is_reported():
    a = ast.parse(
        "_BLOCK_CELLS = 4\n"
        "def _rows(cells):\n    return max(1, _BLOCK_CELLS // cells)\n"
        "def step(n):\n    return _BLOCK_CELLS >> n\n"
        "class Table:\n    def rows(self):\n        return _rows(8)\n"
    )
    b = ast.parse("from .a import _BLOCK_CELLS, _rows\n")
    c = ast.parse("from . import a\ndef size():\n    return a._BLOCK_CELLS\n")
    assert _budget_readers({"a": a, "b": b, "c": c}) == [
        "a._rows", "a.step", "b.<module>", "c.size",
    ]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_shape(function: ast.FunctionDef):
    """(step loops, nested loops, prod calls) of function: the for and
    while statements and comprehensions that call gcd, those that hold
    another loop (or a second generator), and the calls of prod, each by
    name or as an attribute."""
    def called(node, name):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    loops = [node for node in ast.walk(function) if isinstance(node, _LOOPS)]
    steps = sum(any(called(node, "gcd") for node in ast.walk(loop)) for loop in loops)
    nested = sum(
        len(getattr(loop, "generators", ())) > 1
        or any(inner is not loop and isinstance(inner, _LOOPS) for inner in ast.walk(loop))
        for loop in loops
    )
    return steps, nested, sum(called(node, "prod") for node in ast.walk(function))


def test_the_cesaro_chain_takes_one_step_form():
    # _CesaroChain._grow takes the step g_m = gcd(b_m, e_(m-1)),
    # e_m = e_(m-1) // g_m * a_m the same way at every m, in int64 range and
    # past it: one loop steps the chain, no loop runs inside another, and
    # no run of steps goes through on a residue of e modulo a product of
    # its b_m.
    weights = next(path for path in SOURCES if path.stem == "weights")
    chain = next(
        stmt for stmt in ast.parse(weights.read_text()).body
        if getattr(stmt, "name", None) == "_CesaroChain"
    )
    grow = next(stmt for stmt in chain.body if getattr(stmt, "name", None) == "_grow")
    assert _loop_shape(grow) == (1, 0, 0)


def test_loop_shape_is_reported():
    function = ast.parse(
        "def grow(a, b, e):\n"
        "    chain = [e := e // gcd(b_m, e) * a_m for a_m, b_m in zip(a, b)]\n"
        "    for i in range(0, len(a), 32):\n"
        "        y = e % math.prod(b[i : i + 32])\n"
        "        for b_m in b[i : i + 32]:\n            y //= math.gcd(b_m, y)\n"
        "    pairs = [x * y for x in a for y in b]\n"
        "    while e:\n        e = prod(a)\n"
        "    return next(i for i, e_m in enumerate(chain) if e_m >> 63)\n"
    ).body[0]
    assert _loop_shape(function) == (3, 2, 2)
