"""Module boundaries of the package, read from its source with ast.

No module reaches into another package module's underscore names, so
each decision has one owner; the imports form no cycle, prediction
imports nothing but errors, and the verifier imports neither the
synthesis it checks nor the command line front end.  Every public
function and class has a caller in the package or its scripts: what
only the tests call lives in the tests.  Every field of a package
dataclass is read by name in the package, its scripts or its benchmark,
bar the named exemptions.  No module of the package, the scripts or the
tests imports a name it never reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clrmpc"
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _package_imports(tree):
    """(submodule or None, imported names) for each import from the package,
    written relative (`from . import m`) or absolute (`from clrmpc.m import f`)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 1:
            yield node.module, node.names
        elif node.level == 0 and parts[0] == "clrmpc":
            yield (".".join(parts[1:]) or None), node.names


def _aliases(tree):
    """Local names bound to package modules, as {name: module}."""
    return {a.asname or a.name: a.name
            for module, names in _package_imports(tree) if module is None
            for a in names}


def _imported(tree):
    """Every package module a module imports."""
    return (set(_aliases(tree).values())
            | {module for module, _ in _package_imports(tree) if module})


def _private_uses(tree):
    """Underscore names of other package modules that a module reads."""
    aliases = _aliases(tree)
    uses = [f"{module}.{a.name}" for module, names in _package_imports(tree)
            if module for a in names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.append(f"{aliases[node.value.id]}.{node.attr}")
    return uses


def _reads(tree, own=None):
    """Package names a module reads, as "module.name": from-imports,
    attributes of imported package modules and, inside module own, bare
    names."""
    aliases = _aliases(tree)
    reads = {f"{module}.{a.name}" for module, names in _package_imports(tree)
             if module for a in names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add(f"{aliases[node.value.id]}.{node.attr}")
        elif own and isinstance(node, ast.Name):
            reads.add(f"{own}.{node.id}")
    return reads


def _unread_public_names(modules, scripts):
    """Public module-level functions and classes of {name: tree} that no
    module in it and no script tree reads."""
    reads = set().union(*(_reads(t, own=m) for m, t in modules.items()),
                        *(_reads(t) for t in scripts))
    defined = {f"{m}.{node.name}" for m, tree in modules.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    return sorted(defined - reads)


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Attribute) and d.attr == "dataclass"
               for d in (d.func if isinstance(d, ast.Call) else d
                         for d in node.decorator_list))


def _unread_fields(modules, readers):
    """Fields of the dataclasses in {name: tree}, as "module.Class.field",
    that no attribute load in modules or readers names."""
    reads = {node.attr for tree in (*modules.values(), *readers)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [f"{m}.{cls.name}.{item.target.id}"
              for m, tree in modules.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return sorted(f for f in fields if f.rsplit(".", 1)[1] not in reads)


def _unused_imports(tree):
    """Names a module binds by import and never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=name)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_another_modules_private_names(name):
    assert _private_uses(_tree(name)) == []


def test_verify_is_independent_of_synthesis_and_cli():
    assert "synthesis" in MODULES and "cli" in MODULES
    imported = _imported(_tree("verify"))
    assert "mpc" in imported
    assert not imported & {"synthesis", "cli"}


def test_package_import_graph_is_acyclic():
    graph = {name: _imported(_tree(name)) & set(MODULES) for name in MODULES}
    done = set()
    while len(done) < len(graph):
        ready = {m for m in graph if m not in done and graph[m] <= done}
        assert ready, f"an import cycle blocks {sorted(set(graph) - done)}"
        done |= ready


def test_prediction_imports_only_errors():
    assert _imported(_tree("prediction")) == {"errors"}


def test_checker_sees_cross_module_private_reads():
    tree = ast.parse("from . import model, utils as u\n"
                     "from .synthesis import _format_cert_value\n"
                     "from clrmpc.sim import _pack\nfrom clrmpc import cli\n"
                     "model._format_value(1)\nu._MASK64\nmodel.__name__\n")
    assert sorted(_private_uses(tree)) == [
        "model._format_value", "sim._pack", "synthesis._format_cert_value",
        "utils._MASK64"]
    assert _imported(tree) == {"model", "utils", "synthesis", "sim", "cli"}


def test_every_public_name_has_a_package_caller():
    modules = {p.stem: ast.parse(p.read_text(), filename=p.name)
               for p in PACKAGE.glob("*.py")}
    scripts = [ast.parse(p.read_text(), filename=p.name)
               for p in SCRIPTS.glob("*.py")]
    assert _unread_public_names(modules, scripts) == []


def test_checker_sees_unread_public_names():
    modules = {
        "a": ast.parse("def used():\n    pass\ndef local():\n    pass\n"
                       "def unread():\n    pass\nclass Imported:\n    pass\n"
                       "class Orphan:\n    pass\ndef _private():\n    pass\n"
                       "x = local()\n"),
        "b": ast.parse("from . import a\nfrom .a import Imported\n"
                       "def run():\n    return a.used()\n"),
    }
    scripts = [ast.parse("from clrmpc import b\nb.run()\n")]
    assert _unread_public_names(modules, scripts) == ["a.Orphan", "a.unread"]
    assert _unread_public_names(modules, []) == [
        "a.Orphan", "a.unread", "b.run"]


# fields kept without a reader outside the tests, each for its reason
FIELD_EXEMPTIONS = {
    # the solver's KKT answer, compared against reference solutions
    "qpsolver.QpSolution.eq_duals",
    # for the solver statistics the stage logs are to report
    "qpsolver.QpSolution.kkt_residual",
}


def test_every_dataclass_field_has_a_reader():
    modules = {p.stem: ast.parse(p.read_text(), filename=p.name)
               for p in PACKAGE.glob("*.py")}
    readers = [ast.parse(p.read_text(), filename=p.name)
               for d in (SCRIPTS, PERFBENCH) for p in d.glob("*.py")]
    assert _unread_fields(modules, readers) == sorted(FIELD_EXEMPTIONS)


def test_checker_sees_unread_fields():
    modules = {
        "a": ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                       "@dataclass\nclass P:\n    x: int\n    y: int\n"
                       "    def twice(self):\n        return 2 * self.x\n"
                       "@dataclasses.dataclass(frozen=True)\nclass Q:\n"
                       "    z: int\n    w: int\n    LIMIT = 3\n"
                       "class Plain:\n    v: int\n"),
        "b": ast.parse("def f(q):\n    q.y = 1\n    return q.z\n"),
    }
    scripts = [ast.parse("def g(p):\n    return p.y\n")]
    assert _unread_fields(modules, scripts) == ["a.Q.w"]
    assert _unread_fields(modules, []) == ["a.P.y", "a.Q.w"]


def test_no_unused_imports():
    # an __init__ imports to re-export, so it is not scanned
    sources = [p for d in (PACKAGE, SCRIPTS, TESTS) for p in sorted(d.glob("*.py"))
               if p.name != "__init__.py"]
    unused = {p.relative_to(ROOT).as_posix():
              _unused_imports(ast.parse(p.read_text(), filename=p.name))
              for p in sources}
    assert {path: names for path, names in unused.items() if names} == {}


def test_checker_sees_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom . import a, b as c\n"
                     "from x import y\nfrom z import *\n"
                     "def f():\n    import json\n    return np.zeros(1), a, os\n")
    assert _unused_imports(tree) == ["c", "json", "y"]
