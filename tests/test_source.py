"""Source hygiene: every module reads each name it imports, every
private module-level definition is read somewhere in the package, the
tape's table of charged buffers names every node kind, the tape
primitives that no package code calls are the known ones, and every
package name the benchmark wraps exists."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from blockmae import tape

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blockmae"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source):
    """Names a module binds by import but never loads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_detector_finds_an_unread_import():
    source = ("import os\nimport a.b\nfrom . import rng\n"
              "from .tape import Tape as T, ContractError\n"
              "def f():\n    raise ContractError(a.b.c)\n")
    assert _unread_imports(source) == ["T", "os", "rng"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def _defined_privates(tree):
    """Names starting with one underscore that a module binds at its top
    level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _unread_privates(sources):
    """`module.name` of each private top-level definition in `sources`
    (module name -> source) that no module loads, by name or as an
    attribute, sorted."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    return sorted(f"{m}.{name}" for m, tree in trees.items()
                  for name in _defined_privates(tree) if name not in read)


def test_detector_finds_an_unread_private_definition():
    sources = {
        "a": ("_USED = 1\n_DEAD = 2\n__all__ = ()\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    pass\n"
              "class _Gone:\n    pass\n"
              "def public():\n    return _helper()\n"),
        "b": ("from . import a\n_X, _Y = 1, 2\n"
              "def g(self):\n    self._Y = 3\n    return a._orphan, _X\n"),
    }
    assert _unread_privates(sources) == ["a._DEAD", "a._Gone", "b._Y"]


def test_package_reads_every_private_definition():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert _unread_privates(sources) == []


def _table_kinds(doc):
    """Node kinds, sorted, that the "Charged buffers per primitive" table
    of a docstring names: the slash-separated first word of each line
    indented by exactly four spaces, up to the first blank line."""
    table = doc.split("Charged buffers per primitive:\n", 1)[1]
    lines = table.split("\n\n", 1)[0].splitlines()
    return sorted(kind for line in lines
                  if line.startswith("    ") and line[4:5].strip()
                  for kind in line.split()[0].split("/"))


def test_detector_reads_the_charged_buffer_table():
    doc = ("Intro.\n\nCharged buffers per primitive:\n"
           "    b/a-c     nothing\n"
           "                  a continuation line, not-a-kind\n"
           "    z         its value\n"
           "\n"
           "    after     the table\n")
    assert _table_kinds(doc) == ["a-c", "b", "z"]


def test_charged_buffer_table_names_every_node_kind():
    # The rule kinds, and the one charged leaf
    assert _table_kinds(tape.__doc__) == sorted(set(tape._VJP) | {"boundary"})


def _tape_calls(source):
    """Method names a module calls on a tape: on `self`, on `tape` (the
    name the model's functions take theirs by) or on a name the module
    binds to a new `Tape()` or `Forward()`."""
    tree = ast.parse(source)
    names = {"self", "tape"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("Tape", "Forward")):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in names}


def test_detector_finds_tape_calls():
    source = ("def f(tape, x):\n    return tape.add(x, x)\n"
              "def g(x):\n    fwd = Forward()\n    fwd.scale(x, 2.0)\n"
              "    return np.matmul(x, x).transpose(1, 0)\n")
    assert _tape_calls(source) == {"add", "scale"}


# Tape primitives that no package code calls.  They stay as the tests'
# reference computations and because the benchmark wraps them by name;
# ROADMAP item 2 deletes them.  A primitive that joins or leaves this set
# fails the test by name.
UNCALLED_PRIMITIVES = {"matmul", "add", "scale", "transpose", "gather_rows",
                       "concat_rows", "softmax", "gelu", "mse_masked"}


def test_tape_primitives_without_a_caller_are_the_known_ones():
    # A primitive is a public Tape method that records a node.
    primitives = {name for name, fn in vars(tape.Tape).items()
                  if not name.startswith("_") and callable(fn)
                  and "Node(" in inspect.getsource(fn)}
    called = set().union(*(_tape_calls(p.read_text(encoding="utf-8"))
                           for p in SRC.glob("*.py")))
    assert sorted(primitives - called) == sorted(UNCALLED_PRIMITIVES)


def _literal_wraps(module):
    """(owner, name) of each `patch.wrap(owner, "name", ...)` and
    `patch.set(owner, "name", ...)` call in a module's source that names
    its attribute by a string literal, the owner evaluated in the
    module's namespace."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [(eval(ast.unparse(call.args[0]), vars(module)),
             call.args[1].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("wrap", "set")
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "patch" and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)]


def test_every_name_the_benchmark_wraps_exists():
    # perfbench wraps package names from outside.  A deleted or renamed
    # one would fail only inside its smoke runs; here it fails by name.
    # `instrument` wraps the traced layers, the tape primitives among
    # them, and `run_call` the entry points; everything is restored.
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import spans, workloads

    missing = []

    class CheckingPatcher(spans.Patcher):
        def set(self, owner, attr, value):
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
            else:
                super().set(owner, attr, value)

        def wrap(self, owner, attr, make):
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
            else:
                super().wrap(owner, attr, make)

    before = spans.namespace_snapshot(workloads.PATCHED_MODULES)
    with CheckingPatcher() as patch:
        workloads.instrument(patch, spans.Recorder())
        named = _literal_wraps(workloads)
        for owner, attr in named:
            patch.wrap(owner, attr, lambda fn: fn)
    assert missing == []
    assert {attr for _, attr in named} >= {
        "extract_features", "forward_tokens", "Tape"}
    assert spans.changed_names(before, workloads.PATCHED_MODULES) == []
