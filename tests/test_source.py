"""Source hygiene: every module reads each name it imports, every
private module-level definition is read somewhere in the package, the
public functions that no package or benchmark code reads are the known
ones, every checkpoint `meta.` key the package writes is read, the
tape's table of charged buffers names every node kind, the tape
primitives that no package code calls are the known ones and run
without the group cuts and thread splits, every package name the
benchmark wraps exists, and the CLI's usage block lists its subcommands."""

import argparse
import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path

import pytest

from blockmae import cli, tape

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


def _unread_functions(sources, readers):
    """`module.name` of each public top-level function in `sources`
    (module name -> source) that neither they nor the sources `readers`
    load, by name or as an attribute, sorted."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in [*trees.values(), *map(ast.parse, readers)]
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    return sorted(f"{m}.{node.name}" for m, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")
                  and node.name not in read)


def test_detector_finds_an_unread_public_function():
    sources = {
        "a": ("def used():\n    pass\n"
              "def orphan():\n    pass\n"
              "def _private():\n    pass\n"
              "class Public:\n    pass\n"
              "def called_by_b():\n    return used()\n"),
        "b": ("from .a import orphan as kept\n"
              "def wrapped():\n    pass\n"),
    }
    readers = ["import b\nb.wrapped\na.called_by_b()\n"]
    assert _unread_functions(sources, readers) == ["a.orphan"]


# Public functions that no package or benchmark module reads: the tests'
# finite-difference oracle, and a cost model only the tests call.  A helper
# whose last caller goes, and is left behind, fails the test by name.
UNREAD_FUNCTIONS = {"tape.finite_diff", "ofa.training_cost_saving"}


def test_public_functions_without_a_reader_are_the_known_ones():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    bench = [p.read_text(encoding="utf-8")
             for p in (ROOT / "perfbench").glob("*.py")]
    assert _unread_functions(sources, bench) == sorted(UNREAD_FUNCTIONS)


def _meta(node):
    """The string of a constant node if it is a `meta.` key, else None."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("meta.")):
        return node.value
    return None


def _unread_meta_keys(sources):
    """The `meta.` checkpoint keys, sorted, that `sources` (module name ->
    source) write, by a subscript store or as a dict literal's key, and
    never read: by a load subscript, an `in` or `not in` test, or as a
    call argument."""
    written, read = set(), set()
    for tree in map(ast.parse, sources.values()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                (written if isinstance(node.ctx, ast.Store)
                 else read).add(_meta(node.slice))
            elif isinstance(node, ast.Dict):
                written.update(map(_meta, node.keys))
            elif isinstance(node, ast.Compare) and isinstance(
                    node.ops[0], (ast.In, ast.NotIn)):
                read.add(_meta(node.left))
            elif isinstance(node, ast.Call):
                read.update(map(_meta, node.args))
    return sorted(written - read - {None})


def test_detector_finds_an_unread_meta_key():
    sources = {
        "a": ("def save(t, m):\n"
              "    t['meta.a'] = t['meta.b'] = t['meta.c'] = 1\n"
              "    t['meta.d'] = t['other'] = 2\n"
              "    return {'meta.e': 1, 'meta.f': 2, **m}\n"),
        "b": ("def load(t):\n"
              "    if 'meta.a' in t and 'meta.e' not in t:\n"
              "        return t['meta.b']\n"
              "    keys = ['meta.d', 'meta.f']\n"
              "    return f(t, 'meta.c'), keys\n"),
    }
    assert _unread_meta_keys(sources) == ["meta.d", "meta.f"]


def test_package_reads_every_meta_key_it_writes():
    # A checkpoint record that nothing checks on load is data no code
    # uses, and a file that disagrees with the config loads in silence.
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert _unread_meta_keys(sources) == []


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


# The tape helpers that cut a batch into groups, rows into chunks, or a
# kernel over threads, so that a fused node's sums follow one order.
_LOCKSTEP = {"_grouped", "_groups", "_parallel", "_chunks"}


def _tape_functions_called(fn):
    """Names of the tape module's functions that fn calls, directly or
    through other tape module functions."""
    seen, todo = set(), [fn]
    while todo:
        tree = ast.parse(textwrap.dedent(inspect.getsource(todo.pop())))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id not in seen
                    and inspect.isfunction(getattr(tape, node.func.id, None))):
                seen.add(node.func.id)
                todo.append(getattr(tape, node.func.id))
    return seen


def test_primitives_without_a_caller_run_without_lockstep():
    # Nothing keeps a rule no step records in the fused nodes' group order:
    # neither such a primitive nor its node kind's rule cuts, chunks or
    # splits its batch.  A live rule does, through its helpers.
    live = (_tape_functions_called(tape.Tape.encoder_layer)
            | _tape_functions_called(tape._VJP["encoder-layer"]))
    assert _LOCKSTEP <= live
    for name in sorted(UNCALLED_PRIMITIVES):
        method = getattr(tape.Tape, name)
        (kind,) = re.findall(r'Node\("([\w-]+)"', inspect.getsource(method))
        for fn in (method, tape._VJP[kind]):
            assert not _tape_functions_called(fn) & _LOCKSTEP, (
                name, fn.__name__)


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


def _usage_commands(doc):
    """Subcommands, sorted, that a usage block lists: the second word of
    each line that starts with `blockmae ` after its indent."""
    return sorted(line.split()[1] for line in doc.splitlines()
                  if line.strip().startswith("blockmae "))


def _parser_commands(parser):
    """Subcommands, sorted, that an argparse parser defines."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices)


def test_detector_reads_usage_and_parser_commands():
    doc = ("Entry points.\n\n    blockmae a  --x\n    blockmae b\n\n"
           "Text that names blockmae c.\n")
    assert _usage_commands(doc) == ["a", "b"]
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for name in ("b", "a"):
        sub.add_parser(name)
    assert _parser_commands(parser) == ["a", "b"]


def test_cli_usage_lists_every_subcommand_the_parser_defines():
    # A command deleted from the parser and left in the usage block, or
    # added without it, fails here by name.
    assert _usage_commands(cli.__doc__) == \
        _parser_commands(cli.build_parser())
