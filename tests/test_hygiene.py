"""Source hygiene: every top-level import of a spanembed module or a test file is used or
re-exported, every local that a spanembed function assigns is read, every defaulted
parameter of a spanembed function is passed by some call, and no spanembed function takes
its settings as string keys of a parameter, and no spanembed function imports inside its
body; only `graph_core` knows the packed-row format, reads a graph's adjacency store, maps
memory or holds the whole graph as an n x n bool matrix; `run_pipeline` holds no loop statement; every `ExperimentConfig`
field is set by some test, benchmark or command-line flag; every `Graph` and `PackedCopy`
method and every public top-level function has a caller in spanembed or a named reason to
stay; every module-level UPPER_CASE constant is read in spanembed; every `rng_for` stream is an int literal with one call site."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from spanembed.harness import ExperimentConfig

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spanembed"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("*.py"))
BENCH_FILES = sorted((TESTS.parent / "perfbench").glob("*.py"))
# parameters that callers outside src/ and tests/ set: the command's argument vector
ENTRY_POINTS = {"main(argv)"}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads and `__all__` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom x import a, b as c\nfrom y import d\n"
        "__all__ = ['d']\n"
        "def f():\n    return c + os.sep\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=[p.name for p in TEST_FILES])
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unread_locals(source: str) -> list[str]:
    """Names that a function assigns and never reads, at the line of their first assignment.

    A read anywhere in the function counts, in a nested function too; an augmented
    assignment is not a read.  Names that start with `_` are exempt, and so are names
    that the function declares global or nonlocal.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared: set[str] = set()
        stored: dict[str, int] = {}
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, SCOPES):
                continue  # a nested scope binds its own locals
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            todo.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [
            (line, name) for name, line in stored.items()
            if name not in read and name not in declared and not name.startswith("_")
        ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scanner_flags_only_unread_locals():
    source = (
        "def f(a, unused_param):\n"
        "    x, _y = a\n"
        "    z = 1\n"
        "    for i, j in a:\n"
        "        print(j)\n"
        "    w = 0\n"
        "    def g():\n"
        "        nonlocal w\n"
        "        w = v = 2\n"
        "        return x\n"
        "    return g, w, [k for k in a], lambda m: m\n"
        "def h():\n"
        "    global G\n"
        "    G = total = 0\n"
        "    total += 1\n"
        "    with open('f') as fh:\n"
        "        pass\n"
    )
    assert unread_locals(source) == ["line 3: z", "line 4: i", "line 9: v", "line 14: total", "line 16: fh"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_locals(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


def local_imports(source: str) -> list[str]:
    """`line: function` for every import statement inside a function's body.

    A module's imports belong at its top, where a reader sees all its dependencies
    and `unused_imports` checks them; an import in a nested function is that
    function's.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested function reports its own
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append((node.lineno, fn.name))
            todo.extend(ast.iter_child_nodes(node))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scanner_flags_only_local_imports():
    source = (
        "import os\n"
        "from x import y\n"
        "def f():\n"
        "    import heapq\n"
        "    def g():\n"
        "        from a import b\n"
        "        return b\n"
        "    if y:\n"
        "        import json\n"
        "    return heapq, g, json\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import z\n"
        "        return z\n"
        "if os:\n"
        "    import sys\n"
    )
    assert local_imports(source) == ["line 4: f", "line 6: g", "line 9: f", "line 13: m"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_local_imports(path):
    assert local_imports(path.read_text(encoding="utf-8")) == []


def unset_options(module_sources: dict[str, str], caller_sources: list[str]) -> list[str]:
    """`module.function(parameter)` for every defaulted parameter of a top-level function
    that no call in `caller_sources` passes, by keyword or by position.

    Calls are matched to functions by name, so a name that two modules define counts
    as passed when either is called with it; `*args` or `**kwargs` at a call passes all.
    """
    params: dict[str, list[tuple[str, list[str], list[str]]]] = {}
    for module, source in module_sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [x.arg for x, dflt in zip(a.kwonlyargs, a.kw_defaults) if dflt is not None]
            if defaulted:
                params.setdefault(node.name, []).append((module, positional, defaulted))
    passed: set[tuple[str, str]] = set()
    for source in caller_sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for _module, positional, defaulted in params.get(name, ()):
                if any(isinstance(x, ast.Starred) for x in call.args) or None in [kw.arg for kw in call.keywords]:
                    passed.update((name, x) for x in defaulted)
                passed.update((name, x) for x in positional[: len(call.args)])
                passed.update((name, kw.arg) for kw in call.keywords)
    return [
        f"{module}.{name}({x})"
        for name, sigs in sorted(params.items())
        for module, _positional, defaulted in sigs
        for x in defaulted
        if (name, x) not in passed and f"{name}({x})" not in ENTRY_POINTS
    ]


def test_scanner_flags_only_options_no_call_sets():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "def g(x=0):\n    return x\n"
        "def h(y=0):\n    return y\n"
        "class C:\n    def m(self, z=0):\n        return z\n"
    )
    callers = [module + "f(0, 5, e=6)\nobj.h(*[1])\n"]
    assert unset_options({"mod": module}, callers) == ["mod.f(c)", "mod.f(d)", "mod.g(x)"]


def test_every_option_is_set_by_some_call():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [*modules.values(), *(path.read_text(encoding="utf-8") for path in TEST_FILES)]
    assert unset_options(modules, callers) == []


def string_key_reads(source: str) -> list[str]:
    """`function(parameter['key'])` for every read of a function's own parameter by a
    constant string key, as `parameter["key"]` or `parameter.get("key", ...)`.

    A setting passed inside a dict is an option that `unset_options` cannot see, so
    settings are named parameters.  A nested function's reads count for the functions
    around it too.
    """
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                target, key = node.value, node.slice
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args:
                target, key = node.func.value, node.args[0]
            else:
                continue
            if (
                isinstance(target, ast.Name) and target.id in names
                and isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                out.append(f"{fn.name}({target.id}[{key.value!r}])")
    return out


def test_scanner_flags_only_string_key_reads_of_parameters():
    source = (
        "def f(params, rows, *, opts=None):\n"
        "    local = {'a': 1}\n"
        "    params['written'] = local['a'] + rows[0] + params.x['attr']\n"
        "    return params['eps'], opts.get('mu', 0.1), local.get('b'), rows.get(0)\n"
        "def g(cfg):\n"
        "    def inner():\n"
        "        return cfg['k']\n"
        "    return inner\n"
    )
    assert string_key_reads(source) == ["f(params['eps'])", "f(opts['mu'])", "g(cfg['k'])"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_settings_read_by_string_key(path):
    assert string_key_reads(path.read_text(encoding="utf-8")) == []


# the conversions between int bitmasks and packed words or bytes
PACKED_FORMAT_NAMES = {"to_bytes", "from_bytes", "frombuffer", "packbits", "unpackbits"}


def packed_format_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) for every use of a packed-format conversion, as an attribute or a name.

    The word format of packed rows is `graph_core`'s alone; other modules reach it
    through `Graph.packed_rows`, `row_mask_counts` and `bit_positions`.
    """
    uses = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in PACKED_FORMAT_NAMES:
            uses.append((node.lineno, node.col_offset, name))
    return [(line, name) for line, _col, name in sorted(uses)]


def test_scanner_flags_only_packed_format_uses():
    source = (
        "import numpy as np\n"
        "from numpy import unpackbits\n"
        "def f(m, a):\n"
        '    """to_bytes in a docstring is fine"""\n'
        "    b = m.to_bytes(8, 'little')\n"
        "    return np.packbits(a), int.from_bytes(b, 'little'), np.frombuffer(b), unpackbits(a)\n"
    )
    assert packed_format_uses(source) == [
        (5, "to_bytes"), (6, "packbits"), (6, "from_bytes"), (6, "frombuffer"), (6, "unpackbits"),
    ]


def test_only_graph_core_knows_the_packed_format():
    uses = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name != "graph_core.py"
        for line, name in packed_format_uses(path.read_text(encoding="utf-8"))
    ]
    assert uses == []


# a `Graph`'s stores: its packed rows, its neighbour tuples, and the int masks built from either
GRAPH_STORE_NAMES = {"adj", "_rows", "_nbrs"}


def graph_store_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for every attribute read of a `Graph` store.

    Which store a graph keeps is `graph_core`'s decision; other modules read a
    row through `Graph.neighbours` and many rows through the bulk readers
    (`Graph.degree_table`, `Graph.packed_rows`).
    """
    reads = [
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GRAPH_STORE_NAMES
    ]
    return [(line, name) for line, _col, name in sorted(reads)]


def test_scanner_flags_only_graph_store_reads():
    source = (
        "def f(g, edit, adj):\n"
        '    """g.adj in a docstring is fine"""\n'
        "    rows = g._rows if edit._nbrs is None else adj[0]\n"
        "    return g.adj[0] & g.neighbours(1), rows, g.packed_rows()\n"
    )
    assert graph_store_reads(source) == [(3, "_rows"), (3, "_nbrs"), (4, "adj")]


def test_only_graph_core_reads_a_graph_store():
    reads = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name != "graph_core.py"
        for line, name in graph_store_reads(path.read_text(encoding="utf-8"))
    ]
    assert reads == []


def memory_map_uses(source: str) -> list[int]:
    """Lines of every import or use of `mmap`, as a module, a name or an attribute.

    Where arrays live outside the malloc heap is `graph_core`'s decision, like the
    packed word format: kept rows and bulk edge keys go in its `mapped_array`.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(name.split(".")[0] == "mmap" for name in names):
                lines.add(node.lineno)
        elif (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == "mmap":
            lines.add(node.lineno)
    return sorted(lines)


def test_scanner_flags_only_memory_map_uses():
    source = (
        "import mmap\n"
        "from mmap import mmap as m, PAGESIZE\n"
        "import numpy as np\n"
        "def f(n):\n"
        '    """mmap in a docstring is fine, and so is a mapped_array call"""\n'
        "    a = mapped_array(n, np.int32)\n"
        "    return np.frombuffer(mmap.mmap(-1, n)), a\n"
    )
    assert memory_map_uses(source) == [1, 2, 7]


def test_only_graph_core_maps_memory():
    uses = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name != "graph_core.py"
        for line in memory_map_uses(path.read_text(encoding="utf-8"))
    ]
    assert uses == []


def whole_matrix_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) for every call of `to_bit_matrix` with no argument and every call
    of `from_bit_matrix`.

    Both hold the whole graph as an n x n bool matrix, n^2 bytes against the n^2/8
    of the packed rows; other modules read rows a block at a time
    (`Graph.degree_table`) and delete edges by key (`PackedCopy.delete`).
    """
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if name == "from_bit_matrix" or (name == "to_bit_matrix" and not node.args and not node.keywords):
            calls.append((node.lineno, node.col_offset, name))
    return [(line, name) for line, _col, name in sorted(calls)]


def test_scanner_flags_only_whole_matrix_calls():
    source = (
        "def f(g, vs, a):\n"
        '    """g.to_bit_matrix() in a docstring is fine"""\n'
        "    rows = g.to_bit_matrix(vs), g.to_bit_matrix(vertices=vs), g.to_bit_matrix\n"
        "    return g.to_bit_matrix(), Graph.from_bit_matrix(a), from_bit_matrix(a)\n"
    )
    assert whole_matrix_calls(source) == [(4, "to_bit_matrix"), (4, "from_bit_matrix"), (4, "from_bit_matrix")]


def test_only_graph_core_holds_a_whole_bool_matrix():
    calls = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name != "graph_core.py"
        for line, name in whole_matrix_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls == []


def loop_statements(source: str, function: str) -> list[int]:
    """Lines of every `for` or `while` statement in the top-level `function`, nested
    functions included; comprehensions are expressions and do not count.

    `run_pipeline` calls one function per stage, so a loop there is stage logic that
    belongs in the stage's module, where it can be run and tested alone.
    """
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function:
            return sorted(n.lineno for n in ast.walk(node) if isinstance(n, (ast.For, ast.AsyncFor, ast.While)))
    raise ValueError(f"no top-level function {function!r}")


def test_scanner_flags_only_loop_statements():
    source = (
        "def run(xs):\n"
        "    for x in xs:\n"
        "        pass\n"
        "    while xs:\n"
        "        xs.pop()\n"
        "    ys = [x for x in xs]\n"
        "    def inner():\n"
        "        for y in ys:\n"
        "            pass\n"
        "    return {x: 1 for x in ys}, inner\n"
        "def other(xs):\n"
        "    for x in xs:\n"
        "        pass\n"
    )
    assert loop_statements(source, "run") == [2, 4, 8]
    assert loop_statements(source, "other") == [12]
    with pytest.raises(ValueError, match="no top-level function 'missing'"):
        loop_statements(source, "missing")


def test_run_pipeline_holds_no_loop():
    assert loop_statements((SRC / "harness.py").read_text(encoding="utf-8"), "run_pipeline") == []


CONFIG_CALLS = {"ExperimentConfig", "dict", "replace"}


def unset_config_keys(keys: list[str], caller_sources: list[str], cli_source: str) -> list[str]:
    """The keys that no `ExperimentConfig(...)`, `dict(...)` or `replace(...)` call in
    `caller_sources` passes by keyword and no command-line flag of `cli_source` sets.

    A flag sets its `dest=`, or else its first long option with `-` read as `_`.  A
    key that nothing sets is a setting whose other values no run has tried.
    """
    passed = set()
    for source in caller_sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in CONFIG_CALLS:
                passed.update(kw.arg for kw in call.keywords)
    for call in ast.walk(ast.parse(cli_source)):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument":
            dest = [kw.value.value for kw in call.keywords if kw.arg == "dest"]
            flags = [a.value[2:].replace("-", "_") for a in call.args if a.value.startswith("--")]
            passed.update((dest or flags)[:1])
    return [key for key in keys if key not in passed]


def test_scanner_flags_only_config_keys_nothing_sets():
    callers = [
        "cfg = ExperimentConfig(a=1, **extra)\nbase = dict(b=2)\nrun(replace(cfg, c=3))\n"
        "other(d=4)\nExperimentConfig(**{'e': 5})\n"
    ]
    cli = (
        "def build(p):\n"
        "    p.add_argument('--f-g', type=int)\n"
        "    p.add_argument('--name', dest='h')\n"
        "    p.add_argument('-i')\n"
    )
    keys = ["a", "b", "c", "d", "e", "f_g", "h", "name", "i"]
    assert unset_config_keys(keys, callers, cli) == ["d", "e", "name", "i"]


def test_every_config_key_is_set_somewhere():
    callers = [path.read_text(encoding="utf-8") for path in [*TEST_FILES, *BENCH_FILES]]
    keys = [f.name for f in fields(ExperimentConfig)]
    assert unset_config_keys(keys, callers, (SRC / "cli.py").read_text(encoding="utf-8")) == []


# `Graph` methods that no spanembed code calls, each with the callers that keep it
UNCALLED_METHODS = {
    "Graph.adj": "perfbench/test_check.py builds a rotated Paley host from it",
    "Graph.without_edges": "perfbench/test_check.py and the tests delete edges by pair with it",
}


def uncalled_methods(sources: list[str], classes: set[str]) -> list[str]:
    """`Class.method` for every method of `classes` but the dunders that no code in
    `sources` reaches.

    An attribute `x.method` reaches the method from anywhere but the body of one of
    these methods that is not reached itself, so a method that only an unreached
    one calls is unreached too.  Calls are matched by name, but an attribute of an
    imported module (`np.empty`) or of another class (`VertexSet.empty`) reaches
    nothing.
    """
    defined, refs, modules, class_names = set(), [], set(), set()

    def visit(node, holder):
        if isinstance(node, ast.Attribute):
            refs.append((node.attr, getattr(node.value, "id", None), holder))
        for child in ast.iter_child_nodes(node):
            visit(child, holder)

    for source in sources:
        tree = ast.parse(source)
        modules.update(
            alias.asname or alias.name.split(".")[0]
            for node in tree.body if isinstance(node, ast.Import) for alias in node.names
        )
        class_names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in classes):
                visit(node, None)
                continue
            for item in node.body:
                name = getattr(item, "name", "__")
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not name.startswith("__"):
                    defined.add(f"{node.name}.{name}")
                    visit(item, f"{node.name}.{name}")
                else:
                    visit(item, None)
    reached: set[str] = set()
    while True:
        new = {
            method for method in defined - reached
            if any(
                attr == method.split(".")[1] and recv not in modules
                and (recv not in class_names or recv == method.split(".")[0])
                and (holder is None or holder in reached)
                for attr, recv, holder in refs
            )
        }
        if not new:
            return sorted(defined - reached)
        reached |= new


def test_scanner_flags_only_uncalled_methods():
    source = (
        "import numpy as np\n"
        "class Graph:\n"
        "    def __init__(self):\n        self.a()\n"
        "    def a(self):\n        return self.b\n"
        "    def b(self):\n        pass\n"
        "    def c(self):\n        pass\n"
        "    def d(self):\n        return self.c() + self.d()\n"
        "    @classmethod\n    def empty(cls):\n        pass\n"
        "    @classmethod\n    def full(cls):\n        pass\n"
        "class Other:\n    def e(self):\n        pass\n"
        "def f(g):\n    return np.empty(3), Other.empty(), Graph.full()\n"
    )
    assert uncalled_methods([source], {"Graph"}) == ["Graph.c", "Graph.d", "Graph.empty"]
    assert uncalled_methods([source], {"Graph", "Other"}) == ["Graph.c", "Graph.d", "Graph.empty", "Other.e"]


def test_every_graph_method_has_a_caller_or_a_reason():
    """A method that only tests or the benchmark call stays on `UNCALLED_METHODS`
    with the reason; any other method without a caller in spanembed is dead."""
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert uncalled_methods(sources, {"Graph", "PackedCopy"}) == sorted(UNCALLED_METHODS)


# public top-level functions that no spanembed code calls, each with the callers that keep it
UNCALLED_FUNCTIONS = {
    "graph_core.write_graph_file": "writes the host-file format that `read_graph_file` reads; the tests write host files",
    "oracles.bijumbled_check": "the exhaustive bijumbledness oracle of the tests, which perfbench traces by this name",
    "oracles.exact_bandwidth": "an exhaustive oracle of the tests (test_oracles.py)",
    "oracles.exhaustive_subgraph_check": "an exhaustive oracle of the tests (test_oracles.py)",
    "oracles.tail_bound": "the closed-form ceilings that acceptance criterion 8 checks",
}


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """`module.function` for every public top-level function in `sources` (module
    name -> source) that no code reaches.

    A name `f` or an attribute `x.f` reaches each top-level function named f,
    from anywhere but the body of f or of a top-level function that is not
    reached itself; so a function that only an unreached one calls is
    unreached too.  Module-level statements and class bodies, methods
    included, reach what they name; an import reaches nothing.  Names are
    matched alone, so the scan may miss a dead function, but it never flags a
    called one.
    """
    defined: dict[str, list[str]] = {}
    refs = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            holder = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(f"{module}.{node.name}")
                holder = node.name
            refs += [(sub.id if isinstance(sub, ast.Name) else sub.attr, holder)
                     for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))]
    reached: set[str] = set()
    while True:
        new = {
            name for name in defined.keys() - reached
            if any(ref == name and (holder is None or holder in reached and holder != name) for ref, holder in refs)
        }
        if not new:
            return sorted(q for name in defined.keys() - reached if not name.startswith("_") for q in defined[name])
        reached |= new


def test_scanner_flags_only_uncalled_functions():
    sources = {
        "a": (
            "from b import k\n"
            "def f():\n    return g()\n"
            "def g():\n    return 1\n"
            'def h():\n    """k() in a docstring reaches nothing"""\n    return h()\n'
            "def k():\n    return _p()\n"
            "def _p():\n    return b.q\n"
            "class C:\n    def m(self):\n        return k()\n"
            "TABLE = [used]\n"
        ),
        "b": "def used():\n    pass\ndef q():\n    pass\ndef _dead():\n    pass\n",
    }
    assert uncalled_functions(sources) == ["a.f", "a.g", "a.h"]


def test_every_function_has_a_caller_or_a_reason():
    """A public function that only tests or the benchmark call stays on
    `UNCALLED_FUNCTIONS` with the reason; any other one without a caller in
    spanembed, its command line included, is dead."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert uncalled_functions(sources) == sorted(UNCALLED_FUNCTIONS)


def unread_constants(sources: dict[str, str]) -> list[str]:
    """`module.NAME` for every module-level UPPER_CASE name (a leading underscore
    allowed) that a module of `sources` (module name -> source) assigns and no
    code of any of them reads, as a name or an attribute; a docstring or an
    `__all__` string reads nothing.  Names are matched alone, so the scan may
    miss an unread constant, but it never flags a read one.
    """
    assigned = []
    reads = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            assigned += [
                (module, sub.id) for target in targets if isinstance(target, (ast.Name, ast.Tuple))
                for sub in ast.walk(target) if isinstance(sub, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", sub.id)
            ]
        reads |= {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(tree) if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
        }
    return sorted(f"{module}.{name}" for module, name in assigned if name not in reads)


def test_scanner_flags_only_unread_constants():
    sources = {
        "a": (
            "import numpy as np\n"
            "A = 1\n_B: int = 2\nC, D = 3, 4\nlower = 5\nE = np.pi\n"
            "def f(g):\n    G = 7\n    return A + g.D + G\n"
            "class K:\n    H = 8\n"
        ),
        "b": '"""F in a docstring reads nothing"""\n__all__ = ["E"]\nF = 6\nX = [_B]\nX.append(0)\n',
    }
    assert unread_constants(sources) == ["a.C", "a.E", "b.F"]


def test_every_constant_is_read():
    """A module-level constant that no spanembed code reads is a setting that
    nothing uses, such as the threshold of a screen that is gone."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_constants(sources) == []


def rng_streams(source: str) -> list[tuple[int, int | str]]:
    """(line, stream) for every `rng_for` call: the stream as an int, by position or
    by keyword, 0 where the call leaves the default, or the stream's source text
    where it is not an int literal.

    A stream names one random source; two call sites on one stream would draw the
    same numbers from the same seed, and a computed stream can meet another.
    """
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) != "rng_for":
            continue
        given = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "stream"]
        if not given:
            stream = 0
        elif isinstance(given[0], ast.Constant) and type(given[0].value) is int:
            stream = given[0].value
        else:
            stream = ast.unparse(given[0])
        calls.append((node.lineno, node.col_offset, stream))
    return [(line, stream) for line, _col, stream in sorted(calls, key=lambda c: c[:2])]


def test_scanner_lists_every_rng_stream():
    source = (
        "def rng_for(seed, stream=0):\n"
        '    """rng_for(seed, 9) in a docstring is fine"""\n'
        "def f(seed, s):\n"
        "    a = rng_for(seed, 0), graph_core.rng_for(seed + 1, stream=21), rng_for(seed)\n"
        "    return rng_for(seed, stream=s), rng_for(seed, 2.0), rng_for(seed, stream=-1), a\n"
    )
    assert rng_streams(source) == [(4, 0), (4, 21), (4, 0), (5, "s"), (5, "2.0"), (5, "-1")]


def test_every_rng_stream_has_one_site():
    sites: dict[int | str, list[str]] = {}
    for path in MODULES:
        for line, stream in rng_streams(path.read_text(encoding="utf-8")):
            sites.setdefault(stream, []).append(f"{path.name}:{line}")
    assert {stream: where for stream, where in sites.items() if not isinstance(stream, int)} == {}
    assert {stream: where for stream, where in sites.items() if len(where) > 1} == {}
    assert [where.split(":")[0] for where in sites[0]] == ["graph_core.py"]  # gnp's positional stream
