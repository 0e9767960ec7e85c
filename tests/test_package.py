"""Package-wide checks: every definition in ``src/stgormer`` has a caller, the
engine imports no other package module, and importing it pins BLAS or says why not."""
import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import stgormer

# called from outside the package: the ``stgormer`` console script, the
# gradient oracle that the tests run, and the hook argparse calls on a bad
# command line
ENTRY_POINTS = {"cli.main", "numerics.finite_difference_check", "cli._Parser.error"}

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is referenced in ``node``: bare or as ``x.name``,
    and as ``x.name`` only."""
    walked = list(ast.walk(node))
    attributes = Counter(n.attr for n in walked if isinstance(n, ast.Attribute))
    bare = Counter(n.id for n in walked if isinstance(n, ast.Name))
    return attributes + bare, attributes


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Qualified names (``module.Class.method``) of every function, class,
    method and property in ``sources`` (module name to source text) that no
    code in ``sources`` references outside its own definition.

    Dunder methods are skipped: Python calls them. A method or property (any
    definition in a class body) counts as used only as ``x.name``; anything
    else also bare. References match by name alone, so a method named like a
    numpy one (``sum``) passes on either, and an import does not count as a use.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    totals = [sum(counts, Counter()) for counts in
              zip(*(_references(tree) for tree in trees.values()))]
    found = []
    stack = [(tree, module, False) for module, tree in trees.items()]
    while stack:
        node, scope, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, scope, in_class))
                continue
            name = child.name
            kind = int(in_class)  # 0: any reference, 1: attribute references only
            if not (name.startswith("__") and name.endswith("__")) \
                    and totals[kind][name] == _references(child)[kind][name]:
                found.append(f"{scope}.{name}")
            stack.append((child, f"{scope}.{name}", isinstance(child, ast.ClassDef)))
    return sorted(found)


def test_every_definition_in_the_package_is_used():
    package = pathlib.Path(stgormer.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [name for name in unreferenced(sources) if name not in ENTRY_POINTS] == []


def test_the_finder_reports_what_only_its_own_body_uses():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"),
        "b": ("from a import used\n\n"
              "class Box:\n"
              "    def __init__(self):\n        self.value = used()\n\n"
              "    def read(self):\n        return self.value\n\n"
              "    def stale(self):\n        return self.read()\n\n"
              "print(Box().read())\n"),
        # a local variable named like a property is no use of the property
        "c": ("class Shape:\n"
              "    @property\n    def dim(self):\n        return 1\n\n"
              "def area(dim):\n    return dim * dim\n\n"
              "print(area(Shape()))\n"),
    }
    assert unreferenced(sources) == ["a.recursive", "a.unused", "b.Box.stale", "c.Shape.dim"]


def test_the_engine_imports_no_package_module():
    # numerics is the engine alone: file formats and the model live elsewhere
    tree = ast.parse((pathlib.Path(stgormer.__file__).parent / "numerics.py").read_text())
    names = [(node.level, node.module or "") if isinstance(node, ast.ImportFrom) else (0, a.name)
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names]
    assert [n for n in names if n[0] or n[1].split(".")[0] == "stgormer"] == []


def test_only_the_engine_loop_accumulates_gradients():
    # every node returns its parents' gradients, and Tensor.backward alone adds
    # them up: once for its seed and once in its loop over the graph
    found = Counter()
    package = pathlib.Path(stgormer.__file__).parent
    for path in sorted(package.glob("*.py")):
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((child, f"{scope}.{child.name}"))
                    continue
                if "_accumulate" in (getattr(child, "attr", None), getattr(child, "id", None)):
                    found[scope] += 1
                stack.append((child, scope))
    assert found == {"numerics.Tensor.backward": 2}


def import_in_subprocess(statement: str, **env) -> subprocess.CompletedProcess:
    """Run ``statement`` in a fresh interpreter that has no BLAS thread
    variable set, apart from those given in ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return subprocess.run([sys.executable, "-c", statement], env={**clean, **env},
                          capture_output=True, text=True, check=True)


def test_importing_stgormer_first_pins_blas_quietly():
    proc = import_in_subprocess(
        "import os, stgormer, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert (proc.stdout, proc.stderr) == ("1\n", "")


def test_importing_numpy_first_warns_once_and_pins_nothing():
    proc = import_in_subprocess(
        "import os, numpy, stgormer; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert proc.stdout == "None\n"
    assert proc.stderr.count("RuntimeWarning: numpy was imported before stgormer") == 1
    assert "import stgormer first, or set OPENBLAS_NUM_THREADS=1" in proc.stderr


def test_a_chosen_thread_count_silences_the_warning():
    proc = import_in_subprocess("import numpy, stgormer", OMP_NUM_THREADS="2")
    assert proc.stderr == ""
