"""Every public name in ``src/repro`` has a caller outside ``tests/``.

The inverse of ``repro.docscheck``'s name check.  A public name is a
module-level ``def``, ``class`` or assignment, or a ``def``/property in the
body of a public class, whose name does not start with ``_``.  It is used
when a ``.py`` file under ``CODE_DIRS`` reads it as a name or an attribute,
or holds it as a string constant outside ``__all__`` (perfbench patches by
``setattr``), or when ``README.md`` or ``docs/*.md`` name it as a word.
Imports, re-exports and ``__all__`` entries are not uses.

``EXCEPTIONS`` maps ``module:Class.member`` to why a name stays although
nothing outside the tests calls it.  Only three reasons hold: a reference a
test compares a fast path against, a fixture tests use to check other code,
or a method an ABC or stdlib protocol requires.  "A test calls it" is not
one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src/repro", "examples", "perfbench", "benchmarks")

EXCEPTIONS = {
    "repro.graph.neighborhoods:hop_distances": (
        "reference: tests/graph/test_neighborhoods.py and test_graph_properties.py"
        " check r_hop_neighborhood against its full-BFS hop distances"
    ),
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_names(root):
    """``{"module:Class.member": name}`` for each public definition."""
    found = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    found[f"{module}:{name}"] = name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        found[f"{module}:{node.name}.{member.name}"] = member.name
    return found


def used_names(root):
    """Every name read in code under ``CODE_DIRS`` or written in the docs."""
    used = set()
    for directory in CODE_DIRS:
        for path in (root / directory).rglob("*.py"):
            tree = _parse(path)
            listed = {
                id(constant)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and "__all__" in {t.id for t in ast.walk(node) if isinstance(t, ast.Name)}
                for constant in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in listed
                ):
                    used.add(node.value)
    docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    for doc in docs:
        if doc.exists():
            used.update(re.findall(r"\w+", doc.read_text(encoding="utf-8")))
    return used


def audit(root, exceptions):
    """``(unused, stale)``: unexcused unused names, and exceptions to drop."""
    defined, used = public_names(root), used_names(root)
    unused = sorted(
        key for key, name in defined.items() if name not in used and key not in exceptions
    )
    stale = sorted(key for key in exceptions if key not in defined or defined[key] in used)
    return unused, stale


def test_every_public_name_has_a_caller():
    unused, stale = audit(ROOT, EXCEPTIONS)
    assert unused == [], "public names nothing outside tests/ uses"
    assert stale == [], "EXCEPTIONS entries that are used or no longer exist"


# A tree with no unused public name: ``used`` is called in its own module,
# ``Thing`` and ``Thing.method`` in an example, ``Thing.documented`` in the
# README.
TREE = {
    "src/repro/__init__.py": '"""Package."""\n',
    "src/repro/mod.py": (
        "def used():\n    return 1\n\n\n"
        "class Thing:\n"
        "    def method(self):\n        return used()\n\n"
        "    @property\n    def documented(self):\n        return 2\n"
    ),
    "examples/demo.py": "from repro.mod import Thing\n\nThing().method()\n",
    "README.md": "Read `Thing.documented` for the answer.\n",
}


def make_tree(root, changes=None):
    """Write ``TREE`` under ``root``; ``changes`` maps a path to new text or None (drop)."""
    for relative, text in {**TREE, **(changes or {})}.items():
        if text is not None:
            (root / relative).parent.mkdir(parents=True, exist_ok=True)
            (root / relative).write_text(text, encoding="utf-8")
    return root


def test_clean_tree_passes(tmp_path):
    assert audit(make_tree(tmp_path), {}) == ([], [])


def test_planted_unused_function_is_reported(tmp_path):
    root = make_tree(tmp_path, {"src/repro/extra.py": "def planted():\n    return 1\n"})
    assert audit(root, {}) == (["repro.extra:planted"], [])


def test_attribute_use_in_examples_is_a_use(tmp_path):
    root = make_tree(tmp_path, {"examples/demo.py": "from repro.mod import Thing\n\nThing()\n"})
    assert audit(root, {}) == (["repro.mod:Thing.method"], [])


def test_doc_mention_is_a_use(tmp_path):
    root = make_tree(tmp_path, {"README.md": None})
    assert audit(root, {}) == (["repro.mod:Thing.documented"], [])


def test_name_only_reexported_is_reported(tmp_path):
    init = 'from repro.more import spare\n\n__all__ = ["spare"]\n'
    more = "def spare():\n    return 3\n"
    root = make_tree(tmp_path, {"src/repro/__init__.py": init, "src/repro/more.py": more})
    assert audit(root, {}) == (["repro.more:spare"], [])


def test_stale_exceptions_are_reported(tmp_path):
    root = make_tree(tmp_path)
    exceptions = {"repro.mod:used": "in use", "repro.mod:gone": "no longer defined"}
    assert audit(root, exceptions) == ([], ["repro.mod:gone", "repro.mod:used"])
