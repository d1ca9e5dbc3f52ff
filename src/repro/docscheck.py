"""Static checker for the repository's markdown documentation.

Docs rot in five ways this module catches mechanically, so
``tests/test_docscheck.py`` can gate on them:

* **Dead internal links** — ``[text](path)`` targets that do not exist on
  disk (relative to the linking file), and ``#fragment`` anchors that match
  no heading of the target document (GitHub's heading-slug rules).
* **Unbalanced code fences** — an unclosed ``` fence silently swallows the
  rest of the page on render.
* **Stale command lines** — ``repro run <name>`` / ``repro sweep <name>``
  examples whose scenario or sweep-plan name is no longer registered.
* **Stale API names** — inline-code dotted names such as
  ``repro.sim.engine.Simulator`` (optionally called, ``…()``) outside code
  fences that no longer import or resolve to an attribute.
* **Stale test references** — inline-code ``tests/...`` paths outside code
  fences that no longer exist, or whose ``::Class::test`` names the file no
  longer defines.

Usage::

    python -m repro.docscheck            # README.md + docs/*.md
    python -m repro.docscheck docs/scaling.md README.md

Exit status 0 when every file is clean, 1 otherwise; one report line per
problem (``path:line: message``).
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys
from typing import List, Optional, Sequence, Set

__all__ = ["check_file", "check_paths", "heading_anchor", "main"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_FENCE = re.compile(r"^\s*(```+|~~~+)")
# `repro run <name>` / `python -m repro sweep <name>`; the name group stops
# at whitespace so flags and file arguments are inspected separately.
_COMMAND = re.compile(r"\brepro\s+(run|sweep)\s+([^\s`\"']+)")
_EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:")  # http:, https:, mailto:, ...
# `repro.a.b` or `repro.a.b(...)`: the whole inline-code span is the name.
_API_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
# `tests/a/b.py` or `tests/a/b.py::TestX::test_y`: the whole span.
_TEST_REFERENCE = re.compile(r"`(tests/[^`\s]*)`")


def heading_anchor(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading.

    Lowercase, inline markup and punctuation stripped, spaces to hyphens.
    This intentionally implements the common subset (no dedup counters for
    repeated headings — linking ``#x-1`` to the second ``# x`` is rarer than
    the typos this checker is after).
    """
    text = heading.strip().lower()
    text = re.sub(r"`([^`]*)`", r"\1", text)  # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_]", "", text)  # emphasis markers
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _headings(path: pathlib.Path) -> Set[str]:
    anchors: Set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            anchors.add(heading_anchor(match.group(1)))
    return anchors


def _is_command_name(name: str) -> bool:
    """Heuristic: does this argument look like a preset name to validate?

    Flags, JSON spec files, shell placeholders and substitutions are example
    syntax, not registry names.
    """
    if name.startswith("-") or name.endswith(".json"):
        return False
    if any(ch in name for ch in "<>$*{}/\\"):
        return False
    return True


def _check_command(kind: str, name: str) -> Optional[str]:
    from repro.spec.registry import list_scenarios
    from repro.sweep.presets import list_plans

    scenarios = list_scenarios()
    if kind == "run":
        if name not in scenarios:
            return f"`repro run {name}`: unknown scenario (see `repro list`)"
        return None
    if name not in scenarios and name not in list_plans():
        return (
            f"`repro sweep {name}`: neither a registered scenario nor a "
            "built-in sweep plan"
        )
    return None


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module or an attribute path of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _check_test_reference(reference: str, root: pathlib.Path) -> Optional[str]:
    """Why ``tests/<path>[::name...]`` is stale (relative to ``root``), else ``None``."""
    path, *names = reference.split("::")
    target = root / path
    if not target.exists():
        return f"`{reference}`: {path} does not exist"
    if names:
        if not target.is_file():
            return f"`{reference}`: {path} is not a file"
        source = target.read_text(encoding="utf-8")
        for name in names:
            if not re.search(rf"(class|def) {re.escape(name)}\b", source):
                return f"`{reference}`: {path} defines no {name}"
    return None


def check_file(path: pathlib.Path, root: pathlib.Path) -> List[str]:
    """Return report lines for one markdown file (empty when clean)."""
    problems: List[str] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    in_fence = False
    fence_open_line = 0
    for lineno, line in enumerate(lines, start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            if in_fence:
                fence_open_line = lineno
            continue

        if in_fence:
            # fenced blocks are the copy-paste surface: validate command
            # names here, and only here (prose may discuss hypothetical or
            # user-registered names).
            for match in _COMMAND.finditer(line):
                kind, name = match.group(1), match.group(2)
                if _is_command_name(name):
                    message = _check_command(kind, name)
                    if message:
                        problems.append(f"{path}:{lineno}: {message}")
            continue
        for match in _API_NAME.finditer(line):
            if not _resolves(match.group(1)):
                problems.append(
                    f"{path}:{lineno}: `{match.group(1)}` no longer imports "
                    "or resolves"
                )
        for match in _TEST_REFERENCE.finditer(line):
            message = _check_test_reference(match.group(1), root)
            if message:
                problems.append(f"{path}:{lineno}: {message}")
        for match in _LINK.finditer(line):
            target = match.group(1)
            if _EXTERNAL.match(target):
                continue
            target_path, _, fragment = target.partition("#")
            if not target_path:  # same-document anchor
                resolved = path
            else:
                resolved = (path.parent / target_path).resolve()
                try:
                    resolved.relative_to(root.resolve())
                except ValueError:
                    problems.append(
                        f"{path}:{lineno}: link `{target}` escapes the repository"
                    )
                    continue
                if not resolved.exists():
                    problems.append(
                        f"{path}:{lineno}: broken link `{target}` "
                        f"({resolved} does not exist)"
                    )
                    continue
            if fragment and resolved.suffix == ".md":
                if heading_anchor(fragment) not in _headings(resolved):
                    problems.append(
                        f"{path}:{lineno}: anchor `#{fragment}` not found in "
                        f"{resolved.name}"
                    )
    if in_fence:
        problems.append(
            f"{path}:{fence_open_line}: code fence opened here is never closed"
        )
    return problems


def check_paths(
    paths: Sequence[pathlib.Path], root: pathlib.Path
) -> List[str]:
    """Check every file; missing inputs are reported, not raised."""
    problems: List[str] = []
    for path in paths:
        if not path.exists():
            problems.append(f"{path}: file does not exist")
            continue
        problems.extend(check_file(path, root))
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root = pathlib.Path.cwd()
    if argv:
        paths = [pathlib.Path(arg) for arg in argv]
    else:
        paths = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    problems = check_paths(paths, root)
    for line in problems:
        print(line)
    if problems:
        print(f"docscheck: {len(problems)} problem(s) in {len(paths)} file(s)")
        return 1
    print(f"docscheck: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
