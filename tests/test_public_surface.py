"""Every public name has a caller outside the tests.

A name in a module's ``__all__``, or re-exported by the package root,
must be used somewhere other than ``tests/``: elsewhere in
``src/curselab`` (its own definition, the ``__all__`` list and the
root's re-export do not count), in ``demos/``, in ``README.md`` or in
``perfbench/``.  A name only the tests reach is surface to maintain for
no caller; delete it or make it private.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curselab"


def _tree(stem: str) -> tuple[str, ast.Module]:
    source = (PACKAGE / f"{stem}.py").read_text(encoding="utf-8")
    return source, ast.parse(source)


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _public_names() -> list[tuple[str, str]]:
    """(name, defining module) of every ``__all__`` entry and root re-export."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in _tree(path.stem)[1].body:
            if _defines(node, "__all__"):
                names |= {(elt.value, path.stem) for elt in node.value.elts}
            elif path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                names |= {(alias.name, node.module) for alias in node.names}
    return sorted(names)


def _callers_text(name: str, owner: str) -> str:
    """Every source outside tests/ that may use ``name``, minus its definition and listing."""
    source, tree = _tree(owner)
    lines = source.splitlines()
    for node in tree.body:
        if _defines(node, name) or _defines(node, "__all__"):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    texts = ["\n".join(lines)]
    others = [p for p in PACKAGE.glob("*.py") if p.stem not in (owner, "__init__")]
    others += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.*"))
    others.append(ROOT / "README.md")
    texts += [p.read_text(encoding="utf-8") for p in others if p.suffix in (".py", ".md")]
    return "\n".join(texts)


def test_public_names_are_found():
    # Guards against a parse change that would leave nothing to check.
    names = {name for name, _ in _public_names()}
    assert {"project_batch", "DomainSpec", "main", "classify"} <= names


@pytest.mark.parametrize("name,owner", _public_names(), ids=lambda v: v)
def test_public_name_has_a_caller_outside_tests(name, owner):
    assert re.search(rf"\b{re.escape(name)}\b", _callers_text(name, owner)), (
        f"{owner}.{name} is public, but only tests use it"
    )
