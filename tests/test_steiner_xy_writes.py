"""Ownership gate: only ``repro.steiner`` rebinds ``steiner_xy``.

A forest keeps every Steiner point in one ``(S, 2)`` matrix
(``SteinerForest.coords``) and each tree's ``steiner_xy`` is a view of
its rows.  Rebinding the attribute would detach the tree from that
matrix, so the forest, the routers and the STA would stop seeing its
points.  Outside ``repro/steiner/`` code writes coordinates through
slices (``tree.steiner_xy[...] = v``) or the forest API.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The package that owns the binding between trees and the matrix.
OWNER = "steiner"


def _rebinds_steiner_xy(tree: ast.AST):
    """Line numbers that assign or delete a ``.steiner_xy`` attribute."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "steiner_xy"
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "steiner_xy"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_steiner_package_rebinds_steiner_xy():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == OWNER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        violations += [f"{rel}:{line}" for line in _rebinds_steiner_xy(tree)]
    assert violations == [], (
        "modules outside repro/steiner rebind .steiner_xy (write through "
        "a slice or the forest API instead):\n" + "\n".join(violations)
    )


def test_gate_flags_rebinds_and_allows_slice_writes():
    flagged = ast.parse(
        "t.steiner_xy = a\n"
        "t.steiner_xy += a\n"
        "f.trees[0].steiner_xy, b = a, b\n"
        "setattr(t, 'steiner_xy', a)\n"
    )
    assert _rebinds_steiner_xy(flagged) == [1, 2, 3, 4]
    allowed = ast.parse("t.steiner_xy[...] = a\nt.steiner_xy[0, 1] += 1.0\nx = t.steiner_xy\n")
    assert _rebinds_steiner_xy(allowed) == []
