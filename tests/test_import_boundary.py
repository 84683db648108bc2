"""Layering gate: production code never imports the test oracles.

``repro.testing`` holds the slow reference forms of production kernels.
Only the perf bench (``repro.bench``, which times each kernel against
its oracle) and ``repro.testing`` itself may import it, so a reference
kernel can never come back into production dispatch.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages allowed to import ``repro.testing``.
ALLOWED = ("bench", "testing")


def _imports_testing(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "repro.testing" or n.startswith("repro.testing.") for n in names):
            return True
    return False


def test_production_code_does_not_import_repro_testing():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in ALLOWED:
            continue
        if _imports_testing(ast.parse(path.read_text(), filename=str(path))):
            violations.append(str(rel))
    assert violations == [], (
        "production modules import repro.testing (oracles are test/bench "
        "only):\n" + "\n".join(violations)
    )
