"""Layering gates over the imports of ``src/repro``.

``repro.testing`` holds the slow reference forms of production kernels.
Only the perf bench (``repro.bench``, which times each kernel against
its oracle) and ``repro.testing`` itself may import it, so a reference
kernel can never come back into production dispatch.

Production has one gradient path, the compiled tape: outside the
autodiff engine, its reference (``repro.testing``) and the bench, no
module runs the closure engine's ``.backward()`` or catches
``TapeUnsupported`` to fall back to it.

``repro.serve`` runs every job in the event loop's process on one warm
cache (docs/SERVING.md), so no serve module may import a process or
thread pool.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages allowed to import ``repro.testing``.
ALLOWED = ("bench", "testing")


#: Packages that may call ``.backward()`` or catch ``TapeUnsupported``.
CLOSURE_ALLOWED = ("autodiff", "bench", "testing")

#: Modules no ``repro.serve`` module may import.
SERVE_FORBIDDEN = ("concurrent.futures", "multiprocessing")


def _imported_names(tree: ast.AST):
    """Every dotted name an absolute import statement binds or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def _imports_any(tree: ast.AST, modules) -> bool:
    return any(
        n == m or n.startswith(m + ".") for n in _imported_names(tree) for m in modules
    )


def _imports_testing(tree: ast.AST) -> bool:
    return _imports_any(tree, ("repro.testing",))


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


def _closure_fallbacks(tree: ast.AST):
    """Line of every ``.backward(...)`` call and every ``except`` clause
    that names ``TapeUnsupported``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "backward"
        ):
            yield node.lineno
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.type)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if "TapeUnsupported" in names:
                yield node.lineno


def test_production_has_no_closure_gradient_fallback():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in CLOSURE_ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        violations += [f"{rel}:{line}" for line in _closure_fallbacks(tree)]
    assert violations == [], (
        "production modules run the closure engine's backward or catch "
        "TapeUnsupported (the compiled tape is the one gradient path):\n"
        + "\n".join(violations)
    )


def test_closure_fallback_rule_catches_each_form():
    for source in (
        "loss.backward()",
        "model(g, c)['arrival'].sum().backward()",
        "try:\n    f()\nexcept TapeUnsupported:\n    pass",
        "try:\n    f()\nexcept (ValueError, tape.TapeUnsupported) as exc:\n    pass",
    ):
        assert list(_closure_fallbacks(ast.parse(source))), source
    for source in ("backward = 1", "try:\n    f()\nexcept RuntimeError:\n    pass"):
        assert not list(_closure_fallbacks(ast.parse(source))), source


def test_serve_imports_no_process_or_thread_pool():
    violations = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "serve").rglob("*.py"))
        if _imports_any(ast.parse(path.read_text(), filename=str(path)), SERVE_FORBIDDEN)
    ]
    assert violations == [], (
        "serve modules import a process or thread pool (every job runs "
        "in the event loop's process on one warm cache):\n" + "\n".join(violations)
    )


def test_serve_import_rule_catches_each_import_form():
    for source in (
        "import concurrent.futures",
        "from concurrent.futures import ProcessPoolExecutor",
        "from concurrent.futures.process import BrokenProcessPool",
        "from concurrent import futures",
        "import multiprocessing",
        "from multiprocessing.pool import Pool",
    ):
        assert _imports_any(ast.parse(source), SERVE_FORBIDDEN), source
    assert not _imports_any(ast.parse("import asyncio"), SERVE_FORBIDDEN)
