"""The names that code outside the package looks up by attribute.

The benchmark's tracer (``perfbench/run.py --trace 1``) wraps every
function listed in the ``__all__`` of graphstore, gnn, diffkernel, losses,
pipeline and evaluation, plus ``gnn.ProjectionEncoder.project`` and
``pipeline.clone_bundle``, and crashes if one of them is missing.

Every exported name must also be used by the program itself (the package,
the demos, the benchmark or the acceptance criteria), so that no public
function exists only for its own unit test.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import ttgad
from ttgad import gnn, pipeline


def test_exported_names_resolve():
    traced = {"graphstore", "gnn", "diffkernel", "losses", "pipeline", "evaluation"}
    for info in pkgutil.iter_modules(ttgad.__path__):
        module = importlib.import_module(f"ttgad.{info.name}")
        if info.name in traced:
            assert hasattr(module, "__all__"), info.name
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    assert callable(gnn.ProjectionEncoder.project)
    assert callable(pipeline.clone_bundle)


ROOT = Path(__file__).resolve().parents[1]

# Exported names that only unit tests use yet; each is an open item to
# delete or give a caller. The guard fails once one gains a user, so the
# list can only shrink.
TEST_ONLY = {"evaluation.homophily_report"}


def _names_used(paths):
    """Names read, attributes looked up and names imported by ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_exported_names_have_a_user_outside_the_unit_tests():
    paths = [*sorted((ROOT / "src" / "ttgad").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    used = _names_used(paths)
    unused = set()
    for info in pkgutil.iter_modules(ttgad.__path__):
        module = importlib.import_module(f"ttgad.{info.name}")
        unused.update(f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                      if name not in used)
    assert unused == TEST_ONLY
