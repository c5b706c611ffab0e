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
import os
import pkgutil
import subprocess
import sys
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
    assert not unused, sorted(unused)


def test_no_second_blas_is_loaded():
    # Importing scipy.linalg loads scipy's own OpenBLAS beside numpy's, with
    # its own thread pool: on 2 CPUs the process then runs 3 threads, and
    # the benchmark counts a run with more threads than CPUs as a failed
    # operation. So no code path of a train, adapt and score run may import
    # it; a fresh interpreter shows what the package itself loads.
    script = """
import sys
import ttgad, ttgad.cli
from ttgad import evaluation
from ttgad.graphstore import SyntheticSpec, generate_synthetic
from ttgad.pipeline import RunConfig, adapt_target, train_source
graph = generate_synthetic(SyntheticSpec(num_nodes=60, feature_dim=4, anomaly_rate=0.2,
                                         target_homophily=0.8, mean_degree=4.0, seed=1))
config = RunConfig(p=4, hidden_dim=4, attn_dim=4, source_epochs=2, ttt_max_epochs=2)
bundle, centroids, _ = train_source(graph, config)
adapted, _ = adapt_target(bundle, centroids, graph, config)
for mode in evaluation.SCORING_MODES:
    evaluation.score_nodes(adapted, graph, mode)
loaded = sorted(name for name in sys.modules if name.startswith("scipy.linalg"))
assert not loaded, loaded
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert run.returncode == 0, run.stderr
