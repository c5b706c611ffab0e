"""The names that code outside the package looks up by attribute.

The benchmark's tracer (``perfbench/run.py --trace 1``) wraps every
function listed in the ``__all__`` of graphstore, gnn, diffkernel, losses,
pipeline and evaluation, plus ``gnn.ProjectionEncoder.project`` and
``pipeline.clone_bundle``, and crashes if one of them is missing.
"""

import importlib
import pkgutil

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
