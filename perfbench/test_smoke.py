"""Smoke test of the benchmark harness at tiny graph sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, GraphSize  # noqa: E402

TINY = {
    "train": replace(WORKLOADS["train"], source=GraphSize(200, 6, 8),
                     target=GraphSize(150, 6, 12, map_from=8), fit_epochs=2),
    "adapt": replace(WORKLOADS["adapt"], source=GraphSize(200, 6, 8),
                     target=GraphSize(250, 6, 12, map_from=8), fit_epochs=2),
    "score": replace(WORKLOADS["score"], source=GraphSize(200, 6, 8),
                     target=GraphSize(150, 4, 16), fit_epochs=2, adapt_epochs=2,
                     scored=GraphSize(300, 4, 16), num_scored=2),
}

COUNTERS = ("diffkernel.gather_rows.calls", "diffkernel.gather_rows.out_mb",
            "diffkernel.cosine_rows.out_mb", "losses.sample_nonneighbors.pairs",
            "graphstore.load_graph.edges", "diffkernel.tape.ops",
            "diffkernel.tape.out_mb", "pipeline.adapt_target.epochs",
            "diffkernel.backward.useful_grad_frac")


def run_tiny(name, trace, tmp_path, seed=3):
    root = tmp_path / f"work-{name}-{trace}"
    root.mkdir()
    return bench.run(workloads, TINY[name], seed, 0.01, trace, root,
                     tmp_path / f"spans-{name}.jsonl")


def ttgad_attributes():
    """Identity of every attribute the tracer may patch."""
    import ttgad.diffkernel
    import ttgad.gnn
    owners = [m for k, m in sys.modules.items() if k.startswith("ttgad")]
    owners += [ttgad.diffkernel.Tape, ttgad.gnn.ProjectionEncoder]
    return {(repr(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: v for k, v in workloads.END_TO_END.items() if k != "error_rate"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_with_units(name, tmp_path):
    result, lines = run_tiny(name, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {k: v for k, v in workloads.END_TO_END.items() if k != "error_rate"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ") and line.split()[0] in workloads.END_TO_END}
    assert printed == workloads.END_TO_END
    assert any(line.split()[:2] == ["error_rate", "0"] for line in
               (x.strip() for x in lines))


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_with_units(name, tmp_path):
    before = ttgad_attributes()
    result, lines = run_tiny(name, 1, tmp_path)
    assert ttgad_attributes() == before
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == workloads.PER_LAYER
    assert any("self time per span name" in line for line in lines)
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0
    if name == "train":
        assert metrics["losses.train_loss_parts.s"] > 0
        assert metrics["diffkernel.backward.useful_grad_frac"] == 1.0
    elif name == "adapt":
        assert metrics["losses.train_loss_parts.s"] == 0
        assert 0 < metrics["diffkernel.backward.useful_grad_frac"] < 1
        assert metrics["pipeline.adapt_target.epochs"] == TINY["adapt"].adapt_epochs
    else:
        assert metrics["diffkernel.backward.s"] == 0
        assert metrics["diffkernel.tape.ops"] == 0
        assert metrics["graphstore.load_graph.edges"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counters_repeat(name, tmp_path):
    runs = []
    for sub in ("first", "second"):
        (tmp_path / sub).mkdir()
        runs.append(run_tiny(name, 1, tmp_path / sub)[0]["metrics"])
    for counter in COUNTERS:
        assert runs[0][counter] == runs[1][counter], counter


def test_memory_check_refuses_what_does_not_fit():
    adapt = WORKLOADS["adapt"]
    need = bench.estimate_peak_bytes(adapt)
    assert bench.memory_refusal(adapt, need) is None
    message = bench.memory_refusal(adapt, need - 1)
    assert "refusing" in message and f"{need / 1e9:.2f} GB" in message


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
