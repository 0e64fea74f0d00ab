"""The benchmark's layer tracer finds every function it patches, on the call path it expects."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import randent.cli
from randent.entanglement import enumerate_bipartitions

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_stage_resolves(layers):
    missing = [
        f"{module}.{attr}"
        for _, module, attr in layers.STAGES
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert not missing


def test_traced_sweep_records_ensemble_spans(layers, tmp_path):
    argv = [
        "sweep-phi", "--qubits", "3", "--realizations", "4", "--max-gates", "40",
        "--threshold", "0.3", "--workers", "1", "--output", str(tmp_path / "sweep.csv"),
    ]
    tracer = layers.Tracer().install()
    try:
        assert randent.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    for span in ("protocol.run_ensemble", "protocol.run_batch"):
        assert tracer.calls[span] > 0, span


def test_traced_run_reaches_every_kernel_stage(layers, tmp_path):
    # The per-layer metrics find stages by name; a kernel that stops calling
    # one would null its column or zero its counts.
    n, r, g = 5, 3, 5
    argv = [
        "run", "--qubits", str(n), "--realizations", str(r), "--max-gates", str(g),
        "--measure", "both", "--workers", "1", "--output", str(tmp_path / "run.csv"),
    ]
    tracer = layers.Tracer().install()
    try:
        assert randent.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    for span in (
        "protocol.apply", "entanglement.level", "entanglement.subsystem",
        "entanglement.eig", "entanglement.vn",
    ):
        assert tracer.calls[span] > 0, span
    marginals = r * (g + 1) * sum(len(enumerate_bipartitions(n, m)) for m in range(1, n // 2 + 1))
    assert tracer.counts["rdm_count"] == marginals
    assert tracer.counts["eig_matrices"] == marginals
    assert tracer.counts["gate_steps"] == r * g
