#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute on one core).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the exact counts repeat between two traced calls, that tracing
restores every patched function and changes no output, that a missing
stage yields null with its name, and that the output check catches a
changed value.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import layers  # noqa: E402
import outputs  # noqa: E402

# A loose threshold lets the tiny ensembles pass the seed-independent checks.
_LOOSE = ("--threshold", "0.3")
TINY = {
    "sweep": run.Workload("sweep-phi", 3, 8, 80, 1, "sweep.csv", angles=11, extra=_LOOSE, threshold=0.3),
    "run-both": run.Workload("run", 4, 8, 30, 1, "run.csv", extra=("--measure", "both", *_LOOSE), threshold=0.3),
    "run-pool": run.Workload(
        "run", 4, 8, 30, 2, "run.json", extra=("--measure", "linear", "--format", "json", *_LOOSE), threshold=0.3
    ),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_metric_emitted_with_unit():
    for name, wl in TINY.items():
        for runner, section in ((run.run_untraced, "end_to_end"), (run.run_traced, "per_layer")):
            calls, metrics, _ = runner(wl, 7, 0, None)
            assert all(c.get("failure") is None for c in calls), (name, [c.get("failure") for c in calls])
            got = {k: m["unit"] for k, m in metrics.items()}
            assert got == _units(section), (name, section, set(got) ^ set(_units(section)))
            nulls = [k for k, m in metrics.items() if m["value"] is None]
            assert not nulls, (name, nulls)


def test_exact_counts_repeat():
    for name, wl in TINY.items():
        first, second = (run.invoke(wl, 7, True, None) for _ in range(2))
        a, b = (layers.layer_metrics(c["trace"]) for c in (first, second))
        assert a["protocol.gate_steps"][0] == wl.nominal_steps, (name, a["protocol.gate_steps"])
        for key in layers.EXACT_COUNTS:
            assert a[key][0] == b[key][0], (name, key, a[key][0], b[key][0])


def _cli(argv):
    import randent.cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert randent.cli.main(argv) == 0


def _sites():
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a) for _, m, a in layers.STAGES}


def test_patches_restored_and_output_unchanged():
    wl = TINY["run-pool"]
    before = _sites()
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
        tmp = Path(tmp)
        (tmp / "plain").mkdir()
        (tmp / "traced").mkdir()
        tracer = layers.Tracer(trace_dir=tmp).install()
        try:
            _cli(wl.argv(7, tmp / "traced"))
        finally:
            tracer.uninstall()
        tracer.merge_workers()
        assert tracer.calls["protocol.run_batch"] == 2, tracer.calls
        after = _sites()
        assert all(after[k] is before[k] for k in before), [k for k in before if after[k] is not before[k]]
        calls_after = dict(tracer.calls)
        _cli(wl.argv(7, tmp / "plain"))
        assert dict(tracer.calls) == calls_after, "an untraced call reached the tracer"
        assert (tmp / "plain" / wl.output).read_bytes() == (tmp / "traced" / wl.output).read_bytes()


def test_missing_stage_is_null():
    gone = ("protocol.run_chunk", "randent.protocol", "_run_chunk_removed")
    stages = [gone if s[0] == "protocol.run_chunk" else s for s in layers.STAGES]
    wl = TINY["run-both"]
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
        tracer = layers.Tracer(stages=stages, trace_dir=tmp).install()
        try:
            _cli(wl.argv(7, Path(tmp)))
        finally:
            tracer.uninstall()
    metrics = layers.layer_metrics(tracer.snapshot())
    assert metrics["protocol.draw_self_s"] == (None, "s", "missing randent.protocol._run_chunk_removed")
    others = [k for k, v in metrics.items() if v[0] is None and k != "protocol.draw_self_s"]
    assert not others, others


def test_output_check_catches_a_changed_value():
    wl = TINY["run-both"]
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
        _cli(wl.argv(7, Path(tmp)))
        parsed = outputs.parse_run_csv(Path(tmp) / wl.output)
    reference = json.loads(json.dumps(parsed))
    assert outputs.check(parsed, wl.kind, wl.max_gates, wl.threshold, reference) is None
    series = reference["series"]["vonneumann/2"]["mean_E"]
    series[-1] = series[-1] + abs(series[-1]) * 2**-52
    assert "differs from reference" in outputs.check(parsed, wl.kind, wl.max_gates, wl.threshold, reference)
    reference["n_gates"]["linear/global"] = None
    reference["series"]["vonneumann/2"]["mean_E"] = parsed["series"]["vonneumann/2"]["mean_E"]
    assert "n_gates" in outputs.check(parsed, wl.kind, wl.max_gates, wl.threshold, reference)


def main() -> int:
    run.TMP_ROOT.mkdir(exist_ok=True)
    failed = 0
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                try:
                    fn()
                    print(f"PASS {name}")
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc!r}")
    finally:
        run.remove_tmp_root()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
