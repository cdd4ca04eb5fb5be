"""Smoke tests of the benchmark itself: tiny workloads, tracer, accounting.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import env  # noqa: E402

assert env.configure()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from vem import audiofeat, autograd, training  # noqa: E402
from vem.errors import DataError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "train": workloads.TrainSize(clips=2, clip_s=6.0, aligner_steps=2, stage_steps=2, min_ops=1),
    "generate": workloads.GenerateSize(clips=2, clip_s=6.0, train_steps=2, held_out=1,
                                       held_out_s=6.0, sampler_steps=2, gl_iters=2),
    "analyze": workloads.AnalyzeSize(rates_hz=(16000, 44100), clips_per_rate=1,
                                     clip_s=(6.0, 6.0), min_ops=1),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_reports(name, trace, tmp_path):
    report = workloads.run(name, 3, 0.0, trace, str(tmp_path), time.perf_counter(),
                           size=TINY[name])
    assert report["correct"], report["checks"]
    assert report["attempted"] >= 1
    assert 0 <= report["failed"] <= report["attempted"]
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    if trace:
        assert set(report["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert report["trace_missing"] == []
        assert not report["tracer"].installed
    else:
        assert report["end_to_end"]["setup_s"][0] > 0


def test_units_match_spec(tmp_path):
    report = workloads.run("analyze", 0, 0.0, True, str(tmp_path), time.perf_counter(),
                           size=TINY["analyze"])
    for m in SPEC["per_layer"]:
        assert report["per_layer"][m["name"]][1] == m["unit"], m["name"]
    for m in SPEC["end_to_end"]:
        assert report["end_to_end"][m["name"]][1] == m["unit"], m["name"]


def _bindings():
    return {
        "matmul": vars(autograd.Var)["matmul"],
        "__matmul__": vars(autograd.Var)["__matmul__"],
        "training.logmel": training.logmel,
        "audiofeat.logmel": audiofeat.logmel,
        "TUNet.__call__": vars(training.TUNet)["__call__"],
    }


def test_tracer_restores_every_patched_callable():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["matmul"] is during["__matmul__"]
        assert during["training.logmel"] is during["audiofeat.logmel"]
        patched = tracer.patched_bindings()
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.installed
    for ns, name in patched:
        assert not hasattr(getattr(ns, name), "__wrapped__"), name


def test_tracer_counts_matmul_operator_and_self_time():
    a = autograd.Var(np.ones((2, 3), dtype=np.float32))
    b = autograd.Var(np.ones((3, 4), dtype=np.float32))
    tracer = Tracer()
    tracer.install()
    try:
        op = tracer.begin_op()
        _ = a @ b
        _ = a.matmul(b)
        tracer.end(op)
    finally:
        tracer.restore()
    assert tracer.calls["autograd.matmul"] >= 2
    assert tracer.calls["op"] == 1
    assert tracer.self_s["op"] <= tracer.incl_s["op"]
    assert tracer.incl_s["op"] >= tracer.incl_s["autograd.matmul"]


def test_tape_counts_activations_not_parameters():
    w = autograd.Var(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    x = autograd.Var(np.ones((2, 3), dtype=np.float32))
    loss = (x @ w).sum()
    tracer = Tracer()
    tracer.install()
    try:
        loss.backward()
    finally:
        tracer.restore()
    assert tracer.counters["autograd.tape_nodes"] == 2
    assert tracer.counters["autograd.tape_bytes"] == 2 * 4 * 4 + 4


def test_tracer_closes_spans_left_open_by_an_exception():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin_op()            # never closed by its owner
    tracer.end(outer)
    assert tracer.calls == {"outer": 1, "op": 1}
    assert tracer.failed == {"op": 1}
    tracer.end(outer)            # already closed: ignored
    assert tracer.calls["outer"] == 1


def test_failed_ops_are_counted_not_raised():
    with workloads.WarningTally() as tally:
        log = workloads.OpLog(tally)
        log.begin(None)
        np.exp(np.array([1000.0]))
        ms, overflow = log.end()
        log.record(not overflow, ms, 1.0)
        log.begin(None)
        try:
            raise DataError("bad clip")
        except DataError:
            ok = False
        ms, overflow = log.end()
        log.record(ok and not overflow, ms, 1.0)
        log.begin(None)
        ms, overflow = log.end()
        log.record(not overflow, ms, 2.0)
        assert tally.count() == 1
    assert (log.attempted, log.failed, log.audio_s, len(log.latency_ms)) == (3, 2, 2.0, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout
