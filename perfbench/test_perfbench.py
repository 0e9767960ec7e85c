"""Tests of the benchmark's own machinery: spans, percentiles, failure counts,
and that a traced run leaves the program exactly as it found it."""
from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stgormer.cli
import stgormer.model
import stgormer.moe
import stgormer.numerics
import stgormer.train
from stgormer.data import (SyntheticSpec, fit_normalizer, save_flows, save_timestamps,
                           split, synthesize, write_flow_tensor)
from stgormer.graph import save_graph
from stgormer.model import StgormerConfig, build, save_model

import layers
import stats
from run import SETUP_SHARE, Ledger, SetUps, closed_loop, end_to_end
from spans import Span, Tracer, resolve_owner, self_time
from workloads import WORKLOADS, PredictSparse, call_cli, read_flow_tensor, write_kv

TINY = StgormerConfig(hidden_dim=8, heads=2, block_order="ST", experts=2,
                      expert_expansion=2, time_dim=2, degree_dim=2, input_len=4)
TINY_OVERRIDES = ["model.hidden_dim=8", "model.heads=2", "model.block_order=ST",
                  "model.experts=2", "model.expert_expansion=2", "model.time_dim=2",
                  "model.degree_dim=2", "model.input_len=4"]


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = Span("p", 0.0, 10.0, None, 0)
    kids = [Span("a", 1.0, 3.0, 0, 0), Span("b", 2.0, 4.0, 0, 0),
            Span("c", 6.0, 7.0, 0, 0)]
    assert self_time(parent, kids) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    parent = Span("p", 0.0, 4.0, None, 0)
    assert self_time(parent, [Span("a", 3.0, 5.0, 0, 0)]) == pytest.approx(3.0)
    assert self_time(parent, []) == pytest.approx(4.0)


def test_layer_metrics_use_direct_children_only():
    mem = {"retained_bytes": 0, "minflt": 0}
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("model.forward_batch", 1.0, 9.0, 0, 0, dict(mem)),
        Span("moe.forward", 2.0, 4.0, 1, 0, {"flops": 4e9, **mem}),
        Span("model.head", 2.5, 3.0, 2, 0),  # grandchild: already inside moe.forward
        Span("encoding.fuse_inputs", 5.0, 6.0, 1, 0),
    ]
    out = layers.layer_metrics(spans, spans, requests=1, gemm_gflop_per_s=30.0,
                               overhead_frac=0.1)
    assert out["model.forward_batch.self_ms"] == pytest.approx(5000.0)
    assert out["cli.self_ms"] == pytest.approx(2000.0)
    assert out["encoding.ms"] == pytest.approx(1000.0)
    assert out["moe.gflop_per_s"] == pytest.approx(2.0)
    assert out["numerics.backward.ms"] == 0.0
    assert list(out) == list(layers.METRICS)


def test_train_step_runs_from_its_forward_to_its_optimizer_step():
    spans = [
        Span("train.train_loop", 0.0, 20.0, None, 0),
        Span("model.forward_batch", 1.0, 2.0, 0, 0),
        Span("numerics.adam_step", 4.0, 5.0, 0, 0),
        Span("model.forward_batch", 6.0, 7.0, 0, 0),
        Span("numerics.adam_step", 9.5, 10.0, 0, 0),
        Span("model.forward_batch", 11.0, 12.0, 0, 0),  # validation: no step
    ]
    assert layers.step_times(spans) == pytest.approx([4.0, 4.0])


# -- percentiles ----------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(100)), 90) == 89
    assert stats.tail_percentile(list(range(99)), 90) is None
    assert stats.reportable(200, 95) and not stats.reportable(199, 95)
    assert stats.reportable(20, 50) and not stats.reportable(19, 50)


def test_percentile_is_nearest_rank():
    assert stats.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0], 99) == 1.0


# -- failure accounting ---------------------------------------------------------


class Rigged:
    """Operation i succeeds, exits non-zero, raises or fails its check."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def run(self, i):
        outcome = self.outcomes[i % len(self.outcomes)]
        if outcome == "raise":
            raise RuntimeError("rigged")
        return 2 if outcome == "exit" else 0

    def check(self, i):
        return "rigged mismatch" if self.outcomes[i % len(self.outcomes)] == "bad" else None


def test_every_kind_of_failure_is_counted():
    ledger = Ledger()
    samples = closed_loop(Rigged(["ok", "exit", "raise", "bad"]), ledger, 0.0, 8)
    assert (ledger.attempted, ledger.failed, len(samples)) == (8, 6, 2)
    assert sum("exit code 2" in p for p in ledger.problems) == 2
    assert sum("rigged mismatch" in p for p in ledger.problems) == 2


def test_a_failing_cli_call_is_counted(tmp_path):
    class MissingCheckpoint:
        def run(self, i):
            return call_cli(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                             "--window", "w", "--timestamps", "t", "--out", "o"])

        def check(self, i):
            raise AssertionError("check runs only after a zero exit code")

    ledger = Ledger()
    assert ledger.attempt(MissingCheckpoint(), 0) is None
    assert ledger.failed == 1 and "exit code 2" in ledger.problems[0]


def test_predict_check_catches_a_changed_forecast(tmp_path):
    workload = PredictSparse()
    workload.WINDOWS = 2
    workload.prepare(tmp_path, seed=3)
    assert workload.reference() is None
    assert workload.run(0) == 0 and workload.check(0) is None
    assert workload.run(1) == 0
    forecast = read_flow_tensor(tmp_path / "forecast.txt")
    assert forecast.tobytes() == workload.expected[1].tobytes()
    workload.expected[1] = np.nextafter(workload.expected[1], np.inf)
    assert "differs" in workload.check(1)


def test_set_ups_between_operations_keep_their_share_and_leave_one_directory(tmp_path):
    class Slow:
        def prepare(self, work, seed):
            (work / "input.txt").write_text(str(seed))
            time.sleep(0.002)

    setups = SetUps(Slow, tmp_path, seed=4)
    kept = setups.once()
    setups.keep_up(0.5)
    assert isinstance(kept, Slow) and len(setups.times) > 1
    assert sum(setups.times) >= SETUP_SHARE * 0.5
    assert [p.name for p in tmp_path.iterdir()] == ["setup-0"]
    assert (tmp_path / "setup-0" / "input.txt").read_text() == "4"


# -- tracing --------------------------------------------------------------------


def _originals():
    return [vars(resolve_owner(p.owner))[p.attribute] for p in layers.POINTS]


def _tiny_run(tmp_path):
    ds = synthesize(SyntheticSpec(num_nodes=3, total_steps=60, seed=2))
    data = tmp_path / "data"
    data.mkdir()
    save_graph(ds.graph, data / "graph.txt")
    save_flows(data / "flows.txt", ds)
    save_timestamps(data / "timestamps.txt", ds.timestamps)
    config = write_kv(tmp_path / "run.txt", {"train.max_epochs": 1, "train.batch_size": 8})
    model = build(TINY, ds.graph)
    model.normalizer = fit_normalizer(split(ds)[0])
    save_model(model, tmp_path / "model.ckpt")
    write_flow_tensor(tmp_path / "w.txt", ds.flows[:4])
    save_timestamps(tmp_path / "ts.txt", ds.timestamps[:4])
    return [
        ["train", "--config", str(config), "--data", str(data), "--out",
         str(tmp_path / "run"), *(f"--override={o}" for o in TINY_OVERRIDES)],
        ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(data),
         "--out", str(tmp_path / "report.txt")],
        ["predict", "--checkpoint", str(tmp_path / "model.ckpt"), "--window",
         str(tmp_path / "w.txt"), "--timestamps", str(tmp_path / "ts.txt"),
         "--out", str(tmp_path / "f.txt")],
    ]


def test_traced_run_records_layers_and_restores_every_name(tmp_path):
    commands = _tiny_run(tmp_path)
    before = _originals()
    tracer = Tracer()
    with tracer.installed(layers.POINTS):
        assert stgormer.model.moe_forward is not stgormer.moe.moe_forward
        for request, argv in enumerate(commands):
            tracer.request = request
            assert call_cli(argv) == 0
    assert all(a is b for a, b in zip(_originals(), before))
    assert stgormer.model.moe_forward is stgormer.moe.moe_forward
    assert stgormer.train.backward is stgormer.numerics.backward
    assert stgormer.cli.load_model is stgormer.model.load_model

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "numerics.backward", "numerics.adam_step", "model.save_model",
            "model.load_model", "data.load_flows", "data.write_flow_tensor",
            "attention.spd_bias", "moe.forward", "model.head"} <= names
    assert {s.request for s in tracer.spans} == {0, 1, 2}
    probe = Tracer()
    tracemalloc.start()
    try:
        with probe.installed(layers.POINTS):
            assert call_cli(commands[1]) == 0
    finally:
        tracemalloc.stop()
    out = layers.layer_metrics(tracer.spans, probe.spans, len(commands), 30.0, 0.0)
    for name in ("train.step.ms", "numerics.backward.ms", "moe.forward.ms",
                 "model.forward_batch.self_ms", "cli.self_ms", "moe.gflop_per_s",
                 "model.forward_batch.retained_mb", "moe.retained_mb"):
        assert out[name] > 0.0, name


def test_names_are_restored_when_the_traced_code_raises():
    before = _originals()
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer().installed(layers.POINTS):
            raise RuntimeError("inside")
    assert all(a is b for a, b in zip(_originals(), before))


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [(name, unit, better) for name, (unit, better) in layers.METRICS.items()])
    gated, _ = end_to_end(PredictSparse(), [0.1] * 20, [0.5])
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == [(name, unit) for name, (_, unit) in gated.items()])
