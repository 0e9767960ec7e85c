"""Where the traced run wraps the program, and the per-layer metrics it derives.

Each point names the module (or class) through which the caller looks the
function up. Span names are ``<module>.<function>`` of the module that
defines the layer; the head is the only ``linear`` call in ``stgormer.model``.
"""
from __future__ import annotations

import math
import statistics

from spans import Point, Span, self_time

MIB = float(2 ** 20)


def moe_flops(args) -> dict:
    """Expert GEMM FLOPs of one dense MoE call: two GEMMs per expert per token."""
    x, experts = args[0], args[1]
    tokens = math.prod(x.shape[:-1])
    width, hidden = experts[0].w1.shape
    return {"flops": 4 * tokens * width * hidden * len(experts)}


POINTS = (
    Point("stgormer.cli", "main", "cli.main"),
    Point("stgormer.cli", "build", "model.build"),
    Point("stgormer.cli", "load_model", "model.load_model"),
    Point("stgormer.cli", "load_graph", "graph.load_graph"),
    Point("stgormer.cli", "load_flows", "data.load_flows"),
    Point("stgormer.cli", "load_timestamps", "data.load_timestamps"),
    Point("stgormer.cli", "write_flow_tensor", "data.write_flow_tensor"),
    Point("stgormer.cli", "split", "data.split"),
    Point("stgormer.cli", "train_loop", "train.train_loop"),
    Point("stgormer.cli", "evaluate", "train.evaluate"),
    Point("stgormer.train", "make_windows", "data.make_windows"),
    Point("stgormer.train", "fit_normalizer", "data.fit_normalizer"),
    Point("stgormer.train", "metrics", "data.metrics"),
    Point("stgormer.train", "loss", "model.loss"),
    Point("stgormer.train", "save_model", "model.save_model"),
    Point("stgormer.train", "backward", "numerics.backward"),
    Point("stgormer.train", "adam_step", "numerics.adam_step"),
    Point("stgormer.model.StgormerModel", "forward_batch", "model.forward_batch",
          memory=True),
    Point("stgormer.model.StgormerModel", "predict", "model.predict"),
    Point("stgormer.model", "shortest_path_matrix", "graph.shortest_path_matrix"),
    Point("stgormer.model", "temporal_input_encoding", "encoding.temporal_input_encoding"),
    Point("stgormer.model", "spatial_input_encoding", "encoding.spatial_input_encoding"),
    Point("stgormer.model", "fuse_inputs", "encoding.fuse_inputs"),
    Point("stgormer.model", "spd_bias", "attention.spd_bias"),
    Point("stgormer.model", "spatial_attention", "attention.spatial"),
    Point("stgormer.model", "temporal_attention", "attention.temporal"),
    Point("stgormer.model", "layer_norm", "numerics.layer_norm"),
    Point("stgormer.model", "moe_forward", "moe.forward", memory=True,
          counter=moe_flops),
    Point("stgormer.model", "expert_forward", "moe.expert_forward"),
    Point("stgormer.model", "load_balance_loss", "moe.load_balance_loss"),
    Point("stgormer.model", "linear", "model.head"),
    Point("stgormer.model", "read_param_block", "numerics.read_param_block"),
    Point("stgormer.model", "write_param_block", "numerics.write_param_block"),
)

# Median duration per call of the span with the same name.
TIMED = (
    "numerics.backward", "numerics.adam_step", "moe.forward", "attention.spatial",
    "attention.temporal", "attention.spd_bias", "numerics.layer_norm", "model.head",
    "model.forward_batch", "model.loss", "model.save_model", "model.load_model",
    "graph.shortest_path_matrix", "data.load_flows", "data.write_flow_tensor",
)

# name -> (unit, better), in the order BENCHMARK.json lists them.
METRICS = {
    "numerics.backward.ms": ("ms", "lower"),
    "numerics.adam_step.ms": ("ms", "lower"),
    "train.step.ms": ("ms", "lower"),
    "moe.forward.ms": ("ms", "lower"),
    "moe.forward.calls": ("count", "lower"),
    "moe.gflop_per_s": ("GFLOP/s", "higher"),
    "machine.gemm_gflop_per_s": ("GFLOP/s", "higher"),
    "moe.retained_mb": ("MiB", "lower"),
    "model.forward_batch.retained_mb": ("MiB", "lower"),
    "model.forward_batch.minflt": ("count", "lower"),
    "attention.spatial.ms": ("ms", "lower"),
    "attention.temporal.ms": ("ms", "lower"),
    "attention.spd_bias.ms": ("ms", "lower"),
    "encoding.ms": ("ms", "lower"),
    "numerics.layer_norm.ms": ("ms", "lower"),
    "model.head.ms": ("ms", "lower"),
    "model.forward_batch.ms": ("ms", "lower"),
    "model.forward_batch.self_ms": ("ms", "lower"),
    "model.forward_batch.calls": ("count", "lower"),
    "model.loss.ms": ("ms", "lower"),
    "model.save_model.ms": ("ms", "lower"),
    "model.load_model.ms": ("ms", "lower"),
    "graph.shortest_path_matrix.ms": ("ms", "lower"),
    "data.load_flows.ms": ("ms", "lower"),
    "data.write_flow_tensor.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}


def _median_or_zero(values) -> float:
    """Median of the values; 0 for a layer the workload never reached."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def step_times(spans: list[Span]) -> list[float]:
    """Training step: start of its forward_batch to the end of its adam_step.

    The step's forward is the last forward_batch that began, under the same
    training loop, before the optimizer step.
    """
    out = []
    last_forward: dict[int | None, Span] = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "model.forward_batch":
            last_forward[span.parent] = span
        elif span.name == "numerics.adam_step" and span.parent in last_forward:
            out.append(span.end - last_forward[span.parent].start)
    return out


def layer_metrics(spans: list[Span], memory_spans: list[Span], requests: int,
                  gemm_gflop_per_s: float, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric.

    Times and counts come from ``spans``, recorded over ``requests`` traced
    operations; retained bytes come from ``memory_spans``, recorded with
    tracemalloc on, which slows Python allocation too much to time under.
    """
    by_name: dict[str, list[int]] = {}
    kids: dict[int, list[Span]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    def self_ms(name):
        return _median_or_zero(1e3 * self_time(spans[i], kids.get(i, []))
                               for i in by_name.get(name, []))

    out = {f"{name}.ms": _median_or_zero(1e3 * s.duration for s in named(name))
           for name in TIMED}
    forwards = named("model.forward_batch")
    moes = named("moe.forward")
    moe_seconds = sum(s.duration for s in moes)
    out.update({
        "train.step.ms": _median_or_zero(1e3 * t for t in step_times(spans)),
        "moe.forward.calls": len(moes) / requests,
        "moe.gflop_per_s": (sum(s.attrs["flops"] for s in moes) / moe_seconds / 1e9
                            if moes else 0.0),
        "machine.gemm_gflop_per_s": gemm_gflop_per_s,
        "moe.retained_mb": _median_or_zero(
            s.attrs["retained_bytes"] / MIB for s in memory_spans if s.name == "moe.forward"),
        "model.forward_batch.retained_mb": _median_or_zero(
            s.attrs["retained_bytes"] / MIB for s in memory_spans
            if s.name == "model.forward_batch"),
        "model.forward_batch.minflt": _median_or_zero(s.attrs["minflt"] for s in forwards),
        "encoding.ms": _median_or_zero(
            1e3 * sum(k.duration for k in kids.get(i, []) if k.name.startswith("encoding."))
            for i in by_name.get("model.forward_batch", [])),
        "model.forward_batch.self_ms": self_ms("model.forward_batch"),
        "model.forward_batch.calls": len(forwards) / requests,
        "cli.self_ms": self_ms("cli.main"),
        "trace_overhead_frac": overhead_frac,
    })
    return {name: out[name] for name in METRICS}
