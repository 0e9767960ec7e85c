"""Command-line entry point: synth, train, eval, predict, encode, study.

Configuration lives in flat key=value files with dotted keys (model.hidden_dim,
train.batch_size, data.threshold); any key can be overridden on the command
line.  Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, kv
from .attention import spd_bias
from .data import (FlowDataset, SyntheticSpec, load_flows, load_timestamps,
                   save_flows, save_timestamps, split, synthesize,
                   write_flow_tensor)
from .graph import (SpatioTemporalGraph, degrees, load_graph, save_graph,
                    shortest_path_matrix)
from .model import StgormerConfig, build, load_model
from .train import (STUDY_COLUMNS, DivergenceError, TrainConfig, evaluate,
                    study, train_loop)


class UsageError(ValueError):
    """Bad command-line invocation (exit code 1)."""


class NonFiniteOutput(ArithmeticError):
    """A forecast or a metric that is not finite (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(raw: str) -> float:
    """A float flag, read by the codec's rule: a non-finite value is a usage error."""
    try:
        return kv.decode(0.0, raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- run configuration ------------------------------------------------------------

# Every settable run key.  TrainConfig.threshold is spelled data.threshold, and
# TrainConfig.checkpoint_dir is always the train --out directory.
RUN_KEYS = (tuple(f"model.{f.name}" for f in dataclasses.fields(StgormerConfig))
            + tuple(f"train.{f.name}" for f in dataclasses.fields(TrainConfig)
                    if f.name not in ("threshold", "checkpoint_dir"))
            + ("data.threshold",))


def resolve_override_key(key: str) -> str:
    """Allow bare field names when they name exactly one run key."""
    if "." in key:
        return key
    hits = [k for k in RUN_KEYS if k.partition(".")[2] == key]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ValueError(f"unknown config key {key!r}")
    raise ValueError(f"ambiguous config key {key!r}: matches {', '.join(hits)}")


def load_run_config(config_path, overrides: list[str]
                    ) -> tuple[StgormerConfig, TrainConfig, dict[str, str]]:
    """Parse and validate the full run configuration, reporting all violations."""
    items = kv.read_file(config_path) if config_path else {}
    for entry in overrides or []:
        if "=" not in entry:
            raise ValueError(f"override {entry!r} is not of the form key=value")
        key, _, value = entry.partition("=")
        items[resolve_override_key(key.strip())] = value.strip()

    errors = [f"unknown config key {k!r}" for k in items if k not in RUN_KEYS]

    def section(prefix: str) -> dict[str, str]:
        return {k.partition(".")[2]: v for k, v in items.items()
                if k in RUN_KEYS and k.startswith(prefix + ".")}

    mcfg = kv.overlay(StgormerConfig(), section("model"), errors, "model.")
    tcfg = kv.overlay(TrainConfig(), section("train"), errors, "train.")
    tcfg = kv.overlay(tcfg, section("data"), errors, "data.")
    errors.extend(mcfg.validate())
    errors.extend(tcfg.validate())
    if errors:
        raise ValueError("config: " + "; ".join(errors))

    resolved = {k: kv.encode(getattr(mcfg if k.startswith("model.") else tcfg,
                                     k.partition(".")[2]))
                for k in RUN_KEYS}
    return mcfg, tcfg, resolved


def load_synth_spec(path) -> SyntheticSpec:
    """Parse and validate a synthetic spec file, listing every bad field."""
    errors: list[str] = []
    spec = kv.overlay(SyntheticSpec(), kv.read_file(path), errors)
    errors.extend(spec.validate())
    if errors:
        raise ValueError("synth spec: " + "; ".join(errors))
    return spec


# -- shared I/O ---------------------------------------------------------------------


def load_data_dir(data_dir) -> FlowDataset:
    data_dir = Path(data_dir)
    for name in ("graph.txt", "flows.txt", "timestamps.txt"):
        if not (data_dir / name).is_file():
            raise ValueError(f"missing data file: {data_dir / name}")
    graph = load_graph(data_dir / "graph.txt")
    timestamps = load_timestamps(data_dir / "timestamps.txt")
    return load_flows(data_dir / "flows.txt", graph, timestamps)


def check_model_inputs(flows_path, timestamps_path, ds: FlowDataset,
                       config: StgormerConfig) -> None:
    """Reject a flow file whose channel count, or a timestamps file whose
    per-step feature count, is not the model's, naming the file."""
    if ds.num_channels != config.channels:
        raise ValueError(
            f"{flows_path}: flows carry {ds.num_channels} channels but the model "
            f"expects channels={config.channels}")
    if ds.timestamps.shape[1] != config.temporal_features:
        raise ValueError(
            f"{timestamps_path}: timestamps carry {ds.timestamps.shape[1]} features per "
            f"step but the model expects temporal_features={config.temporal_features}")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_manifest(path, resolved: dict[str, str], extra: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"artifact_version={__version__}\n")
        fh.write(f"started={_now()}\n")
        for k, v in extra.items():
            fh.write(f"{k}={v}\n")
        for k in sorted(resolved):
            fh.write(f"{k}={resolved[k]}\n")


def finish_manifest(path) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"finished={_now()}\n")


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in ("mae", "rmse", "mape", "threshold", "count"):
            fh.write(f"{key}={kv.encode(report[key])}\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands ----------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    ds = synthesize(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(ds.graph, out / "graph.txt")
    save_flows(out / "flows.txt", ds)
    save_timestamps(out / "timestamps.txt", ds.timestamps)
    with open(out / "synth-spec.txt", "w", encoding="utf-8") as fh:
        for k, v in sorted(dataclasses.asdict(spec).items()):
            fh.write(f"{k}={kv.encode(v)}\n")
    print(f"synthesized {ds.num_steps} steps x {ds.num_nodes} nodes "
          f"x {ds.num_channels} channels into {out}")
    return 0


def cmd_train(args) -> int:
    mcfg, tcfg, resolved = load_run_config(args.config, args.override)
    data = Path(args.data)
    ds = load_data_dir(data)
    check_model_inputs(data / "flows.txt", data / "timestamps.txt", ds, mcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.txt"
    write_manifest(manifest_path, resolved, {"data_dir": str(data)})
    train_ds, val_ds, _ = split(ds)
    model = build(mcfg, ds.graph)
    tcfg = dataclasses.replace(tcfg, checkpoint_dir=str(out))
    history = train_loop(model, (train_ds, val_ds), tcfg)
    with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest": str(manifest_path)}) + "\n")
        for rec in history.epochs:
            fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")
    finish_manifest(manifest_path)
    print(f"trained {len(history.epochs)} epochs; best epoch {history.best_epoch} "
          f"(val mae {history.best_val_mae:.6f}); checkpoint at {out / 'model.ckpt'}")
    return 0


def _split_by_name(ds: FlowDataset, name: str) -> FlowDataset:
    train_ds, val_ds, test_ds = split(ds)
    return {"train": train_ds, "val": val_ds, "test": test_ds}[name]


def graph_mismatch(trained: SpatioTemporalGraph, data: SpatioTemporalGraph) -> str | None:
    """The first way the data's graph differs from the checkpoint's, or None:
    node count, then directedness, then the first arc in sorted order that
    only one of them has."""
    if data.num_nodes != trained.num_nodes:
        return f"checkpoint graph has {trained.num_nodes} nodes, data has {data.num_nodes}"
    kinds = {True: "directed", False: "undirected"}
    if data.directed != trained.directed:
        return (f"checkpoint graph is {kinds[trained.directed]}, "
                f"data graph is {kinds[data.directed]}")
    diff = sorted(set(trained.edges) ^ set(data.edges))
    if not diff:
        return None
    side = "checkpoint" if diff[0] in trained.edges else "data"
    return f"edge {diff[0][0]} {diff[0][1]} is only in the {side} graph"


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    data = Path(args.data)
    ds = load_data_dir(data)
    mismatch = graph_mismatch(model.graph, ds.graph)
    if mismatch:
        raise ValueError(f"graph mismatch: {mismatch}")
    check_model_inputs(data / "flows.txt", data / "timestamps.txt", ds, model.config)
    piece = _split_by_name(ds, args.split)
    report = evaluate(model, piece, args.threshold)
    bad = [f"{k}={report[k]!r}" for k in ("mae", "rmse", "mape") if not math.isfinite(report[k])]
    if bad:
        raise NonFiniteOutput(f"non-finite metrics {', '.join(bad)}; no report written")
    out = Path(args.out) if args.out else Path(f"eval_{args.split}.txt")
    write_report(out, report)
    print(f"mae={report['mae']!r} rmse={report['rmse']!r} "
          f"mape(%)={report['mape'] * 100.0!r} count={report['count']}")
    print(f"report written to {out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.checkpoint)
    timestamps = load_timestamps(args.timestamps)
    window = load_flows(args.window, model.graph, timestamps)
    if window.num_steps != model.config.input_len:
        raise ValueError(
            f"window carries {window.num_steps} steps but the model expects "
            f"input_len={model.config.input_len}")
    check_model_inputs(args.window, args.timestamps, window, model.config)
    forecast = model.predict(window.flows, window.timestamps)
    bad = sum(not math.isfinite(v) for v in forecast.flat)
    if bad:
        raise NonFiniteOutput(f"{bad} of {forecast.size} forecast values are not finite; "
                              "no forecast written")
    write_flow_tensor(args.out, forecast)
    print(f"forecast written to {args.out}")
    return 0


def cmd_encode(args) -> int:
    g = load_graph(args.graph)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    indeg, outdeg = degrees(g)
    write_csv(out / "degrees.csv", ["indegree", "outdegree"],
              zip(indeg.tolist(), outdeg.tolist()))
    spd = shortest_path_matrix(g)
    header = [str(i) for i in range(g.num_nodes)]
    write_csv(out / "spd.csv", header, spd.tolist())
    if args.checkpoint:
        model = load_model(args.checkpoint)
        with model.store.frozen():
            bias = spd_bias(spd, model.spd_table, model.config.max_spd)
        write_csv(out / "sa_bias.csv", header,
                  (map(repr, row) for row in bias.data.tolist()))
    print(f"structural encodings written to {out}")
    return 0


def cmd_study(args) -> int:
    mcfg, tcfg, _ = load_run_config(args.config, args.override)
    data = Path(args.data)
    ds = load_data_dir(data)
    check_model_inputs(data / "flows.txt", data / "timestamps.txt", ds, mcfg)
    rows = study(mcfg, tcfg, ds, args.axis)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, STUDY_COLUMNS,
              ([row["variant"], repr(row["mae"]), repr(row["rmse"]), repr(row["mape"]),
                row["epochs"], row["params"]] for row in rows))
    print(f"study table ({len(rows)} rows) written to {out}")
    return 0


# -- parser ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stgormer",
        description="Traffic forecasting with a spatio-temporal graph transformer.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", help="generate a synthetic dataset",
                       formatter_class=fmt)
    p.add_argument("--spec", required=True, help="synthetic spec key=value file")
    p.add_argument("--out", required=True, help="output directory for dataset files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory",
                       formatter_class=fmt)
    p.add_argument("--config", default="", help="run config key=value file "
                   "(empty for built-in defaults)")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory for "
                   "checkpoint/history/manifest")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split",
                       formatter_class=fmt)
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=("train", "val", "test"),
                   help="which chronological split to evaluate")
    p.add_argument("--threshold", type=_finite_float, default=0.0,
                   help="mask targets at or below this value")
    p.add_argument("--out", default="", help="report file (default eval_<split>.txt)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="forecast from one input window",
                       formatter_class=fmt)
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.add_argument("--window", required=True, help="input window in flow-file format")
    p.add_argument("--timestamps", required=True, help="timestamps for the window")
    p.add_argument("--out", required=True, help="forecast output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("encode", help="dump structural encodings as CSV",
                       formatter_class=fmt)
    p.add_argument("--graph", required=True, help="edge-list graph file")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.add_argument("--checkpoint", default="",
                   help="optional checkpoint for the realized attention bias")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("study", help="train a grid of config variants",
                       formatter_class=fmt)
    p.add_argument("--config", default="", help="run config key=value file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--axis", required=True,
                   choices=("ablation", "block_count", "block_order"),
                   help="which variant grid to run")
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.set_defaults(func=cmd_study)
    return parser


def _fail(code: int, message: str) -> int:
    flat = " ".join(str(message).split())
    print(f"error: {flat}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return _fail(1, str(exc))
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(1, str(exc))
    except (DivergenceError, NonFiniteOutput) as exc:
        return _fail(3, str(exc))
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        return _fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
