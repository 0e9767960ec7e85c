import gc
import hashlib
import pathlib
import re
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest

from stgormer.cli import load_run_config, main
from stgormer.data import load_flows, load_timestamps, save_timestamps, write_flow_tensor
from stgormer.graph import load_graph, shortest_path_matrix
from stgormer.model import load_model, save_model

GOLDEN = pathlib.Path(__file__).parent / "golden"


SYNTH_SPEC = """\
num_nodes=6
edge_prob=0.4
seed=3
daily_period=8
weekly_period=56
total_steps=140
noise_std=0.05
"""

RUN_CONFIG = """\
# desk-scale run
model.hidden_dim=8
model.heads=2
model.block_order=ST
model.experts=2
model.expert_expansion=2
model.time_dim=3
model.degree_dim=4
model.input_len=6
model.horizon=1
model.seed=5
train.batch_size=16
train.max_epochs=2
train.patience=5
train.seed=1
data.threshold=0.0
"""


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "synth.txt").write_text(SYNTH_SPEC)
    (tmp_path / "run.txt").write_text(RUN_CONFIG)
    assert main(["synth", "--spec", str(tmp_path / "synth.txt"),
                 "--out", str(tmp_path / "data")]) == 0
    return tmp_path


def train_run(ws, out="run", extra=()):
    args = ["train", "--config", str(ws / "run.txt"),
            "--data", str(ws / "data"), "--out", str(ws / out)] + list(extra)
    assert main(args) == 0
    return ws / out


def nan_checkpoint(ckpt, where):
    """Rewrites ``ckpt`` through save_model, with a valid checksum, after
    setting head.b[0] (``where="param"``) or the normalizer's std to nan."""
    model = load_model(ckpt)
    if where == "param":
        model.store["head.b"].data[0] = np.nan
    else:
        model.normalizer.std[0] = np.nan
    save_model(model, ckpt)
    return ckpt


class TestSynth:
    def test_files_cross_validate(self, workspace):
        data = workspace / "data"
        graph = load_graph(data / "graph.txt")
        ts = load_timestamps(data / "timestamps.txt")
        ds = load_flows(data / "flows.txt", graph, ts)
        assert ds.num_nodes == graph.num_nodes == 6
        assert ds.num_steps == ts.shape[0] == 140
        assert (data / "synth-spec.txt").is_file()

    def test_deterministic_outputs(self, workspace, tmp_path):
        again = tmp_path / "data2"
        assert main(["synth", "--spec", str(workspace / "synth.txt"),
                     "--out", str(again)]) == 0
        for name in ("graph.txt", "flows.txt", "timestamps.txt"):
            assert (again / name).read_bytes() == \
                (workspace / "data" / name).read_bytes()

    def test_bad_spec_field_listed(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("num_nodes=0\nwheels=4\nedge_prob=2.0\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: synth spec: unknown key 'wheels'; num_nodes, total_steps, and "
            "channels must be >= 1; edge_prob must lie in [0, 1]\n")

    @pytest.mark.parametrize("line,message", [
        ("seed=-1", "seed must be >= 0"),
        ("weekly_period=0", "weekly_period must be a positive multiple of daily_period"),
        ("amplitude_range=0.0,-0.0", "amplitude_range is empty: (0.0, -0.0)"),
    ])
    def test_spec_rejected_before_synthesis(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"num_nodes=2\ntotal_steps=5\n{line}\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert (code, capsys.readouterr().err) == (2, f"error: synth spec: {message}\n")
        assert not (tmp_path / "d").exists()

    def test_non_finite_spec_value_rejected(self, tmp_path, capsys):
        spec = tmp_path / "nan.txt"
        spec.write_text("noise_std=nan\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'noise_std'" in err and "finite" in err
        assert not (tmp_path / "d").exists()


    def test_overflowing_signal_rejected(self, tmp_path, capsys):
        # finite knobs whose signal overflows: each value passes the codec
        spec = tmp_path / "huge.txt"
        spec.write_text("base_flow=1e308\namplitude_range=1e308,1.5e308\n"
                        "weekly_amplitude_range=0.9,0.9\ntotal_steps=40\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"error: spec gives a non-finite signal in \d+ of 480 cells: "
                            r"base_flow, amplitude_range or noise_std is too large\n", err)
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_end_to_end(self, workspace):
        out = train_run(workspace)
        assert (out / "model.ckpt").is_file()
        assert (out / "history.jsonl").is_file()
        assert (out / "manifest.txt").is_file()
        manifest = (out / "manifest.txt").read_text()
        assert "model.hidden_dim=8" in manifest
        assert manifest.splitlines()[-1].startswith("finished=")
        history = (out / "history.jsonl").read_text().splitlines()
        assert str(out / "manifest.txt") in history[0]
        assert len(history) == 3  # manifest reference + 2 epochs

    def test_missing_flows_file_names_path(self, workspace, capsys):
        (workspace / "data" / "flows.txt").unlink()
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "flows.txt" in err

    def test_override_echoed_in_manifest(self, workspace):
        out = train_run(workspace, out="run-ov",
                        extra=["--override", "block_order=ST",
                               "--override", "model.alpha=0.02"])
        manifest = (out / "manifest.txt").read_text()
        assert "model.block_order=ST" in manifest
        assert "model.alpha=0.02" in manifest

    def test_ambiguous_bare_override_rejected(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x"),
                     "--override", "seed=7"])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["model.alpha=nan", "train.lr=nan"])
    def test_non_finite_override_is_config_error(self, workspace, capsys, override):
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x"),
                     "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(override.partition("=")[0]) in err and "finite" in err

    def test_bare_threshold_resolves_to_data_key(self):
        _, tcfg, resolved = load_run_config("", ["threshold=0.5"])
        assert tcfg.threshold == 0.5
        assert resolved["data.threshold"] == "0.5"
        assert "train.threshold" not in resolved
        assert "train.checkpoint_dir" not in resolved

    @pytest.mark.parametrize("key", ["train.threshold", "train.checkpoint_dir"])
    def test_train_spelling_of_run_setting_is_unknown(self, workspace, capsys, key):
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x"),
                     "--override", f"{key}=0.5"])
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_config_errors_listed_exhaustively(self, workspace, capsys):
        (workspace / "bad.txt").write_text(
            "model.hidden_dim=7\nmodel.heads=2\nmodel.block_order=SX\n"
            "train.batch_size=0\nmodel.unknown_knob=3\n")
        code = main(["train", "--config", str(workspace / "bad.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") <= 1  # single line
        for fragment in ("not divisible", "block_order", "batch_size",
                         "unknown_knob"):
            assert fragment in err

    @pytest.mark.filterwarnings("error")
    def test_divergence_exit_code(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x"),
                     "--override", "train.lr=1e150"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite")
        assert err.count("\n") == 1

    def test_zero_epochs_is_config_error(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "x"),
                     "--override", "train.max_epochs=0"])
        assert code == 2
        assert "max_epochs must be >= 1" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_deterministic_checkpoints(self, workspace):
        out1 = train_run(workspace, out="r1")
        out2 = train_run(workspace, out="r2")
        assert (out1 / "model.ckpt").read_bytes() == \
            (out2 / "model.ckpt").read_bytes()


class TestEval:
    def test_report_matches_stdout(self, workspace, capsys):
        out = train_run(workspace)
        report_path = workspace / "report.txt"
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(workspace / "data"), "--split", "test",
                     "--out", str(report_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        body = report_path.read_text()
        mae = dict(line.split("=") for line in body.splitlines())["mae"]
        assert f"mae={mae}" in stdout
        assert "mape(%)=" in stdout
        for key in ("mae", "rmse", "mape", "threshold", "count"):
            assert f"{key}=" in body

    def test_huge_threshold_clean_error(self, workspace, capsys):
        out = train_run(workspace)
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(workspace / "data"),
                     "--threshold", "1e9"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty mask" in err

    @pytest.mark.parametrize("value", ["-inf", "nan", "inf", "1e400"])
    def test_non_finite_threshold_is_usage_error(self, tmp_path, capsys, value):
        # the flag follows the same finite rule as data.threshold in a config
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path), f"--threshold={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--threshold" in err and "finite" in err
        assert not list(tmp_path.iterdir())

    def test_golden_report_reproduced(self, tmp_path):
        # the smoke checkpoint is retrained from the golden config and dataset,
        # pinned by its SHA-256, and must reproduce the stored report
        # byte-for-byte (regenerate via tests/golden/regenerate.py)
        run = tmp_path / "run"
        assert main(["train", "--config", str(GOLDEN / "run.txt"),
                     "--data", str(GOLDEN / "data"), "--out", str(run)]) == 0
        digest = hashlib.sha256((run / "model.ckpt").read_bytes()).hexdigest()
        assert digest == (GOLDEN / "model.ckpt.sha256").read_text().strip()
        out = tmp_path / "report.txt"
        code = main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(GOLDEN / "data"), "--split", "test",
                     "--threshold", "0.0", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "report.txt").read_bytes()

    def test_corrupt_checkpoint_key_exit_code(self, workspace, capsys):
        ckpt = train_run(workspace) / "model.ckpt"
        body = ckpt.read_bytes()[:-4].replace(b"\nnum_nodes=", b"\nnodes=", 1)
        ckpt.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data")])
        assert code == 2
        assert "corrupt checkpoint: [graph] has no 'num_nodes'" in capsys.readouterr().err

    def test_trailing_checkpoint_bytes_exit_code(self, workspace, capsys):
        ckpt = train_run(workspace) / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes() + b"\n")
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "report.txt")])
        assert code == 2
        assert "corrupt checkpoint: trailing bytes" in capsys.readouterr().err

    def test_flipped_checkpoint_payload_byte_exit_code(self, workspace, capsys):
        ckpt = train_run(workspace) / "model.ckpt"
        data = bytearray(ckpt.read_bytes())
        data[-100] ^= 0x40
        ckpt.write_bytes(bytes(data))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data"),
                     "--out", str(workspace / "report.txt")])
        assert code == 2
        assert "corrupt checkpoint: CRC-32" in capsys.readouterr().err
        assert not (workspace / "report.txt").exists()

    def test_non_finite_flow_in_test_split_exit_code(self, workspace, capsys):
        out = train_run(workspace)
        flows = workspace / "data" / "flows.txt"
        lines = flows.read_text().splitlines(keepends=True)
        lines[-1] = ",".join(["nan"] * len(lines[-1].split(","))) + "\n"
        flows.write_text("".join(lines))
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(workspace / "data"), "--split", "test",
                     "--out", str(workspace / "report.txt")])
        assert code == 2
        assert f"line {len(lines)}: non-finite" in capsys.readouterr().err

    def test_zero_target_under_negative_threshold_exit_code(self, workspace, capsys):
        out = train_run(workspace)
        flows = workspace / "data" / "flows.txt"
        lines = flows.read_text().splitlines(keepends=True)
        lines[-1] = ",".join(["0.0"] * len(lines[-1].split(","))) + "\n"
        flows.write_text("".join(lines))
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(workspace / "data"), "--split", "test",
                     "--threshold", "-1", "--out", str(workspace / "report.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MAPE is undefined: 1 of ")
        assert not (workspace / "report.txt").exists()

    @pytest.mark.parametrize("where, named", [
        ("param", "parameter 'head.b'"), ("std", "normalizer 'std'")])
    def test_non_finite_checkpoint_exit_code(self, workspace, capsys, where, named):
        # the checksum is valid, so only the value check stops a nan forecast
        ckpt = nan_checkpoint(train_run(workspace) / "model.ckpt", where)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(workspace / "report.txt")])
        assert code == 2
        assert f"corrupt checkpoint: non-finite values in {named}" in capsys.readouterr().err
        assert not (workspace / "report.txt").exists()

    @pytest.mark.filterwarnings("error")  # the overflow is the error line, not a warning
    def test_non_finite_metric_exit_code(self, workspace, capsys):
        # finite parameters whose forecasts are finite but large: err ** 2 overflows
        ckpt = train_run(workspace) / "model.ckpt"
        model = load_model(ckpt)
        model.store["head.w"].data[:] = 1e306
        save_model(model, ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(workspace / "report.txt")])
        assert code == 3
        assert re.fullmatch("error: non-finite metrics rmse=inf.*\n", capsys.readouterr().err)
        assert not (workspace / "report.txt").exists()

    def test_node_count_mismatch(self, workspace, tmp_path, capsys):
        out = train_run(workspace)
        (tmp_path / "other.txt").write_text(
            "num_nodes=4\nedge_prob=0.4\nseed=3\ndaily_period=8\n"
            "weekly_period=56\ntotal_steps=140\n")
        assert main(["synth", "--spec", str(tmp_path / "other.txt"),
                     "--out", str(tmp_path / "other")]) == 0
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "other")])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err


class TestEvalGraphCheck:
    @pytest.fixture()
    def one_edge_run(self, workspace):
        # the synthetic data's flows under an undirected one-edge graph
        lone = workspace / "lone"
        shutil.copytree(workspace / "data", lone)
        (lone / "graph.txt").write_text("6 undirected\n0 1\n")
        assert main(["train", "--config", str(workspace / "run.txt"),
                     "--data", str(lone), "--out", str(workspace / "run")]) == 0
        return workspace / "run" / "model.ckpt", lone

    def eval_with_graph(self, ckpt, data, graph_text):
        (data / "graph.txt").write_text(graph_text)
        report = data.parent / "report.txt"
        report.unlink(missing_ok=True)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(report)])
        return code, report

    def test_directed_data_rejected(self, one_edge_run, workspace, capsys):
        ckpt, _ = one_edge_run
        report = workspace / "report.txt"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "data"),
                     "--out", str(report)])
        assert code == 2
        assert ("graph mismatch: checkpoint graph is undirected, data graph is directed"
                in capsys.readouterr().err)
        assert not report.exists()

    @pytest.mark.parametrize("graph_text,difference", [
        ("6 undirected\n0 1\n1 2\n", "edge 1 2 is only in the data graph"),
        ("6 undirected\n", "edge 0 1 is only in the checkpoint graph"),
        ("6 undirected\n0 2\n", "edge 0 1 is only in the checkpoint graph"),
        ("6 undirected\n2 5\n1 0\n", "edge 2 5 is only in the data graph"),
    ])
    def test_first_differing_edge_named(self, one_edge_run, capsys, graph_text, difference):
        code, report = self.eval_with_graph(*one_edge_run, graph_text)
        assert code == 2
        assert f"graph mismatch: {difference}" in capsys.readouterr().err
        assert not report.exists()

    def test_same_graph_in_other_words_accepted(self, one_edge_run):
        code, report = self.eval_with_graph(*one_edge_run, "6 undirected\n0 1\n")
        assert code == 0
        expected = report.read_bytes()
        code, report = self.eval_with_graph(*one_edge_run, "# comment\n6 undirected\n\n1 0\n")
        assert code == 0
        assert report.read_bytes() == expected


class TestPredict:
    def make_window(self, workspace, length):
        data = workspace / "data"
        graph = load_graph(data / "graph.txt")
        ts = load_timestamps(data / "timestamps.txt")
        ds = load_flows(data / "flows.txt", graph, ts)
        window = workspace / "window.txt"
        wts = workspace / "window_ts.txt"
        flows = ds.flows[:length]
        with open(window, "w") as fh:
            fh.write(f"{length} {ds.num_nodes} {ds.num_channels}\n")
            for row in flows.reshape(length * ds.num_nodes, ds.num_channels):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(wts, "w") as fh:
            for row in ts[:length]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return window, wts, flows, ts[:length]

    def test_forecast_header_and_parity_with_api(self, workspace):
        out = train_run(workspace)
        window, wts, flows, ts = self.make_window(workspace, 6)
        forecast = workspace / "forecast.txt"
        code = main(["predict", "--checkpoint", str(out / "model.ckpt"),
                     "--window", str(window), "--timestamps", str(wts),
                     "--out", str(forecast)])
        assert code == 0
        lines = forecast.read_text().splitlines()
        assert lines[0] == "1 6 1"
        model = load_model(out / "model.ckpt")
        expected = model.predict(flows, ts)
        got = np.array([float(v) for v in lines[1:]]).reshape(1, 6, 1)
        assert np.array_equal(got, expected)

    def test_predict_deterministic(self, workspace):
        out = train_run(workspace)
        window, wts, _, _ = self.make_window(workspace, 6)
        f1, f2 = workspace / "f1.txt", workspace / "f2.txt"
        for f in (f1, f2):
            assert main(["predict", "--checkpoint", str(out / "model.ckpt"),
                         "--window", str(window), "--timestamps", str(wts),
                         "--out", str(f)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_non_finite_checkpoint_exit_code(self, workspace, capsys):
        ckpt = nan_checkpoint(train_run(workspace) / "model.ckpt", "param")
        window, wts, _, _ = self.make_window(workspace, 6)
        forecast = workspace / "forecast.txt"
        code = main(["predict", "--checkpoint", str(ckpt), "--window", str(window),
                     "--timestamps", str(wts), "--out", str(forecast)])
        assert code == 2
        assert ("corrupt checkpoint: non-finite values in parameter 'head.b'"
                in capsys.readouterr().err)
        assert not forecast.exists()

    @pytest.mark.filterwarnings("error")  # the overflow is the error line, not a warning
    def test_non_finite_forecast_exit_code(self, workspace, capsys):
        # a finite checkpoint whose forecast, about 1e10 before the normalizer
        # scales it by 1e300, overflows
        ckpt = train_run(workspace) / "model.ckpt"
        model = load_model(ckpt)
        model.store["head.b"].data[:] = 1e10
        model.normalizer.std[:] = 1e300
        save_model(model, ckpt)
        window, wts, _, _ = self.make_window(workspace, 6)
        forecast = workspace / "forecast.txt"
        code = main(["predict", "--checkpoint", str(ckpt), "--window", str(window),
                     "--timestamps", str(wts), "--out", str(forecast)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: 6 of 6 forecast values are not finite; no forecast written\n")
        assert not forecast.exists()

    def test_wrong_window_length(self, workspace, capsys):
        out = train_run(workspace)
        window, wts, _, _ = self.make_window(workspace, 4)
        code = main(["predict", "--checkpoint", str(out / "model.ckpt"),
                     "--window", str(window), "--timestamps", str(wts),
                     "--out", str(workspace / "f.txt")])
        assert code == 2
        assert "input_len" in capsys.readouterr().err


class TestTimestampFeatures:
    """One feature per step where the model expects temporal_features=2."""

    @pytest.mark.parametrize("command", ["train", "study", "eval", "predict"])
    def test_feature_count_checked_against_model(self, workspace, capsys, command):
        data, out = workspace / "data", workspace / "out"
        ckpt = train_run(workspace) / "model.ckpt" if command in ("eval", "predict") else None
        ts_path = data / "timestamps.txt"
        ds = load_flows(data / "flows.txt", load_graph(data / "graph.txt"),
                        load_timestamps(ts_path))
        save_timestamps(ts_path, ds.timestamps[:, :1])
        window, window_ts = workspace / "window.txt", workspace / "window_ts.txt"
        write_flow_tensor(window, ds.flows[:6])
        save_timestamps(window_ts, ds.timestamps[:6, :1])
        argv = {
            "train": ["train", "--config", str(workspace / "run.txt"),
                      "--data", str(data), "--out", str(out)],
            "study": ["study", "--config", str(workspace / "run.txt"), "--data", str(data),
                      "--axis", "ablation", "--out", str(out / "study.csv")],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out / "report.txt")],
            "predict": ["predict", "--checkpoint", str(ckpt), "--window", str(window),
                        "--timestamps", str(window_ts), "--out", str(out / "f.txt")],
        }[command]
        assert main(argv) == 2
        named = window_ts if command == "predict" else ts_path
        assert capsys.readouterr().err == (
            f"error: {named}: timestamps carry 1 features per step but the model "
            "expects temporal_features=2\n")
        assert not out.exists()


class TestFlowChannels:
    """A flow file whose channel count is not the model's, named before any
    output is written."""

    @pytest.mark.parametrize("command", ["train", "study", "eval", "predict"])
    def test_channel_count_checked_against_model(self, workspace, capsys, command):
        data, out = workspace / "data", workspace / "out"
        flows_path = data / "flows.txt"
        ds = load_flows(flows_path, load_graph(data / "graph.txt"),
                        load_timestamps(data / "timestamps.txt"))
        window, window_ts = workspace / "window.txt", workspace / "window_ts.txt"
        save_timestamps(window_ts, ds.timestamps[:6])
        # train and study: one-channel data for a two-channel model;
        # eval and predict: a one-channel checkpoint, then two-channel data
        trained = command in ("eval", "predict")
        ckpt = train_run(workspace) / "model.ckpt" if trained else None
        two = np.concatenate([ds.flows, ds.flows], axis=2)
        if trained:
            write_flow_tensor(flows_path, two)
        write_flow_tensor(window, two[:6])
        have, want = (2, 1) if trained else (1, 2)
        override = ["--override", "model.channels=2"]
        argv = {
            "train": ["train", "--config", str(workspace / "run.txt"),
                      "--data", str(data), "--out", str(out)] + override,
            "study": ["study", "--config", str(workspace / "run.txt"), "--data", str(data),
                      "--axis", "ablation", "--out", str(out / "study.csv")] + override,
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out / "report.txt")],
            "predict": ["predict", "--checkpoint", str(ckpt), "--window", str(window),
                        "--timestamps", str(window_ts), "--out", str(out / "f.txt")],
        }[command]
        assert main(argv) == 2
        named = window if command == "predict" else flows_path
        assert capsys.readouterr().err == (
            f"error: {named}: flows carry {have} channels but the model "
            f"expects channels={want}\n")
        assert not out.exists()


class TestEncode:
    def test_triangle_degrees(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("3 undirected\n0 1\n0 2\n1 2\n")
        assert main(["encode", "--graph", str(graph_file),
                     "--out", str(tmp_path / "enc")]) == 0
        rows = (tmp_path / "enc" / "degrees.csv").read_text().splitlines()
        assert rows[0] == "indegree,outdegree"
        assert rows[1:] == ["2,2", "2,2", "2,2"]

    def test_disconnected_pair_spd_sentinel(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("2 directed\n")
        assert main(["encode", "--graph", str(graph_file),
                     "--out", str(tmp_path / "enc")]) == 0
        body = (tmp_path / "enc" / "spd.csv").read_text().splitlines()
        assert body[0] == "0,1"
        assert body[1] == "0,-1"
        assert body[2] == "-1,0"

    def test_spd_csv_matches_matrix(self, workspace):
        data = workspace / "data"
        assert main(["encode", "--graph", str(data / "graph.txt"),
                     "--out", str(workspace / "enc")]) == 0
        g = load_graph(data / "graph.txt")
        spd = shortest_path_matrix(g)
        rows = (workspace / "enc" / "spd.csv").read_text().splitlines()[1:]
        parsed = np.array([[int(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(parsed, spd)

    def test_sa_bias_dump(self, workspace):
        out = train_run(workspace)
        data = workspace / "data"
        assert main(["encode", "--graph", str(data / "graph.txt"),
                     "--out", str(workspace / "enc"),
                     "--checkpoint", str(out / "model.ckpt")]) == 0
        rows = (workspace / "enc" / "sa_bias.csv").read_text().splitlines()
        assert rows[0] == "0,1,2,3,4,5"
        matrix = np.array([[float(v) for v in row.split(",")]
                           for row in rows[1:]])
        assert matrix.shape == (6, 6)
        model = load_model(out / "model.ckpt")
        table = model.spd_table.data
        g = load_graph(data / "graph.txt")
        spd = shortest_path_matrix(g)
        assert matrix[0, 0] == table[0]  # diagonal distance 0

    def test_graph_not_the_checkpoints_rejected(self, workspace, capsys):
        # unchecked, the checkpoint's bias table was written over the 9 x 9
        # distances of a graph that the model never sees
        ckpt = train_run(workspace) / "model.ckpt"
        graph_file = workspace / "nine.txt"
        graph_file.write_text("9 undirected\n0 1\n1 2\n")
        out = workspace / "enc"
        code = main(["encode", "--graph", str(graph_file), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: graph mismatch: checkpoint graph has 6 nodes, data has 9\n")
        assert not out.exists()


class TestStudy:
    def test_ablation_table(self, workspace):
        out = workspace / "ablation.csv"
        code = main(["study", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--axis", "ablation", "--out", str(out),
                     "--override", "train.max_epochs=1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,mae,rmse,mape,epochs,params"
        assert len(lines) == 6
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "full", "no_time_encoding", "no_degree_encoding",
            "no_spd_bias", "no_moe"]

    def test_block_order_table_deterministic(self, workspace):
        outs = []
        for name in ("bo1.csv", "bo2.csv"):
            out = workspace / name
            assert main(["study", "--config", str(workspace / "run.txt"),
                         "--data", str(workspace / "data"),
                         "--axis", "block_order", "--out", str(out),
                         "--override", "train.max_epochs=1"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "SSSTTT", "STSTST", "TTTSSS", "TSTSTS"]

    @pytest.mark.filterwarnings("error")
    def test_divergence_exit_code_names_the_variant(self, workspace, capsys):
        code = main(["study", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--axis", "ablation", "--out", str(workspace / "x.csv"),
                     "--override", "train.lr=1e150"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: study variant 'full' failed: non-finite")
        assert err.count("\n") == 1
        assert not (workspace / "x.csv").exists()

    def test_unknown_axis_is_usage_error(self, workspace, capsys):
        code = main(["study", "--config", str(workspace / "run.txt"),
                     "--data", str(workspace / "data"),
                     "--axis", "bogus", "--out", str(workspace / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCliPlumbing:
    def test_usage_error_exit_code(self, capsys):
        assert main(["train"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_command(self, capsys):
        assert main(["dance"]) == 1

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--threshold" in out
        assert "default: 0.0" in out
        assert "--split" in out

    def test_repeated_calls_leave_no_cyclic_garbage(self, tmp_path):
        # the parser is built once per process: a build leaves argparse's
        # parsers and the formatter of each argument as cyclic garbage, which
        # the collector would free at some point of a later command
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("3 undirected\n0 1\n0 2\n1 2\n")
        argv = ["encode", "--graph", str(graph_file), "--out", str(tmp_path / "enc")]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "stgormer.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_every_subcommand_has_help(self):
        for cmd in ("synth", "train", "eval", "predict", "encode", "study"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
