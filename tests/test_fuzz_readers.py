"""Fuzz the graph, flow and timestamp readers, the key=value files
(``synth --spec``, ``train --config``) and ``train --override`` values
through ``stgormer.cli.main``.

Each generated file is either a valid serialization in some spelling (which
must parse to exactly the generated values and give the same output as the
canonical file), a valid file with bytes replaced, inserted or deleted, or
arbitrary text. Whatever the file, ``main`` returns 0 or 2; on 2 its message
is the reader's own format error or one of the documented cross-checks, and
no other exception escapes.
"""
import contextlib
import dataclasses
import io
import re
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stgormer import kv
from stgormer.cli import RUN_KEYS, load_run_config, load_synth_spec, main
from stgormer.data import (FlowFormatError, Normalizer, SyntheticSpec, load_flows,
                           load_timestamps, save_timestamps, step_timestamps,
                           write_flow_tensor)
from stgormer.graph import GraphFormatError, SpatioTemporalGraph, load_graph, save_graph
from stgormer.model import StgormerConfig, build, load_model, save_model
from stgormer.train import TrainConfig

NODES = 4
GRAPH = SpatioTemporalGraph.from_edge_list(NODES, [(0, 1), (1, 2), (3, 2)], directed=True)
CONFIG = StgormerConfig(hidden_dim=4, heads=1, block_order="ST", experts=2,
                        expert_expansion=1, time_dim=2, degree_dim=2, max_degree=4,
                        max_spd=3, input_len=3, horizon=1, seed=4)
STEPS = 30  # 6 test-split steps: 3 windows to evaluate

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A checkpoint on GRAPH, a data directory for it and one input window."""
    root = tmp_path_factory.mktemp("fuzz")
    model = build(CONFIG, GRAPH)
    model.normalizer = Normalizer(mean=np.array([5.0]), std=np.array([2.0]))
    save_model(model, root / "model.ckpt")
    rng = np.random.default_rng(1)
    flows = rng.uniform(0.0, 10.0, size=(STEPS, NODES, 1))
    data = root / "data"
    data.mkdir()
    save_graph(GRAPH, data / "graph.txt")
    write_flow_tensor(data / "flows.txt", flows)
    save_timestamps(data / "timestamps.txt", step_timestamps(STEPS, 8))
    assert run(["eval", "--checkpoint", str(root / "model.ckpt"), "--data", str(data),
                "--out", str(root / "report.txt")]) == (0, "")
    write_flow_tensor(root / "window.txt", flows[:CONFIG.input_len])
    save_timestamps(root / "window_ts.txt", step_timestamps(CONFIG.input_len, 8))
    return {"root": root, "model": model, "data": data,
            "report": (root / "report.txt").read_bytes()}


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def predict_argv(root, window, timestamps):
    return ["predict", "--checkpoint", str(root / "model.ckpt"), "--window", str(window),
            "--timestamps", str(timestamps), "--out", str(root / "forecast.txt")]


def error_line(message: str) -> str:
    return "error: " + " ".join(message.split()) + "\n"


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes replaced, inserted or deleted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.one_of(st.sampled_from(b"0123456789 ,.-e\n#"), st.integers(0, 255)))
        if op == "insert" or not data:
            data.insert(pos, byte)
        elif op == "replace":
            data[min(pos, len(data) - 1)] = byte
        else:
            del data[min(pos, len(data) - 1)]
    return bytes(data)


def files(valid: st.SearchStrategy, alphabet: str) -> st.SearchStrategy:
    """(bytes, the values it spells or None): valid, mutated or arbitrary."""
    return st.one_of(
        valid,
        valid.flatmap(lambda v: mutated(v[0]).map(lambda b: (b, None))),
        st.text(alphabet, max_size=60).map(lambda t: (t.encode(), None)))


# -- graph files, read by eval --------------------------------------------------------

@st.composite
def graph_files(draw):
    """A graph file in some valid spelling: comments, blank lines, edge order
    and, when undirected, either orientation of each edge."""
    if draw(st.booleans()):
        graph = GRAPH
    else:
        n = draw(st.integers(1, 6))
        directed = draw(st.booleans())
        arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                            .filter(lambda a: a[0] != a[1]), max_size=8))
        if not directed:
            arcs = {(min(a), max(a)) for a in arcs}
        graph = SpatioTemporalGraph.from_edge_list(n, arcs, directed=directed)
    pairs = list(graph.edges) if graph.directed else graph.undirected_edges()
    pairs = draw(st.permutations(pairs))
    lines = [f"{graph.num_nodes} {'directed' if graph.directed else 'undirected'}"]
    for u, v in pairs:
        if not graph.directed and draw(st.booleans()):
            u, v = v, u
        lines.append(f"{u} {v}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(("", "# a comment", "   "))))
    return "\n".join(lines).encode() + b"\n", graph


GRAPH_MESSAGES = re.compile(r"graph mismatch: .*|header says \d+ nodes but graph has \d+")


@FUZZ
@given(case=files(graph_files(), "0123456789 \n#-directedunx"))
def test_graph_reader_through_eval(bench, case):
    content, spelled = case
    data = bench["data"]
    (data / "graph.txt").write_bytes(content)
    report = bench["root"] / "fuzz_report.txt"
    report.unlink(missing_ok=True)
    code, err = run(["eval", "--checkpoint", str(bench["root"] / "model.ckpt"),
                     "--data", str(data), "--out", str(report)])
    try:
        graph = load_graph(data / "graph.txt")
    except GraphFormatError as exc:
        assert (code, err) == (2, error_line(str(exc)))
        assert spelled is None
        return
    finally:
        save_graph(GRAPH, data / "graph.txt")
    if spelled is not None:
        assert graph == spelled
    if graph == GRAPH:
        assert code == 0 and report.read_bytes() == bench["report"]
    else:
        assert code == 2 and GRAPH_MESSAGES.fullmatch(err[len("error: "):-1]), err
        assert not report.exists()


# -- flow windows and timestamps, read by predict ---------------------------------------

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def window_files(draw):
    steps = draw(st.sampled_from((CONFIG.input_len, CONFIG.input_len, 1, 5)))
    values = np.array(draw(st.lists(finite, min_size=steps * NODES,
                                    max_size=steps * NODES))).reshape(steps, NODES, 1)
    buf = io.StringIO()
    buf.write(f"{steps} {NODES} 1\n")
    for row in values.reshape(-1, 1):
        buf.write(draw(st.sampled_from(("", "\n"))) + repr(float(row[0])) + "\n")
    return buf.getvalue().encode(), values


@st.composite
def timestamp_files(draw):
    rows = draw(st.sampled_from((CONFIG.input_len, CONFIG.input_len, 2)))
    features = draw(st.sampled_from((2, 2, 1)))
    values = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=rows * features, max_size=rows * features)))
    values = values.reshape(rows, features)
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
    return text.encode(), values


PREDICT_MESSAGES = re.compile(
    r"timestamps carry \d+ steps but flows carry \d+"
    r"|window carries \d+ steps but the model expects input_len=\d+"
    r"|.+: timestamps carry \d+ features per step but the model expects "
    r"temporal_features=\d+")


def check_predict(bench, window, timestamps, spelled_window=None) -> bool:
    """Run predict on the two files; True when it wrote a forecast, which
    must then be the API's forecast of what the readers parsed."""
    root, model = bench["root"], bench["model"]
    forecast = root / "forecast.txt"
    forecast.unlink(missing_ok=True)
    code, err = run(predict_argv(root, window, timestamps))
    try:
        ts = load_timestamps(timestamps)
        parsed = load_flows(window, model.graph, ts)
    except FlowFormatError as exc:
        assert (code, err) == (2, error_line(str(exc)))
        return False
    if spelled_window is not None:
        assert parsed.flows.tobytes() == spelled_window.tobytes()
    if code == 2:
        assert PREDICT_MESSAGES.fullmatch(err[len("error: "):-1]), err
        assert not forecast.exists()
        return False
    assert code == 0, err
    expected = root / "expected.txt"
    write_flow_tensor(expected, model.predict(parsed.flows, parsed.timestamps))
    assert forecast.read_bytes() == expected.read_bytes()
    return True


@FUZZ
@given(case=files(window_files(), "0123456789 ,.-e\nnaif"))
def test_flow_reader_through_predict(bench, case):
    content, spelled = case
    window = bench["root"] / "fuzz_window.txt"
    window.write_bytes(content)
    wrote = check_predict(bench, window, bench["root"] / "window_ts.txt", spelled)
    if spelled is not None:
        assert wrote == (spelled.shape[0] == CONFIG.input_len)


@FUZZ
@given(case=files(timestamp_files(), "0123456789 ,.-e\nnaif"))
def test_timestamp_reader_through_predict(bench, case):
    content, spelled = case
    timestamps = bench["root"] / "fuzz_ts.txt"
    timestamps.write_bytes(content)
    if spelled is not None:
        assert load_timestamps(timestamps).tobytes() == spelled.tobytes()
    wrote = check_predict(bench, bench["root"] / "window.txt", timestamps)
    if spelled is not None:
        assert wrote == (spelled.shape == (CONFIG.input_len, CONFIG.temporal_features))


# -- checkpoints with one byte changed under a valid checksum ---------------------------

@settings(FUZZ, max_examples=80)
@given(data=st.data())
def test_resealed_checkpoint_through_predict_and_eval(bench, data):
    # the checkpoint is refused as corrupt, or predict and eval either write
    # finite output or refuse with exit 3 and write nothing
    body = (bench["root"] / "model.ckpt").read_bytes()[:-4]
    payload = body.index(b"\n[data]\n") + len(b"\n[data]\n")
    # a byte of the text sections (after the magic line) or of the payload
    lo, hi = data.draw(st.sampled_from([(body.index(b"\n") + 1, payload), (payload, len(body))]))
    at = data.draw(st.integers(lo, hi - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != body[at]))
    root = bench["root"] / "resealed"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    body = body[:at] + bytes([byte]) + body[at + 1:]
    (root / "model.ckpt").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    try:
        model = load_model(root / "model.ckpt")
    except ValueError as exc:
        assert str(exc).startswith("corrupt checkpoint: "), exc
        return
    # inputs on the graph the checkpoint now holds, which may have other nodes or edges
    flows = np.random.default_rng(1).uniform(0.0, 10.0, size=(STEPS, model.graph.num_nodes, 1))
    save_graph(model.graph, root / "graph.txt")
    write_flow_tensor(root / "flows.txt", flows)
    save_timestamps(root / "timestamps.txt", step_timestamps(STEPS, 8))
    write_flow_tensor(root / "window.txt", flows[:CONFIG.input_len])
    save_timestamps(root / "window_ts.txt", step_timestamps(CONFIG.input_len, 8))
    for argv, out in ((predict_argv(root, root / "window.txt", root / "window_ts.txt"),
                       root / "forecast.txt"),
                      (["eval", "--checkpoint", str(root / "model.ckpt"), "--data", str(root),
                        "--out", str(root / "report.txt")], root / "report.txt")):
        code, err = run(argv)
        assert code in (0, 3), err
        assert out.exists() == (code == 0)
        if code == 0:
            values = (np.loadtxt(out, delimiter=",", skiprows=1) if out.name == "forecast.txt"
                      else [float(kv.read_file(out)[k]) for k in ("mae", "rmse", "mape")])
            assert np.isfinite(values).all()


# -- key=value files: synth --spec and train --config -------------------------------

KV_ALPHABET = "abcdeghilmnoprstuwy._=#0123456789 ,-+\n"
SHORT_STEPS = 3  # too short for the 7:1:2 split, so train stops before any model


@pytest.fixture(scope="module")
def kv_root(tmp_path_factory):
    """A scratch directory with a data directory of SHORT_STEPS steps."""
    root = tmp_path_factory.mktemp("fuzz_kv")
    short = root / "short"
    short.mkdir()
    save_graph(GRAPH, short / "graph.txt")
    write_flow_tensor(short / "flows.txt", np.ones((SHORT_STEPS, NODES, 1)))
    save_timestamps(short / "timestamps.txt", step_timestamps(SHORT_STEPS, 8))
    return root


def spell(draw, value) -> str:
    """``value`` in one of the spellings the codec reads back exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return draw(st.sampled_from((str(value), f"+{value}", f"0{value}")))
    if isinstance(value, float):
        return draw(st.sampled_from((repr(value), f"{value:.17e}", f"{value:.17g}")))
    if isinstance(value, tuple):
        sep = draw(st.sampled_from((",", ", ")))
        return sep.join(spell(draw, v) for v in value)
    return value


@st.composite
def kv_text(draw, values: dict) -> bytes:
    """``values`` as a key=value file: any key order, padding around keys,
    '=' and values, comments and blank lines."""
    lines = []
    for key in draw(st.permutations(sorted(values))):
        pad = draw(st.sampled_from(("", " ", "\t")))
        lines.append(f"{pad}{key}{pad}={pad}{spell(draw, values[key])}{pad}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(("", "# a comment", "  # key=value"))))
    return "\n".join(lines).encode() + b"\n"


def ordered(lo: float, hi: float) -> st.SearchStrategy:
    bound = st.floats(lo, hi)
    return st.tuples(bound, bound).map(lambda pair: tuple(sorted(pair)))


def some_of(draw, fields: dict, coupled: set, always: set = frozenset()) -> dict:
    """Values for a drawn subset of ``fields`` that holds the ``always`` keys;
    the ``coupled`` keys, which are only valid together, are written all or none."""
    keys = draw(st.sets(st.sampled_from(sorted(fields)))) | always
    if keys & coupled:
        keys |= coupled
    return {key: draw(fields[key]) for key in keys}


@st.composite
def synth_spec_files(draw):
    """A valid synthetic spec that always bounds its size: few nodes and steps."""
    daily = draw(st.integers(1, 8))
    fields = {
        "num_nodes": st.integers(1, 4), "edge_prob": st.floats(0.0, 1.0),
        "seed": st.integers(0, 2 ** 32), "daily_period": st.just(daily),
        "weekly_period": st.integers(1, 4).map(lambda k: k * daily),
        "total_steps": st.integers(1, 40), "channels": st.integers(1, 2),
        "base_flow": st.floats(-100.0, 100.0), "amplitude_range": ordered(-10.0, 10.0),
        "phase_range": ordered(-10.0, 10.0), "weekly_amplitude_range": ordered(-1.0, 1.0),
        "diffusion_rounds": st.integers(0, 2), "noise_std": st.floats(0.0, 2.0),
    }
    values = some_of(draw, fields, {"daily_period", "weekly_period"},
                     {"num_nodes", "total_steps"})
    return draw(kv_text(values)), dataclasses.replace(SyntheticSpec(), **values)


@FUZZ
@given(case=files(synth_spec_files(), KV_ALPHABET))
def test_spec_through_synth(kv_root, case):
    content, spelled = case
    spec_path, out = kv_root / "spec.txt", kv_root / "synth"
    spec_path.write_bytes(content)
    shutil.rmtree(out, ignore_errors=True)
    argv = ["synth", "--spec", str(spec_path), "--out", str(out)]
    try:
        spec = load_synth_spec(spec_path)
    except ValueError as exc:
        assert spelled is None
        assert run(argv) == (2, error_line(str(exc)))
        assert not out.exists()
        return
    # a damaged digit can ask for a large dataset; that costs time, not coverage
    assume(spec.num_nodes <= 64 and spec.diffusion_rounds <= 8
           and spec.num_nodes * spec.total_steps * spec.channels <= 50_000)
    assert run(argv) == (0, "")
    expected = spec if spelled is None else spelled
    assert spec == expected
    assert kv.read_file(out / "synth-spec.txt") == {
        name: kv.encode(value) for name, value in dataclasses.asdict(expected).items()}
    assert np.isfinite(load_flows(out / "flows.txt", load_graph(out / "graph.txt"),
                                  load_timestamps(out / "timestamps.txt")).flows).all()


@st.composite
def run_config_values(draw):
    """Values for a drawn subset of the run keys that make a valid run config
    with the data's two timestamp features, and every key's resolved value."""
    heads = draw(st.integers(1, 4))
    fields = {
        "model.hidden_dim": st.integers(1, 8).map(lambda k: k * heads),
        "model.heads": st.just(heads), "model.block_order": st.text("ST", min_size=1,
                                                                    max_size=6),
        "model.experts": st.integers(1, 8), "model.expert_expansion": st.integers(1, 4),
        "model.time_dim": st.integers(1, 8), "model.temporal_features": st.just(2),
        "model.degree_dim": st.integers(1, 8), "model.max_degree": st.integers(0, 20),
        "model.max_spd": st.integers(0, 10), "model.alpha": st.floats(0.0, 1.0),
        "model.input_len": st.integers(1, 12), "model.horizon": st.integers(1, 4),
        "model.channels": st.integers(1, 3), "model.use_time_encoding": st.booleans(),
        "model.use_degree_encoding": st.booleans(), "model.use_spd_bias": st.booleans(),
        "model.use_moe": st.booleans(), "model.seed": st.integers(0, 2 ** 32),
        "train.batch_size": st.integers(1, 64), "train.max_epochs": st.integers(1, 500),
        "train.patience": st.integers(1, 50), "train.seed": st.integers(0, 2 ** 32),
        "train.lr": st.floats(0.0, 1.0),
        "train.lr_decay_factor": st.floats(0.0, 1.0, exclude_min=True),
        "train.lr_decay_every": st.integers(1, 50), "train.lr_floor": st.floats(0.0, 1.0),
        "data.threshold": st.floats(-1e6, 1e6),
    }
    assert set(fields) == set(RUN_KEYS)
    values = some_of(draw, fields, {"model.hidden_dim", "model.heads"})
    mcfg = dataclasses.replace(StgormerConfig(), **{
        k.partition(".")[2]: v for k, v in values.items() if k.startswith("model.")})
    tcfg = dataclasses.replace(TrainConfig(), **{
        k.partition(".")[2]: v for k, v in values.items() if not k.startswith("model.")})
    resolved = {k: kv.encode(getattr(mcfg if k.startswith("model.") else tcfg,
                                     k.partition(".")[2])) for k in RUN_KEYS}
    return values, resolved


@st.composite
def run_config_files(draw):
    """A valid run config file and every key's resolved value."""
    values, resolved = draw(run_config_values())
    return draw(kv_text(values)), resolved


def check_train(kv_root, argv: list[str], config, overrides: list[str], spelled) -> None:
    """``train`` on the short data directory with ``argv`` added, against
    ``load_run_config(config, overrides)``: its error, else the data checks,
    else a manifest holding exactly the resolved run keys, which are
    ``spelled`` when the values were spelled validly. No run trains: the
    data is too short to split."""
    out, short = kv_root / "train", kv_root / "short"
    shutil.rmtree(out, ignore_errors=True)
    code, err = run(["train", "--data", str(short), "--out", str(out)] + argv)
    try:
        mcfg, _, resolved = load_run_config(config, overrides)
    except ValueError as exc:
        assert spelled is None
        assert (code, err) == (2, error_line(str(exc)))
        assert not out.exists()
        return
    if mcfg.channels != 1:
        assert (code, err) == (2, error_line(
            f"{short / 'flows.txt'}: flows carry 1 channels but the model "
            f"expects channels={mcfg.channels}"))
        assert not out.exists()
        return
    if mcfg.temporal_features != 2:
        assert (code, err) == (2, error_line(
            f"{short / 'timestamps.txt'}: timestamps carry 2 features per step but "
            f"the model expects temporal_features={mcfg.temporal_features}"))
        assert not out.exists()
        return
    assert (code, err) == (2, error_line(
        f"dataset with {SHORT_STEPS} steps is too short for a (7, 1, 2) split"))
    manifest = kv.read_file(out / "manifest.txt")
    assert {k: manifest[k] for k in RUN_KEYS} == (resolved if spelled is None else spelled)
    if spelled is not None:
        assert resolved == spelled


@FUZZ
@given(case=files(run_config_files(), KV_ALPHABET))
def test_run_config_through_train(kv_root, case):
    content, spelled = case
    config = kv_root / "run.txt"
    config.write_bytes(content)
    check_train(kv_root, ["--config", str(config)], config, [], spelled)


@st.composite
def override_args(draw):
    """``--override`` values for a valid run config: each key dotted or, when
    its field name names only that key, bare; padding around key, '=' and value."""
    values, resolved = draw(run_config_values())
    args = []
    for key in draw(st.permutations(sorted(values))):
        name = key.partition(".")[2]
        bare = [k for k in RUN_KEYS if k.partition(".")[2] == name] == [key]
        spelled_key = name if bare and draw(st.booleans()) else key
        pad = draw(st.sampled_from(("", " ", "\t")))
        args.append(f"{pad}{spelled_key}{pad}={pad}{spell(draw, values[key])}{pad}")
    return args, resolved


def overrides(valid: st.SearchStrategy) -> st.SearchStrategy:
    """(override values, what they spell or None): valid, one of them with a
    few bytes replaced, inserted or deleted, or arbitrary text."""

    @st.composite
    def damaged(draw):
        args, _ = draw(valid)
        args = args or [""]
        i = draw(st.integers(0, len(args) - 1))
        args[i] = draw(mutated(args[i].encode())).decode("latin-1")
        return args, None

    arbitrary = st.lists(st.text(KV_ALPHABET.replace("\n", ""), max_size=30),
                         min_size=1, max_size=3)
    return st.one_of(valid, damaged(), arbitrary.map(lambda args: (args, None)))


@FUZZ
@given(case=overrides(override_args()))
def test_overrides_through_train(kv_root, case):
    args, spelled = case
    check_train(kv_root, [f"--override={arg}" for arg in args], None, args, spelled)
