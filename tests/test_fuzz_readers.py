"""Fuzz the graph, flow and timestamp readers through ``stgormer.cli.main``.

Each generated file is either a valid serialization in some spelling (which
must parse to exactly the generated values and give the same output as the
canonical file), a valid file with bytes replaced, inserted or deleted, or
arbitrary text. Whatever the file, ``main`` returns 0 or 2; on 2 its message
is the reader's own format error or one of the documented cross-checks, and
no other exception escapes.
"""
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgormer.cli import main
from stgormer.data import (FlowFormatError, Normalizer, load_flows, load_timestamps,
                           save_timestamps, step_timestamps, write_flow_tensor)
from stgormer.graph import GraphFormatError, SpatioTemporalGraph, load_graph, save_graph
from stgormer.model import StgormerConfig, build, save_model

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
    r"|timestamps shape \(1, \d+, \d+\) != expected \(1, \d+, \d+\)")


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
