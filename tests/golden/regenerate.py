"""Regenerate the golden smoke fixtures in this directory.

Usage: python3 tests/golden/regenerate.py

Produces a tiny synthetic dataset, the SHA-256 of a two-epoch checkpoint
trained on it, and the evaluation report of that checkpoint.  The test suite
retrains the checkpoint, compares its hash, and compares the report
byte-for-byte; the checkpoint itself is not kept.  Rerun only when the
pipeline's numerical behavior intentionally changes, and commit the results.
"""
import hashlib
import pathlib
import shutil
import sys
import tempfile

from stgormer.cli import main

HERE = pathlib.Path(__file__).parent

SYNTH_SPEC = """\
num_nodes=5
edge_prob=0.45
seed=2024
daily_period=8
weekly_period=56
total_steps=120
noise_std=0.05
"""

RUN_CONFIG = """\
model.hidden_dim=8
model.heads=2
model.block_order=ST
model.experts=2
model.expert_expansion=2
model.time_dim=3
model.degree_dim=4
model.input_len=6
model.horizon=1
model.seed=12
train.batch_size=16
train.max_epochs=2
train.patience=5
train.seed=12
data.threshold=0.0
"""


def regenerate() -> None:
    (HERE / "synth-spec.txt").write_text(SYNTH_SPEC)
    (HERE / "run.txt").write_text(RUN_CONFIG)
    data_dir = HERE / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    assert main(["synth", "--spec", str(HERE / "synth-spec.txt"),
                 "--out", str(data_dir)]) == 0
    # the manifest and history carry timestamps; only the checkpoint's hash
    # and the report are golden artifacts
    with tempfile.TemporaryDirectory() as run_dir:
        ckpt = pathlib.Path(run_dir) / "model.ckpt"
        assert main(["train", "--config", str(HERE / "run.txt"),
                     "--data", str(data_dir), "--out", run_dir]) == 0
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        (HERE / "model.ckpt.sha256").write_text(digest + "\n")
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(data_dir), "--split", "test",
                     "--threshold", "0.0",
                     "--out", str(HERE / "report.txt")]) == 0
    print(f"golden fixtures regenerated under {HERE}")


if __name__ == "__main__":
    sys.exit(regenerate())
