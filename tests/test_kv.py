import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgormer import kv
from stgormer.data import SyntheticSpec
from stgormer.model import StgormerConfig
from stgormer.train import TrainConfig

FIELDS = [(cls, f.name) for cls in (StgormerConfig, TrainConfig, SyntheticSpec)
          for f in dataclasses.fields(cls)]

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def values_like(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2 ** 63, 2 ** 63)
    if isinstance(default, float):
        return FINITE
    if isinstance(default, tuple):
        return st.tuples(*[FINITE] * len(default))
    return st.text()


@pytest.mark.parametrize("cls,name", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_decode_inverts_encode_for_every_field(cls, name, data):
    default = getattr(cls(), name)
    value = data.draw(values_like(default))
    decoded = kv.decode(default, kv.encode(value))
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize("default,raw,message", [
    (0.5, "nan", "expected a finite number"),
    (0.5, "-inf", "expected a finite number"),
    ((1.0, 2.0), "1.0,inf", "expected a finite number"),
    ((1.0, 2.0), "NaN,2.0", "expected a finite number"),
    ((1.0, 2.0), "1.0,2.0,3.0", "expected 2 comma-separated numbers"),
    (False, "1", "expected true or false"),
    (3, "1.5", "invalid literal"),
])
def test_decode_rejects(default, raw, message):
    with pytest.raises(ValueError, match=message):
        kv.decode(default, raw)


def test_overlay_collects_every_error():
    errors = []
    spec = kv.overlay(SyntheticSpec(),
                      {"num_nodes": "x", "noise_std": "nan", "wheels": "4", "seed": "9"},
                      errors, "spec.")
    assert spec == dataclasses.replace(SyntheticSpec(), seed=9)
    assert len(errors) == 3
    for key in ("spec.num_nodes", "spec.noise_std", "spec.wheels"):
        assert any(repr(key) in e for e in errors)


def test_read_file_skips_comments_and_rejects_duplicates(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("# note\n\n a = 1 \nb=x=y\n")
    assert kv.read_file(path) == {"a": "1", "b": "x=y"}
    path.write_text("a=1\na=2\n")
    with pytest.raises(ValueError, match="line 2: duplicate key 'a'"):
        kv.read_file(path)
