"""The one key=value codec: configs, overrides, specs, manifests, reports, checkpoints.

A value is always read into the type of its field's default: ``true``/``false``
for booleans, decimal integers, finite floats in full-precision ``repr``,
comma-joined finite floats for fixed-length tuples, and plain text otherwise.
"""
from __future__ import annotations

import dataclasses
import math


def read_lines(path, error: type[ValueError] = ValueError) -> list[str]:
    """A text file's lines; a file that is not UTF-8 raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def read_file(path) -> dict[str, str]:
    """Flat key=value document; '#' comments and blank lines ignored."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in items:
            raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
        items[key] = value.strip()
    return items


def encode(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def dump(items: dict) -> str:
    """``key=value`` lines in ``items``' order, each value through :func:`encode`."""
    return "".join(f"{key}={encode(value)}\n" for key, value in items.items())


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def decode(default, raw: str):
    """Parse ``raw`` into the type of ``default``; ValueError says what was expected."""
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ValueError(f"expected true or false, got {raw!r}")
        return raw == "true"
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return _finite(raw)
    if isinstance(default, tuple):
        parts = tuple(_finite(p) for p in raw.split(","))
        if len(parts) != len(default):
            raise ValueError(f"expected {len(default)} comma-separated numbers")
        return parts
    return raw


def overlay(defaults, items: dict[str, str], errors: list[str], prefix: str = ""):
    """Copy of the dataclass ``defaults`` with each ``field=value`` item decoded onto it.

    Every unknown field and bad value is appended to ``errors`` as
    ``prefix + field`` and skipped, so callers can report them all at once.
    """
    kwargs = {}
    names = {f.name for f in dataclasses.fields(defaults)}
    for name, raw in items.items():
        if name not in names:
            errors.append(f"unknown key {prefix + name!r}")
            continue
        try:
            kwargs[name] = decode(getattr(defaults, name), raw)
        except ValueError as exc:
            errors.append(f"bad value for {prefix + name!r}: {exc}")
    return dataclasses.replace(defaults, **kwargs)
