"""Deterministic report serialization and seeded stream splitting.

Reports must be byte-identical across runs and platforms for a fixed
scenario and seed, so floats are printed with a fixed 17-significant-digit
format (which round-trips IEEE doubles exactly) and dictionary keys are
sorted. RNG streams are split per event index so that inserting an event
does not perturb the randomness of later events; each builds its generator
on first use.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def format_float(x: float) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot enter a report")
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed float formatting; returns one string
    ending in a newline when used at the top level via dumps_report."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 2) for v in obj]
        inner = ",\n".join(f"{pad}  {it}" for it in items)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            items.append(
                f"{pad}  {json.dumps(key)}: {canonical_json(obj[key], indent + 2)}"
            )
        inner = ",\n".join(items)
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj) -> str:
    return canonical_json(obj) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Stream:
    """`np.random.default_rng(key)`, built on first use; every public
    attribute but `built` and `generator` is the generator's."""

    __slots__ = ("_key", "_rng")

    def __init__(self, key: list[int]):
        self._key, self._rng = key, None

    @property
    def built(self) -> bool:
        return self._rng is not None

    def generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self._key)
        return self._rng

    def __getattr__(self, name):
        if name.startswith("_"):  # e.g. copy's probes, and slots not yet set
            raise AttributeError(name)
        return getattr(self.generator(), name)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible generator for (seed, index, ...), built
    lazily: the same bits as `default_rng([seed, *path])`."""
    return _Stream([int(seed), *[int(p) for p in path]])
