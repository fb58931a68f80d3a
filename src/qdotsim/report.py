"""Deterministic report serialization and seeded stream splitting.

Reports must be byte-identical across runs and platforms for a fixed
scenario and seed, so floats are printed with a fixed 17-significant-digit
format (which round-trips IEEE doubles exactly) and dictionary keys are
sorted. RNG streams are split per event index so that inserting an event
does not perturb the randomness of later events; each builds its generator
on first use; `first_uniforms` gives many streams' first draws at once.
"""
from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


def format_float(x: float) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot enter a report")
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed float formatting; returns one string
    ending in a newline when used at the top level via dumps_report. Leaves
    of an exact type take _LEAVES; subclasses and numpy scalars the chain."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    pad = " " * indent
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        items = [f"{pad}  {encode_basestring_ascii(key)}: "
                 f"{leaf(v) if (leaf := _LEAVES.get(type(v))) else canonical_json(v, indent + 2)}"
                 for key, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            # nonempty int lists: one row template per length, one % over every int
            inner = f"\n{pad}    "
            rows = {n: f"{pad}  [{inner}" + f",{inner}".join(["%d"] * n) + f"\n{pad}  ]"
                    for n in set(map(len, obj))}
            body = ",\n".join([rows[len(v)] for v in obj]) % tuple(chain.from_iterable(obj))
            return f"[\n{body}\n{pad}]"
        flat = encode_basestring_ascii if kinds == {str} else str if kinds == {int} else None
        items = [f"{pad}  {flat(v) if flat else canonical_json(v, indent + 2)}" for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


_LEAVES = {str: encode_basestring_ascii, float: format_float, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


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


_M32, _U32, _U64 = 0xFFFFFFFF, np.uint32, np.uint64
_PCG_HI, _PCG_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)  # LCG multiplier


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> tuple[int, ...]:
    """SeedSequence's running hash multiplier before each of n calls and after the last."""
    return tuple(init * pow(mult, i, 1 << 32) & _M32 for i in range(n + 1))


def _hashmix(value, consts):
    """SeedSequence's hashmix per row of a consts column (see _hash_consts)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _U32(16))


def _mix(x, y):
    value = _U32(0xCA01F9DD) * x - _U32(0x4973F715) * y
    return value ^ (value >> _U32(16))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2**128 on (hi, lo) uint64 halves."""
    half, low = _U64(32), _U64(_M32)
    a0, a1, b0, b1 = lo & low, lo >> half, _PCG_LO & low, _PCG_LO >> half
    m1 = a1 * b0 + ((a0 * b0) >> half)
    m2 = a0 * b1 + (m1 & low)
    hi = hi * _PCG_LO + lo * _PCG_HI + a1 * b1 + (m1 >> half) + (m2 >> half)
    lo = lo * _PCG_LO
    return hi + inc_hi + (lo + inc_lo < lo), lo + inc_lo


def first_uniforms(seed: int, shots: np.ndarray, index: int, k: int) -> np.ndarray:
    """The first k doubles of `np.random.default_rng([seed, shot, index])`
    (of `stream(seed, shot, index)`) for every shot in an int array, each in
    [0, 2**32), bit for bit and with no generator built: a (len(shots), k)
    array. A port of SeedSequence, PCG64 seeding and its XSL-RR output to
    arrays with one column per shot; every constant is a typed np.uint32 or
    np.uint64, so numpy 1.x and 2 compute the same bits."""
    shots = np.asarray(shots)
    if shots.size and not 0 <= shots.min() <= shots.max() < 2**32:
        raise ValueError("first_uniforms takes shots in [0, 2**32)")
    # one row per little-endian 32-bit entropy word; only the shot's varies
    seed_words, index_words = ([n >> s & _M32 for s in range(0, n.bit_length() or 1, 32)]
                               for n in (int(seed), int(index)))
    words = len(seed_words) + 1 + len(index_words)
    entropy = np.zeros((max(4, words), len(shots)), _U32)
    entropy[:words] = np.array([*seed_words, 0, *index_words], _U32)[:, None]
    entropy[len(seed_words)] = shots
    # hash four words into a pool, mix each into the others, then mix in the rest
    consts = np.array(_hash_consts(0x43B0D7E5, 0x931E8875, 4 * max(4, words)), _U32)[:, None]
    pool = _hashmix(entropy[:4], consts[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[4 + 3 * src:8 + 3 * src]))
    for row in range(4, words):
        pool = _mix(pool, _hashmix(entropy[row], consts[4 * row:4 * row + 5]))
    # generate_state(4, uint64); PCG64 seeding steps from 0, adds init, steps
    consts = np.array(_hash_consts(0x8B51F9DD, 0x58F38DED, 8), _U32)[:, None]
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], consts).astype(_U64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << _U64(32))
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    hi, lo = _pcg_step(inc_hi + init_hi + (inc_lo + init_lo < inc_lo), inc_lo + init_lo,
                       inc_hi, inc_lo)
    out = np.empty((len(shots), k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot, x = hi >> _U64(58), hi ^ lo  # XSL-RR, then the top 53 bits to [0, 1)
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        out[:, j] = (x >> _U64(11)) * 2.0**-53
    return out
