"""Deterministic report serialization and seeded stream splitting.

Reports must be byte-identical across runs and platforms for a fixed
scenario and seed, so floats are printed with a fixed 17-significant-digit
format (which round-trips IEEE doubles exactly) and dictionary keys are
sorted. RNG streams are split per event index so that inserting an event
does not perturb the randomness of later events. A lazy `stream` builds its
generator on first use; `first_uniforms` gives many streams' first draws at
once, bit for bit, so a multi-shot group's lowest shot reads its batch row.
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


def canonical_json(obj) -> str:
    """JSON with sorted keys, a two-space indent and fixed float formatting."""
    parts = []
    _write(obj, "", parts.append)
    return "".join(parts)


def dumps_report(obj) -> str:
    return canonical_json(obj) + "\n"


_LEAVES = {str: encode_basestring_ascii, float: format_float, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _write(obj, pad: str, emit) -> None:
    """Append obj's canonical JSON, indented by pad, to one buffer through emit. Leaves
    of exact type render inline; subclasses and numpy scalars take the isinstance chain."""
    kind = type(obj)
    if kind is not dict and kind is not list:  # an exact container is none of the leaves
        if kind in _LEAVES:
            return emit(_LEAVES[kind](obj))
        if isinstance(obj, (int, np.integer)):
            return emit(str(int(obj)))
        if isinstance(obj, (float, np.floating)):
            return emit(format_float(float(obj)))
        if isinstance(obj, str):
            return emit(encode_basestring_ascii(obj))
    inner = pad + "  "
    if isinstance(obj, dict):
        for key in obj:  # before sorting, so a key of the wrong type is the error raised
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        sep = "{\n"
        for key in sorted(obj):  # then one lookup per value: faster than sorting items
            kind, key = type(v := obj[key]), encode_basestring_ascii(key)
            if kind is float and math.isfinite(v):
                emit(f"{sep}{inner}{key}: {v:.17g}")
            elif kind in _LEAVES:  # format_float refuses a non-finite float
                emit(f"{sep}{inner}{key}: {_LEAVES[kind](v)}")
            else:
                emit(f"{sep}{inner}{key}: ")
                _write(v, inner, emit)
            sep = ",\n"
        return emit(f"\n{pad}}}" if obj else "{}")
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")
    kinds = set(map(type, obj))
    if kinds == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
        # nonempty int lists: one row template per length, one % over every int
        nl = f"\n{inner}  "
        rows = {n: f"{inner}[{nl}" + f",{nl}".join(["%d"] * n) + f"\n{inner}]"
                for n in set(map(len, obj))}
        body = ",\n".join([rows[len(v)] for v in obj]) % tuple(chain.from_iterable(obj))
        return emit(f"[\n{body}\n{pad}]")
    flat = encode_basestring_ascii if kinds == {str} else int.__repr__ if kinds == {int} else None
    if flat is not None:
        return emit(f"[\n{inner}" + f",\n{inner}".join(map(flat, obj)) + f"\n{pad}]")
    for i, v in enumerate(obj):
        emit(f",\n{inner}" if i else f"[\n{inner}")
        _write(v, inner, emit)
    emit(f"\n{pad}]" if obj else "[]")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Stream:
    """`np.random.default_rng(key)`, built on first use: `random(k)` draws
    its next k doubles."""

    __slots__ = ("_key", "_rng")

    def __init__(self, key: list[int]):
        self._key, self._rng = key, None

    @property
    def built(self) -> bool:
        return self._rng is not None

    def random(self, k: int) -> np.ndarray:
        if self._rng is None:
            self._rng = np.random.default_rng(self._key)
        return self._rng.random(k)


def stream(seed: int, *path: int) -> _Stream:
    """Independent, reproducible stream for (seed, index, ...), its generator
    built lazily: the same bits as `default_rng([seed, *path])`."""
    return _Stream([int(seed), *[int(p) for p in path]])


_M32, _U32, _U64 = 0xFFFFFFFF, np.uint32, np.uint64
_PCG_HI, _PCG_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)  # LCG multiplier
_S16, _S32, _LOW32, _MX, _MY = _U32(16), _U64(32), _U64(_M32), _U32(0xCA01F9DD), _U32(0x4973F715)
_LO_0, _LO_1 = _PCG_LO & _LOW32, _PCG_LO >> _S32  # the multiplier's low half in 32-bit limbs


@lru_cache(maxsize=None)
def _mix_consts(words: int) -> list[np.ndarray]:
    """Read-only typed (xor, multiplier) columns of SeedSequence's hash for first_uniforms on
    `words` words: the pool's four calls, each round's four (its source row takes a spare one,
    its result dropped), each later word's four; last, generate_state's eight as (2, 4, 1)."""
    def columns(init: int, mult: int, calls) -> np.ndarray:
        consts = [init * pow(mult, i, 1 << 32) & _M32 for i in range(max(calls) + 2)]
        pairs = np.array([[consts[i + j] for i in calls] for j in (0, 1)], _U32)[:, :, None]
        pairs.flags.writeable = False
        return pairs
    rounds = ([4 + 3 * src + min(d - (d > src), 2) for d in range(4)] for src in range(4))
    later = (range(4 * row, 4 * row + 4) for row in range(4, words))
    return [*(columns(0x43B0D7E5, 0x931E8875, calls) for calls in (range(4), *rounds, *later)),
            columns(0x8B51F9DD, 0x58F38DED, range(8)).reshape(2, 2, 4, 1)]


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of value per row of the (xor, mult) columns."""
    value = (value ^ xor) * mult
    return value ^ (value >> _S16)


def _mix(x, y):
    value = _MX * x - _MY * y
    return value ^ (value >> _S16)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2**128 on (hi, lo) uint64 halves."""
    a0, a1 = lo & _LOW32, lo >> _S32
    m1 = a1 * _LO_0 + ((a0 * _LO_0) >> _S32)
    m2 = a0 * _LO_1 + (m1 & _LOW32)
    hi = hi * _PCG_LO + lo * _PCG_HI + a1 * _LO_1 + (m1 >> _S32) + (m2 >> _S32)
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


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
    # hash four words into a pool; each round mixes one row into the other three
    # (all four are mixed, then the source row is put back); then mix in the rest
    first, *rounds, state_consts = _mix_consts(max(4, words))
    pool = _hashmix(entropy[:4], *first)
    for src, consts in enumerate(rounds[:4]):
        pool, pool[src] = _mix(pool, _hashmix(pool[src], *consts)), pool[src]
    for row, consts in zip(entropy[4:], rounds[4:]):
        pool = _mix(pool, _hashmix(row, *consts))
    # generate_state(4, uint64); PCG64 seeding steps from 0, adds init, steps
    state = _hashmix(pool, *state_consts).reshape(8, -1).astype(_U64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << _S32)
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
