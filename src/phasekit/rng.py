"""Seed derivation for reproducible, scheduling-independent experiments.

Every randomized trial gets its own 64-bit seed derived from the master
seed and the trial's identity, so results do not depend on execution
order or on how trials are grouped.  The derivation rule is fixed:

    state = master_seed
    for each part:                      # strings hashed with FNV-1a 64
        state = splitmix64(state XOR as_u64(part))

splitmix64 is the finalizer from Steele/Lea/Flood (2014); it is a
bijection on 64-bit integers, so distinct inputs never collide for a
single absorption step.  Generators are numpy PCG64 instances, whose
bit stream is fixed by numpy's stream-compatibility guarantee (NEP 19).

The mixing runs on uint64 arrays, so a whole block of trial indices is
absorbed in one pass; scalar seeds are the one-element case.

stream_keys(seeds) lays out the streams of its seeds, and uniform_rows draws
them.  stream_keys replays SeedSequence(seed) -> PCG64 seeding on uint32
arrays: the hashmix/mix of its 4-word pool, then generate_state(4, uint64)
and PCG64's srandom.  A seed below 2**32 is one entropy word, and its
missing high word hashes exactly as the pool's zero pad, so one formula
serves every seed.  The result is one (5, T) uint64 array: row 0 holds the
seeds, rows 1-4 the (hi, lo) halves of each seed's replayed state and inc.
It relies on NEP 19 keeping the seeding and the stream of
np.random.PCG64(seed) fixed.  The replay costs about 0.1 ms per call from
1 to a few hundred seeds (timeit), so a caller that draws many blocks
replays a chunk of seeds once and hands uniform_rows each block's columns
(experiments seeds a chunk of up to 8192 trials this way).

uniform_rows(streams, k) draws k doubles per column on one of two paths:

* for k <= CLOSED_FORM_MAX_WORDS, the closed form.  The j-th state of
  each stream is A_j * s + C_j * inc mod 2**128 (constants built once at
  import with Python ints), multiplied through 32-bit limbs on uint64 and
  turned into output words by PCG64's XSL-RR step.  uniform_rows and the
  first-use check call _to_double(_closed_form_raw(streams, k)) directly;
* for every longer stream, the replayed state.  One np.random.PCG64 is set
  to each (state, inc) in turn through one reused state dict, and
  np.random.Generator.random writes that row's doubles straight into the
  (T, k) result.  This saves building one SeedSequence per seed.

Once the first-use check has failed, stream_keys returns row 0 alone, and
every call reads np.random.PCG64(seed).random_raw(k) seed by seed from row
0.  This plain loop is also the test oracle.

uniform_rows keeps no memory budget of its own: it draws all T rows in one
pass, and _draw_words(k) states what one row holds at the peak, so the
caller sizes T from that (experiments._block_rows does).

The first call checks one closed-form stream of CLOSED_FORM_MAX_WORDS
words and one replayed-state stream of CLOSED_FORM_MAX_WORDS + 1 words
against np.random.PCG64; should a numpy release break either (its
seeding, its stream or its state setter), every call falls back to the
per-seed loop.
"""

import numpy as np

from .checks import _is_int

_MASK64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# numpy's Generator.random(): the top 53 bits of one 64-bit draw, times 2**-53.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0 ** -53

# Longest stream computed in closed form, in 64-bit words; longer ones are
# drawn from the replayed state of each seed.
CLOSED_FORM_MAX_WORDS = 64

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_PCG_MULT_PAIR = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 over a uint64 array; numpy array arithmetic wraps mod 2**64."""
    x = x + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step (64-bit avalanche)."""
    return int(_splitmix64(np.array([x & _MASK64], dtype=np.uint64))[0])


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string, for absorbing string identifiers."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master_seed: int, *parts):
    """Derive a 64-bit stream seed from a master seed and identity parts.

    Parts may be ints or strings; strings are hashed with FNV-1a before
    absorption.  The same (master_seed, parts) always yields the same
    seed on every platform.  A part may also be an integer array, for
    example a block of trial indices; the result is then the uint64 array
    of the seeds for each entry, otherwise a Python int.  A float or bool
    seed, part or array raises TypeError rather than being truncated.
    """
    state = np.array([_seed64(master_seed)], dtype=np.uint64)
    batched = False
    for part in parts:
        if isinstance(part, str):
            value = np.uint64(fnv1a64(part))
        elif isinstance(part, np.ndarray):
            if not np.issubdtype(part.dtype, np.integer):
                raise TypeError(f"seed part arrays must be integer, not {part.dtype}")
            value = part.astype(np.uint64)
            batched = True
        else:
            value = np.uint64(_seed64(part))
        state = _splitmix64(state ^ value)
    return state if batched else int(state[0])


def make_generator(seed: int) -> np.random.Generator:
    """numpy Generator over PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(_seed64(seed)))


def _seed64(value) -> int:
    """The low 64 bits of an integer seed, masked as a Python int (np.int64(-1)
    masked as is overflows); TypeError for a float or bool."""
    if not _is_int(value):
        raise TypeError(f"a seed must be an integer, not {type(value).__name__}")
    return int(value) & _MASK64


def uniform_rows(streams: np.ndarray, k: int) -> np.ndarray:
    """(T, k) matrix whose row t is make_generator(streams[0, t]).random(k).

    streams is stream_keys(seeds), or any columns of it.  Up to
    CLOSED_FORM_MAX_WORDS, the raw PCG64 words are computed for the whole
    block and converted as numpy converts them; longer rows are drawn by
    numpy from each column's replayed state (see the module docstring).
    The per-seed loop of a failed first-use check reads only row 0.
    """
    if not _streams_match_numpy():
        return _to_double(_raw_rows_loop(streams[0], k))
    if k <= CLOSED_FORM_MAX_WORDS:
        return _to_double(_closed_form_raw(streams, k))
    return _replayed_rows(streams, k)


def stream_keys(seeds: np.ndarray) -> np.ndarray:
    """(5, T) uint64 streams of the seeds: row 0 the seeds, rows 1-4 the
    (hi, lo) halves of PCG64(seed)'s replayed state and inc.  Row 0 alone
    once the first-use check has failed: the per-seed loop then reads only
    the seeds, and nothing is replayed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _seeded(seeds) if _streams_match_numpy() else seeds[None]


def _draw_words(k: int) -> int:
    """8-byte words per row that uniform_rows(streams, k) holds at its peak,
    the (T, k) result included, at T >= 128 rows (tracemalloc): the closed
    form's 128-bit products take at most 8k + 11, and stream_keys'
    replay of the same rows 29-31, so 8k + 32 bounds the draw and the
    replay.  Beyond it, the replayed state holds the k doubles plus 22-24
    words of Python ints; the per-seed loop that a failed first-use check
    falls back to holds more: its raw words, their shifted copy and the
    doubles take 3k, and numpy's cast buffer at most k more.  So each
    length is charged the larger of its two paths, and a failed check never
    outgrows the charge.
    """
    if k <= CLOSED_FORM_MAX_WORDS:
        return 8 * k + 32
    return 4 * k + 8


def _to_double(raw: np.ndarray) -> np.ndarray:
    return (raw >> _DOUBLE_SHIFT) * _DOUBLE_SCALE


def _raw_rows_loop(seeds: np.ndarray, k: int) -> np.ndarray:
    """(T, k) raw PCG64 words, one generator per seed."""
    raw = np.empty((len(seeds), k), dtype=np.uint64)
    for row, seed in zip(raw, seeds.tolist()):
        row[:] = np.random.PCG64(seed).random_raw(k)
    return raw


def _replayed_rows(streams: np.ndarray, k: int) -> np.ndarray:
    """(T, k) doubles of any length: one PCG64 is set, through one state
    dict, to each column's replayed (state, inc) in turn, and
    Generator.random draws the row straight into the result."""
    rows = np.empty((streams.shape[1], k))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    full = bits.state
    pair = full["state"]
    for row, s_hi, s_lo, i_hi, i_lo in zip(rows, *streams[1:].tolist()):
        pair["state"] = s_hi << 64 | s_lo
        pair["inc"] = i_hi << 64 | i_lo
        bits.state = full
        draw(out=row)
    return rows


_streams_checked: bool | None = None


def _streams_match_numpy() -> bool:
    """Whether the closed form, at CLOSED_FORM_MAX_WORDS words, and the
    replayed state, at one word more, reproduce np.random.PCG64 (checked
    once)."""
    global _streams_checked
    if _streams_checked is None:
        streams, k = _seeded(np.array([_MASK64], dtype=np.uint64)), CLOSED_FORM_MAX_WORDS
        loop = _to_double(_raw_rows_loop(streams[0], k + 1))
        _streams_checked = (np.array_equal(_to_double(_closed_form_raw(streams, k)), loop[:, :k])
                            and np.array_equal(_replayed_rows(streams, k + 1), loop))
    return _streams_checked


def _seeded(seeds: np.ndarray):
    """The (5, T) streams of stream_keys: the seeds, then the (hi, lo) halves
    of PCG64(seed)'s state and inc.

    Replays SeedSequence(seed) with a 4-word pool: hashmix the entropy
    words (low and high half of the seed, then zero pad), mix every pool
    word into every other, and hash the pool out as four uint64 words,
    which PCG64's srandom takes as initstate and initseq.  Steps that
    numpy runs one word at a time but that read no word written in
    between run stacked, with their hash constants in numpy's order.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _LO32
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _POOL_HASH[:, 0:4])
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src:src + 1], _POOL_HASH[:, 4 + 3 * src:7 + 3 * src])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, uint64): 8 words hashed from the cycled pool, paired
    # little-endian into the (hi, lo) halves of initstate and initseq.
    words = _hashmix(np.concatenate([pool, pool]), _STATE_HASH).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << np.uint64(32))
    # srandom: inc = 2*initseq + 1, state = (inc + initstate) * MULT + inc.
    one = np.uint64(1)
    inc = np.stack([(seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one])
    hi, lo = _mul128(*_add128(*inc, init_hi, init_lo), *_PCG_MULT_PAIR)
    return np.vstack([seeds, *_add128(hi, lo, *inc), *inc])


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of (count, T) words, or of one (1, T) row count
    times, with the (2, count, 1) (xor, multiply) constants of each row."""
    words = (words ^ constants[0]) * constants[1]
    return words ^ (words >> _XSHIFT)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count, 1) (xor, multiply) constants of successive SeedSequence hashes."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return np.stack([consts[:-1], consts[1:]])


# The pool fill and mix hash 4 + 4 * 3 words; generate_state hashes 8.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 8)
_OTHER_WORDS = [np.array([i for i in range(4) if i != src]) for src in range(4)]


def _closed_form_raw(streams: np.ndarray, k: int) -> np.ndarray:
    """(T, k) raw words: XSL-RR of state_j = A_j * state + C_j * inc, j = 1..k."""
    a_hi, a_lo, c_hi, c_lo = _JUMPS[:, :k]
    s_hi, s_lo, i_hi, i_lo = streams[1:, :, None]
    hi, lo = _add128(*_mul128(s_hi, s_lo, a_hi, a_lo), *_mul128(i_hi, i_lo, c_hi, c_lo))
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _jump_constants(k: int) -> np.ndarray:
    """(4, k) uint64 rows: the (hi, lo) halves of A_j = MULT**j and of
    C_j = sum_{i<j} MULT**i mod 2**128, j = 1..k, from Python ints."""
    a, c = 1, 0
    columns = []
    for _ in range(k):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        columns.append([a >> 64, a & _MASK64, c >> 64, c & _MASK64])
    return np.array(columns, dtype=np.uint64).T.copy()


# (a_hi, a_lo, c_hi, c_lo) rows for j = 1..CLOSED_FORM_MAX_WORDS, sliced [:, :k].
_JUMPS = _jump_constants(CLOSED_FORM_MAX_WORDS)


def _mul128(x_hi, x_lo, a_hi, a_lo):
    """(x * a) mod 2**128 of (hi, lo) uint64 pairs; numpy uint64 products wrap."""
    return _mulhi64(x_lo, a_lo) + x_hi * a_lo + x_lo * a_hi, x_lo * a_lo


def _mulhi64(x, a):
    """High 64 bits of the 128-bit product x * a, through 32-bit limbs."""
    shift = np.uint64(32)
    x0, x1 = x & _LO32, x >> shift
    a0, a1 = a & _LO32, a >> shift
    cross1, cross2 = x0 * a1, x1 * a0
    mid = ((x0 * a0) >> shift) + (cross1 & _LO32) + (cross2 & _LO32)
    return x1 * a1 + (cross1 >> shift) + (cross2 >> shift) + (mid >> shift)


def _add128(x_hi, x_lo, y_hi, y_lo):
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo
