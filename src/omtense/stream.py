"""The seeded stream behind every sampled draw, computed in the package.

Stream(seed).integers(high, size) returns, bit for bit, what numpy's
default_rng(seed).integers(0, high, size) returns with its default int64
output: the same SeedSequence, the same PCG64 generator and the same
bounded-integer method. A run therefore never imports numpy's random
subpackage (which also loads hashlib, hmac, base64 and the Cython runtime,
about 6 MB), and a seed gives the same draws whatever numpy version is
installed, which numpy does not promise for its own generators. These are the
definitions it follows, all arithmetic modulo the word size.

SeedSequence(seed), for a seed >= 0:
- The entropy is the seed as little-endian 32-bit words, at least one word.
- hashmix(v) xors v with a constant that starts at INIT_A = 0x43b0d7e5,
  multiplies the constant by MULT_A = 0x931e8875, multiplies v by the new
  constant, then sets v ^= v >> 16.
- mix(x, y) = 0xca01f9dd * x - 0x4973f715 * y, then ^= >> 16.
- The pool is 4 words: hashmix of each entropy word (0 past the entropy);
  then, for every source word i and every other word j, pool[j] =
  mix(pool[j], hashmix(pool[i])); then each entropy word past the fourth is
  mixed into every pool word the same way.
- generate_state(8 words) cycles over the pool with its own constant,
  INIT_B = 0x8b51f9dd and multiplier MULT_B = 0x58f38ded, in the same xor,
  multiply, xorshift pattern. The words pair up little-endian into w0..w3,
  and initstate = w0 * 2^64 + w1, initseq = w2 * 2^64 + w3.

PCG64 (O'Neill, 2014), on a 128-bit state:
- step: state = state * 0x2360ed051fc65da44385df649fccf645 + inc, with
  inc = 2 * initseq + 1.
- Seeding: state = 0, step, state += initstate, step.
- Each output steps first, then emits XSL-RR: rotr64(hi ^ lo, hi >> 58) of
  the state's 64-bit halves.
- next_uint32 returns an output's low half and buffers its high half for the
  next next_uint32; next_uint64 takes a whole output and leaves that buffer
  alone.

Bounded draws in [0, high) (Lemire, "Fast Random Integer Generation in an
Interval", TOMACS 2019), by e = high:
- e = 1 consumes nothing and gives 0.
- e <= 2^32: m = next_uint32 * e, rejected while m mod 2^32 is below
  (2^32 - e) mod e; the draw is m >> 32. At e = 2^32 nothing is rejected,
  so the draw is the raw next_uint32.
- e > 2^32: the same on next_uint64 with 2^64, the draw being the high word
  of the 128-bit product.

Vectorising: a window of outputs comes from one 128-bit state through affine
jump tables, state_{n+j} = A_j * state_n + C_j with A_j = M^j and C_j =
inc * (1 + M + ... + M^(j-1)); A_j and the sums do not depend on the seed.
A 128-bit value is a pair of uint64 halves; uint64 products wrap mod 2^64,
so of a * s only the low halves' product needs its high word computed.
Elements of equal high draw together: the units a rejection discards are
dropped from the drawn window, and only the shortfall is drawn after it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InvalidSpec

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645
# outputs per vectorised step and the length of the jump tables; a step's
# temporaries, a few arrays of this length, bound a draw's transient memory
_WINDOW = 2048


def _seed_sequence(seed: int) -> tuple[int, int]:
    """(initstate, initseq) that numpy's SeedSequence(seed) hands PCG64."""
    entropy = [seed & _M32]
    while seed >> 32 * len(entropy):
        entropy.append(seed >> 32 * len(entropy) & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    w0, w1, w2, w3 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    return w0 << 64 | w1, w2 << 64 | w3


def _split(x: int) -> tuple[int, int]:
    """The 64-bit halves (high, low) of x mod 2^128."""
    return x >> 64 & _M64, x & _M64


def _mul64(u: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(high word, low word) of the 128-bit products u * e, u uint64 and
    0 <= e < 2^64, from 32-bit halves; in place where it can be, since the
    temporaries bound a draw's transient memory."""
    e_lo, e_hi = e & _M32, e >> 32
    lh, hh = u & _M32, u >> 32
    ll, hl = lh * e_lo, hh * e_lo
    lh *= e_hi
    hh *= e_hi
    mid = ll >> 32
    mid += lh & _M32
    mid += hl & _M32
    lh >>= 32
    hl >>= 32
    hh += lh
    hh += hl
    hh += mid >> 32
    mid <<= 32
    ll &= _M32
    mid |= ll
    return hh, mid


def _muladd(a, s: int, add):
    """(a * s + add) mod 2^128 elementwise, where a is a (high, low) pair of
    uint64 arrays and add a (high, low) pair of arrays or ints; uint64
    products wrap mod 2^64, so only the low halves' product needs its high
    word."""
    a_hi, a_lo = a
    s_hi, s_lo = _split(s)
    hi, lo = _mul64(a_lo, s_lo)
    lo += add[1]
    hi += a_hi * s_lo
    hi += a_lo * s_hi
    hi += add[0]
    hi += lo < add[1]
    return hi, lo


@functools.cache
def _jump_tables():
    """(A, S) as (high, low) pairs of _WINDOW-long uint64 arrays: element
    j - 1 holds A_j = M^j and S_j = 1 + M + ... + M^(j-1), built by doubling
    (A_{k+j} = A_j * A_k and S_{k+j} = S_j * A_k + S_k)."""
    powers = tuple(np.array([half], dtype=np.uint64) for half in _split(_PCG_MULT))
    sums = (np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64))
    while len(powers[0]) < _WINDOW:
        a_k = int(powers[0][-1]) << 64 | int(powers[1][-1])
        more_powers = _muladd(powers, a_k, (0, 0))
        more_sums = _muladd(sums, a_k, (sums[0][-1], sums[1][-1]))
        powers = tuple(np.concatenate(pair) for pair in zip(powers, more_powers))
        sums = tuple(np.concatenate(pair) for pair in zip(sums, more_sums))
    for half in powers + sums:
        half.flags.writeable = False
    return powers, sums


class Stream:
    """numpy's default_rng(seed), reproduced for integers(0, high[, size])."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise InvalidSpec(f"a seed must be a non-negative integer, got {seed}")
        initstate, initseq = _seed_sequence(seed)
        self._inc = (initseq << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._buffered = None  # the high half next_uint32 left, if any
        self._offsets = _muladd(_jump_tables()[1], self._inc, (0, 0))  # C_j

    def integers(self, high, size=None) -> np.ndarray:
        """int64 draws, uniform in [0, high) elementwise, of high's shape or
        of size with high broadcast to it. high >= 1. Each run of equal high
        (in C order) draws as one vector, so an array whose high changes at
        every element costs a Python step per element."""
        high = np.asarray(high, dtype=np.int64)
        shape = high.shape if size is None else tuple(np.atleast_1d(size))
        out = np.empty(shape, dtype=np.int64).reshape(-1)
        if high.ndim:
            flat = np.broadcast_to(high, shape).reshape(-1)
            cuts = (np.flatnonzero(flat[1:] != flat[:-1]) + 1).tolist()
            runs = [(lo, hi, int(flat[lo]))
                    for lo, hi in zip([0, *cuts], [*cuts, len(flat)]) if lo < hi]
        else:
            runs = [(0, len(out), int(high))]
        for lo, hi, e in runs:
            self._bounded(e, out[lo:hi])
        return out.reshape(shape)

    def _bounded(self, e: int, out: np.ndarray) -> None:
        """Fill out with draws in [0, e), from at most _WINDOW outputs at a
        time; the units that rejections drop are made up by the next step."""
        if e == 1:
            out[:] = 0
            return
        bits = 32 if e <= 1 << 32 else 64
        filled = 0
        while filled < len(out):
            kept = self._accepted(e, bits, min(_WINDOW * 64 // bits, len(out) - filled))
            out[filled:filled + len(kept)] = kept
            filled += len(kept)

    def _accepted(self, e: int, bits: int, n: int) -> np.ndarray:
        """The draws that n units of the given bits yield in [0, e), in
        order, each rejected unit dropped."""
        if bits == 32:
            leftover = self._uint32(n)
            leftover *= e
            value = leftover >> 32
            leftover &= _M32
        else:
            value, leftover = _mul64(self._outputs(n), e)
        ok = leftover >= ((1 << bits) - e) % e
        return value if ok.all() else value[ok]

    def _uint32(self, n: int) -> np.ndarray:
        """The next n next_uint32 values, as uint64; n <= 2 * _WINDOW."""
        carried = [] if self._buffered is None or not n else [self._buffered]
        fresh = n - len(carried)
        # little-endian words list each output's low half before its high half
        words = self._outputs((fresh + 1) // 2).astype("<u8", copy=False).view("<u4")
        if n:
            self._buffered = int(words[-1]) if fresh % 2 else None
        out = np.empty(n, dtype=np.uint64)
        out[:len(carried)] = carried
        out[len(carried):] = words[:fresh]
        return out

    def _outputs(self, n: int) -> np.ndarray:
        """The next n <= _WINDOW PCG64 outputs, from the jump tables."""
        powers = _jump_tables()[0]
        hi, lo = _muladd((powers[0][:n], powers[1][:n]), self._state,
                         (self._offsets[0][:n], self._offsets[1][:n]))
        if n:
            self._state = int(hi[-1]) << 64 | int(lo[-1])
        # XSL-RR, in place: rotr64(hi ^ lo, hi >> 58)
        rot = hi >> 58
        hi ^= lo
        lo = hi >> rot
        rot = (64 - rot) & 63
        hi <<= rot
        hi |= lo
        return hi
