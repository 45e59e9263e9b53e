"""numpy's PCG64 at a chosen state, for the tests of both compiled kernels.

A struct pcg holds a stream's (state, inc) as two native-endian 128-bit
words; these helpers turn such bytes into the Generator at that state, and
build a state whose stream gives a chosen double at a chosen index.
"""

import random
import sys

import numpy as np

_PCG_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341  # numpy's PCG64 LCG


def _generator_at(raw):
    # the Generator at the PCG64 (state, inc) bytes of a struct pcg
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(raw[:16], sys.byteorder),
                  "inc": int.from_bytes(raw[16:], sys.byteorder)},
        "has_uint32": 0, "uinteger": 0}
    return rng


def _stream_before(value=None, index=0, seed=0):
    # PCG64 (state, inc) bytes, as a struct pcg holds them, whose stream
    # gives `value`, a multiple of 2^-53 in [0, 1), at stream index `index`
    # (a random double where `value` is None).  The (index+1)-th LCG step
    # lands on a state whose top 6 bits are 0, so the XSL-RR rotation is 0,
    # and whose low word is its high word xor value * 2^64, so the output is
    # value * 2^64; `seed` picks the high word and the odd increment, and
    # the steps before are undone by the multiplier's inverse mod 2^128
    pick = random.Random(seed)
    high, inc = pick.getrandbits(58), pick.getrandbits(128) | 1
    word = pick.getrandbits(64) if value is None else int(value * 2**53) << 11
    state, inverse = high << 64 | (high ^ word), pow(_PCG_MULTIPLIER, -1, 2**128)
    for _ in range(index + 1):
        state = (state - inc) * inverse % 2**128
    raw = state.to_bytes(16, sys.byteorder) + inc.to_bytes(16, sys.byteorder)
    assert value is None or _generator_at(raw).random(index + 1)[index] == value
    return raw
