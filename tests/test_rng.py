"""Stream keys, the Philox block's known answers, and numpy as the oracle of
every draw: the pure draws and the numpy draws that continue them."""
from itertools import product

import numpy as np
import pytest
from numpy.random import Generator, Philox

from aplab.rng import philox4x64, stream

TOP = 2**64 - 1


def test_stream_rejects_keys_outside_their_words():
    assert stream(TOP).integers(0, 2**62) != stream(0).integers(0, 2**62)
    for key in ((-1,), (TOP + 1,), (TOP + 2,), (0, -1), (0, 2**32 + 1),
                (0, 0, -1), (0, 0, 2**32 + 1)):
        with pytest.raises(ValueError):
            stream(*key)


def test_philox_block_matches_the_random123_vectors():
    """The philox4x64-10 known-answer vectors of Random123 (Salmon et al., SC 2011)."""
    pi_counter = (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0,
                  0x082EFA98EC4E6C89)
    pi_key = (0x452821E638D01377, 0xBE5466CF34E90C6C)
    assert philox4x64((0, 0, 0, 0), (0, 0)) == (
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)
    assert philox4x64((TOP,) * 4, (TOP, TOP)) == (
        0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)
    assert philox4x64(pi_counter, pi_key) == (
        0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)


def test_stream_draws_are_numpys():
    """On a fixed grid of keys, ranges and lengths, ``integers`` equals numpy's
    ``Generator(Philox(key))``, and the numpy draws that follow (a batched
    permutation, an int64 matrix) continue numpy's stream exactly.

    The ranges hold 1 (no draw), small moduli, 2**31 + 11 (about half the
    32-bit draws rejected) and ranges of 2**32 and more (numpy's own draws);
    the lengths run past the four words of one Philox block.
    """
    seeds = (0, 1, 1012, TOP)
    ids = (0, 1, 2**32 - 1)
    ranges = (1, 2, 31, 127, 2**31 + 11, 2**32, 2**32 + 1, 2**40)
    rows = np.tile(np.arange(31, dtype=np.int64), (3, 1))
    for seed, major, minor, n in product(seeds, ids, ids, ranges):
        for m in range(1, 14):
            ours = stream(seed, major, minor)
            theirs = Generator(Philox(key=np.array([seed, major << 32 | minor],
                                                   dtype=np.uint64)))
            case = (seed, major, minor, n, m)
            assert ours.integers(0, n, size=m) == theirs.integers(0, n, size=m).tolist(), case
            assert ours.integers(0, n) == theirs.integers(0, n), case
            assert (ours.permuted(rows, axis=1).tolist()
                    == theirs.permuted(rows, axis=1).tolist()), case
            assert (ours.integers(0, n, size=(3, 2), dtype=np.int64).tolist()
                    == theirs.integers(0, n, size=(3, 2), dtype=np.int64).tolist()), case
