"""Stream keys: each of (seed, major, minor) must fit its key word."""
import pytest

from aplab.rng import stream


def test_stream_rejects_keys_outside_their_words():
    top = 2**64 - 1
    assert stream(top).integers(0, 2**62) != stream(0).integers(0, 2**62)
    for key in ((-1,), (top + 1,), (top + 2,), (0, -1), (0, 2**32 + 1),
                (0, 0, -1), (0, 0, 2**32 + 1)):
        with pytest.raises(ValueError):
            stream(*key)
