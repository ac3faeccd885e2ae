"""deferkit.rng's streams are the Philox streams keyed by the SHA-256 digest
of (seed, tag, index), built without reading OS entropy."""

import hashlib

import numpy as np
import numpy.random.bit_generator
import pytest

from deferkit import rng


def reference_substream(seed: int, tag: str, index: int) -> np.random.Generator:
    """The stream as Philox builds it from an integer key: the first 16 digest
    bytes read as a little-endian integer."""
    msg = b"deferkit\x00%d\x00%s\x00%d" % (seed & 0xFFFFFFFFFFFFFFFF, tag.encode(), index)
    key = int.from_bytes(hashlib.sha256(msg).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 - 1, 9173])
@pytest.mark.parametrize("tag,index", [("verify-single_mae", 0), ("task-none", 249),
                                       ("", 2**32 + 5), ("train-shuffle", -3)])
def test_substream_is_the_philox_stream_of_its_digest(seed, tag, index, monkeypatch):
    # Philox(key=...) also builds a SeedSequence from OS entropy, which the
    # stream never uses; substream reads none
    reads = []
    entropy = numpy.random.bit_generator.randbits
    monkeypatch.setattr(numpy.random.bit_generator, "randbits",
                        lambda bits: reads.append(bits) or entropy(bits))
    got = rng.substream(seed, tag, index)
    assert reads == []
    want = reference_substream(seed, tag, index)
    got_state, want_state = got.bit_generator.state, want.bit_generator.state
    for name in ("counter", "key"):
        got_words, want_words = got_state["state"][name], want_state["state"][name]
        assert got_words.dtype == want_words.dtype and np.array_equal(got_words, want_words)
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert got_state[name] == want_state[name]
    for draw in (lambda g: g.standard_normal(5), lambda g: g.integers(0, 2**40, 5),
                 lambda g: g.dirichlet(np.ones(4), 2)):
        assert draw(got).tobytes() == draw(want).tobytes()
