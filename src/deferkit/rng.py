"""Counter-based, splittable random streams.

Every random draw in this package comes from a Philox counter-based
generator whose key is derived by hashing ``(master_seed, tag, index)``.
Sub-streams are therefore independent of the order in which they are
consumed, which keeps parallel corpus generation deterministic.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .losses import check_int

__all__ = ["substream", "derive_seed"]


def _digest(master_seed: int, tag: str, index: int) -> bytes:
    """The one seed rule: a seed and an index are integers, not bools, of any
    sign (the seed is masked to 64 bits)."""
    check_int(master_seed, "seed", -np.inf)
    check_int(index, "index", -np.inf)
    msg = b"deferkit\x00%d\x00%s\x00%d" % (master_seed & 0xFFFFFFFFFFFFFFFF, tag.encode(), index)
    return hashlib.sha256(msg).digest()


def derive_seed(master_seed: int, tag: str, index: int = 0) -> int:
    """Derive a 64-bit sub-seed from a master seed, purpose tag and index."""
    return int.from_bytes(_digest(master_seed, tag, index)[:8], "little")


def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return an independent Philox stream for (master_seed, tag, index)."""
    d = _digest(master_seed, tag, index)
    key = int.from_bytes(d[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
