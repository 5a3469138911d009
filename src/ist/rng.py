"""Deterministic 64-bit seed derivation.

Every random draw in the toolkit is keyed by an explicit chain of integer
indices mixed into the master seed with splitmix64. Workers never share PRNG
state: the seed for (stream, task, dimension, draw) is a pure function, so
simulation results are identical at any parallelism level.

The mixing function is::

    h = splitmix64(master)
    for index in indices:
        h = splitmix64(h ^ index)
"""

from __future__ import annotations

from .errors import BadConfig

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# stream tags (first index in the chain)
USER_VALUE_STREAM = 1
SAMPLE_STREAM = 2
PERTURB_STREAM = 3
DECODER_STREAM = 4


def splitmix64(x: int) -> int:
    """One splitmix64 step over 64-bit wrapping arithmetic."""
    z = (x + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive(master: int, *indices: int) -> int:
    """Mix a chain of indices into the master seed (order-sensitive).

    The master and any index may be np.uint64 arrays, and the arrays
    broadcast against each other: the result is then the array of hashes
    over the broadcast grid, each equal to the scalar one for its master
    and indices.
    """
    h = splitmix64(master & MASK64)
    for ix in indices:
        h = splitmix64(h ^ (ix & MASK64))
    return h


def check_uint64(name: str, value) -> None:
    """BadConfig naming the argument unless value is an int, not a bool,
    in [0, 2**64): a seed or draw index that derive would otherwise wrap
    onto another one. A document's seed is read by jsonio._get_int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadConfig(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < 2 ** 64:
        raise BadConfig(f"{name} must be in [0, 2**64), got {value!r}")


def unit_float(h: int) -> float:
    """Map a 64-bit hash, or a np.uint64 array of them, to [0, 1) with
    53-bit resolution."""
    return (h >> 11) * 2.0 ** -53


def uniform_index(h: int, n: int) -> int:
    """Map a hash to {0, ..., n-1}, uniform up to O(n / 2^53) bias.

    h may be a np.uint64 array, and n then an int or an int64 array that
    broadcasts against it: the result is the int64 array of indices, each
    equal to the scalar one for its hash and n.
    """
    x = unit_float(h) * n
    if isinstance(x, float):
        i = int(x)
        return n - 1 if i >= n else i
    # astype truncates toward zero, as int() does on these nonnegative floats
    return x.astype("int64").clip(max=n - 1)
