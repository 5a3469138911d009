"""Hot numeric loops: Shannon entropy, token sampling, a match counter.

Entropy is a running sum over a dense probability table, returned as a
Python float. sample_tokens is the one draw-to-token rule: it hashes a
whole block of draw indices at once with rng.derive. The record engine
of worlds, behind the experiments and every mean-fidelity estimate,
samples through it, and so does match_counts, a per-dimension hit
counter that the kernel rate probe times; both are bit-identical to
simulating each record in turn.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import SAMPLE_STREAM, derive, unit_float

__all__ = ["entropy_bits", "match_counts", "sample_tokens"]

# draws hashed per block; bounds peak memory for any n_draws
_CHUNK_DRAWS = 65_536


def entropy_bits(p) -> float:
    """-sum(p log2 p) in bits over a flat nonnegative array.

    Returns a Python float: callers compare the value and the resulting
    bools reach dumps_canonical, which rejects numpy scalars.
    """
    total = 0.0
    for x in np.asarray(p, dtype=np.float64).ravel().tolist():
        if x > 0.0:
            total += x * math.log2(x)
    return -total


def sample_tokens(master: int, task_ix: int, dim_ix: int, draws, cdf, k: int):
    """Sampled token index per draw of one dimension.

    Draw i hashes derive(master, SAMPLE_STREAM, task_ix, dim_ix, i) to
    u = unit_float(h) and picks bisect_right(cdf[:k], u), clamped to k - 1
    (a CDF that tops out below 1 can leave u past its last entry). draws
    is a np.uint64 array, giving an array of indices, or one Python int.
    """
    u = unit_float(derive(master, SAMPLE_STREAM, task_ix, dim_ix, draws))
    return np.minimum(np.searchsorted(cdf[:k], u, side="right"), k - 1)


def match_counts(master: int, task_ix: int, dim_ixs, user_ixs, cdfs, ks,
                 n_draws: int) -> np.ndarray:
    """Per-dimension counts of sampled token == user token over n draws.

    Draws 0..n-1 go through sample_tokens, so a mean computed from these
    counts equals the mean over individually simulated records.
    """
    master, task_ix, n_draws = int(master), int(task_ix), int(n_draws)
    dim_ixs = np.asarray(dim_ixs).tolist()
    cdfs = np.asarray(cdfs, dtype=np.float64)
    counts = np.zeros(len(dim_ixs), dtype=np.int64)
    for j, (dim_ix, user_ix, k) in enumerate(zip(
            dim_ixs, np.asarray(user_ixs).tolist(), np.asarray(ks).tolist())):
        for start in range(0, n_draws, _CHUNK_DRAWS):
            draws = np.arange(start, min(start + _CHUNK_DRAWS, n_draws),
                              dtype=np.uint64)
            tok = sample_tokens(master, task_ix, dim_ix, draws, cdfs[j], k)
            counts[j] += np.count_nonzero(tok == user_ix)
    return counts
