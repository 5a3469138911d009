"""Hot numeric loops: Shannon entropy and the Monte Carlo match counter.

Entropy is a running sum over a dense probability table, returned as a
Python float. The match counter behind mean-fidelity estimates hashes
whole blocks of draw indices at once with rng.derive, so its counts are
bit-identical to simulating each record in turn.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import SAMPLE_STREAM, derive, unit_float

__all__ = ["entropy_bits", "match_counts"]

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


def match_counts(master: int, task_ix: int, dim_ixs, user_ixs, cdfs, ks,
                 n_draws: int) -> np.ndarray:
    """Per-dimension counts of sampled token == user token over n draws.

    The draw stream is derive(master, SAMPLE_STREAM, task_ix, dim_ix, draw),
    and a draw picks token bisect_right(cdf[:k], u) clamped to k - 1, as
    worlds.sample_token_index does; a mean computed from these counts
    therefore equals the mean over individually simulated records.
    """
    master, task_ix, n_draws = int(master), int(task_ix), int(n_draws)
    dim_ixs = np.asarray(dim_ixs).tolist()
    cdfs = np.asarray(cdfs, dtype=np.float64)
    counts = np.zeros(len(dim_ixs), dtype=np.int64)
    for j, (dim_ix, user_ix, k) in enumerate(zip(
            dim_ixs, np.asarray(user_ixs).tolist(), np.asarray(ks).tolist())):
        row = cdfs[j, :k]
        for start in range(0, n_draws, _CHUNK_DRAWS):
            draws = np.arange(start, min(start + _CHUNK_DRAWS, n_draws),
                              dtype=np.uint64)
            u = unit_float(derive(master, SAMPLE_STREAM, task_ix, dim_ix, draws))
            tok = np.minimum(np.searchsorted(row, u, side="right"), k - 1)
            counts[j] += np.count_nonzero(tok == user_ix)
    return counts
