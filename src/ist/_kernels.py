"""Hot numeric loops: Shannon entropy, token sampling, a match counter.

Entropy is a running sum over the positive cells of a dense probability
table, returned as a Python float. sample_block is the one draw-to-token
rule: one rng.derive call hashes a whole (task, dim, draw) grid, and one
bisect over the CDFs, padded with +inf to a common K, picks every token.
The record engine of worlds (the experiments, simulate_output, every
mean fidelity) samples through it, over a CDF table it builds in numpy
per block, and so does match_counts, a per-dimension hit counter only
the benchmark's kernel probe calls; both equal per-record simulation.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import SAMPLE_STREAM, derive, unit_float

__all__ = ["entropy_bits", "match_counts", "sample_block"]

# cells per sampled block, in its hash grid and in its padded CDF table;
# bounds peak memory for any number of tasks or draws
_CHUNK_DRAWS = 65_536


def entropy_bits(p) -> float:
    """-sum(p log2 p) in bits over a nonnegative array, as a Python float.

    A Python float, because callers compare the value and the resulting
    bools reach dumps_canonical, which rejects numpy scalars. It is the
    float of a loop over the cells in C order that adds x * math.log2(x)
    for each positive x: math.log2 runs once per distinct positive value
    (numpy's log2 differs from it in the last bit on some machines), and
    np.cumsum, which is sequential, adds the terms in that order.
    """
    values = np.asarray(p, dtype=np.float64).ravel()
    values = values[values > 0.0]
    distinct, which = np.unique(values, return_inverse=True)
    logs = np.fromiter(map(math.log2, distinct.tolist()), np.float64, len(distinct))
    terms = np.append(values * logs[which], 0.0)  # no positive cell: -0.0
    return -float(np.cumsum(terms)[-1])


def sample_block(master: int, task_ixs, dim_ixs, draws, cdf_pad, ks):
    """Sampled token index for every (task, dim, draw) of a block, as a
    (tasks x dims x draws) array.

    task_ixs, dim_ixs and draws are 1-D np.uint64 arrays. Cell (t, j, i)
    hashes derive(master, SAMPLE_STREAM, task_ixs[t], dim_ixs[j], draws[i])
    to u = unit_float(h) and picks bisect_right(cdf[:k], u), clamped to
    k - 1 (a CDF that tops out below 1 can leave u past its last entry).
    cdf_pad is (tasks x dims x K): each dimension's cdf, padded with +inf
    past its k; ks is (tasks x dims). The bisect runs on every cell at
    once, one gather from cdf_pad per halving of K.
    """
    u = unit_float(derive(master, SAMPLE_STREAM, task_ixs[:, None, None],
                          dim_ixs[None, :, None], draws[None, None, :]))
    k_max = cdf_pad.shape[-1]
    count = np.zeros(u.shape, dtype=np.intp)  # cdf entries <= u found so far
    step = 1 << (k_max.bit_length() - 1)
    while step:
        # a probe past K reads the last entry: a count past K means all K
        # entries are <= u, which the clamp turns into k - 1 as it should
        probe = count + step
        entry = np.take_along_axis(cdf_pad, np.minimum(probe, k_max) - 1, axis=-1)
        count = np.where(entry <= u, probe, count)
        step >>= 1
    return np.minimum(count, ks[..., None] - 1)


def match_counts(master: int, task_ix: int, dim_ixs, user_ixs, cdfs, ks,
                 n_draws: int) -> np.ndarray:
    """Per-dimension counts of sampled token == user token over n draws.

    cdfs holds one CDF per row; cells past a row's k are ignored. Draws
    0..n-1 go through sample_block, so a mean computed from these counts
    equals the mean over individually simulated records.
    """
    master, n_draws = int(master), int(n_draws)
    ks = np.asarray(ks, dtype=np.int64)
    cdfs = np.asarray(cdfs, dtype=np.float64)
    cdf_pad = np.where(np.arange(cdfs.shape[1]) < ks[:, None], cdfs, np.inf)
    task_ixs = np.array([task_ix], dtype=np.uint64)
    dim_ixs = np.asarray(dim_ixs).astype(np.uint64)
    user_ixs = np.asarray(user_ixs)[:, None]
    step = max(1, _CHUNK_DRAWS // len(dim_ixs))
    counts = np.zeros(len(dim_ixs), dtype=np.int64)
    for start in range(0, n_draws, step):
        draws = np.arange(start, min(start + step, n_draws), dtype=np.uint64)
        tok = sample_block(master, task_ixs, dim_ixs, draws, cdf_pad[None], ks[None])
        counts += np.count_nonzero(tok[0] == user_ixs, axis=1)
    return counts
