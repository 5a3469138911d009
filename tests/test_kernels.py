import math
import random

import numpy as np

from ist import _kernels
from ist._kernels import entropy_bits, match_counts, sample_block
from ist.rng import SAMPLE_STREAM, derive, unit_float


def entropy_bits_reference(p) -> float:
    """The plain loop over every cell in C order: -sum of x * log2(x) over
    the positive ones."""
    total = 0.0
    for x in np.asarray(p, dtype=np.float64).ravel().tolist():
        if x > 0.0:
            total += x * math.log2(x)
    return -total


def sample_token_reference(master, task_ix, dim_ix, draw, cdf, k) -> int:
    """One scalar derive and a hand-written bisect_right over cdf[:k]."""
    u = unit_float(derive(master, SAMPLE_STREAM, task_ix, dim_ix, draw))
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi) // 2
        if u < cdf[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < k else k - 1


def match_counts_reference(master, task_ix, dim_ixs, user_ixs, cdfs, ks,
                           n_draws) -> np.ndarray:
    """Per-draw sample_token_reference, counted against the user token."""
    counts = np.zeros(len(dim_ixs), dtype=np.int64)
    for j in range(len(dim_ixs)):
        k = int(ks[j])
        counts[j] = sum(
            sample_token_reference(master, task_ix, int(dim_ixs[j]), draw,
                                   cdfs[j], k) == int(user_ixs[j])
            for draw in range(n_draws))
    return counts


def random_match_args(rng, n_draws=None):
    """Seeded kernel inputs: K from 2 to 64, 64-bit master, indices above
    2^32, and some CDFs that top out below 1 so the clamp to k - 1 runs.
    Cells past a row's k hold zeros, which the kernel must never read."""
    n_dims = rng.randint(1, 4)
    ks = [rng.choice([2, 64, rng.randint(2, 64)]) for _ in range(n_dims)]
    cdfs = np.zeros((n_dims, max(ks)))
    for row, k in enumerate(ks):
        raw = np.array([rng.random() + 0.05 for _ in range(k)])
        cdf = np.cumsum(raw / raw.sum())
        cdf[-1] = 1.0
        if rng.random() < 0.3:
            cdf *= rng.uniform(0.3, 0.99)
        cdfs[row, :k] = cdf
    return (
        rng.getrandbits(64),
        rng.choice([rng.randint(0, 50), 2 ** 32 + rng.getrandbits(31)]),
        np.array([rng.choice([rng.randint(0, 30), 2 ** 32 + rng.getrandbits(31)])
                  for _ in range(n_dims)], dtype=np.int64),
        np.array([rng.randint(0, k - 1) for k in ks], dtype=np.int64),
        cdfs,
        np.array(ks, dtype=np.int64),
        rng.choice([1, rng.randint(1, 300)]) if n_draws is None else n_draws,
    )


def test_entropy_bits_matches_math():
    assert entropy_bits(np.array([0.25, 0.25, 0.25, 0.25])) == 2.0
    p = np.array([0.75, 0.25])
    direct = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(entropy_bits(p) - direct) < 1e-15


def test_entropy_bits_returns_python_float():
    # np.float64 here would turn DPI comparisons into np.bool_, which
    # canonical JSON rejects; the type is part of the contract
    assert type(entropy_bits(np.array([0.5, 0.25, 0.25, 0.0]))) is float


def entropy_cases():
    rng = np.random.default_rng(5)
    raw = rng.random(1000)
    yield raw / raw.sum()                                # all distinct
    yield np.array([1.0])                                # one cell
    yield np.array([0.0, 0.0, 1.0, 0.0])                 # zeros around a point mass
    yield np.zeros(3)                                    # no positive cell
    yield np.array([0.5, 0.0, 0.25, 0.0, 0.25])          # zeros and repeats
    yield np.array([5e-324, 1e-310, 2.5e-308, 1.0 - 2.5e-308])  # subnormals
    tiny = np.full(16, 5e-324)
    tiny[0] = 1.0
    yield tiny
    yield np.tile([5e-324, 1e-310, 0.0, 0.5], 300)       # subnormals, repeated
    big = rng.random(10 ** 6)
    big[::7] = 0.0
    yield big / big.sum()                                # 10^6 cells
    k = 64
    table = np.full((k, k), 0.3 / k / k)
    np.fill_diagonal(table, (0.3 / k + 0.7) / k)
    yield table                                          # a channel joint
    signed = np.array([[0.25, -0.0, 0.0], [5e-324, -0.0, 0.75 - 5e-324]])
    yield signed                                         # -0.0 beside 0.0 and 5e-324
    yield signed.T                                       # a transposed view
    cube = np.zeros((4, 4, 4))
    cube[::2, 1::2, ::3] = rng.random((2, 2, 2))
    cube[1, 0, 3] = 5e-324
    cube[3, 2, 1] = -0.0
    yield (cube / cube.sum()).transpose(2, 0, 1)         # 3-D, mostly zeros


def test_entropy_bits_is_exact_against_reference():
    # bit equality, not a tolerance: the numpy kernel must give the same
    # float as the sequential loop, so tiil-check's bytes cannot move
    for p in entropy_cases():
        got = entropy_bits(p)
        assert type(got) is float
        want = entropy_bits_reference(p)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), p.size


def test_entropy_bits_log2_is_exact_per_value():
    # numpy's SIMD log2 differs from math.log2 in the last bit on some
    # machines and values; with two equal cells that bit decides the sum
    for x in np.random.default_rng(17).random(2000).tolist():
        p = np.array([x, x])
        assert entropy_bits(p) == entropy_bits_reference(p), x


def inf_padded(cdfs, ks):
    """Each row's cdf[:k], padded with +inf to the table's width."""
    return np.where(np.arange(cdfs.shape[1]) < ks[:, None], cdfs, np.inf)


def test_sample_block_equals_reference():
    # every cell of a (tasks x dims x draws) grid gives the scalar rule's token
    rng = random.Random(6)
    for case in range(60):
        master, _, dim_ixs, _, cdfs, ks, n_draws = random_match_args(rng)
        task_ixs = [rng.choice([rng.randint(0, 50), 2 ** 32 + rng.getrandbits(31)])
                    for _ in range(rng.randint(1, 3))]
        start = rng.choice([0, 2 ** 40])
        n_draws = min(n_draws, 60)
        shape = (len(task_ixs), len(ks))
        got = sample_block(master, np.array(task_ixs, dtype=np.uint64),
                           dim_ixs.astype(np.uint64),
                           np.arange(start, start + n_draws, dtype=np.uint64),
                           np.broadcast_to(inf_padded(cdfs, ks), (*shape, cdfs.shape[1])),
                           np.broadcast_to(ks, shape))
        want = [[[sample_token_reference(master, t, int(d), i, cdfs[j], int(ks[j]))
                  for i in range(start, start + n_draws)]
                 for j, d in enumerate(dim_ixs)]
                for t in task_ixs]
        assert got.tolist() == want, case


def test_sample_block_clamps_and_ties_go_right():
    # row 0 ends below 1, so a draw past its top must land on token k-1;
    # row 1 has a cdf entry equal to the draw's u, which takes the next token
    master, task_ix = 99, 3
    u = unit_float(derive(master, SAMPLE_STREAM, task_ix, 1, 0))
    cdfs = np.array([[0.0, 0.0, 0.0, 0.0], [u, 1.0, 0.0, 0.0]])
    ks = np.array([4, 2])
    got = sample_block(master, np.array([task_ix], dtype=np.uint64),
                       np.array([0, 1], dtype=np.uint64), np.array([0], dtype=np.uint64),
                       inf_padded(cdfs, ks)[None], ks[None])
    assert got[:, :, 0].tolist() == [[3, 1]]
    assert [sample_token_reference(master, task_ix, j, 0, cdfs[j], int(ks[j]))
            for j in (0, 1)] == [3, 1]


def test_match_counts_bounds():
    rng = random.Random(4)
    for _ in range(10):
        args = random_match_args(rng)
        counts = match_counts(*args)
        n_draws = args[-1]
        assert np.all(counts >= 0) and np.all(counts <= n_draws)


def test_match_counts_point_mass():
    # cdf [1.0, ...] means token 0 always; user at 0 -> all draws match
    cdfs = np.ones((1, 3))
    counts = match_counts(7, 0, np.array([0], dtype=np.int64),
                          np.array([0], dtype=np.int64), cdfs,
                          np.array([3], dtype=np.int64), 100)
    assert counts[0] == 100
    counts = match_counts(7, 0, np.array([0], dtype=np.int64),
                          np.array([2], dtype=np.int64), cdfs,
                          np.array([3], dtype=np.int64), 100)
    assert counts[0] == 0


def test_match_counts_equals_reference():
    rng = random.Random(3)
    for case in range(150):
        args = random_match_args(rng)
        got = match_counts(*args)
        assert got.dtype == np.int64, case
        assert np.array_equal(got, match_counts_reference(*args)), case


def test_match_counts_equals_reference_across_chunks():
    # one draw past a block boundary, so the last block holds a single draw;
    # the second dimension always samples its user token, so a dropped or
    # repeated draw anywhere shows in its count
    n = _kernels._CHUNK_DRAWS + 1
    master, task_ix, dim_ixs, user_ixs, cdfs, ks, _ = random_match_args(random.Random(8))
    k = int(ks[0])
    cdfs = np.vstack([cdfs[0, :k], np.ones(k)])
    args = (master, task_ix, np.array([dim_ixs[0], 2 ** 33]),
            np.array([user_ixs[0], 0]), cdfs, np.array([k, k]), n)
    got = match_counts(*args)
    assert got.dtype == np.int64 and got[1] == n
    assert np.array_equal(got, match_counts_reference(*args))


def test_match_counts_clamps_a_short_cdf():
    # u >= cdf[-1] must land on token k-1, not past the alphabet
    cdfs = np.array([[0.1, 0.2, 0.5]])
    args = (2 ** 64 - 1, 2 ** 40, np.array([2 ** 33]), np.array([2]), cdfs,
            np.array([3]), 2000)
    got = match_counts(*args)
    assert np.array_equal(got, match_counts_reference(*args))
    assert got[0] > 1200  # about 0.8 of the draws


def test_match_counts_tie_goes_right():
    # a draw equal to a cdf entry takes the next token, as bisect_right does
    master, task_ix, dim_ix = 99, 3, 5
    u0 = unit_float(derive(master, SAMPLE_STREAM, task_ix, dim_ix, 0))
    args = (master, task_ix, np.array([dim_ix]), np.array([1]),
            np.array([[u0, 1.0]]), np.array([2]), 1)
    assert match_counts(*args)[0] == match_counts_reference(*args)[0] == 1


def test_match_counts_ignores_cells_past_k():
    # callers pad short rows with zeros; read as CDF entries, they would
    # count as <= every draw and push each token to the clamp
    cdfs = np.array([[0.5, 1.0, 0.0, 0.0], [0.25, 0.5, 0.75, 1.0]])
    args = (5, 1, np.array([0, 1]), np.array([0, 0]), cdfs, np.array([2, 4]), 400)
    got = match_counts(*args)
    assert np.array_equal(got, match_counts_reference(*args))
    assert 120 < got[0] < 280
