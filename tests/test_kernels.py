import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ist import _kernels
from ist._kernels import (
    active_backend,
    entropy_bits,
    match_counts,
    set_backend,
    using_numba,
)

HAVE_NUMBA = _kernels.njit is not None

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


@pytest.fixture
def restore_backend():
    before = active_backend()
    yield
    set_backend(before)


def entropy_bits_reference(p) -> float:
    """The plain loop: -sum of x * log2(x) over positive cells, in order."""
    total = 0.0
    for x in np.asarray(p, dtype=np.float64).ravel().tolist():
        if x > 0.0:
            total += x * math.log2(x)
    return -total


def random_match_args(rng):
    n_dims = rng.randint(1, 5)
    ks = [rng.randint(2, 9) for _ in range(n_dims)]
    kmax = max(ks)
    cdfs = np.ones((n_dims, kmax))
    for row, k in enumerate(ks):
        raw = np.array([rng.random() + 0.05 for _ in range(k)])
        cdf = np.cumsum(raw / raw.sum())
        cdf[-1] = 1.0
        cdfs[row, :k] = cdf
    return (
        rng.getrandbits(63),
        rng.randint(0, 50),
        np.array([rng.randint(0, 30) for _ in range(n_dims)], dtype=np.int64),
        np.array([rng.randint(0, k - 1) for k in ks], dtype=np.int64),
        cdfs,
        np.array(ks, dtype=np.int64),
        rng.randint(1, 300),
    )


def test_entropy_bits_matches_math(restore_backend):
    set_backend("numpy")
    assert entropy_bits(np.array([0.25, 0.25, 0.25, 0.25])) == 2.0
    p = np.array([0.75, 0.25])
    direct = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(entropy_bits(p) - direct) < 1e-15


def test_entropy_bits_returns_python_float(restore_backend):
    # np.float64 here would turn DPI comparisons into np.bool_, which
    # canonical JSON rejects; the type is part of the contract
    p = np.array([0.5, 0.25, 0.25, 0.0])
    assert type(entropy_bits(p)) is float
    for name in ("numpy", "numba") if HAVE_NUMBA else ("numpy",):
        set_backend(name)
        assert type(entropy_bits(p)) is float


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


def test_entropy_bits_is_exact_against_reference(restore_backend):
    # bit equality, not a tolerance: the numpy kernel must give the same
    # float as the sequential loop, so tiil-check's bytes cannot move
    set_backend("numpy")
    for p in entropy_cases():
        got = entropy_bits(p)
        assert type(got) is float
        want = entropy_bits_reference(p)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), p.size


def test_entropy_bits_log2_is_exact_per_value(restore_backend):
    # numpy's SIMD log2 differs from math.log2 in the last bit on some
    # machines and values; with two equal cells that bit decides the sum
    set_backend("numpy")
    for x in np.random.default_rng(17).random(2000).tolist():
        p = np.array([x, x])
        assert entropy_bits(p) == entropy_bits_reference(p), x


@needs_numba
def test_entropy_backends_agree(restore_backend):
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 40)
        raw = np.array([rng.random() for _ in range(n)]) + 1e-9
        p = raw / raw.sum()
        set_backend("numpy")
        a = entropy_bits(p)
        set_backend("numba")
        b = entropy_bits(p)
        assert abs(a - b) < 1e-12


@needs_numba
def test_match_counts_backends_identical(restore_backend):
    # integer counts must agree bit for bit, not just approximately
    rng = random.Random(3)
    for _ in range(25):
        args = random_match_args(rng)
        set_backend("numpy")
        a = match_counts(*args)
        set_backend("numba")
        b = match_counts(*args)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_match_counts_bounds(restore_backend):
    set_backend("numpy")
    rng = random.Random(4)
    for _ in range(10):
        args = random_match_args(rng)
        counts = match_counts(*args)
        n_draws = args[-1]
        assert np.all(counts >= 0) and np.all(counts <= n_draws)


def test_match_counts_point_mass(restore_backend):
    set_backend("numpy")
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


def test_set_backend_validation(restore_backend):
    with pytest.raises(ValueError):
        set_backend("fortran")
    assert set_backend("numpy") == "numpy"
    assert active_backend() == "numpy"
    assert using_numba() is False
    default = set_backend(None)
    assert default == ("numba" if HAVE_NUMBA else "numpy")


@needs_numba
def test_backend_switch_roundtrip(restore_backend):
    set_backend("numba")
    assert using_numba() is True
    set_backend("numpy")
    assert using_numba() is False


def test_env_flag_disables_numba():
    code = ("import ist._kernels as k; "
            "print(k.active_backend(), k.using_numba())")
    # A minimal env keeps a caller's IST_NUMBA out of the child; PYTHONPATH
    # points at the directory holding the ist package under test, so the
    # child imports it whether it is installed or run from a source tree.
    package_parent = Path(_kernels.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "IST_NUMBA": "0",
             "PYTHONPATH": str(package_parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "False"]


def test_world_results_do_not_depend_on_backend(restore_backend):
    from ist.worlds import build_world, full_mask, mask_without, mc_mean_f_icmw
    cfg = {"tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 0.6, "K": 7, "lambda": 0.3},
        {"id": "b", "weight": 0.4, "K": 5, "lambda": 0.0}]}]}
    world = build_world(cfg, seed=12)
    mask = mask_without(world.tasks[0], {"b"})
    set_backend("numpy")
    a = mc_mean_f_icmw(world, "t", mask, n=500)
    if HAVE_NUMBA:
        set_backend("numba")
        assert mc_mean_f_icmw(world, "t", mask, n=500) == a
