import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ist.errors import BadConfig
from ist.jsonio import normalize_weights
from ist.metrics import (
    DimensionScores,
    _clamp_unit,
    aggregate,
    build_bundle,
    bundle_for_output,
    detect_split_zone,
    encoding_loss,
    score_output,
    synthesize_ga,
    weighted_sum,
)
from ist.model import (
    Dimension,
    EncodingMask,
    IntentSpec,
    ValueRef,
)


def scores(dims, r, f):
    return DimensionScores(tuple(dims), tuple(r), tuple(f))


def test_encoding_loss_examples():
    w = [0.4, 0.3, 0.3]
    assert encoding_loss(w, EncodingMask(("a", "b", "c"), (1, 1, 1))) == 0.0
    assert abs(encoding_loss(w, EncodingMask(("a", "b", "c"), (1, 0, 1))) - 0.3) < 1e-12
    assert encoding_loss(w, EncodingMask(("a", "b", "c"), (0, 0, 0))) == 1.0


def test_aggregate_examples():
    sc = scores(["a", "b"], [1.0, 1.0], [1.0, 0.0])
    s, f = aggregate([0.5, 0.5], sc)
    assert (s, f) == (1.0, 0.5)
    sc0 = scores(["a", "b"], [1.0, 1.0], [0.0, 0.0])
    _, f0 = aggregate([0.5, 0.5], sc0)
    assert f0 == 0.0


def test_drift_is_exact_complement():
    sc = scores(["a", "b"], [1.0, 1.0], [1.0, 0.0])
    bundle = build_bundle([0.5, 0.5], sc)
    assert bundle.d_drift == 1.0 - bundle.f_icmw
    assert bundle.d_drift + bundle.f_icmw == 1.0


def test_ga_anchors():
    assert synthesize_ga(1.0) == 5
    assert synthesize_ga(0.0) == 1
    assert synthesize_ga(0.55) == 3  # round(2.2) = 2
    # grade boundaries sit on eighths; 0.5 rounds away from zero
    assert synthesize_ga(0.125) == 2
    assert synthesize_ga(0.375) == 3
    assert synthesize_ga(0.874) == 4
    assert synthesize_ga(0.875) == 5


def test_ga_monotone():
    rng = random.Random(5)
    xs = sorted(rng.random() for _ in range(500))
    gas = [synthesize_ga(x) for x in xs]
    assert all(a <= b for a, b in zip(gas, gas[1:]))


def test_ga_range_error():
    with pytest.raises(BadConfig, match=r"^s_icmw = 1\.5, outside \[0, 1\]$"):
        synthesize_ga(1.5)


def test_split_zone_boundary():
    assert detect_split_zone(5, 0.79) is True
    assert detect_split_zone(5, 0.8) is False
    assert detect_split_zone(4, 0.2) is False


def test_scores_reject_out_of_range():
    with pytest.raises(BadConfig, match=r"^r\[0\] \(a\) = 1\.2, outside \[0, 1\]$"):
        scores(["a"], [1.2], [0.0])
    with pytest.raises(BadConfig, match=r"^f\[0\] \(a\) = -0\.1, outside \[0, 1\]$"):
        scores(["a"], [1.0], [-0.1])


def test_weighted_sum_fraction_oracle():
    # exact rational cross-check on a handful of random instances
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        w = [Fraction(rng.randint(0, 20), 97) for _ in range(n)]
        v = [Fraction(rng.randint(0, 16), 16) for _ in range(n)]
        exact = sum(wi * vi for wi, vi in zip(w, v))
        if exact > 1:
            continue
        got = weighted_sum([float(x) for x in w], [float(x) for x in v])
        assert abs(got - float(exact)) < 1e-12


def make_spec():
    return IntentSpec(
        task_id="t", task_type="test",
        dimensions=(
            Dimension(id="what", weight=0.6,
                      intended_value=ValueRef.token("alpha")),
            Dimension(id="who", weight=0.4,
                      intended_value=ValueRef.token("beta")),
        ))


def test_score_output_identity():
    spec = make_spec()
    sc = score_output(spec, {"what": ValueRef.token("alpha"),
                             "who": ValueRef.token("beta")})
    assert sc.r == (1.0, 1.0) and sc.f == (1.0, 1.0)


def test_score_output_wrong_token_fills_slot():
    spec = make_spec()
    sc = score_output(spec, {"what": ValueRef.token("alpha"),
                             "who": ValueRef.token("WRONG")})
    assert sc.r == (1.0, 1.0)
    assert sc.f == (1.0, 0.0)


def test_score_output_absent_slot():
    spec = make_spec()
    sc = score_output(spec, {"what": ValueRef.token("alpha")})
    assert sc.r == (1.0, 0.0) and sc.f == (1.0, 0.0)


def test_score_output_unknown_key():
    with pytest.raises(BadConfig, match=r"^unknown dimension: 'nope'$"):
        score_output(make_spec(), {"nope": ValueRef.token("x")})


@pytest.mark.parametrize("keys", [("what", "WHAT"), ("WHAT", "what")])
def test_score_output_refuses_keys_equal_after_case_folding(keys):
    values = dict(zip(keys, (ValueRef.token("alpha"), ValueRef.token("generic"))))
    for score in (score_output, bundle_for_output):
        with pytest.raises(BadConfig, match=f"^realized keys {keys[0]!r} and {keys[1]!r} "
                                            "both name dimension 'what'$"):
            score(make_spec(), values)


def test_score_output_single_upper_case_key_still_scores():
    sc = score_output(make_spec(), {"WHAT": ValueRef.token("alpha"),
                                    "Who": ValueRef.token("WRONG")})
    assert sc.dims == ("what", "who")
    assert sc.r == (1.0, 1.0) and sc.f == (1.0, 0.0)


def test_score_output_kind_mismatch_is_zero():
    spec = make_spec()
    sc = score_output(spec, {"what": ValueRef.text("alpha")})
    assert sc.f[0] == 0.0


def test_graded_matcher_and_range_check():
    spec = make_spec()

    def grader(dim, got):
        return 0.5

    sc = score_output(spec, {"what": ValueRef.token("anything")}, grader)
    assert sc.f == (0.5, 0.0)

    def bad(dim, got):
        return 2.0

    with pytest.raises(BadConfig, match=r"^matcher returned 2\.0 for what, outside \[0, 1\]$"):
        score_output(spec, {"what": ValueRef.token("x")}, bad)


def test_missing_intended_value_needs_matcher():
    spec = IntentSpec(task_id="t", task_type="test", dimensions=(
        Dimension(id="a", weight=1.0),))
    with pytest.raises(BadConfig, match=r"^dimension 'a' has no intended value; "
                                        r"supply a matcher to score it$"):
        score_output(spec, {"a": ValueRef.token("x")})
    sc = score_output(spec, {"a": ValueRef.token("x")}, lambda d, g: 1.0)
    assert sc.f == (1.0,)


def test_bundle_for_output_without_carrier():
    spec = make_spec()
    _, bundle = bundle_for_output(spec, {"what": ValueRef.token("alpha"),
                                         "who": ValueRef.token("beta")})
    assert bundle.l_enc is None
    assert bundle.f_icmw == 1.0 and bundle.split_zone is False


def _random_instance(rng):
    n = rng.randint(1, 32)
    w = normalize_weights([rng.uniform(0.001, 1.0) for _ in range(n)])
    r = [rng.random() for _ in range(n)]
    f = [min(r[i], rng.random()) for i in range(n)]  # f <= r pointwise
    m = [rng.randint(0, 1) for _ in range(n)]
    return w, r, f, m


def test_fuzz_identities_small():
    # the acceptance suite runs the 10^4-instance version of this
    rng = random.Random(99)
    for _ in range(500):
        w, r, f, m = _random_instance(rng)
        dims = tuple(f"d{i}" for i in range(len(w)))
        sc = scores(dims, r, f)
        bundle = build_bundle(w, sc, EncodingMask(dims, tuple(m)))
        for x in (bundle.l_enc, bundle.s_icmw, bundle.f_icmw, bundle.d_drift):
            assert 0.0 <= x <= 1.0
        assert bundle.d_drift + bundle.f_icmw == 1.0
        assert bundle.f_icmw <= bundle.s_icmw


def test_l_enc_monotone_in_mask_bits():
    rng = random.Random(100)
    for _ in range(300):
        w, r, f, m = _random_instance(rng)
        dims = tuple(f"d{i}" for i in range(len(w)))
        zeros = [i for i, b in enumerate(m) if b == 0]
        if not zeros:
            continue
        base = encoding_loss(w, EncodingMask(dims, tuple(m)))
        i = rng.choice(zeros)
        flipped = list(m)
        flipped[i] = 1
        after = encoding_loss(w, EncodingMask(dims, tuple(flipped)))
        assert after <= base
        if w[i] > 0:
            assert after < base


if HAVE_HYPOTHESIS:

    @st.composite
    def weight_and_scores(draw):
        n = draw(st.integers(min_value=1, max_value=16))
        raw = draw(st.lists(st.floats(min_value=0.001, max_value=1.0),
                            min_size=n, max_size=n))
        r = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=n, max_size=n))
        shrink = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                               min_size=n, max_size=n))
        f = [ri * si for ri, si in zip(r, shrink)]
        return normalize_weights(raw), r, f

    @given(weight_and_scores())
    @settings(max_examples=300, deadline=None)
    def test_dominance_property(wrf):
        w, r, f = wrf
        dims = tuple(f"d{i}" for i in range(len(w)))
        s, fi = aggregate(w, scores(dims, r, f))
        assert fi <= s
        assert 0.0 <= s <= 1.0 and 0.0 <= fi <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=500, deadline=None)
    def test_complement_exact_for_any_f(f):
        d = 1.0 - f
        assert d + f == 1.0


# -- pure-Python reduction against the numpy forms it replaced -----------------

def numpy_weighted_sum(weights, values) -> float:
    """weighted_sum as a float64-array product, the reference it must equal."""
    import numpy as np

    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if w.shape != v.shape:
        raise BadConfig(f"weighted values length {v.shape[0]}, expected {w.shape[0]}")
    return _clamp_unit(math.fsum(w * v))


def numpy_synthesize_ga(s_icmw: float) -> int:
    import numpy as np

    return max(1, min(5, 1 + int(np.floor(4.0 * s_icmw + 0.5))))


def outcome(fn, *args):
    """Result bits, or the error's type and message."""
    try:
        return fn(*args).hex()
    except BadConfig as e:
        return type(e).__name__, str(e)


def test_ga_matches_numpy_floor_on_every_eighth():
    for k in range(9):
        s = k / 8
        near = (math.nextafter(s, -1.0), s, math.nextafter(s, 2.0))
        for x in (v for v in near if 0.0 <= v <= 1.0):
            assert synthesize_ga(x) == numpy_synthesize_ga(x), x


def test_length_mismatch_message_unchanged():
    for w, v in (([0.5, 0.5], [1.0]), ([1.0], [1, 0, 1]), ([], [True])):
        with pytest.raises(BadConfig) as want:
            numpy_weighted_sum(w, v)
        message = f"^weighted values length {len(v)}, expected {len(w)}$"
        with pytest.raises(BadConfig, match=message) as got:
            weighted_sum(w, v)
        assert str(got.value) == str(want.value)


if HAVE_HYPOTHESIS:

    @st.composite
    def weights_and_values(draw):
        n = draw(st.integers(min_value=0, max_value=16))
        w = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=n, max_size=n))
        value = draw(st.sampled_from([
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=1),
            st.booleans(),
        ]))
        return w, draw(st.lists(value, min_size=n, max_size=n))

    @given(weights_and_values(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_weighted_sum_bit_equal_to_numpy(wv, normalize):
        w, v = wv
        if normalize and sum(w) > 0:
            w = normalize_weights(w)
        assert outcome(weighted_sum, w, v) == outcome(numpy_weighted_sum, w, v)

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1,
                    max_size=16).map(normalize_weights), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_mask_bits_bit_equal_to_numpy(w, rng):
        bits = tuple(rng.randint(0, 1) for _ in w)
        mask = EncodingMask(tuple(f"d{i}" for i in range(len(w))), bits)
        assert outcome(weighted_sum, w, mask.bits) == outcome(numpy_weighted_sum, w, bits)
        assert encoding_loss(w, mask) == _clamp_unit(1.0 - numpy_weighted_sum(w, bits))

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=500, deadline=None)
    def test_ga_bit_equal_to_numpy(s):
        assert synthesize_ga(s) == numpy_synthesize_ga(s)
