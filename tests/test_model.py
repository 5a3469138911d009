import random
from fractions import Fraction

import pytest

from ist.errors import BadConfig, ValidationError
from ist.jsonio import normalize_weights
from ist.model import (
    Dimension,
    EncodingMask,
    IntentSpec,
    ValueRef,
    flatten,
    refine_dimension,
    validate_spec,
)

from ist.spec_io import serialize_intent_spec

from conftest import random_spec


def spec_of(*dims):
    return IntentSpec(task_id="t", task_type="test", dimensions=tuple(dims))


def leaf(dim_id, weight, value="x", **kw):
    return Dimension(id=dim_id, weight=weight,
                     intended_value=ValueRef.token(value), **kw)


def test_normalize_uniform():
    assert normalize_weights([1, 1, 1, 1]) == [0.25, 0.25, 0.25, 0.25]


def test_normalize_rational_oracle():
    # exact-rational reference: 2/10, 3/10, 5/10
    got = normalize_weights([2, 3, 5])
    want = [Fraction(2, 10), Fraction(3, 10), Fraction(5, 10)]
    for g, w in zip(got, want):
        assert abs(g - float(w)) < 1e-15
    assert got == [0.2, 0.3, 0.5]


def test_normalize_errors():
    with pytest.raises(BadConfig, match=r"^cannot normalize an empty weight list$"):
        normalize_weights([])
    with pytest.raises(BadConfig, match=r"^all weights are zero$"):
        normalize_weights([0, 0])
    with pytest.raises(BadConfig, match=r"^weight at index 1 is negative \(-0\.1\)$"):
        normalize_weights([0.5, -0.1])


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        raw = [rng.uniform(0.01, 10) for _ in range(rng.randint(1, 8))]
        once = normalize_weights(raw)
        twice = normalize_weights(once)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(once, twice))


def test_validate_clean_spec_is_clean():
    spec = spec_of(leaf("what", 0.4), leaf("who", 0.6))
    assert validate_spec(spec) == []


def violations_of(*dims):
    """The violations building spec_of(*dims) raises."""
    with pytest.raises(ValidationError) as ei:
        spec_of(*dims)
    return ei.value.violations


def test_validate_duplicate_id():
    rules = [v.rule for v in violations_of(leaf("what", 0.5), leaf("what", 0.5))]
    assert rules.count("DuplicateId") == 1


def test_validate_child_weight_sum():
    bad = Dimension(id="p", weight=1.0, children=(
        leaf("a", 0.6), leaf("b", 0.6)))
    report = violations_of(bad)
    assert [v.rule for v in report] == ["ChildWeightSum"]
    assert report[0].dimension == "p"


def test_validate_weight_sum_tolerance():
    # 1e-7 off: fine. 1e-3 off: violation.
    ok = spec_of(leaf("a", 0.5), leaf("b", 0.5 + 1e-7))
    assert validate_spec(ok) == []
    bad = violations_of(leaf("a", 0.5), leaf("b", 0.501))
    assert "TopLevelWeightSum" in [v.rule for v in bad]


@pytest.mark.parametrize("dims, rule", [
    ((), "NoDimensions"),
    ((leaf("", 1.0),), "EmptyId"),
    ((leaf("a", 1.5), leaf("b", -0.5)), "WeightRange"),
    ((leaf("a", 1.0, privacy_hint="secret"),), "BadPrivacyHint"),
    ((Dimension("a", 1.0, ValueRef("number", "1")),), "BadValueKind"),
])
def test_every_rule_raises_when_built(dims, rule):
    assert rule in [v.rule for v in violations_of(*dims)]


def test_ids_stored_lowercase():
    spec = spec_of(leaf("What", 1.0))
    assert spec.dimensions[0].id == "what"


def test_flatten_plain():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    flat = flatten(spec)
    assert [(d.id, d.weight) for d in flat] == [("a", 0.4), ("b", 0.6)]


def test_flatten_product_oracle():
    parent = Dimension(id="p", weight=0.5, children=(
        leaf("p_a", 0.5), leaf("p_b", 0.5)))
    spec = spec_of(parent, leaf("q", 0.5))
    flat = flatten(spec)
    assert [d.id for d in flat] == ["p_a", "p_b", "q"]
    assert [d.weight for d in flat] == [0.25, 0.25, 0.5]


def test_flatten_single_dim():
    flat = flatten(spec_of(leaf("only", 1.0)))
    assert len(flat) == 1 and flat[0].weight == 1.0


def test_spec_rejects_invalid_when_built():
    with pytest.raises(ValidationError) as ei:
        spec_of(leaf("a", 0.9))
    assert [v.rule for v in ei.value.violations] == ["TopLevelWeightSum"]


def test_flatten_mass_on_random_trees():
    rng = random.Random(42)
    for _ in range(300):
        spec = random_spec(rng)
        total = sum(d.weight for d in flatten(spec))
        assert abs(total - 1.0) <= 1e-9


def test_flatten_hint_passthrough():
    spec = spec_of(leaf("a", 0.3, privacy_hint="private"), leaf("b", 0.7))
    flat = flatten(spec)
    assert flat[0].privacy_hint == "private"
    assert flat[1].privacy_hint is None


def test_refine_product_oracle():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    refined = refine_dimension(spec, "a", [leaf("a1", 0.5), leaf("a2", 0.5)])
    flat = flatten(refined)
    assert [(d.id, d.weight) for d in flat] == [
        ("a1", 0.2), ("a2", 0.2), ("b", 0.6)]


def test_refine_identity_child():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    refined = refine_dimension(spec, "a", [leaf("a_sub", 1.0)])
    assert [d.weight for d in flatten(refined)] == [0.4, 0.6]


def test_refine_errors():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    with pytest.raises(BadConfig, match=r"^unknown dimension: 'zzz'$"):
        refine_dimension(spec, "zzz", [leaf("x", 1.0)])
    with pytest.raises(BadConfig, match=r"^child weights of 'a' sum to 1\.4, expected 1$"):
        refine_dimension(spec, "a", [leaf("x", 0.7), leaf("y", 0.7)])
    once = refine_dimension(spec, "a", [leaf("x", 1.0)])
    with pytest.raises(BadConfig, match=r"^dimension 'a' already has children$"):
        refine_dimension(once, "a", [leaf("y", 1.0)])


def test_refine_duplicate_id_raises():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    with pytest.raises(ValidationError) as ei:
        refine_dimension(spec, "a", [leaf("b", 0.5), leaf("a2", 0.5)])
    assert [(v.rule, v.dimension) for v in ei.value.violations] == [
        ("DuplicateId", "b")]


def test_refine_preserves_mass_randomly():
    rng = random.Random(9)
    for _ in range(100):
        spec = random_spec(rng, allow_children=False)
        target = spec.dimensions[rng.randrange(len(spec.dimensions))].id
        subs = [leaf("r1", 0.25), leaf("r2", 0.75)]
        refined = refine_dimension(spec, target, subs)
        total = sum(d.weight for d in flatten(refined))
        assert abs(total - 1.0) <= 1e-9


def test_flat_is_the_flattened_spec():
    rng = random.Random(5)
    for _ in range(50):
        spec = random_spec(rng)
        assert spec.flat == tuple(flatten(spec))
        assert spec.flat is spec.flat


def test_refine_and_replace_give_a_fresh_flat():
    spec = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    assert [d.id for d in spec.flat] == ["a", "b"]
    refined = refine_dimension(spec, "a", [leaf("a1", 0.5), leaf("a2", 0.5)])
    assert [(d.id, d.weight) for d in refined.flat] == [
        ("a1", 0.2), ("a2", 0.2), ("b", 0.6)]
    swapped = spec._replace(dimensions=(leaf("c", 1.0),))
    assert [(d.id, d.weight) for d in swapped.flat] == [("c", 1.0)]
    assert [d.id for d in spec.flat] == ["a", "b"]


def test_flat_is_not_a_field():
    fresh = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    used = spec_of(leaf("a", 0.4), leaf("b", 0.6))
    blob = serialize_intent_spec(used)
    assert used.flat
    assert "flat" not in IntentSpec._fields
    assert used == fresh and hash(used) == hash(fresh)
    assert serialize_intent_spec(used) == blob == serialize_intent_spec(fresh)


def test_mask_validation():
    m = EncodingMask(("a", "b"), (1, 0))
    assert m.bit("a") == 1 and m.bit("b") == 0
    with pytest.raises(Exception):
        EncodingMask(("a",), (2,))
    with pytest.raises(Exception):
        EncodingMask(("a", "b"), (1,))


# --- record types ------------------------------------------------------------

def record_samples() -> list:
    """One record of every named tuple type in src/ist."""
    from ist.audit import Aggregate, AuditRecord
    from ist.experiments import (CellSummary, ExperimentConfig, PerturbationReport,
                                 PerturbationSpec)
    from ist.infotheory import DiscreteJoint, DpiReport, identity_decoder
    from ist.metrics import DimensionScores, MetricBundle
    from ist.model import Carrier, FlatDimension, Violation
    from ist.priors import check_world_config
    from ist.spec_io import OutputRecord, parse_output_document
    from ist.tiil import classify_privacy
    from ist.worlds import build_world, full_mask, simulate_output

    config = {"seed": 1, "tasks": [{"task_id": "t", "dims": [
        {"id": "a", "weight": 0.5, "K": 2, "lambda": 0.5},
        {"id": "b", "weight": 0.5, "K": 3, "lambda": 0.0}]}]}
    world, checked = build_world(config), check_world_config(config)
    mask = full_mask(world.tasks[0])
    cell = CellSummary("t", "m", "identity", 1.0, 0.0, False)
    return [
        ValueRef.token("v0"), Dimension("a", 1.0), spec_of(leaf("a", 1.0)),
        Carrier("t", {"a"}), mask, FlatDimension("a", 1.0, None),
        Violation("EmptyId", "", "dimension id is empty"),
        DimensionScores(("a",), (1.0,), (0.5,)), MetricBundle(1.0, 0.5, 0.5, 5, True),
        OutputRecord("t", "FULL", "m", mask, {"a": ValueRef.token("v0")}, 5, 1.0, 1.0),
        parse_output_document('{"task_id": "t", "realized_values": {}}'),
        AuditRecord("t", "2026-08-15T00:00:00Z", ("a",), (), (), ("a",), ("a",),
                    0.0, 1.0, 1.0, 0.0, 5, False, "unlabeled"),
        Aggregate(0, 0, None, None),
        world.tasks[0], world, simulate_output(world, "t", mask),
        checked, checked.tasks[0], classify_privacy(checked, "t", "a"),
        DiscreteJoint(("v",), [0.5, 0.5]), identity_decoder("v", 2),
        DpiReport(1.0, 0.5, True, 0.5),
        PerturbationSpec("jitter", 0.1), cell, PerturbationReport((cell,), None, None, None),
        ExperimentConfig(world),
    ]


RECORDS = record_samples()
# records holding a dict or an array, which hash as their fields do: not at all
UNHASHABLE = {"OutputRecord", "OutputDocument", "SimulatedOutput", "DiscreteJoint", "Decoder"}


def test_the_samples_cover_every_record_type():
    import importlib
    import pkgutil

    import ist

    types = set()
    for info in pkgutil.iter_modules(ist.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"ist.{info.name}")
            types |= {obj for obj in vars(module).values() if isinstance(obj, type)
                      and issubclass(obj, tuple) and obj.__module__ == module.__name__}
    assert {type(r) for r in RECORDS} == types and len(types) == len(RECORDS) == 26


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_an_immutable_named_tuple(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = type(record)._make(record)
    assert type(twin) is type(record)
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert twin == record and hash(twin) == hash(record)
        assert record == tuple(record)


def test_replace_runs_the_checks_again():
    spec = spec_of(leaf("a", 0.4), leaf("B", 0.6))
    with pytest.raises(ValidationError):
        spec._replace(dimensions=())
    mask = EncodingMask(("a",), (1,))
    with pytest.raises(BadConfig, match=r"^mask bit must be 0 or 1, got 2$"):
        mask._replace(bits=(2,))
    assert mask._replace(dims=("A",)) == EncodingMask(("a",), (1,))
    assert spec.dimensions[1]._replace(id="C").id == "c"


def test_a_dimension_normalizes_its_fields():
    dim = Dimension("A", 1)
    assert dim.id == "a" and type(dim.weight) is float and dim.children == ()
    assert dim == Dimension("a", 1.0) == ("a", 1.0, None, None, ())
    assert Dimension("a", 1, children=[leaf("x", 1.0)]).children == (leaf("x", 1.0),)
