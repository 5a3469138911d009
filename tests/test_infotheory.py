import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ist.errors import (
    BadConfig,
    DomainMismatch,
    InvalidDistribution,
    RangeError,
    UnknownVariable,
    WorldTooLarge,
)
from ist.infotheory import (
    DPI_TOL,
    Decoder,
    DiscreteJoint,
    apply_decoder,
    bayes_accuracy,
    bayes_decoder,
    chance_level,
    decoder_accuracy,
    dimension_channel_joint,
    entropy,
    identity_decoder,
    mutual_information,
    random_deterministic_decoder,
    verify_dpi,
)
from ist.jsonio import dumps_canonical
from ist.priors import (CELL_CAP, CHANCE_FLOOR, TaskRow, WorldConfig, check_world_config,
                        dim_channels, privacy_label)
from ist.rng import DECODER_STREAM, MASK64, derive, splitmix64, uniform_index, unit_float
from ist.tiil import _Channel, classify_privacy, mi_of_entropies, tiil_check
from ist.worlds import SyntheticWorld, build_world

from reference import constant_decoder

H_THREE_QUARTERS = 0.8112781244591328  # -(0.75 log2 0.75 + 0.25 log2 0.25)


def joint2(table):
    return DiscreteJoint(("x", "y"), np.asarray(table, dtype=np.float64))


def random_joint(rng, names):
    shape = tuple(rng.randint(2, 4) for _ in names)
    table = np.array([rng.random() for _ in range(int(np.prod(shape)))])
    table /= table.sum()
    return DiscreteJoint(tuple(names), table.reshape(shape))


def test_entropy_examples():
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.25] * 4) == 2.0
    assert entropy([0.75, 0.25]) == H_THREE_QUARTERS


def test_entropy_rejects_bad_input():
    with pytest.raises(InvalidDistribution):
        entropy([0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        entropy([1.5, -0.5])


def test_entropy_of_joint():
    j = joint2([[0.25, 0.25], [0.25, 0.25]])
    assert entropy(j) == 2.0


def test_mi_independent_is_zero():
    px = np.array([0.3, 0.7])
    py = np.array([0.1, 0.2, 0.7])
    j = joint2(np.outer(px, py))
    assert mutual_information(j, "x", "y") == 0.0


def test_mi_copy_channel():
    j = joint2(np.eye(4) / 4)
    assert mutual_information(j, "x", "y") == 2.0


def test_mi_formula_cross_oracle():
    rng = random.Random(42)
    for _ in range(60):
        j = random_joint(rng, ("x", "y"))
        got = mutual_information(j, "x", "y")
        px = j.marginal("x").table
        py = j.marginal("y").table
        direct = 0.0
        for i in range(j.size("x")):
            for k in range(j.size("y")):
                p = j.table[i, k]
                if p > 0:
                    direct += p * math.log2(p / (px[i] * py[k]))
        assert abs(got - direct) < 1e-12


def test_mi_symmetry_and_bounds():
    rng = random.Random(7)
    for _ in range(40):
        j = random_joint(rng, ("x", "y"))
        a = mutual_information(j, "x", "y")
        b = mutual_information(j, "y", "x")
        assert abs(a - b) < 1e-12
        assert a >= 0.0
        hx = entropy(j.marginal("x"))
        hy = entropy(j.marginal("y"))
        assert a <= min(hx, hy) + 1e-9


def test_mi_group_arguments():
    rng = random.Random(3)
    j = random_joint(rng, ("a", "b", "c"))
    got = mutual_information(j, ("a", "b"), "c")
    assert got >= 0.0
    with pytest.raises(UnknownVariable):
        mutual_information(j, "a", "zzz")
    with pytest.raises(DomainMismatch):
        mutual_information(j, ("a", "b"), ("b", "c"))


def test_marginal_respects_requested_order():
    table = np.array([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]])
    j = joint2(table)
    yx = j.marginal("y", "x")
    assert yx.variables == ("y", "x")
    assert np.allclose(yx.table, table.T)


def test_joint_validation():
    with pytest.raises(InvalidDistribution):
        joint2([[0.6, 0.6], [0.0, 0.0]])
    with pytest.raises(InvalidDistribution):
        joint2([[1.2, -0.2], [0.0, 0.0]])
    with pytest.raises(InvalidDistribution):
        DiscreteJoint(("x", "x"), np.eye(2) / 2)


def test_cell_cap_enforced():
    with pytest.raises(WorldTooLarge):
        DiscreteJoint(("a", "b", "c"),
                      np.zeros((101, 100, 100)))


def test_apply_decoder_checks_the_cap_before_it_allocates(monkeypatch):
    # the extended joint of a K=101 channel holds 101**3 > CELL_CAP cells;
    # it is refused before einsum builds it, and K=100 (exactly the cap) runs
    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum ran")

    joint = DiscreteJoint(("v", "y"), np.full((101, 101), 1 / 101 ** 2))
    monkeypatch.setattr(np, "einsum", no_einsum)
    with pytest.raises(WorldTooLarge, match=r"^enumeration would need 1030301 cells "
                                            r"\(cap 1000000\)$"):
        apply_decoder(joint, constant_decoder(("y",), (101,), 101))
    monkeypatch.undo()
    joint = DiscreteJoint(("v", "y"), np.full((100, 100), 1 / 100 ** 2))
    ext = apply_decoder(joint, constant_decoder(("y",), (100,), 100))
    assert ext.table.size == 10 ** 6


def test_decoder_validation():
    with pytest.raises(InvalidDistribution):
        Decoder(("x",), "g", np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidDistribution):
        Decoder(("x",), "g", np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_nan_is_rejected_and_named():
    # a NaN compares False both ways, so neither "any entry < 0" nor
    # "|total - 1| > tol" caught it; the checks are written to fail on it
    nan = float("nan")
    with pytest.raises(InvalidDistribution, match="^NaN entry$"):
        joint2([[nan, 0.5], [0.25, 0.25]])
    with pytest.raises(InvalidDistribution, match="^NaN entry$"):
        joint2([[nan, -0.5], [0.25, 0.25]])
    with pytest.raises(InvalidDistribution, match="^NaN decoder entry$"):
        Decoder(("x",), "g", np.array([[nan, 1.0], [0.5, 0.5]]))
    with pytest.raises(InvalidDistribution, match="^NaN entry$"):
        entropy([nan, 0.5, 0.5])


@pytest.mark.parametrize("build,message", [
    (lambda: joint2([[1.2, -0.2], [0.0, 0.0]]), "negative entry -0.2"),
    (lambda: joint2([[0.6, 0.6], [0.0, 0.0]]), "table sums to 1.2, expected 1"),
    (lambda: joint2([[math.inf, 0.0], [0.0, 0.0]]), "table sums to inf, expected 1"),
    (lambda: entropy([1.5, -0.5]), "negative entry -0.5"),
    (lambda: entropy([0.5, 0.6]), "sums to 1.1, expected 1"),
    (lambda: Decoder(("x",), "g", np.array([[1.5, -0.5], [0.5, 0.5]])),
     "negative decoder entry"),
    (lambda: Decoder(("x",), "g", np.array([[0.5, 0.4], [0.5, 0.5]])),
     "decoder row does not sum to 1"),
])
def test_distribution_errors_keep_their_text(build, message):
    with pytest.raises(InvalidDistribution) as info:
        build()
    assert str(info.value) == message


def test_apply_identity_decoder_copies_evidence():
    j = joint2([[0.4, 0.1], [0.2, 0.3]])
    ext = apply_decoder(j, identity_decoder("y", 2))
    yg = ext.marginal("y", "g")
    assert np.allclose(yg.table, np.diag(j.marginal("y").table))


def test_apply_constant_decoder_kills_information():
    j = joint2([[0.4, 0.1], [0.2, 0.3]])
    ext = apply_decoder(j, constant_decoder(("y",), (2,), 2))
    assert mutual_information(ext, "x", "g") == 0.0


def test_bayes_decoder_on_copy_channel_recovers_everything():
    j = joint2(np.eye(4) / 4)
    dec = bayes_decoder(j, "x", "y")
    ext = apply_decoder(j, dec)
    assert abs(mutual_information(ext, "x", "g")
               - entropy(j.marginal("x"))) < 1e-12
    assert abs(decoder_accuracy(j, dec, "x") - 1.0) < 1e-12


def test_apply_decoder_domain_checks():
    j = joint2([[0.4, 0.1], [0.2, 0.3]])
    with pytest.raises(DomainMismatch):
        apply_decoder(j, identity_decoder("y", 3))  # size conflict
    with pytest.raises(DomainMismatch):
        apply_decoder(j, identity_decoder("y", 2, output_var="x"))


def test_dpi_random_suite_small():
    # the acceptance battery runs >= 100 joints; this is the quick loop
    rng = random.Random(17)
    for trial in range(30):
        names = ("v", "e1", "e2")[:rng.randint(2, 3)]
        j = random_joint(rng, names)
        ev = names[1:]
        sizes = tuple(j.size(n) for n in ev)
        out_size = j.size("v")
        decoders = [
            constant_decoder(ev, sizes, out_size),
            random_deterministic_decoder(ev, sizes, out_size, seed=trial),
            bayes_decoder(j, "v", ev),
        ]
        for dec in decoders:
            rep = verify_dpi(j, dec)
            assert rep.holds
            assert rep.slack >= -1e-9


def test_dpi_constant_decoder_report():
    j = joint2([[0.4, 0.1], [0.2, 0.3]])
    rep = verify_dpi(j, constant_decoder(("y",), (2,), 2))
    assert rep.i_v_g == 0.0
    assert rep.slack == rep.i_v_evidence
    with pytest.raises(DomainMismatch):
        verify_dpi(j, constant_decoder(("x", "y"), (2, 2), 2))


def test_dpi_report_has_builtin_types():
    # tiil-check serializes these fields with dumps_canonical, which
    # accepts only builtin scalars
    j = joint2([[0.4, 0.1], [0.2, 0.3]])
    rep = verify_dpi(j, bayes_decoder(j, "x", ("y",)))
    assert type(rep.holds) is bool
    assert type(rep.i_v_evidence) is float and type(rep.i_v_g) is float


def test_bayes_accuracy_examples():
    assert bayes_accuracy(joint2(np.eye(4) / 4), "x", "y") == 1.0
    px = np.full(5, 0.2)
    py = np.array([0.5, 0.5])
    indep = DiscreteJoint(("x", "y"), np.outer(px, py))
    assert abs(bayes_accuracy(indep, "x", "y") - 0.2) < 1e-12
    assert chance_level(indep, "x") == 0.2


def test_bayes_accuracy_dominates_chance_and_decoders():
    rng = random.Random(29)
    for trial in range(30):
        j = random_joint(rng, ("v", "e"))
        acc = bayes_accuracy(j, "v", "e")
        assert acc >= chance_level(j, "v") - 1e-12
        dec = random_deterministic_decoder(("e",), (j.size("e"),),
                                           j.size("v"), seed=trial)
        assert decoder_accuracy(j, dec, "v") <= acc + 1e-12


def one_dim_world(lam, k, seed=4):
    cfg = {"tasks": [{"task_id": "t", "dims": [
        {"id": "d", "weight": 1.0, "K": k, "lambda": lam}]}]}
    return build_world(cfg, seed=seed)


def test_mixture_channel_bayes_accuracy():
    world = one_dim_world(0.5, 2)
    j = dimension_channel_joint(world, "t", "d", mode="sample")
    assert abs(bayes_accuracy(j, "v", "y") - 0.75) < 1e-12


def test_classify_point_mass_public():
    v = classify_privacy(one_dim_world(1.0, 10), "t", "d")
    assert v.label == "public"
    assert v.bayes_accuracy == 1.0


def test_classify_uniform_private():
    v = classify_privacy(one_dim_world(0.0, 10), "t", "d")
    assert v.label == "private"
    assert abs(v.bayes_accuracy - 0.1) < 1e-12
    assert abs(v.chance - 0.1) < 1e-12
    assert v.mi_bits <= 1e-12


def test_classify_mid_mixture():
    # acc = lam + (1 - lam)/K = 0.7 < 0.9
    v = classify_privacy(one_dim_world(0.6, 4), "t", "d", theta_pub=0.9)
    assert abs(v.bayes_accuracy - 0.7) < 1e-12
    assert v.label == "private"
    with pytest.raises(RangeError):
        classify_privacy(one_dim_world(0.6, 4), "t", "d", theta_pub=0.0)


# K from 300 to 1,000 at a stride, plus K that failed the MI check at 1e-12
# times the entropies (331 and 346 at lambda 0, 1000 at all four)
FLAT_KS = sorted({331, 346, 1000, *range(300, 1001, 70)})


@pytest.mark.parametrize("lam", [0.0, 1e-17, 1e-12, 1e-9])
def test_classify_privacy_accepts_flat_priors_up_to_k_1000(lam):
    # the rounding of H(v, y)'s running sum grows with its K**2 cells
    for k in FLAT_KS:
        v = classify_privacy(one_dim_world(lam, k), "t", "d")
        assert v.label == "private", k
        assert 0.0 <= v.mi_bits < 1e-9, k


def test_mutual_information_still_raises_beyond_rounding(monkeypatch):
    import ist.infotheory as infotheory
    joint = dimension_channel_joint(one_dim_world(0.0, 331), "t", "d")
    entropy_of = infotheory.entropy
    # H(v, y) overstated by 1e-6 bits: far beyond any rounding of the sums
    monkeypatch.setattr(infotheory, "entropy", lambda d: entropy_of(d) + (
        1e-6 if d.table.ndim == 2 else 0.0))
    with pytest.raises(RangeError, match=r"^mutual information -1\.0000\d*e-06 below -"):
        mutual_information(joint, "v", "y")


def test_boundary_migration_single_flip():
    for k in (4, 10):
        for theta in (0.7, 0.9):
            labels = []
            accs = []
            for i in range(21):  # lam = 0.00, 0.05, ..., 1.00
                v = classify_privacy(one_dim_world(i / 20, k), "t", "d",
                                     theta_pub=theta)
                labels.append(v.label)
                accs.append(v.bayes_accuracy)
            assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
            flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert flips == 1
            assert labels[0] == "private" and labels[-1] == "public"


def test_other_dimensions_cannot_rescue_private():
    for other_lam in (0.0, 0.5, 1.0):
        cfg = {"tasks": [{"task_id": "t", "dims": [
            {"id": "a", "weight": 0.5, "K": 4, "lambda": other_lam},
            {"id": "b", "weight": 0.5, "K": 10, "lambda": 0.0}]}]}
        world = build_world(cfg, seed=4)
        v = classify_privacy(world, "t", "b")
        assert v.label == "private"
        assert abs(v.bayes_accuracy - 0.1) < 1e-12


def test_channel_cap():
    with pytest.raises(WorldTooLarge):
        dimension_channel_joint(one_dim_world(0.0, 2000), "t", "d")


def test_tiil_check_demo_world(demo_world_config):
    world = build_world(demo_world_config)
    out = tiil_check(world, seed=0)
    assert out["all_hold"] is True
    assert out["theta_pub"] == 0.9
    by_dim = {(d["task_id"], d["dimension"]): d for d in out["dims"]}
    assert by_dim[("report-demo", "why")]["label"] == "private"
    assert by_dim[("report-demo", "what")]["label"] == "public"
    for entry in out["dims"]:
        for dec in entry["decoders"]:
            assert dec["dpi_holds"] and dec["ok"]


# -- reference oracle: the per-dimension battery, one dimension at a time ---

def prior_loop_channel(k, lam, mode):
    """p(v, y) by building the mixture prior for each user value v."""
    base = (1.0 - lam) / k
    table = np.zeros((k, k))
    for u in range(k):
        prior = np.full(k, base)
        prior[u] += lam
        if mode == "sample":
            table[u, :] = prior / k
        else:
            table[u, int(np.argmax(prior))] = 1.0 / k
    return table


def exact_accuracy_and_chance(k, lam):
    """The (K, lambda) channel's Bayes accuracy, (1 + (K - 1) lam)/K, and
    chance level, 1/K, each the float nearest the exact fraction of the
    float lam: the reference of the label rule."""
    return float((1 + (k - 1) * Fraction(lam)) / k), float(Fraction(1, k))


def tiil_check_reference(world, theta_pub=0.9, seed=0):
    """tiil_check as a plain loop: every dimension's joint, verdict and
    three decoders computed anew, nothing shared or cached.

    I(v; g) takes H(v) from the channel, joint.marginal("v"), as I(v; y)
    does: every extension has the channel's v marginal. verify_dpi on the
    extension sums H(v) over its K**3 cells instead, so its I(v; g) may
    differ in the last ulps, never in whether the bound holds. Past
    CELL_CAP cells (K > 100) the extension is built by apply_decoder's
    einsum and summed over y and v as DiscreteJoint.marginal sums it,
    without the constructor, and verify_dpi is not run."""
    dims_report = []
    all_hold = True
    for task in world.tasks:
        for dim_id, k, lam in zip(task.dims, task.ks, task.lams):
            joint = DiscreteJoint(("v", "y"), prior_loop_channel(k, lam, "sample"))
            acc_bayes, chance = exact_accuracy_and_chance(k, lam)
            mi = mutual_information(joint, "v", "y")
            public = acc_bayes >= theta_pub and acc_bayes >= chance + CHANCE_FLOOR
            chance_level_dim = acc_bayes <= chance + DPI_TOL
            decoders = [
                ("constant", constant_decoder(("y",), (k,), k)),
                ("random_deterministic", random_deterministic_decoder(
                    ("y",), (k,), k, seed=derive(seed, task.index))),
                ("bayes", bayes_decoder(joint, "v", ("y",))),
            ]
            h_v = entropy(joint.marginal("v"))
            rows = []
            for name, dec in decoders:
                if k ** 3 <= CELL_CAP:
                    extended = apply_decoder(joint, dec)
                    g, vg = extended.marginal("g").table, extended.marginal("v", "g").table
                else:
                    extended = np.einsum("ab,bc->abc", joint.table, dec.rows)
                    g, vg = extended.sum(axis=(0, 1)), extended.sum(axis=1)
                acc = decoder_accuracy(joint, dec, "v")
                i_v_g = mi_of_entropies([h_v, entropy(g), entropy(vg)], [k, k, k ** 2])
                holds = i_v_g <= mi + DPI_TOL
                if k ** 3 <= CELL_CAP:
                    rep = verify_dpi(joint, dec)
                    assert rep.holds == holds and rep.i_v_evidence == mi
                    assert math.isclose(rep.i_v_g, i_v_g, rel_tol=1e-12, abs_tol=1e-12)
                beats_chance = acc > chance + DPI_TOL
                ok = holds and not (chance_level_dim and
                                    (beats_chance or i_v_g > DPI_TOL))
                all_hold = all_hold and ok
                rows.append({"decoder": name, "dpi_holds": holds,
                             "slack": mi - i_v_g, "accuracy": acc,
                             "i_v_g": i_v_g, "ok": ok})
            dims_report.append({
                "task_id": task.task_id, "dimension": dim_id,
                "lambda": lam, "label": "public" if public else "private",
                "mi_bits": mi, "bayes_accuracy": acc_bayes, "chance": chance,
                "chance_level": chance_level_dim, "decoders": rows})
    return {"theta_pub": theta_pub, "all_hold": all_hold, "dims": dims_report}


def random_world_config(rng, channel, n_tasks, n_dims):
    tasks = []
    for t in range(n_tasks):
        n = rng.randint(1, n_dims)
        dims = []
        for i in range(n):
            k, lam = channel()
            dims.append({"id": f"d{i}", "weight": 1.0 / n, "K": k, "lambda": lam})
        dims[-1]["weight"] = 1.0 - sum(d["weight"] for d in dims[:-1])
        tasks.append({"task_id": f"t{t}", "dims": dims})
    return {"tasks": tasks}


# numpy sums a row of n cells as one run below 8, as eight lanes up to
# 128, and as two halves past that, split at a multiple of 8
PAIRWISE_BRANCH_KS = (7, 8, 9, 127, 128, 129, 136, 137)


def reference_worlds():
    rng = random.Random(31)
    repeating = [(3, 0.0), (3, 0.5), (4, 1.0), (10, 0.25), (10, 0.0)]
    kinds = {
        "repeating": (lambda: rng.choice(repeating), 6, 6),
        "distinct": (lambda: (rng.randint(2, 12), rng.random()), 5, 5),
        "large_k": (lambda: (rng.choice((2, 17, 33, 64)),
                             rng.choice((0.0, 0.3, 1.0))), 2, 3),
        "edge_lambda": (lambda: (rng.randint(2, 9),
                                 rng.choice((0.0, 5e-324, 1.0))), 5, 5),
    }
    for kind, (channel, n_tasks, n_dims) in kinds.items():
        for world_seed in (0, 13):
            cfg = random_world_config(rng, channel, n_tasks, n_dims)
            yield kind, build_world(cfg, seed=world_seed)
    # one dimension at each K next to a branch of numpy's pairwise row sum
    for world_seed in (0, 13):
        cfg = {"tasks": [{"task_id": "t0", "dims": [
            {"id": f"d{i}", "weight": 1.0 if i == 0 else 0.0, "K": k,
             "lambda": rng.choice((0.0, 5e-324, rng.random(), 1.0))}
            for i, k in enumerate(PAIRWISE_BRANCH_KS)]}]}
        yield "pairwise_branches", build_world(cfg, seed=world_seed)


def sub_world():
    """Tasks 1 and 2 of a three-task world: each keeps the index that
    build_world gave it, and that index, not its position in the world,
    seeds its random decoder."""
    world = build_world({"tasks": [{"task_id": f"t{i}", "dims": [
        {"id": "d", "weight": 1.0, "K": 6, "lambda": 0.3}]} for i in range(3)]}, seed=0)
    return SyntheticWorld(world.seed, world.tag, world.tasks[1:])


def checked_form(world):
    """A built world in check_world_config's form: its tasks as TaskRows,
    each keeping its index."""
    return WorldConfig(world.seed, world.tag, tuple(
        TaskRow(t.task_id, t.index, t.dims, t.weights, t.ks, t.lams) for t in world.tasks))


def test_tiil_check_bytes_match_reference(demo_world_config):
    worlds = [("demo", build_world(demo_world_config)), ("sub_world", sub_world()),
              ("sub_world_config", checked_form(sub_world()))]
    worlds += list(reference_worlds())
    kinds = set()
    for kind, world in worlds:
        for theta in (0.5, 0.9, 1.0):
            for seed in (0, 7):
                got = dumps_canonical(tiil_check(world, theta_pub=theta, seed=seed))
                want = dumps_canonical(tiil_check_reference(world, theta, seed))
                assert got == want, (kind, theta, seed)
        kinds.add(kind)
    assert kinds == {"demo", "sub_world", "sub_world_config", "repeating", "distinct",
                     "large_k", "edge_lambda", "pairwise_branches"}
    # the oracle reads both forms of one world alike
    world = sub_world()
    config = checked_form(world)
    for task in world.tasks:
        assert list(dim_channels(config, task.task_id, task.dims)) == \
            list(dim_channels(world, task.task_id, task.dims))
        for dim_id in task.dims:
            assert classify_privacy(config, task.task_id, dim_id) == \
                classify_privacy(world, task.task_id, dim_id)
            assert dimension_channel_joint(config, task.task_id, dim_id).table.tobytes() == \
                dimension_channel_joint(world, task.task_id, dim_id).table.tobytes()


TIIL_EDGE_LAMBDAS = (0.0, 5e-324, 1e-17, 1e-12, 1.0 - 2.0 ** -53, 1.0 - 1e-16, 1.0)


def shared_channel_world(k):
    """Task t0 holds every edge lambda at K; t1..t6 each hold one dimension
    on t0's lambda = 1e-12 channel, so that channel has 2 + 7 decoders."""
    tasks = [{"task_id": "t0", "dims": [
        {"id": f"d{i}", "weight": 1.0 / len(TIIL_EDGE_LAMBDAS), "K": k, "lambda": lam}
        for i, lam in enumerate(TIIL_EDGE_LAMBDAS)]}]
    tasks[0]["dims"][-1]["weight"] = 1.0 - sum(d["weight"] for d in tasks[0]["dims"][:-1])
    tasks += [{"task_id": f"t{t}", "dims": [
        {"id": "shared", "weight": 1.0, "K": k, "lambda": 1e-12}]} for t in range(1, 7)]
    return build_world({"tasks": tasks}, seed=k)


@pytest.mark.parametrize("k", [2, 3, 99, 100])
def test_tiil_check_bytes_match_reference_across_blocks(k):
    # the shared channel's 9 decoders (2 + 7 tasks) share its partial sums
    # and memo tables, and the bytes must be those of checking each
    # dimension anew. K = 100 puts exactly CELL_CAP cells in each
    # extension, the most the reference's apply_decoder builds.
    world = shared_channel_world(k)
    for seed in (0, 7, MASK64):
        want = dumps_canonical(tiil_check_reference(world, 0.9, seed))
        got = dumps_canonical(tiil_check(world, theta_pub=0.9, seed=seed))
        assert got == want, (k, seed)


@pytest.mark.parametrize("k", [101, 331, 1000])
def test_tiil_check_runs_to_k_1000(k):
    # the battery is capped at K**2 = CELL_CAP cells, as the channel is:
    # K**3 past the cap no longer matters, since no block holds K**3 cells
    report = tiil_check(shared_channel_world(k), theta_pub=0.9, seed=7)
    assert report["all_hold"]
    assert len(report["dims"]) == len(TIIL_EDGE_LAMBDAS) + 6


def test_tiil_check_refuses_k_1001_before_the_battery(monkeypatch):
    # 1001**2 cells pass the cap; nothing of the decoder battery may be
    # hashed or scored first, not even for the valid channels before it
    import ist.tiil as tiil

    after_valid_channels = check_world_config({"seed": 1, "tasks": [
        {"task_id": "t0", "dims": [{"id": "d", "weight": 1.0, "K": 10, "lambda": 0.5}]},
        {"task_id": "t1", "dims": [
            {"id": "d", "weight": 0.5, "K": 3, "lambda": 0.0},
            {"id": "e", "weight": 0.5, "K": 1001, "lambda": 0.5}]}]})

    def boom(*args, **kwargs):
        raise AssertionError("the battery ran")

    for name in ("derive", "splitmix64", "_Channel"):
        monkeypatch.setattr(tiil, name, boom)
    for world in (one_dim_world(0.5, 1001), after_valid_channels):
        with pytest.raises(WorldTooLarge, match=r"^enumeration would need 1002001 cells "
                                                r"\(cap 1000000\)$"):
            tiil_check(world)


def test_tiil_check_hashes_each_tasks_picks_once_per_k(monkeypatch, demo_world_config):
    # a task's random picks depend on (seed, task, K) only: they are hashed
    # once per K and scored on each of the task's channels at that K. derive
    # calls rng's own splitmix64, so the spy counts decoder cells alone.
    import ist.tiil as tiil

    calls = 0

    def spy(x):
        nonlocal calls
        calls += 1
        return splitmix64(x)

    monkeypatch.setattr(tiil, "splitmix64", spy)
    # the packaged world: one task, lambda 1.0 and 0.0 at K = 10
    world = build_world(demo_world_config)
    for seed in (0, 7):
        calls = 0
        got = dumps_canonical(tiil_check(world, seed=seed))
        assert calls == 10
        assert got == dumps_canonical(tiil_check_reference(world, 0.9, seed))
    for _, world in reference_worlds():
        calls = 0
        tiil_check(world, seed=7)
        assert calls == sum(sum(set(task.ks)) for task in world.tasks)


def test_classify_privacy_matches_reference():
    for _, world in reference_worlds():
        ref = tiil_check_reference(world, theta_pub=0.5)
        for entry in ref["dims"]:
            v = classify_privacy(world, entry["task_id"], entry["dimension"], 0.5)
            assert v.dimension == entry["dimension"]
            assert (v.mi_bits, v.bayes_accuracy, v.chance, v.label) == (
                entry["mi_bits"], entry["bayes_accuracy"], entry["chance"],
                entry["label"])


def test_channel_closed_form_is_bit_identical():
    lams = [0.0, 5e-324, 1e-310, 1e-300, 2.2e-16, 1e-9, 0.1, 0.25, 1 / 3,
            0.5, 0.9, 1.0 - 1e-16, 1.0]
    for k in (2, 3, 7, 10, 33, 64):
        for lam in lams:
            world = one_dim_world(lam, k)
            for mode in ("sample", "argmax"):
                got = dimension_channel_joint(world, "t", "d", mode=mode).table
                want = prior_loop_channel(k, lam, mode)
                assert got.tobytes() == want.tobytes(), (k, lam, mode)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.5])
def test_tiil_check_rejects_a_seed_derive_would_wrap(seed):
    # derive reduces a seed mod 2**64: -1 gave the bytes of 2**64 - 1, and
    # 2**64 those of 0; the message is that of an explicit --seed
    world = one_dim_world(0.5, 9)
    rule = "an integer" if isinstance(seed, (bool, float)) else "in [0, 2**64)"
    with pytest.raises(BadConfig) as info:
        tiil_check(world, seed=seed)
    assert str(info.value) == f"seed must be {rule}, got {seed!r}"
    assert tiil_check(world, seed=2 ** 64 - 1) != tiil_check(world, seed=0)


def test_tiil_check_rejects_bad_theta():
    world = one_dim_world(0.5, 4)
    for theta in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(RangeError):
            tiil_check(world, theta_pub=theta)


# -- the (K, lambda) label rule against the exact verdict --------------------

EDGE_LAMBDAS = (0.0, 5e-324, 1e-300, 1e-17, 1e-12, 1e-9, 1.0 - 1e-16, 1.0)


def label_rule_cases():
    rng = random.Random(14)
    ks = [*range(2, 131), *sorted(rng.sample(range(131, 1000), 10)), 1000]
    for k in ks:
        for lam in (*EDGE_LAMBDAS, rng.random(), rng.random() ** 8):
            yield k, lam


def test_privacy_label_equals_the_exact_verdict_bit_for_bit():
    for k, lam in label_rule_cases():
        acc, chance = exact_accuracy_and_chance(k, lam)
        # theta exactly at the accuracy (public iff clear of chance) and
        # exactly at the chance floor
        for theta in (acc, chance + CHANCE_FLOOR):
            got = privacy_label(k, lam, theta)
            assert [x.hex() for x in got[:2]] == [acc.hex(), chance.hex()], (k, lam)
            public = acc >= theta and acc >= chance + CHANCE_FLOOR
            assert got[2] == ("public" if public else "private"), (k, lam, theta)


# every edge lambda at K = 2..130, and K = 1,000, the largest channel
IDENTITY_ROW_CHANNELS = ([(k, lam) for k in range(2, 131) for lam in EDGE_LAMBDAS]
                         + [(1000, lam) for lam in (0.0, 1e-12, 0.5, 1.0)])


def test_the_identity_row_is_mutual_information_bit_for_bit():
    # the identity decoder's (v, g) table is the channel and its g marginal
    # is the channel's in-order sum over v, so its I(v; g) is I(v; y)
    import ist.infotheory as infotheory
    for k, lam in IDENTITY_ROW_CHANNELS:
        p = infotheory._regeneration_channel(k, lam, "sample")
        _, got = _Channel(k, lam).score(range(k))
        want = mutual_information(DiscreteJoint(("v", "y"), p), "v", "y")
        assert got.hex() == want.hex(), (k, lam)


PAIRWISE_KS = [*range(2, 301), 511, 512, 513, 1000]


def test_the_pairwise_replica_is_numpys_row_sum_bit_for_bit():
    # H(v) takes each channel row's sum as numpy's pairwise sum adds it
    import ist.infotheory as infotheory
    for lam in TIIL_EDGE_LAMBDAS:
        for k in PAIRWISE_KS:
            want = infotheory._regeneration_channel(k, lam, "sample").sum(axis=1)
            channel = _Channel(k, lam)
            got = [channel.pairwise(k, v) for v in range(k)]
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()], (k, lam)


def point_mass_scores_reference(p, picks):
    """(accuracy, I(v; g)) of the decoder y -> picks[y] on the channel p,
    in numpy: the extension's (v, g) and g marginals are bincounts over
    the (v, y) cells in C order, H(v) is taken from p.sum(axis=1), and the
    accuracy is the cumsum of p[picks[y], y]."""
    k = len(picks)
    vg = np.bincount((np.arange(k)[:, None] * k + picks).ravel(), p.ravel(), k * k)
    g = np.bincount(np.broadcast_to(picks, (k, k)).ravel(), p.ravel(), k)
    accuracy = float(np.cumsum(p[picks, np.arange(k)])[-1])
    hs = [entropy(t) for t in (p.sum(axis=1), g, vg)]
    return accuracy, mi_of_entropies(hs, [k, k, k * k])


@pytest.mark.parametrize("k", [101, 331, 1000])
def test_the_scorer_is_numpys_bincount_past_the_dense_cap(k):
    # past K = 100 the dense extension passes CELL_CAP, so the battery's
    # decoders at large K are checked against numpy's in-order tables
    import ist.infotheory as infotheory
    rng = random.Random(k)
    for lam in (0.0, 5e-324, 1e-12, rng.random(), 1.0 - 2.0 ** -53, 1.0):
        p = infotheory._regeneration_channel(k, lam, "sample")
        channel = _Channel(k, lam)
        hashed = uniform_index(derive(rng.getrandbits(64), DECODER_STREAM,
                                      np.arange(k, dtype=np.uint64)), k)
        for picks in (np.arange(k), np.zeros(k, dtype=np.int64), hashed,
                      hashed // 7):
            got = channel.score(picks.tolist())
            want = point_mass_scores_reference(p, picks)
            assert [x.hex() for x in got] == [x.hex() for x in want], (k, lam)


def test_privacy_label_is_the_joints_accuracy_and_chance():
    # the closed form is the quantity bayes_accuracy and chance_level sum
    # on the dense joint, which rounds each of its K terms
    for k, lam in label_rule_cases():
        if k % 16 and k < 1000:
            continue
        joint = DiscreteJoint(("v", "y"), prior_loop_channel(k, lam, "sample"))
        acc, chance, _ = privacy_label(k, lam, 0.9)
        assert abs(acc - bayes_accuracy(joint, "v", "y")) <= k * 2.0 ** -53, (k, lam)
        assert abs(chance - chance_level(joint, "v")) <= k * 2.0 ** -53, (k, lam)


def test_exact_channels_are_public_at_theta_one():
    # the sum of K rounded diagonal cells fell below 1.0 at K = 6
    for k in range(2, 1001):
        assert privacy_label(k, 1.0, 1.0) == (1.0, 1 / k, "public"), k


def test_privacy_label_refuses_k_past_the_cell_cap():
    assert privacy_label(1000, 0.5, 0.9)[2] == "private"
    with pytest.raises(WorldTooLarge, match=r"^enumeration would need 1002001 "
                                            r"cells \(cap 1000000\)$"):
        privacy_label(1001, 0.5, 0.9)


# ---------------------------------------------------------------------------
# check once: derived joints against the checked constructor
# ---------------------------------------------------------------------------

def checked_marginal(joint, names):
    """The marginal as the checked constructor builds it from the table:
    the other axes summed out, the rest permuted by argsort."""
    keep = [joint.variables.index(n) for n in names]
    drop = tuple(i for i in range(joint.table.ndim) if i not in keep)
    marg = joint.table.sum(axis=drop) if drop else joint.table
    order = np.argsort(keep, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(keep))
    return DiscreteJoint(tuple(names), np.transpose(marg, inverse))


def checked_extension(joint, decoder):
    """The decoder extension as the checked constructor builds it."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    j_sub = letters[:joint.table.ndim]
    out = letters[joint.table.ndim]
    r_sub = "".join(j_sub[joint.variables.index(n)] for n in decoder.evidence_vars)
    table = np.einsum(f"{j_sub},{r_sub}{out}->{j_sub}{out}", joint.table, decoder.rows)
    return DiscreteJoint(joint.variables + (decoder.output_var,), table)


def outcome(build):
    """What a build gives: its variables and table bytes, or its error."""
    try:
        joint = build()
    except InvalidDistribution as e:
        return "raises", str(e)
    assert not joint.table.flags.writeable
    assert joint.table.flags.c_contiguous and joint.table.dtype == np.float64
    return joint.variables, joint.table.shape, joint.table.tobytes()


def awkward_joint(rng, names):
    """A checked joint with zero, -0.0 and subnormal cells among its mass."""
    shape = tuple(rng.randint(1, 4) for _ in names)
    n = int(np.prod(shape))
    table = np.array([rng.choice([0.0, -0.0, 5e-324, rng.random(), rng.random()])
                      for _ in range(n)])
    table[rng.randrange(n)] = 1.0
    return DiscreteJoint(tuple(names), (table / table.sum()).reshape(shape))


def random_rows(rng, sizes, output_size):
    """Decoder rows mixing point masses and spread rows."""
    rows = np.array([rng.random() for _ in range(int(np.prod(sizes)) * output_size)])
    rows = rows.reshape(-1, output_size)
    for row in rows[::2]:
        row[:] = 0.0
        row[rng.randrange(output_size)] = 1.0
    return (rows / rows.sum(axis=1, keepdims=True)).reshape(tuple(sizes) + (output_size,))


def test_every_marginal_is_bit_equal_to_the_checked_one():
    rng = random.Random(41)
    for trial in range(25):
        names = ("a", "b", "c", "d")[:rng.randint(1, 4)]
        joint = awkward_joint(rng, names)
        for r in range(1, len(names) + 1):
            for sub in itertools.permutations(names, r):
                got = outcome(lambda: joint.marginal(*sub))
                assert got == outcome(lambda: checked_marginal(joint, sub)), (trial, sub)
                assert got[0] == sub


def test_every_decoder_extension_is_bit_equal_to_the_checked_one():
    rng = random.Random(43)
    for trial in range(25):
        names = ("a", "b", "c")[:rng.randint(1, 3)]
        joint = awkward_joint(rng, names)
        for r in range(1, len(names) + 1):
            for ev in itertools.permutations(names, r):
                sizes = tuple(joint.size(n) for n in ev)
                out_size = rng.randint(1, 4)
                for decoder in (
                        constant_decoder(ev, sizes, out_size),
                        random_deterministic_decoder(ev, sizes, out_size, seed=trial),
                        Decoder(ev, "g", random_rows(rng, sizes, out_size))):
                    got = outcome(lambda: apply_decoder(joint, decoder))
                    assert got == outcome(lambda: checked_extension(joint, decoder))
                    # and the marginals of the extension, as mutual_information takes them
                    ext = apply_decoder(joint, decoder)
                    for sub in (("g",), (names[0], "g"), ("g", *names)):
                        assert (outcome(lambda: ext.marginal(*sub))
                                == outcome(lambda: checked_marginal(ext, sub)))


def test_marginals_and_extensions_raise_exactly_where_the_checked_ones_raise():
    # totals scanned ulp by ulp across the 1e-9 edge: a marginal's total is
    # its parent's summed in another order, and an extension's compounds the
    # joint's and the decoder's tolerance, so each must keep its own check
    base = np.random.default_rng(3).random((3, 4, 5))
    base /= base.sum()
    rows = np.random.default_rng(4).random((5, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    seen = set()
    for i in range(-60, 61):
        try:
            joint = DiscreteJoint(("a", "b", "c"),
                                  base * ((1.0 + 1e-9) * (1.0 + i * 2.0 ** -52)))
        except InvalidDistribution:
            seen.add("joint raises")
            continue
        for r in (1, 2, 3):
            for sub in itertools.permutations(("a", "b", "c"), r):
                got = outcome(lambda: joint.marginal(*sub))
                assert got == outcome(lambda: checked_marginal(joint, sub)), (i, sub)
                seen.add("marginal " + ("raises" if got[0] == "raises" else "passes"))
    # a joint and decoder rows each 0.5e-9 over 1: their extension's total
    # sits at the edge
    joint = DiscreteJoint(("a", "b", "c"), base * (1.0 + 0.5e-9))
    for i in range(-60, 61):
        decoder = Decoder(("c",), "g", rows * ((1.0 + 0.5e-9) * (1.0 + i * 2.0 ** -52)))
        got = outcome(lambda: apply_decoder(joint, decoder))
        assert got == outcome(lambda: checked_extension(joint, decoder)), i
        seen.add("extension " + ("raises" if got[0] == "raises" else "passes"))
    # a marginal of a joint that passed can fall past the edge, and does here
    assert seen == {"joint raises", "marginal raises", "marginal passes",
                    "extension raises", "extension passes"}


def test_the_constructor_refuses_a_nan_table_by_its_own_message():
    # a NaN fails the entry check, and is named, before the total is taken
    with pytest.raises(InvalidDistribution, match=r"^NaN entry$"):
        DiscreteJoint(("x",), np.array([math.nan, 1.0]))
    # the battery's block totals go through the total check, which a NaN
    # total fails too
    import ist.infotheory as infotheory
    with pytest.raises(InvalidDistribution, match=r"^table sums to nan, expected 1$"):
        infotheory._check_totals(np.array([1.0, math.nan]))


def test_constructors_leave_the_callers_array_alone():
    # a C-contiguous float64 input was frozen in place, not copied
    t = np.eye(2) / 2
    joint = DiscreteJoint(("a", "b"), t)
    rows = np.eye(2)
    decoder = Decoder(("b",), "g", rows)
    for given, kept, want in ((t, joint.table, np.eye(2) / 2),
                              (rows, decoder.rows, np.eye(2))):
        assert given.flags.writeable and not kept.flags.writeable
        assert kept is not given and not np.shares_memory(kept, given)
        given[0, 0] = 0.25
        assert kept.tobytes() == want.tobytes()


def test_builder_decoders_equal_the_checked_ones():
    # the point-mass builders go through the constructor; their rows must
    # be what it makes of the same rows given by hand
    rng = random.Random(47)
    for trial in range(20):
        joint = awkward_joint(rng, ("v", "a", "b"))
        ev = ("a", "b")[:rng.randint(1, 2)]
        sizes = tuple(joint.size(n) for n in ev)
        k = joint.size("v")
        for decoder in (constant_decoder(ev, sizes, k, index=k - 1),
                        random_deterministic_decoder(ev, sizes, k, seed=trial),
                        bayes_decoder(joint, "v", ev)):
            checked = Decoder(ev, "g", decoder.rows)
            assert (decoder.evidence_vars, decoder.output_var) == (ev, "g")
            assert not decoder.rows.flags.writeable
            assert decoder.rows.flags.c_contiguous and decoder.rows.dtype == np.float64
            assert decoder.rows.tobytes() == checked.rows.tobytes()
            assert decoder.rows.shape == checked.rows.shape
    # the rank still follows the names given apart from the sizes
    with pytest.raises(InvalidDistribution, match=r"^rows rank 3 for 1 evidence vars$"):
        constant_decoder(("y",), (2, 3), 4)


# ---------------------------------------------------------------------------
# the random decoder and the array uniform_index
# ---------------------------------------------------------------------------

def random_decoder_rows_reference(sizes, output_size, seed):
    """One scalar derive and uniform_index per evidence cell."""
    rows = np.zeros((int(np.prod(sizes)), output_size))
    for cell in range(rows.shape[0]):
        rows[cell, uniform_index(derive(seed, DECODER_STREAM, cell), output_size)] = 1.0
    return rows.reshape(tuple(sizes) + (output_size,))


RANDOM_DECODER_KS = [*range(2, 13), 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 130]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, MASK64])
def test_random_decoder_rows_equal_the_per_cell_reference(seed):
    for k in RANDOM_DECODER_KS:
        got = random_deterministic_decoder(("y",), (k,), k, seed=seed).rows
        assert got.tobytes() == random_decoder_rows_reference((k,), k, seed).tobytes(), k
    for sizes, out in (((3, 7), 5), ((4,), 9), ((2, 1, 3), 1), ((), 4), ((0,), 3)):
        got = random_deterministic_decoder(tuple("xyz"[:len(sizes)]), sizes, out, seed)
        want = random_decoder_rows_reference(sizes, out, seed)
        assert got.rows.shape == want.shape and got.rows.tobytes() == want.tobytes()


def test_derive_takes_an_array_of_masters():
    # tiil_check hashes every task's random decoder in one call, over a
    # (tasks x cells) grid of derive(seed, task) masters
    masters = [0, 1, 2 ** 63 + 5, MASK64, derive(7, 3)]
    cells = np.arange(5, dtype=np.uint64)
    got = derive(np.array(masters, dtype=np.uint64)[:, None], DECODER_STREAM, cells)
    assert got.dtype == np.uint64 and got.shape == (len(masters), len(cells))
    assert got.tolist() == [[derive(m, DECODER_STREAM, c) for c in range(5)]
                            for m in masters]


def edge_hashes(n):
    """0, 2^64 - 1, and hashes whose unit_float * n lands next to an
    integer m, from both sides, with the low 11 bits clear and set."""
    yield 0
    yield MASK64
    for m in sorted({1, 2, n // 3, n // 2, n - 1, n}):
        q = (m << 53) // n
        for dq in (-2, -1, 0, 1, 2):
            if 0 <= q + dq < 2 ** 53:
                yield (q + dq) << 11
                yield ((q + dq) << 11) | 0x7FF


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 64, 1000, 4099, 65_537, 999_983, CELL_CAP])
def test_array_uniform_index_equals_the_scalar_one_on_edge_hashes(n):
    hashes = list(edge_hashes(n))
    near = [h for h in hashes
            if abs(unit_float(h) * n - round(unit_float(h) * n)) <= math.ulp(n)]
    assert len(near) >= 4  # the edge is exercised, not just sampled
    want = [uniform_index(h, n) for h in hashes]
    assert all(type(i) is int and 0 <= i < n for i in want)
    got = uniform_index(np.array(hashes, dtype=np.uint64), n)
    assert got.dtype == np.int64 and got.tolist() == want


def test_array_uniform_index_takes_an_array_of_sizes():
    ns = [1, 2, 3, 7, 10, 64, 1000, 65_537, CELL_CAP]
    pairs = [(h, n) for n in ns for h in edge_hashes(n)]
    got = uniform_index(np.array([h for h, _ in pairs], dtype=np.uint64),
                        np.array([n for _, n in pairs]))
    assert got.dtype == np.int64
    assert got.tolist() == [uniform_index(h, n) for h, n in pairs]
