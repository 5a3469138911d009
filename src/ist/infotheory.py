"""Brute-force information theory over small discrete joints.

Everything here works by dense enumeration: joints are full probability
tables (capped at 10^6 cells), entropies are exact sums, decoders are
explicit row-stochastic maps from evidence cells to output
distributions, and the data processing inequality is checked by
literally computing both mutual informations. No estimation anywhere.

A world dimension's channel depends only on its alphabet size K and
mixture weight lambda, so tiil_check evaluates each distinct (K, lambda)
channel once and checks only the task-keyed random decoder per task;
the tests keep the per-dimension loop as the byte-identical reference.

Every decoder of the battery is a point mass, so tiil_check scores a
channel's decoders in blocks, with no DiscreteJoint and nothing of K**3
cells: an extension's (v, g) and g marginals are bincounts, and its H(v)
is the channel's. The first decoder is the identity, whose (v, g) table
is the channel, so its I(v; g) is I(v; y): tiil_check and
classify_privacy read mi_bits from that row. verify_dpi sums H(v) over
an extension's K**3 cells instead, so its I(v; g) may differ in the
last ulps.

A verdict's Bayes accuracy, chance level and label come from the one
(K, lambda) label rule, priors.privacy_label, in closed form, correctly
rounded, so `ist audit --world` labels without numpy; its (K, lambda)
comes from priors.dim_channels, the one lookup. DiscreteJoint,
mutual_information, verify_dpi, the decoder builders and
dimension_channel_joint are the general oracle and the tests' reference.

Every joint and decoder is built by its public constructor, which
copies the table or rows (so the caller's array stays writeable and
unchanged), checks them and freezes the copy.

Units are bits (log base 2) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DomainMismatch,
    InvalidDistribution,
    RangeError,
    UnknownVariable,
    WorldTooLarge,
)
from .priors import CELL_CAP, THETA_PUB_DEFAULT, check_theta_pub, dim_channels, privacy_label
from .rng import DECODER_STREAM, check_uint64, derive, uniform_index
from .worlds import SyntheticWorld, _argmax_finds_user

_SUM_TOL = 1e-9
_MI_NEG_TOL = 1e-12  # per bit of entropy summed; see mutual_information
_TERM_ULPS = 4  # rounding of one p log2 p term, in units of 2**-53
DPI_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense joint distribution over named finite variables."""

    variables: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        tab = np.array(self.table, dtype=np.float64, order="C")
        if tab.ndim != len(self.variables):
            raise InvalidDistribution(
                f"table has {tab.ndim} axes for {len(self.variables)} variables")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidDistribution(f"duplicate variable names {self.variables!r}")
        if tab.size > CELL_CAP:
            raise WorldTooLarge(tab.size, CELL_CAP)
        if tab.size == 0:
            raise InvalidDistribution("empty table")
        _check_entries(tab)
        _check_totals(tab.sum())
        tab.flags.writeable = False
        object.__setattr__(self, "table", tab)

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def size(self, name: str) -> int:
        return self.table.shape[self.axis(name)]

    def marginal(self, *names: str) -> "DiscreteJoint":
        """Marginal over the named variables, axes in the order given."""
        if len(set(names)) != len(names) or not names:
            raise DomainMismatch(f"bad marginal request {names!r}")
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        marg = self.table.sum(axis=drop) if drop else self.table
        # sum() put kept axes in original order; permute to requested order
        kept = sorted(keep)
        if kept != keep:
            marg = np.transpose(marg, [kept.index(a) for a in keep])
        return DiscreteJoint(tuple(names), marg)


def _check_entries(p: np.ndarray) -> None:
    """Every entry >= 0, written so that NaN fails; NaN is named first."""
    if not np.all(p >= 0):
        raise InvalidDistribution("NaN entry" if np.isnan(p).any()
                                  else f"negative entry {float(p.min())}")


def _check_totals(totals) -> None:
    """Each total is 1 within _SUM_TOL (NaN fails); the first that is
    not is named."""
    totals = np.ravel(totals)
    bad = ~(np.abs(totals - 1.0) <= _SUM_TOL)
    if bad.any():
        raise InvalidDistribution(
            f"table sums to {float(totals[bad][0])!r}, expected 1")


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    if isinstance(dist, DiscreteJoint):
        p = dist.table
    else:
        p = np.asarray(dist, dtype=np.float64)
        if p.size == 0:
            raise InvalidDistribution("empty distribution")
        _check_entries(p)
        total = float(p.sum())
        if not abs(total - 1.0) <= _SUM_TOL:
            raise InvalidDistribution(f"sums to {total!r}, expected 1")
    return _nonnegative(_kernels.entropy_bits(p))


def _nonnegative(h: float) -> float:
    """An entropy's rounding below zero clamped away (-0.0 stays)."""
    return 0.0 if h < 0.0 else h


def _as_group(x) -> tuple[str, ...]:
    if isinstance(x, str):
        return (x,)
    return tuple(x)


def mutual_information(joint: DiscreteJoint, x, y) -> float:
    """I(x; y) = H(x) + H(y) - H(x, y) over variable groups, in bits.

    Tiny negative results clamp to zero; anything more negative is
    treated as a bug and raised. A running sum of n nonnegative terms
    errs by at most (n - 1) * 2**-53 of its value, and each p log2 p term
    by a few ulps, so each entropy H over n cells contributes
    (n - 1 + _TERM_ULPS) * 2**-53 * H to the tolerance; it is never less
    than 1e-12 times H(x) + H(y) + H(x, y), nor less than 1e-12.
    """
    gx, gy = _as_group(x), _as_group(y)
    if set(gx) & set(gy):
        raise DomainMismatch(f"groups overlap: {gx!r} vs {gy!r}")
    tables = [joint.marginal(*gx), joint.marginal(*gy), joint.marginal(*gx, *gy)]
    return _mi_of_entropies([entropy(t) for t in tables],
                            [t.table.size for t in tables])


def _mi_of_entropies(hs, sizes) -> float:
    """H(x) + H(y) - H(x, y) from the three entropies and the cell counts
    of their tables, clamped or raised as mutual_information says."""
    hx, hy, hxy = hs
    mi = hx + hy - hxy
    if mi < 0.0:
        tol = max(_MI_NEG_TOL * max(1.0, sum(hs)),
                  sum((n - 1 + _TERM_ULPS) * 2.0 ** -53 * h
                      for n, h in zip(sizes, hs)))
        if mi < -tol:
            raise RangeError(f"mutual information {mi} below -{tol:.3g}")
        return 0.0
    return mi


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decoder:
    """Row-stochastic map from evidence cells to an output distribution.

    rows has shape evidence_sizes + (output_size,); deterministic
    decoders are the special case of point-mass rows.
    """

    evidence_vars: tuple[str, ...]
    output_var: str
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64, order="C")
        if rows.ndim != len(self.evidence_vars) + 1:
            raise InvalidDistribution(
                f"rows rank {rows.ndim} for {len(self.evidence_vars)} evidence vars")
        if not np.all(rows >= 0):
            raise InvalidDistribution("NaN decoder entry" if np.isnan(rows).any()
                                      else "negative decoder entry")
        sums = rows.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= _SUM_TOL):
            raise InvalidDistribution("decoder row does not sum to 1")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def evidence_sizes(self) -> tuple[int, ...]:
        return self.rows.shape[:-1]

    @property
    def output_size(self) -> int:
        return self.rows.shape[-1]


def _point_mass_decoder(evidence_vars, evidence_sizes, output_size: int, picks,
                        output_var: str) -> Decoder:
    """The decoder sending evidence cell i (in C order) to output picks[i]."""
    shape = tuple(evidence_sizes)
    rows = np.zeros((int(np.prod(shape, dtype=np.int64)), output_size))
    rows[np.arange(len(rows)), picks] = 1.0
    return Decoder(tuple(evidence_vars), output_var, rows.reshape(shape + (output_size,)))


def constant_decoder(evidence_vars, evidence_sizes, output_size: int,
                     index: int = 0, output_var: str = "g") -> Decoder:
    return _point_mass_decoder(evidence_vars, evidence_sizes, output_size, index,
                               output_var)


def identity_decoder(var: str, size: int, output_var: str = "g") -> Decoder:
    """Copy one evidence variable to the output: g = var, I(v; g) = I(v; var)."""
    return Decoder((var,), output_var, np.eye(size))


def random_deterministic_decoder(evidence_vars, evidence_sizes,
                                 output_size: int, seed: int,
                                 output_var: str = "g") -> Decoder:
    """Each evidence cell maps to one output token, chosen by keyed hash."""
    cells = np.arange(np.prod(evidence_sizes, dtype=np.int64), dtype=np.uint64)
    picks = uniform_index(derive(seed, DECODER_STREAM, cells), output_size)
    return _point_mass_decoder(evidence_vars, evidence_sizes, output_size, picks,
                               output_var)


def bayes_decoder(joint: DiscreteJoint, v: str, evidence_vars,
                  output_var: str = "g") -> Decoder:
    """MAP decoder: each evidence cell points at argmax_v p(v | evidence).

    Ties break toward the lowest token index; evidence cells of
    probability zero also map to token 0.
    """
    ev = _as_group(evidence_vars)
    marg = joint.marginal(v, *ev)
    v_size = marg.table.shape[0]
    picks = np.argmax(marg.table.reshape(v_size, -1), axis=0)
    return _point_mass_decoder(ev, marg.table.shape[1:], v_size, picks, output_var)


def apply_decoder(joint: DiscreteJoint, decoder: Decoder) -> DiscreteJoint:
    """Extend the joint with the decoder's output variable.

    The new variable depends on the rest only through the evidence,
    because its conditional is literally the decoder row: the Markov
    chain v -> evidence -> g holds by construction.
    """
    for name, size in zip(decoder.evidence_vars, decoder.evidence_sizes):
        if joint.size(name) != size:
            raise DomainMismatch(
                f"evidence {name!r}: joint size {joint.size(name)}, "
                f"decoder expects {size}")
    if decoder.output_var in joint.variables:
        raise DomainMismatch(f"variable {decoder.output_var!r} already present")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if joint.table.ndim + 1 > len(letters):
        raise DomainMismatch("too many variables to extend")
    # the cap the extended joint would fail, checked before einsum builds it
    cells = joint.table.size * decoder.output_size
    if cells > CELL_CAP:
        raise WorldTooLarge(cells, CELL_CAP)
    j_sub = letters[:joint.table.ndim]
    out_letter = letters[joint.table.ndim]
    r_sub = "".join(j_sub[joint.axis(n)] for n in decoder.evidence_vars) + out_letter
    new_table = np.einsum(f"{j_sub},{r_sub}->{j_sub}{out_letter}",
                          joint.table, decoder.rows)
    return DiscreteJoint(joint.variables + (decoder.output_var,), new_table)


# ---------------------------------------------------------------------------
# DPI and decoding accuracy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpiReport:
    i_v_evidence: float
    i_v_g: float
    holds: bool
    slack: float


def verify_dpi(joint: DiscreteJoint, decoder: Decoder) -> DpiReport:
    """Check I(v; g) <= I(v; evidence) with v = all non-evidence variables."""
    v_group = tuple(n for n in joint.variables if n not in decoder.evidence_vars)
    if not v_group:
        raise DomainMismatch("decoder evidence covers every variable")
    i_v_e = mutual_information(joint, v_group, decoder.evidence_vars)
    extended = apply_decoder(joint, decoder)
    i_v_g = mutual_information(extended, v_group, decoder.output_var)
    return DpiReport(i_v_evidence=i_v_e, i_v_g=i_v_g,
                     holds=i_v_g <= i_v_e + DPI_TOL, slack=i_v_e - i_v_g)


def bayes_accuracy(joint: DiscreteJoint, v, evidence) -> float:
    """Best achievable decoder accuracy: sum over evidence of max_v p."""
    gv, ge = _as_group(v), _as_group(evidence)
    if set(gv) & set(ge):
        raise DomainMismatch(f"groups overlap: {gv!r} vs {ge!r}")
    marg = joint.marginal(*gv, *ge)
    nv = int(np.prod(marg.table.shape[:len(gv)], dtype=np.int64))
    flat = marg.table.reshape(nv, -1)
    return float(flat.max(axis=0).sum())


def decoder_accuracy(joint: DiscreteJoint, decoder: Decoder, v: str) -> float:
    """P(decoder output == v) when the decoder runs on the evidence."""
    marg = joint.marginal(v, *decoder.evidence_vars)
    v_size = marg.table.shape[0]
    if decoder.output_size != v_size:
        raise DomainMismatch(
            f"decoder output alphabet {decoder.output_size} != |{v}| = {v_size}")
    p2d = marg.table.reshape(v_size, -1)
    rows2d = decoder.rows.reshape(-1, v_size)
    return float(np.einsum("ve,ev->", p2d, rows2d))


def chance_level(joint: DiscreteJoint, v) -> float:
    """Accuracy of the best evidence-free guess: max_v p(v)."""
    gv = _as_group(v)
    return float(joint.marginal(*gv).table.max())


# ---------------------------------------------------------------------------
# world channels and privacy classification
# ---------------------------------------------------------------------------

def _regeneration_channel(k: int, lam: float, mode: str) -> np.ndarray:
    """p(v, y) of a (K, lambda) channel, in closed form.

    The user value v is uniform over K; the model emits y from the
    mixture prior around v, which has (1 - lam)/K off v and that plus
    lam at v. Sampled rows are the prior itself over K; argmax rows are
    a point mass at v, or at token 0 when lam is below the float
    resolution of the prior and every entry ties. These are the same
    floats as building and dividing the prior for each v in turn.
    """
    if k * k > CELL_CAP:
        raise WorldTooLarge(k * k, CELL_CAP)
    base = (1.0 - lam) / k
    if mode == "sample":
        table = np.full((k, k), base / k)
        np.fill_diagonal(table, (base + lam) / k)
    else:
        table = np.zeros((k, k))
        picks = (np.arange(k) if _argmax_finds_user(k, lam)
                 else np.zeros(k, dtype=np.int64))
        table[np.arange(k), picks] = 1.0 / k
    return table


def dimension_channel_joint(world: SyntheticWorld, task_id: str, dim_id: str,
                            mode: str = "sample") -> DiscreteJoint:
    """Joint of (v, y) for one carrier-absent dimension of a world.

    v is the user value and y the model's output token; the table is
    the (K, lambda) channel tiil_check and classify_privacy evaluate.
    """
    if mode not in ("argmax", "sample"):
        raise DomainMismatch(f"mode must be 'argmax' or 'sample', got {mode!r}")
    [(k, lam)] = dim_channels(world, task_id, [dim_id])
    return DiscreteJoint(("v", "y"), _regeneration_channel(k, lam, mode))


@dataclass(frozen=True)
class PrivacyVerdict:
    dimension: str
    mi_bits: float
    bayes_accuracy: float
    chance: float
    label: str  # public | private


def classify_privacy(world: SyntheticWorld, task_id: str, dim_id: str,
                     theta_pub: float = THETA_PUB_DEFAULT) -> PrivacyVerdict:
    """Operational public/private call for one dimension.

    Public means the sampled-output channel decodes the user value with
    Bayes accuracy at least theta_pub, and materially above chance
    (chance + 0.1); everything else is private. Relative to this world's
    prior, never an intrinsic property of the dimension. The accuracy,
    chance and label are privacy_label's, and mi_bits is I(v; y), the
    identity decoder's score on the sampled channel, as in tiil_check.
    """
    check_theta_pub(theta_pub)
    [(k, lam)] = dim_channels(world, task_id, [dim_id])
    acc, chance, label = privacy_label(k, lam, theta_pub)
    [(_, mi)] = _point_mass_scores(_regeneration_channel(k, lam, "sample"), np.arange(k)[None])
    return PrivacyVerdict(dimension=dim_id.lower(), mi_bits=mi, bayes_accuracy=acc,
                          chance=chance, label=label)


def _point_mass_scores(p: np.ndarray, picks: np.ndarray) -> list[tuple[float, float]]:
    """(accuracy, I(v; g)) of each decoder y -> picks[d, y] on a (v, y)
    channel p, in order.

    Each decoder's extension (v, y, g) holds p[v, y] at g = picks[d, y],
    so its v marginal is the channel's and H(v) is taken once, from
    p.sum(axis=1); its (v, g) and g marginals are bincounts over the
    (v, y) cells in C order, their totals checked as the DiscreteJoint
    constructor checks a table's, and its accuracy adds p[picks[d, y], y]
    over y in order. The identity decoder (picks np.arange(K)) has p as
    its (v, g) table, so its I(v; g) is I(v; y), every other row's bound.
    Decoders are scored a block at a time, as many as fit in
    _kernels._CHUNK_DRAWS // 4 cells of (v, y) (at least one): the index,
    the weights, the (v, g) table and the entropy's sort each hold one
    8-byte value per cell, so a block's arrays stay near _CHUNK_DRAWS * 8
    bytes (512 KB) until one channel's K**2 cells pass that, and none
    holds K**3 cells.
    """
    n, k = picks.shape
    v = np.arange(k)[:, None]
    h_v = _nonnegative(_kernels.entropy_bits(p.sum(axis=1)))
    per_block = max(1, _kernels._CHUNK_DRAWS // (4 * k * k))
    scores = []
    for start in range(0, n, per_block):
        block = picks[start:start + per_block]
        m = len(block)
        d = np.arange(m)[:, None, None]
        weights = np.broadcast_to(p, (m, k, k)).ravel()
        vg = np.bincount(((d * k + v) * k + block[:, None, :]).ravel(), weights,
                         m * k * k).reshape(m, k * k)
        g = np.bincount(np.broadcast_to(d * k + block[:, None, :], (m, k, k)).ravel(),
                        weights, m * k).reshape(m, k)
        _check_totals([g.sum(axis=1), vg.sum(axis=1)])
        accuracy = np.cumsum(p[block, np.arange(k)], axis=1)[:, -1].tolist()
        hs = [[_nonnegative(h) for h in _kernels.entropy_bits(t, rows=True)]
              for t in (g, vg)]
        scores += [(acc, _mi_of_entropies([h_v, h_g, h_vg], [k, k, k * k]))
                   for acc, h_g, h_vg in zip(accuracy, *hs)]
    return scores


def tiil_check(world: SyntheticWorld, theta_pub: float = THETA_PUB_DEFAULT,
               seed: int = 0) -> dict:
    """Run the irreversibility battery over every dimension of a world.

    For each dimension (carrier-absent throughout): classify privacy,
    then check the three decoder families against the DPI bound. For
    chance-level channels (Bayes accuracy == chance), additionally
    record that no decoder beats generic substitution.

    Everything but the task-keyed random decoder depends only on the
    dimension's (K, lambda) channel, so dimensions are grouped by
    channel, and each channel's label (privacy_label's), constant and
    Bayes rows are evaluated once. A channel's decoders are one (decoders
    x K) matrix of picks, headed by the identity decoder: one rng.derive
    call hashes every task's random row, and _point_mass_scores scores
    them a block at a time. The identity row's I(v; g) is I(v; y), the
    verdict's mi_bits and the bound every other row is checked against.
    The one cap is the channel's K**2 cells, which privacy_label checks
    before anything of the battery is hashed or allocated. The report
    lists dimensions in world order, with the same bytes as checking
    each dimension on its own. A seed outside [0, 2**64), or a bool,
    raises BadConfig.
    """
    check_theta_pub(theta_pub)
    check_uint64("seed", seed)
    dims = [(task, j) for task in world.tasks for j in range(len(task.dims))]
    by_channel: dict[tuple[int, float], list[int]] = {}
    for i, (task, j) in enumerate(dims):
        by_channel.setdefault((task.ks[j], task.lams[j]), []).append(i)
    dims_report: list = [None] * len(dims)
    for (k, lam), members in by_channel.items():
        acc_bayes, chance, label = privacy_label(k, lam, theta_pub)
        p = _regeneration_channel(k, lam, "sample")
        at_chance = acc_bayes <= chance + DPI_TOL
        tasks = list(dict.fromkeys(dims[i][0].index for i in members))
        picks = np.zeros((3 + len(tasks), k), dtype=np.int64)  # constant: token 0
        picks[0] = np.arange(k)  # the identity decoder, whose I(v; g) is I(v; y)
        picks[2] = np.argmax(p, axis=0)  # bayes_decoder's picks
        # random_deterministic_decoder's picks, seeded derive(seed, task)
        masters = derive(seed, np.array(tasks, dtype=np.uint64))
        picks[3:] = uniform_index(derive(masters[:, None], DECODER_STREAM,
                                         np.arange(k, dtype=np.uint64)), k)
        (_, mi), *scores = _point_mass_scores(p, picks)
        rows = []
        for name, (acc, i_v_g) in zip(
                ["constant", "bayes"] + ["random_deterministic"] * len(tasks), scores):
            holds = i_v_g <= mi + DPI_TOL
            ok = holds and not (at_chance and (acc > chance + DPI_TOL or i_v_g > DPI_TOL))
            rows.append({"decoder": name, "dpi_holds": holds, "slack": mi - i_v_g,
                         "accuracy": acc, "i_v_g": i_v_g, "ok": ok})
        constant_row, bayes_row = rows[:2]
        random_rows = dict(zip(tasks, rows[2:]))
        for i in members:
            task, j = dims[i]
            dims_report[i] = {
                "task_id": task.task_id,
                "dimension": task.dims[j],
                "lambda": task.lams[j],
                "label": label,
                "mi_bits": mi,
                "bayes_accuracy": acc_bayes,
                "chance": chance,
                "chance_level": at_chance,
                "decoders": [dict(constant_row), dict(random_rows[task.index]),
                             dict(bayes_row)],
            }
    all_hold = all(row["ok"] for d in dims_report for row in d["decoders"])
    return {"theta_pub": theta_pub, "all_hold": all_hold, "dims": dims_report}
