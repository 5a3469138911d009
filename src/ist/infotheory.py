"""Brute-force information theory over small discrete joints.

Everything here works by dense enumeration: joints are full probability
tables (capped at 10^6 cells), entropies are exact sums, decoders are
explicit row-stochastic maps from evidence cells to output
distributions, and the data processing inequality is checked by
literally computing both mutual informations. No estimation anywhere.

This is the general oracle and the tests' reference for the TIIL
battery, tiil.tiil_check, and its verdict, tiil.classify_privacy, which
score the same point-mass decoders on a world's (K, lambda) channels in
pure Python with these floats, bit for bit, and build no table.
verify_dpi sums H(v) over an extension's K**3 cells instead, so its
I(v; g) may differ from the battery's in the last ulps. A channel's
(K, lambda) comes from priors.dim_channels, the one lookup, and its
argmax rows from priors.argmax_finds_user; the tolerances and the
MI-of-entropies rule are tiil's. Nothing here tests a world's form or
reads another module's private name.

Every joint and decoder is built by its public constructor, which
copies the table or rows (so the caller's array stays writeable and
unchanged), checks them and freezes the copy.

Units are bits (log base 2) throughout.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import _kernels
from .errors import BadConfig
from .jsonio import checked_make
from .priors import argmax_finds_user, check_cells, dim_channels
from .rng import DECODER_STREAM, derive, uniform_index
from .tiil import DPI_TOL, SUM_TOL, mi_of_entropies, nonnegative


class DiscreteJoint(namedtuple("DiscreteJoint", "variables table")):
    """Dense joint distribution over named finite variables."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, variables: tuple[str, ...], table: np.ndarray):
        tab = np.array(table, dtype=np.float64, order="C")
        if tab.ndim != len(variables):
            raise BadConfig(
                f"table has {tab.ndim} axes for {len(variables)} variables")
        if len(set(variables)) != len(variables):
            raise BadConfig(f"duplicate variable names {variables!r}")
        check_cells(tab.size)
        if tab.size == 0:
            raise BadConfig("empty table")
        _check_entries(tab)
        _check_totals(tab.sum())
        tab.flags.writeable = False
        return super().__new__(cls, variables, tab)

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise BadConfig(f"unknown variable: {name!r}") from None

    def size(self, name: str) -> int:
        return self.table.shape[self.axis(name)]

    def marginal(self, *names: str) -> "DiscreteJoint":
        """Marginal over the named variables, axes in the order given."""
        if len(set(names)) != len(names) or not names:
            raise BadConfig(f"bad marginal request {names!r}")
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
        raise BadConfig("NaN entry" if np.isnan(p).any()
                        else f"negative entry {float(p.min())}")


def _check_totals(totals) -> None:
    """Each total is 1 within SUM_TOL (NaN fails); the first that is
    not is named."""
    totals = np.ravel(totals)
    bad = ~(np.abs(totals - 1.0) <= SUM_TOL)
    if bad.any():
        raise BadConfig(
            f"table sums to {float(totals[bad][0])!r}, expected 1")


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    if isinstance(dist, DiscreteJoint):
        p = dist.table
    else:
        p = np.asarray(dist, dtype=np.float64)
        if p.size == 0:
            raise BadConfig("empty distribution")
        _check_entries(p)
        total = float(p.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise BadConfig(f"sums to {total!r}, expected 1")
    return nonnegative(_kernels.entropy_bits(p))


def _as_group(x) -> tuple[str, ...]:
    if isinstance(x, str):
        return (x,)
    return tuple(x)


def mutual_information(joint: DiscreteJoint, x, y) -> float:
    """I(x; y) = H(x) + H(y) - H(x, y) over variable groups, in bits.

    Tiny negative results clamp to zero; anything more negative is
    treated as a bug and raised, by tiil.mi_of_entropies.
    """
    gx, gy = _as_group(x), _as_group(y)
    if set(gx) & set(gy):
        raise BadConfig(f"groups overlap: {gx!r} vs {gy!r}")
    tables = [joint.marginal(*gx), joint.marginal(*gy), joint.marginal(*gx, *gy)]
    return mi_of_entropies([entropy(t) for t in tables],
                            [t.table.size for t in tables])


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

class Decoder(namedtuple("Decoder", "evidence_vars output_var rows")):
    """Row-stochastic map from evidence cells to an output distribution.

    rows has shape evidence_sizes + (output_size,); deterministic
    decoders are the special case of point-mass rows.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, evidence_vars: tuple[str, ...], output_var: str, rows: np.ndarray):
        rows = np.array(rows, dtype=np.float64, order="C")
        if rows.ndim != len(evidence_vars) + 1:
            raise BadConfig(
                f"rows rank {rows.ndim} for {len(evidence_vars)} evidence vars")
        if not np.all(rows >= 0):
            raise BadConfig("NaN decoder entry" if np.isnan(rows).any()
                            else "negative decoder entry")
        sums = rows.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= SUM_TOL):
            raise BadConfig("decoder row does not sum to 1")
        rows.flags.writeable = False
        return super().__new__(cls, evidence_vars, output_var, rows)

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
            raise BadConfig(
                f"evidence {name!r}: joint size {joint.size(name)}, "
                f"decoder expects {size}")
    if decoder.output_var in joint.variables:
        raise BadConfig(f"variable {decoder.output_var!r} already present")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if joint.table.ndim + 1 > len(letters):
        raise BadConfig("too many variables to extend")
    # the cap the extended joint would fail, checked before einsum builds it
    check_cells(joint.table.size * decoder.output_size)
    j_sub = letters[:joint.table.ndim]
    out_letter = letters[joint.table.ndim]
    r_sub = "".join(j_sub[joint.axis(n)] for n in decoder.evidence_vars) + out_letter
    new_table = np.einsum(f"{j_sub},{r_sub}->{j_sub}{out_letter}",
                          joint.table, decoder.rows)
    return DiscreteJoint(joint.variables + (decoder.output_var,), new_table)


# ---------------------------------------------------------------------------
# DPI and decoding accuracy
# ---------------------------------------------------------------------------

DpiReport = namedtuple("DpiReport", "i_v_evidence i_v_g holds slack")


def verify_dpi(joint: DiscreteJoint, decoder: Decoder) -> DpiReport:
    """Check I(v; g) <= I(v; evidence) with v = all non-evidence variables."""
    v_group = tuple(n for n in joint.variables if n not in decoder.evidence_vars)
    if not v_group:
        raise BadConfig("decoder evidence covers every variable")
    i_v_e = mutual_information(joint, v_group, decoder.evidence_vars)
    extended = apply_decoder(joint, decoder)
    i_v_g = mutual_information(extended, v_group, decoder.output_var)
    return DpiReport(i_v_evidence=i_v_e, i_v_g=i_v_g,
                     holds=i_v_g <= i_v_e + DPI_TOL, slack=i_v_e - i_v_g)


def bayes_accuracy(joint: DiscreteJoint, v, evidence) -> float:
    """Best achievable decoder accuracy: sum over evidence of max_v p."""
    gv, ge = _as_group(v), _as_group(evidence)
    if set(gv) & set(ge):
        raise BadConfig(f"groups overlap: {gv!r} vs {ge!r}")
    marg = joint.marginal(*gv, *ge)
    nv = int(np.prod(marg.table.shape[:len(gv)], dtype=np.int64))
    flat = marg.table.reshape(nv, -1)
    return float(flat.max(axis=0).sum())


def decoder_accuracy(joint: DiscreteJoint, decoder: Decoder, v: str) -> float:
    """P(decoder output == v) when the decoder runs on the evidence."""
    marg = joint.marginal(v, *decoder.evidence_vars)
    v_size = marg.table.shape[0]
    if decoder.output_size != v_size:
        raise BadConfig(
            f"decoder output alphabet {decoder.output_size} != |{v}| = {v_size}")
    p2d = marg.table.reshape(v_size, -1)
    rows2d = decoder.rows.reshape(-1, v_size)
    return float(np.einsum("ve,ev->", p2d, rows2d))


def chance_level(joint: DiscreteJoint, v) -> float:
    """Accuracy of the best evidence-free guess: max_v p(v)."""
    gv = _as_group(v)
    return float(joint.marginal(*gv).table.max())


# ---------------------------------------------------------------------------
# world channels
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
    check_cells(k * k)
    base = (1.0 - lam) / k
    if mode == "sample":
        table = np.full((k, k), base / k)
        np.fill_diagonal(table, (base + lam) / k)
    else:
        table = np.zeros((k, k))
        picks = (np.arange(k) if argmax_finds_user(k, lam)
                 else np.zeros(k, dtype=np.int64))
        table[np.arange(k), picks] = 1.0 / k
    return table


def dimension_channel_joint(world, task_id: str, dim_id: str,
                            mode: str = "sample") -> DiscreteJoint:
    """Joint of (v, y) for one carrier-absent dimension of a world.

    v is the user value and y the model's output token; the table is
    the (K, lambda) channel tiil.tiil_check and tiil.classify_privacy
    evaluate.
    """
    if mode not in ("argmax", "sample"):
        raise BadConfig(f"mode must be 'argmax' or 'sample', got {mode!r}")
    [(k, lam)] = dim_channels(world, task_id, [dim_id])
    return DiscreteJoint(("v", "y"), _regeneration_channel(k, lam, mode))
