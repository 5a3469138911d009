"""The TIIL decoder battery, in pure Python.

tiil_check checks the irreversibility bound on every dimension of a
world: on the dimension's sampled (K, lambda) channel p(v, y), no
decoder g of y carries more information about v than y does, and on a
channel at chance level no decoder beats chance. It reads world.tasks,
of a built world or of priors.check_world_config's WorldConfig alike, so
the tiil-check command needs no world build and no numpy.
classify_privacy is the battery's verdict on one dimension, a
PrivacyVerdict named tuple: privacy_label's accuracy, chance and label,
and the identity decoder's I(v; y) as mi_bits. Nothing here loads numpy
or the spec model.

Every decoder of the battery is a point mass, y -> picks[y], and
_Channel.score gives its (accuracy, I(v; g)) with the floats of the dense
oracle in infotheory, bit for bit, without building a table. The channel
holds off = base/K off its diagonal and dg = (base + lam)/K on it, with
base = (1 - lam)/K, and every float the dense oracle prints is one of:

* an in-order sum from 0.0: a (v, g) or g cell (bincount's order, y
  within v), or the accuracy (cumsum's);
* an entropy's running sum of x * log2(x) over the positive cells;
* numpy's pairwise sum of a channel row, for H(v).

Each is repeated here in the same order, one addition at a time, so a
decoder's g cells cost K**2 additions (_Channel.run adds a run of offs
in a loop); column g of a decoder's (v, g) table holds S[n_g], the sum
of n_g offs, off g's preimage of n_g tokens and a memoized T(n, r) on
it, so each row of that table is one row with one entry replaced; and a
g cell of a single token's preimage is a column sum of the channel.
Sequential sums use functools.reduce(operator.add), never builtin sum,
which compensates from Python 3.12 on. The dense oracle shares SUM_TOL,
nonnegative and mi_of_entropies with this scorer.

Units are bits (log base 2) throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import accumulate, repeat
from operator import add

from .priors import THETA_PUB_DEFAULT, check_theta_pub, dim_channels, privacy_label
from .rng import DECODER_STREAM, check_uint64, derive, splitmix64, uniform_index

SUM_TOL = 1e-9
_MI_NEG_TOL = 1e-12  # per bit of entropy summed; see mi_of_entropies
_TERM_ULPS = 4  # rounding of one p log2 p term, in units of 2**-53
DPI_TOL = 1e-9


def nonnegative(h: float) -> float:
    """An entropy's rounding below zero clamped away (-0.0 stays)."""
    return 0.0 if h < 0.0 else h


def mi_of_entropies(hs, sizes) -> float:
    """H(x) + H(y) - H(x, y) from the three entropies and the cell counts
    of their tables.

    Tiny negative results clamp to zero; anything more negative is
    treated as a bug and raised. A running sum of n nonnegative terms
    errs by at most (n - 1) * 2**-53 of its value, and each p log2 p term
    by a few ulps, so each entropy H over n cells contributes
    (n - 1 + _TERM_ULPS) * 2**-53 * H to the tolerance; it is never less
    than 1e-12 times H(x) + H(y) + H(x, y), nor less than 1e-12.
    """
    hx, hy, hxy = hs
    mi = hx + hy - hxy
    if mi < 0.0:
        tol = max(_MI_NEG_TOL * max(1.0, reduce(add, hs, 0.0)),
                  reduce(add, [(n - 1 + _TERM_ULPS) * 2.0 ** -53 * h
                               for n, h in zip(sizes, hs)], 0.0))
        if mi < -tol:
            raise ArithmeticError(f"mutual information {mi} below -{tol:.3g}")
        return 0.0
    return mi


def _check_total(total: float) -> None:
    if not abs(total - 1.0) <= SUM_TOL:
        raise ArithmeticError(f"table sums to {total!r}, expected 1")


class _Terms(dict):
    """x -> x * log2(x) of each cell value met, 0.0 for x = 0: adding 0.0
    to a running sum of nonpositive terms is exact, so zero cells may
    stand in the sums."""

    def __missing__(self, x: float) -> float:
        t = self[x] = x * math.log2(x) if x else 0.0
        return t


class _Channel:
    """The sampled (K, lambda) channel p(v, y), with the partial sums its
    decoders share: s[n], n offs summed from 0.0 for n <= K; T(n, r), n
    cells summed from 0.0 that are off but for dg at r, a row of them per
    n; numpy's pairwise row sums; and the x log2 x term of each cell value
    met."""

    def __init__(self, k: int, lam: float):
        base = (1.0 - lam) / k
        self.k, self.off, self.dg = k, base / k, (base + lam) / k
        self.s = list(accumulate(repeat(self.off, k), initial=0.0))
        self._t_rows: dict[int, list[float]] = {}
        self._pairwise: dict[tuple[int, int], float] = {}
        self.terms = _Terms()
        self._h_v: float | None = None

    def run(self, x: float, j: int) -> float:
        """x plus j offs, added one at a time."""
        return reduce(add, repeat(self.off, j), x)

    def t_row(self, n: int) -> list[float]:
        """[T(n, r) for r < n]."""
        row = self._t_rows.get(n)
        if row is None:
            s, dg = self.s, self.dg
            row = self._t_rows[n] = [self.run(s[r] + dg, n - 1 - r) for r in range(n)]
        return row

    def pairwise(self, n: int, j: int) -> float:
        """numpy's pairwise sum of n cells that are off but for dg at j
        (none for j < 0): a running sum from 0.0 below 8 cells; up to 128,
        eight strided lanes added as ((0+1)+(2+3))+((4+5)+(6+7)), then the
        tail; above, the two halves split at n//2 rounded down to a
        multiple of 8."""
        key = (n, j)
        v = self._pairwise.get(key)
        if v is not None:
            return v
        if n < 8:
            v = self.t_row(n)[j] if j >= 0 else self.s[n]
        elif n <= 128:
            m = n // 8
            lanes = [self.s[m]] * 8
            if 0 <= j < 8 * m:
                lanes[j % 8] = self.t_row(m)[j // 8]
            v = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + \
                ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
            for i in range(8 * m, n):
                v += self.dg if i == j else self.off
        else:
            half = n // 2 - (n // 2) % 8
            v = self.pairwise(half, j if j < half else -1) + \
                self.pairwise(n - half, j - half if j >= half else -1)
        self._pairwise[key] = v
        return v

    def h_v(self) -> float:
        """H(v), from the channel's row sums as numpy sums them."""
        if self._h_v is None:
            terms = [self.terms[self.pairwise(self.k, v)] for v in range(self.k)]
            self._h_v = nonnegative(-reduce(add, terms, 0.0))
            # only H(v) reads the row sums, and tiil_check holds every
            # channel of one K at a time
            self._pairwise.clear()
        return self._h_v

    def g_cell(self, preimage: list[int]) -> float:
        """p(g) of the output whose preimage is the given ascending
        tokens, summed over (v, y) in C order: runs of offs, with dg at
        (y, y) for each y of the preimage."""
        n = len(preimage)
        if n == 1:
            return self.t_row(self.k)[preimage[0]]  # the channel's column sum
        m = preimage[0] * n  # s[m] is run(0.0, m), the same floats
        acc = (self.s[m] if m <= self.k else self.run(0.0, m)) + self.dg
        for r, y in enumerate(preimage[1:], 1):
            acc = self.run(acc, (y - preimage[r - 1]) * n) + self.dg
        return self.run(acc, (self.k - 1 - preimage[-1]) * n)

    def score(self, picks) -> tuple[float, float]:
        """(accuracy, I(v; g)) of the decoder y -> picks[y].

        Its extension (v, y, g) has the channel's v marginal, so H(v) is
        the channel's. Output g with preimage Y_g of n_g tokens has (v, g)
        cell S[n_g] for v outside Y_g and T(n_g, r) for the r-th token of
        Y_g; both tables' totals are checked as the dense oracle checks a
        table's, and the accuracy adds p[picks[y], y] over y in order.
        """
        k, s = self.k, self.s
        preimages: dict[int, list[int]] = {}
        ranks = []  # ranks[y]: y's place in its output's preimage
        for y, g in enumerate(picks):
            preimage = preimages.setdefault(g, [])
            ranks.append(len(preimage))
            preimage.append(y)
        outs = sorted(preimages)
        sizes = [len(preimages[g]) for g in outs]
        accuracy = reduce(add, [self.dg if g == y else self.off
                                for y, g in enumerate(picks)], 0.0)
        g_cells = [self.g_cell(preimages[g]) for g in outs]
        # the (v, g) table's terms over the outputs' columns (the others
        # are 0): k copies of the S[n_g] row, row v's cell at picks[v]
        # replaced
        width = len(outs)
        terms = [self.terms[s[n]] for n in sizes] * k
        diagonal = {g: (i, self.t_row(n)) for i, (g, n) in enumerate(zip(outs, sizes))}
        at = 0
        for g, r in zip(picks, ranks):
            i, t_row = diagonal[g]
            terms[at + i] = self.terms[t_row[r]]
            at += width
        _check_total(math.fsum(g_cells))
        _check_total(math.fsum([(k - n) * s[n] for n in sizes]
                               + [x for n in sizes for x in self.t_row(n)]))
        h_g = -reduce(add, map(self.terms.__getitem__, g_cells), 0.0)
        h_vg = -reduce(add, terms, 0.0)
        return accuracy, mi_of_entropies(
            [self.h_v(), nonnegative(h_g), nonnegative(h_vg)], [k, k, k * k])


PrivacyVerdict = namedtuple("PrivacyVerdict", "dimension mi_bits bayes_accuracy chance label")


def classify_privacy(world, task_id: str, dim_id: str,
                     theta_pub: float = THETA_PUB_DEFAULT) -> PrivacyVerdict:
    """Operational public/private call for one dimension of a world: the
    WorldConfig of priors.check_world_config or a built SyntheticWorld.

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
    _, mi = _Channel(k, lam).score(range(k))
    return PrivacyVerdict(dimension=dim_id.lower(), mi_bits=mi, bayes_accuracy=acc,
                          chance=chance, label=label)


class _Battery:
    """The part of the report that one (K, lambda) channel shares among its
    dimensions: the verdict, the identity decoder's I(v; g), which is
    I(v; y), and the constant and Bayes rows; its channel scores each
    task's random decoder."""

    def __init__(self, k: int, lam: float, verdict: tuple[float, float, str]):
        self.bayes_accuracy, self.chance, self.label = verdict
        self.at_chance = self.bayes_accuracy <= self.chance + DPI_TOL
        self.channel = _Channel(k, lam)
        identity = self.channel.score(range(k))
        constant = self.channel.score([0] * k)
        self.mi = identity[1]
        self.constant = self.row("constant", constant)
        # bayes_decoder's picks, argmax over v of column y: the diagonal
        # unless dg ties off, then token 0
        self.bayes = self.row("bayes", identity if self.channel.dg > self.channel.off
                              else constant)

    def row(self, name: str, score: tuple[float, float]) -> dict:
        acc, i_v_g = score
        holds = i_v_g <= self.mi + DPI_TOL
        ok = holds and not (self.at_chance
                            and (acc > self.chance + DPI_TOL or i_v_g > DPI_TOL))
        return {"decoder": name, "dpi_holds": holds, "slack": self.mi - i_v_g,
                "accuracy": acc, "i_v_g": i_v_g, "ok": ok}


def tiil_check(world, theta_pub: float = THETA_PUB_DEFAULT, seed: int = 0) -> dict:
    """Run the irreversibility battery over every dimension of a world:
    the WorldConfig of priors.check_world_config or a built SyntheticWorld.

    For each dimension (carrier-absent throughout): classify privacy,
    then check the three decoder families against the DPI bound. For
    chance-level channels (Bayes accuracy == chance), additionally
    record that no decoder beats generic substitution.

    Every channel's label (privacy_label's) comes first, and the one cap,
    the channel's K**2 cells, is checked there: a world past it raises
    BadConfig before anything of the battery is hashed or scored.
    Everything but the task-keyed random decoder depends only on the
    dimension's (K, lambda) channel, so each channel's constant and Bayes
    rows are evaluated once. The identity decoder's I(v; g) is I(v; y),
    the verdict's mi_bits and the bound every other row is checked
    against. The random decoder of the task with index i (task.index, its
    position in the config, built or checked alike) maps y to
    uniform_index(derive(derive(seed, i), DECODER_STREAM, y), K), the picks of
    infotheory.random_deterministic_decoder seeded derive(seed, i): they
    depend on (seed, i, K) only, so each task's picks are hashed once per
    K and scored on each of its channels at that K. One K's channels and
    one task's picks are held at a time. The report lists dimensions in
    world order, with the same bytes as checking each dimension on its
    own. A seed outside [0, 2**64), or a bool, raises BadConfig.
    """
    check_theta_pub(theta_pub)
    check_uint64("seed", seed)
    tasks = world.tasks
    verdicts: dict[tuple[int, float], tuple[float, float, str]] = {}
    # K -> task position -> the task's (dimension index, lambda) at K
    by_k: dict[int, dict[int, list[tuple[int, float]]]] = {}
    for i, task in enumerate(tasks):
        for j, channel in enumerate(zip(task.ks, task.lams)):
            if channel not in verdicts:
                verdicts[channel] = privacy_label(*channel, theta_pub)
            by_k.setdefault(channel[0], {}).setdefault(i, []).append((j, channel[1]))
    report: list[list] = [[None] * len(task.dims) for task in tasks]
    for k, members in by_k.items():
        batteries: dict[float, _Battery] = {}
        for i, dims in members.items():
            task = tasks[i]
            prefix = derive(derive(seed, task.index), DECODER_STREAM)
            picks = [uniform_index(splitmix64(prefix ^ y), k) for y in range(k)]
            random_rows: dict[float, dict] = {}
            for j, lam in dims:
                battery = batteries.get(lam)
                if battery is None:
                    battery = batteries[lam] = _Battery(k, lam, verdicts[k, lam])
                if lam not in random_rows:
                    random_rows[lam] = battery.row("random_deterministic",
                                                   battery.channel.score(picks))
                report[i][j] = {
                    "task_id": task.task_id,
                    "dimension": task.dims[j],
                    "lambda": lam,
                    "label": battery.label,
                    "mi_bits": battery.mi,
                    "bayes_accuracy": battery.bayes_accuracy,
                    "chance": battery.chance,
                    "chance_level": battery.at_chance,
                    "decoders": [dict(battery.constant), dict(random_rows[lam]),
                                 dict(battery.bayes)],
                }
    dims_report = [d for task_report in report for d in task_report]
    all_hold = all(row["ok"] for d in dims_report for row in d["decoders"])
    return {"theta_pub": theta_pub, "all_hold": all_hold, "dims": dims_report}
