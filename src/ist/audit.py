"""Per-interaction audit records and report rendering.

An audit record answers, for one (spec, carrier, output) triple: which
dimensions were explicitly encoded, which were absent, which absent ones
are believed private (and therefore unrecoverable in principle), which
slots the output structurally filled, which survived with fidelity, and
what the drift score is.

build_audit_record resolves the privacy labels itself, in priority
order: explicit hints in the spec, then oracle verdicts when a prior
world is supplied, else "unlabeled". An oracle verdict is
priors.privacy_label of the dimension's (K, lambda), which
priors.dim_channels, the one (K, lambda) lookup that the information
oracle also reads, finds in a built SyntheticWorld or in the WorldConfig
of priors.check_world_config, so labelling needs no world build and no
numpy. An unlabeled record has an empty private_at_risk list; absence
of knowledge is reported as absence of knowledge, never guessed. The
split zone uses the one metrics threshold, SPLIT_ZONE_THRESHOLD, so a
record read back is checked against its scores: d_drift, ga and
split_zone must all follow from them. Labels, mask and scores all read
the spec's one flattened view, IntentSpec.flat.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import reduce
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import SchemaError
from .jsonio import (_check_keys, _get_int, _get_number, _get_str, _get_str_list, _require_obj,
                     dumps_canonical)
from .metrics import Matcher, bundle_for_output, detect_split_zone, synthesize_ga
from .model import Carrier, IntentSpec, ValueRef
from .spec_io import _read_jsonl, _write_jsonl, compute_mask

PRIVACY_SOURCES = ("hint", "oracle", "unlabeled")


# timestamp is RFC 3339 in UTC, privacy_source one of PRIVACY_SOURCES
AuditRecord = namedtuple("AuditRecord", "task_id timestamp encoded_dims absent_dims "
                         "private_at_risk structurally_recovered fidelity_preserved "
                         "l_enc s_icmw f_icmw d_drift ga split_zone privacy_source")


def now_rfc3339() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def resolve_privacy_labels(spec: IntentSpec, world=None,
                           theta_pub: float | None = None,
                           ) -> tuple[dict[str, str | None], str]:
    """(labels, source) for the spec's flattened dimensions (spec.flat).

    Hints win when any dimension carries one; dimensions without a hint
    (or hinted "unknown") stay None and never count as at risk. With no
    hints and a world given, every dimension gets an oracle label from
    the (K, lambda) of its world dimension. world is a built
    SyntheticWorld or the WorldConfig of priors.check_world_config.
    """
    flat = spec.flat
    hinted = {d.id: d.privacy_hint for d in flat
              if d.privacy_hint in ("public", "private")}
    if hinted:
        return {d.id: hinted.get(d.id) for d in flat}, "hint"
    if world is None:
        return {d.id: None for d in flat}, "unlabeled"
    from .priors import THETA_PUB_DEFAULT, check_theta_pub, dim_channels, privacy_label
    theta = THETA_PUB_DEFAULT if theta_pub is None else theta_pub
    check_theta_pub(theta)
    channels = dim_channels(world, spec.task_id, [d.id for d in flat])
    return {d.id: privacy_label(k, lam, theta)[2]
            for d, (k, lam) in zip(flat, channels)}, "oracle"


def build_audit_record(spec: IntentSpec,
                       carrier: Carrier,
                       realized_values: Mapping[str, ValueRef],
                       world=None,
                       theta_pub: float | None = None,
                       r_threshold: float = 0.5,
                       f_threshold: float = 0.5,
                       timestamp: str | None = None,
                       matcher: Matcher | None = None) -> AuditRecord:
    """Assemble one audit record; deterministic given an explicit timestamp.

    Privacy labels come from resolve_privacy_labels(spec, world, theta_pub).
    """
    labels, source = resolve_privacy_labels(spec, world, theta_pub)
    mask = compute_mask(spec, carrier)
    scores, bundle = bundle_for_output(spec, realized_values, mask, matcher)
    encoded = tuple(d for d, b in zip(mask.dims, mask.bits) if b == 1)
    absent = tuple(d for d, b in zip(mask.dims, mask.bits) if b == 0)
    at_risk = tuple(d for d in absent if labels[d] == "private")
    recovered = tuple(d for d, r in zip(scores.dims, scores.r) if r >= r_threshold)
    preserved = tuple(d for d, f in zip(scores.dims, scores.f) if f >= f_threshold)
    return AuditRecord(
        task_id=spec.task_id,
        timestamp=timestamp if timestamp is not None else now_rfc3339(),
        encoded_dims=encoded,
        absent_dims=absent,
        private_at_risk=at_risk,
        structurally_recovered=recovered,
        fidelity_preserved=preserved,
        l_enc=bundle.l_enc,
        s_icmw=bundle.s_icmw,
        f_icmw=bundle.f_icmw,
        d_drift=bundle.d_drift,
        ga=bundle.ga,
        split_zone=bundle.split_zone,
        privacy_source=source,
    )


# ---------------------------------------------------------------------------
# JSONL serde
# ---------------------------------------------------------------------------

def audit_record_to_obj(rec: AuditRecord) -> dict:
    return {
        "task_id": rec.task_id,
        "timestamp": rec.timestamp,
        "encoded_dims": list(rec.encoded_dims),
        "absent_dims": list(rec.absent_dims),
        "private_at_risk": list(rec.private_at_risk),
        "structurally_recovered": list(rec.structurally_recovered),
        "fidelity_preserved": list(rec.fidelity_preserved),
        "l_enc": float(rec.l_enc),
        "s_icmw": float(rec.s_icmw),
        "f_icmw": float(rec.f_icmw),
        "d_drift": float(rec.d_drift),
        "ga": int(rec.ga),
        "split_zone": bool(rec.split_zone),
        "privacy_source": rec.privacy_source,
    }


def audit_record_from_obj(doc) -> AuditRecord:
    obj = _require_obj(doc, "$")
    _check_keys(obj, "$",
                ("task_id", "timestamp", "encoded_dims", "absent_dims",
                 "private_at_risk", "structurally_recovered",
                 "fidelity_preserved", "l_enc", "s_icmw", "f_icmw",
                 "d_drift", "ga", "split_zone", "privacy_source"),
                (), False)
    ga = _get_int(obj, "ga", "$", 1, 5)
    split = obj["split_zone"]
    if not isinstance(split, bool):
        raise SchemaError("$.split_zone", "expected boolean")
    source = _get_str(obj, "privacy_source", "$")
    if source not in PRIVACY_SOURCES:
        raise SchemaError("$.privacy_source", f"bad value {source!r}")
    nums = {key: _get_number(obj, key, "$", 0, 1)
            for key in ("l_enc", "s_icmw", "f_icmw", "d_drift")}
    rec = AuditRecord(
        task_id=_get_str(obj, "task_id", "$"),
        timestamp=_get_str(obj, "timestamp", "$"),
        encoded_dims=_get_str_list(obj, "encoded_dims", "$"),
        absent_dims=_get_str_list(obj, "absent_dims", "$"),
        private_at_risk=_get_str_list(obj, "private_at_risk", "$"),
        structurally_recovered=_get_str_list(obj, "structurally_recovered", "$"),
        fidelity_preserved=_get_str_list(obj, "fidelity_preserved", "$"),
        ga=ga,
        split_zone=split,
        privacy_source=source,
        **nums,
    )
    if set(rec.encoded_dims) & set(rec.absent_dims):
        raise SchemaError("$", "encoded_dims and absent_dims overlap")
    if not set(rec.private_at_risk) <= set(rec.absent_dims):
        raise SchemaError("$", "private_at_risk not a subset of absent_dims")
    # exact on records we emit; one-ulp slack for hand-written files
    if abs(rec.d_drift - (1.0 - rec.f_icmw)) > 1e-12:
        raise SchemaError("$", f"d_drift {rec.d_drift!r} is not 1 - f_icmw ({rec.f_icmw!r})")
    want_ga = synthesize_ga(rec.s_icmw)
    if ga != want_ga:
        raise SchemaError("$.ga", f"expected {want_ga} for s_icmw {rec.s_icmw!r}, got {ga}")
    want_split = detect_split_zone(ga, rec.f_icmw)
    if split != want_split:
        raise SchemaError("$.split_zone", f"expected {want_split} for ga {ga} and "
                                          f"f_icmw {rec.f_icmw!r}, got {split}")
    return rec


def write_audit_records(path, records: Iterable[AuditRecord]) -> int:
    """Write records as canonical JSONL, the input of `ist report`; returns
    how many were written."""
    return _write_jsonl(path, records,
                        lambda rec: dumps_canonical(audit_record_to_obj(rec)))


def read_audit_records(path) -> Iterator[AuditRecord]:
    yield from _read_jsonl(path, audit_record_from_obj)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

Aggregate = namedtuple("Aggregate", "n_records split_zone_count split_zone_rate "
                       "mean_drift at_risk_counts", defaults=((),))


def aggregate_records(records: list[AuditRecord]) -> Aggregate:
    n = len(records)
    if n == 0:
        return Aggregate(0, 0, None, None, ())
    flagged = sum(1 for r in records if r.split_zone)
    # in order from 0.0: builtin sum compensates from Python 3.12 on
    drift = reduce(add, (r.d_drift for r in records), 0.0) / n
    counts: dict[str, int] = {}
    for r in records:
        for d in r.private_at_risk:
            counts[d] = counts.get(d, 0) + 1
    return Aggregate(
        n_records=n,
        split_zone_count=flagged,
        split_zone_rate=flagged / n,
        mean_drift=drift,
        at_risk_counts=tuple(sorted(counts.items())),
    )


def _fmt_rate(x: float | None) -> str:
    return "n/a" if x is None else format(x, ".4f")


def render_report(records: Iterable[AuditRecord], fmt: str = "text") -> str:
    """Render an audit batch; identical inputs give identical bytes."""
    recs = list(records)
    agg = aggregate_records(recs)
    if fmt == "json":
        return dumps_canonical({
            "records": [audit_record_to_obj(r) for r in recs],
            "aggregate": {
                "n_records": agg.n_records,
                "split_zone_count": agg.split_zone_count,
                "split_zone_rate": agg.split_zone_rate,
                "mean_drift": agg.mean_drift,
                "at_risk_counts": {d: c for d, c in agg.at_risk_counts},
            },
        }) + "\n"
    if fmt == "markdown":
        return _render_markdown(recs, agg)
    if fmt == "text":
        return _render_text(recs, agg)
    raise ValueError(f"unknown report format {fmt!r}")


def _record_lines(i: int, r: AuditRecord) -> list[str]:
    flag = "  [SPLIT ZONE]" if r.split_zone else ""
    return [
        f"record {i}: task {r.task_id} at {r.timestamp}{flag}",
        f"  encoded:   {', '.join(r.encoded_dims) or '(none)'}",
        f"  absent:    {', '.join(r.absent_dims) or '(none)'}",
        f"  at risk:   {', '.join(r.private_at_risk) or '(none)'}"
        f"  (privacy via {r.privacy_source})",
        f"  recovered: {', '.join(r.structurally_recovered) or '(none)'}",
        f"  preserved: {', '.join(r.fidelity_preserved) or '(none)'}",
        f"  l_enc={r.l_enc:.4f} s_icmw={r.s_icmw:.4f} f_icmw={r.f_icmw:.4f}"
        f" d_drift={r.d_drift:.4f} ga={r.ga}",
    ]


def _render_text(recs: list[AuditRecord], agg: Aggregate) -> str:
    lines = ["intent audit report", "===================="]
    for i, r in enumerate(recs, start=1):
        lines.append("")
        lines.extend(_record_lines(i, r))
    lines.extend([
        "",
        f"records:         {agg.n_records}",
        f"split-zone rate: {_fmt_rate(agg.split_zone_rate)}"
        + (f" ({agg.split_zone_count}/{agg.n_records})" if agg.n_records else ""),
        f"mean drift:      {_fmt_rate(agg.mean_drift)}",
    ])
    if agg.at_risk_counts:
        lines.append("at-risk dimensions:")
        for d, c in agg.at_risk_counts:
            lines.append(f"  {d}: {c}/{agg.n_records}")
    else:
        lines.append("at-risk dimensions: n/a")
    return "\n".join(lines) + "\n"


def _render_markdown(recs: list[AuditRecord], agg: Aggregate) -> str:
    lines = ["# Intent audit report", ""]
    if recs:
        lines.append("| # | task | ga | s_icmw | f_icmw | d_drift | l_enc "
                     "| split zone | at risk |")
        lines.append("|---|------|----|--------|--------|---------|-------"
                     "|------------|---------|")
        for i, r in enumerate(recs, start=1):
            risk = ", ".join(r.private_at_risk) or "-"
            lines.append(
                f"| {i} | {r.task_id} | {r.ga} | {r.s_icmw:.4f} "
                f"| {r.f_icmw:.4f} | {r.d_drift:.4f} | {r.l_enc:.4f} "
                f"| {'yes' if r.split_zone else 'no'} | {risk} |")
        lines.append("")
    lines.append(f"- records: {agg.n_records}")
    lines.append(f"- split-zone rate: {_fmt_rate(agg.split_zone_rate)}")
    lines.append(f"- mean drift: {_fmt_rate(agg.mean_drift)}")
    if agg.at_risk_counts:
        risk = ", ".join(f"{d} ({c}/{agg.n_records})"
                         for d, c in agg.at_risk_counts)
        lines.append(f"- at-risk dimensions: {risk}")
    else:
        lines.append("- at-risk dimensions: n/a")
    return "\n".join(lines) + "\n"
