"""Command-line front end.

Subcommands: validate, mask, score, audit, ablate, perturb, tiil-check,
report, demo. Results go to standard output (or --out); diagnostics go
to standard error.

Exit codes are a contract:
  0  success
  1  audit gate violated (split zone detected, or d_drift > --max-drift)
  2  input parse/validation error
  3  internal error (including oracle invariant violations, which would
     mean the math here is broken); `ist --debug ...` adds the traceback
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import BadConfig, IstError, ValidationError
from .jsonio import dumps_canonical, loads_strict

# Each subcommand imports what it runs, so validate, mask, score, report,
# demo, audit and tiil-check never load numpy, and tiil-check, which
# reads a world config and no spec, loads neither spec_io nor the spec
# model.

PROG = "ist"


def _data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def _read(path) -> bytes:
    return Path(path).read_bytes()


def _checked_world(path, seed: int | None):
    """The checked world config at path, a priors.WorldConfig."""
    from .priors import check_world_config

    return check_world_config(loads_strict(_read(path)), seed)


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _print_err(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    from .spec_io import parse_intent_spec

    spec = parse_intent_spec(_read(args.spec), lenient=args.lenient)
    if args.format == "json":
        _write_out(args, dumps_canonical({
            "task_id": spec.task_id,
            "task_type": spec.task_type,
            "dimensions": [{"id": d.id, "weight": d.weight} for d in spec.flat],
            "valid": True,
        }) + "\n")
    else:
        _write_out(args, f"ok: task {spec.task_id!r} ({spec.task_type}), "
                         f"{len(spec.flat)} flattened dimensions\n")
    return 0


def cmd_mask(args) -> int:
    from .metrics import encoding_loss
    from .spec_io import compute_mask, mask_to_obj, parse_carrier, parse_intent_spec

    spec = parse_intent_spec(_read(args.spec), lenient=args.lenient)
    carrier = parse_carrier(_read(args.carrier), lenient=args.lenient)
    mask = compute_mask(spec, carrier)
    l_enc = encoding_loss([d.weight for d in spec.flat], mask)
    if args.format == "json":
        _write_out(args, dumps_canonical({
            "task_id": spec.task_id,
            "mask": mask_to_obj(mask),
            "l_enc": l_enc,
        }) + "\n")
    else:
        lines = [f"{d}: {'encoded' if b else 'absent'}"
                 for d, b in zip(mask.dims, mask.bits)]
        lines.append(f"l_enc = {l_enc:.6f}")
        _write_out(args, "\n".join(lines) + "\n")
    return 0


def _output_document(path, spec, lenient: bool):
    """The output document at path, refused unless it is of spec's task."""
    from .spec_io import parse_output_document

    out_doc = parse_output_document(_read(path), lenient=lenient)
    if out_doc.task_id != spec.task_id:
        raise BadConfig(f"output task {out_doc.task_id!r} does not match "
                        f"spec task {spec.task_id!r}")
    return out_doc


def cmd_score(args) -> int:
    from .metrics import bundle_for_output
    from .spec_io import compute_mask, parse_carrier, parse_intent_spec

    spec = parse_intent_spec(_read(args.spec), lenient=args.lenient)
    out_doc = _output_document(args.output, spec, args.lenient)
    mask = None
    if args.carrier:
        carrier = parse_carrier(_read(args.carrier), lenient=args.lenient)
        mask = compute_mask(spec, carrier)
    scores, bundle = bundle_for_output(spec, out_doc.realized_values, mask)
    if args.format == "json":
        _write_out(args, dumps_canonical({
            "task_id": spec.task_id,
            "s_icmw": bundle.s_icmw,
            "f_icmw": bundle.f_icmw,
            "d_drift": bundle.d_drift,
            "ga": bundle.ga,
            "split_zone": bundle.split_zone,
            "l_enc": bundle.l_enc,
            "dimensions": [
                {"id": d, "weight": fd.weight, "r": r, "f": f}
                for d, fd, r, f in zip(scores.dims, spec.flat, scores.r, scores.f)
            ],
        }) + "\n")
    else:
        lines = [f"{d}: r={r:.3f} f={f:.3f}"
                 for d, r, f in zip(scores.dims, scores.r, scores.f)]
        lines.append(f"s_icmw = {bundle.s_icmw:.6f}")
        lines.append(f"f_icmw = {bundle.f_icmw:.6f}")
        lines.append(f"d_drift = {bundle.d_drift:.6f}")
        lines.append(f"ga = {bundle.ga}")
        lines.append(f"split_zone = {'yes' if bundle.split_zone else 'no'}")
        if bundle.l_enc is not None:
            lines.append(f"l_enc = {bundle.l_enc:.6f}")
        _write_out(args, "\n".join(lines) + "\n")
    return 0


def _gate_exit(record, max_drift: float | None) -> int:
    """1, with an `audit gate:` line on stderr, when the record is in the
    split zone or drifts past max_drift; 0 otherwise."""
    if record.split_zone or (max_drift is not None and record.d_drift > max_drift):
        _print_err(f"audit gate: split_zone={record.split_zone} "
                   f"d_drift={record.d_drift:.4f}")
        return 1
    return 0


def _audit(args, spec_path, carrier_path, output_path, lenient=False,
           world_path=None, seed=None, **thresholds):
    """Parse one (spec, carrier, output) triple, build its audit record
    with oracle labels from the world at world_path when given, and write
    the record; returns it. The world is only checked, never built: a
    label needs just the (K, lambda) of its dimension."""
    from .audit import audit_record_to_obj, build_audit_record
    from .spec_io import parse_carrier, parse_intent_spec

    spec = parse_intent_spec(_read(spec_path), lenient=lenient)
    carrier = parse_carrier(_read(carrier_path), lenient=lenient)
    out_doc = _output_document(output_path, spec, lenient)
    world = _checked_world(world_path, seed) if world_path else None
    record = build_audit_record(spec, carrier, out_doc.realized_values, world,
                                timestamp=args.timestamp, **thresholds)
    _write_out(args, dumps_canonical(audit_record_to_obj(record)) + "\n")
    return record


def cmd_audit(args) -> int:
    if args.seed is not None and not args.world:
        raise BadConfig("--seed applies only with --world")
    record = _audit(args, args.spec, args.carrier, args.output, args.lenient,
                    args.world, args.seed, theta_pub=args.theta_pub,
                    r_threshold=args.r_threshold, f_threshold=args.f_threshold)
    return _gate_exit(record, args.max_drift)


def _experiment_config(args, default_world: str):
    """The --config experiment, else the packaged world with defaults."""
    from .experiments import ExperimentConfig, parse_experiment_config
    from .worlds import load_world

    if args.config:
        return parse_experiment_config(_read(args.config),
                                       base_dir=Path(args.config).parent,
                                       seed=args.seed)
    return ExperimentConfig(world=load_world(_data_path(default_world), args.seed))


def cmd_ablate(args) -> int:
    from .experiments import _weights_from_means, write_ablation

    cfg = _experiment_config(args, "demo_world.json")
    for name in ("budget", "perturbations"):
        if getattr(cfg, name) is not None:
            raise BadConfig(f"{name} applies only to perturb, not ablate")
    replicates = cfg.replicates if args.replicates is None else args.replicates
    summaries = {}
    # each task's condition means arrive once its records are written
    for task, means in write_ablation(args.out or sys.stdout, cfg.world,
                                      args.mode or cfg.mode, replicates):
        try:
            summaries[task.task_id] = _weights_from_means(task.task_id,
                                                          task.dims, means)
        except IstError as e:
            summaries[task.task_id] = None
            _print_err(f"{task.task_id}: weights not estimable ({e})")
    summary_text = dumps_canonical({"estimated_weights": summaries}) + "\n"
    if args.out:
        sys.stdout.write(summary_text)
    else:
        _print_err(summary_text.rstrip("\n"))
    return 0


def cmd_perturb(args) -> int:
    from .experiments import check_experiment_fits, report_to_json, run_weight_perturbation

    cfg = _experiment_config(args, "perturb_grid.json")
    check_experiment_fits(cfg)
    replicates = cfg.replicates if args.replicates is None else args.replicates
    report = run_weight_perturbation(
        cfg.world, budget=cfg.budget, perturbations=cfg.perturbations,
        mode=args.mode or cfg.mode, replicates=replicates)
    _write_out(args, report_to_json(report) + "\n")
    return 0


def cmd_tiil_check(args) -> int:
    from .tiil import THETA_PUB_DEFAULT, tiil_check

    world = _checked_world(args.world or _data_path("demo_world.json"), args.seed)
    theta_pub = THETA_PUB_DEFAULT if args.theta_pub is None else args.theta_pub
    result = tiil_check(world, theta_pub=theta_pub, seed=args.seed or 0)
    if args.format == "json":
        _write_out(args, dumps_canonical(result) + "\n")
    else:
        lines = []
        for d in result["dims"]:
            lines.append(
                f"{d['task_id']}/{d['dimension']}: lambda={d['lambda']:g} "
                f"label={d['label']} bayes={d['bayes_accuracy']:.4f} "
                f"chance={d['chance']:.4f} mi={d['mi_bits']:.6f}")
            for row in d["decoders"]:
                lines.append(
                    f"  {row['decoder']}: dpi={'ok' if row['dpi_holds'] else 'VIOLATED'} "
                    f"slack={row['slack']:.3e} acc={row['accuracy']:.4f} "
                    f"i_v_g={row['i_v_g']:.3e}")
        lines.append("all bounds hold" if result["all_hold"]
                     else "IRREVERSIBILITY BOUND VIOLATED")
        _write_out(args, "\n".join(lines) + "\n")
    if not result["all_hold"]:
        _print_err(*(f"violated: {d['task_id']}/{d['dimension']} "
                     f"decoder={row['decoder']} slack={row['slack']:.3e} "
                     f"accuracy={row['accuracy']:.4f}"
                     for d in result["dims"] for row in d["decoders"]
                     if not row["ok"]))
        _print_err("internal error: irreversibility bound violated; "
                   "this indicates a bug in the oracle")
        return 3
    return 0


def cmd_report(args) -> int:
    from .audit import read_audit_records, render_report

    records = list(read_audit_records(args.records))
    _write_out(args, render_report(records, args.format))
    return 0


def cmd_demo(args) -> int:
    record = _audit(args, *(_data_path(f"report_{name}.json")
                            for name in ("task", "carrier", "output")))
    _print_err(
        "demo: structured report task; carrier encodes only the public "
        "dimensions (what/when/where/how_much).",
        f"demo: output fills every slot (ga={record.ga}) but private "
        f"content is generic (f_icmw={record.f_icmw:.2f}).",
        f"demo: drift {record.d_drift:.2f}, split_zone={record.split_zone}, "
        f"at risk: {', '.join(record.private_at_risk)}.",
    )
    return _gate_exit(record, args.max_drift)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Numeric option types: argparse reports a rejected value as
# "argument --flag: must be ..." and exits 2, like any other usage error.

def _number(parse, valid, requirement: str):
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return convert


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_finite_float = _number(float, math.isfinite, "a finite number")
_theta_pub = _number(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


# Records are computed single-threaded: the work holds the GIL, and a
# thread pool measured at half the single-thread rate.
_JOBS_HELP = "accepted for compatibility; has no effect"


def _parent(*flags, **options) -> argparse.ArgumentParser:
    """A parent parser that adds one option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it honours
    out = _parent("--out", default=None,
                  help="write the primary result to this file")
    seed = _parent("--seed", type=int, default=None,
                   help="override the world's master seed")
    lenient = _parent("--lenient", action="store_true",
                      help="warn on unknown input fields instead of failing")
    # demo, audit, ablate and perturb print JSON only and take no --format
    text_or_json = _parent("--format", choices=("text", "json"), default="text",
                           help="output format")

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Intent-signal metrics, synthetic prior worlds, and audits.")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[out, lenient, text_or_json],
                       help="check an intent spec file")
    p.add_argument("spec", help="intent spec JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mask", parents=[out, lenient, text_or_json],
                       help="compute the encoding mask and L_enc")
    p.add_argument("--spec", required=True)
    p.add_argument("--carrier", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("score", parents=[out, lenient, text_or_json],
                       help="score realized values against a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", required=True, help="output document JSON")
    p.add_argument("--carrier", default=None,
                   help="optional carrier (enables l_enc)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("audit", parents=[out, seed, lenient],
                       help="emit an audit record for one interaction")
    p.add_argument("--spec", required=True)
    p.add_argument("--carrier", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--world", default=None,
                   help="world config for oracle privacy labels")
    p.add_argument("--theta-pub", type=_theta_pub, default=None)
    p.add_argument("--r-threshold", type=_finite_float, default=0.5)
    p.add_argument("--f-threshold", type=_finite_float, default=0.5)
    p.add_argument("--max-drift", type=_finite_float, default=None,
                   help="gate: exit 1 when d_drift exceeds this")
    p.add_argument("--timestamp", default=None,
                   help="fixed RFC 3339 timestamp (for reproducible output)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ablate", parents=[out, seed],
                       help="run the FULL + single-dimension ablation design")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--mode", choices=("argmax", "sample"), default=None)
    p.add_argument("--replicates", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("perturb", parents=[out, seed],
                       help="run the weight-perturbation experiment")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--mode", choices=("argmax", "sample"), default=None)
    p.add_argument("--replicates", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("tiil-check", parents=[out, text_or_json],
                       help="verify the irreversibility bounds on a world")
    p.add_argument("--world", default=None, help="world config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random decoders (default 0; the world's "
                        "own seed never seeds them)")
    p.add_argument("--theta-pub", type=_theta_pub, default=None)
    p.set_defaults(func=cmd_tiil_check)

    p = sub.add_parser("report", parents=[out],
                       help="render an audit record batch")
    p.add_argument("--records", required=True, help="AuditRecord JSONL file")
    p.add_argument("--format", choices=("text", "markdown", "json"),
                   default="text", help="output format")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", parents=[out],
                       help="run the shipped report-task scenario end to end")
    p.add_argument("--max-drift", type=_finite_float, default=None)
    p.add_argument("--timestamp", default=None)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        _print_err("error: spec failed validation:")
        for v in e.violations:
            _print_err(f"  {v}")
        return 2
    except OSError as e:
        # a path that is missing, a directory or unreadable is an input error
        _print_err(f"error: {e}")
        return 2
    except IstError as e:
        _print_err(f"error: {e}")
        return 2
    except Exception as e:
        # The documented exit-3 path: any exception not raised as an input
        # error is a bug in the toolkit, reported by subcommand, type and
        # message.
        _print_err(f"internal error in {args.command}: {type(e).__name__}: {e}")
        if args.debug:
            import traceback
            traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
