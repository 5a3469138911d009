"""Intent-signal metrics, synthetic prior worlds, and audit tooling.

The package is organized bottom-up:

* jsonio: canonical JSON, the strict reader, schema-field checks and the
  top-level weight rule; only ist.errors and the standard library
* model: weighted intent specs, carriers, masks, validation, flattening
* spec_io: parsing and serialization of specs, carriers and records
* metrics: encoding loss, s_icmw/f_icmw/drift, GA synthesis, split zone
* priors: the world-config check pass (a WorldConfig) and the (K, lambda)
  privacy label and argmax rules, in pure Python
* worlds: finite-alphabet prior simulation with derived seeds
* infotheory: the dense oracle: enumerated entropy/MI, decoders, DPI;
  no worlds, metrics or model
* tiil: the irreversibility (TIIL) decoder battery and the privacy
  verdict, in pure Python, on jsonio, priors and rng alone: no model
  or spec_io
* experiments: ablation and weight-perturbation harnesses
* audit: per-interaction audit records and reports
* cli: the `ist` command

Every record type is an immutable named tuple: _replace copies one with
fields changed and _fields lists its fields.

Public names load lazily (PEP 562): `from ist import X` imports only the
module that defines X, so `errors`, `model`, `spec_io`, `metrics` and
`audit` work without importing numpy, as do `ist.tiil` and its
`classify_privacy`.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module; the one list of the package's names
_EXPORTS = {name: module for module, names in {
    "errors": "IstError",
    "model": "Carrier Dimension EncodingMask IntentSpec ValueRef flatten "
             "refine_dimension validate_spec",
    "spec_io": "OutputRecord compute_mask parse_carrier parse_intent_spec "
               "read_records serialize_carrier serialize_intent_spec "
               "write_records",
    "metrics": "DimensionScores MetricBundle SPLIT_ZONE_THRESHOLD build_bundle "
               "bundle_for_output detect_split_zone encoding_loss "
               "score_output synthesize_ga",
    "worlds": "SyntheticWorld build_world expected_f_icmw mc_mean_f_icmw "
              "simulate_output",
    "infotheory": "Decoder DiscreteJoint apply_decoder bayes_accuracy "
                  "dimension_channel_joint entropy identity_decoder "
                  "mutual_information verify_dpi",
    "tiil": "PrivacyVerdict classify_privacy",
    "experiments": "PerturbationSpec encode_with_budget "
                   "estimate_weights_by_ablation perturb_weights "
                   "run_weight_perturbation",
    "audit": "AuditRecord build_audit_record render_report "
             "resolve_privacy_labels write_audit_records",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
