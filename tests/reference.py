"""Plain helpers the tests build inputs or reference values with, which
nothing in src/ist calls."""

from ist.experiments import PerturbationReport
from ist.infotheory import Decoder, _point_mass_decoder
from ist.model import Dimension, IntentSpec, ValueRef
from ist.worlds import WorldTask, token


def to_intent_spec(task: WorldTask, task_type: str = "synthetic") -> IntentSpec:
    """Project a world task into a scoreable spec (intended = user values)."""
    dims = tuple(Dimension(id=d, weight=w, intended_value=ValueRef.token(token(u)))
                 for d, w, u in zip(task.dims, task.weights, task.users))
    return IntentSpec(task_id=task.task_id, task_type=task_type, dimensions=dims)


def constant_decoder(evidence_vars, evidence_sizes, output_size: int,
                     index: int = 0, output_var: str = "g") -> Decoder:
    """The decoder sending every evidence cell to output token index."""
    return _point_mass_decoder(evidence_vars, evidence_sizes, output_size, index,
                               output_var)


def report_to_obj(rep: PerturbationReport) -> dict:
    """The report as JSON values, keys in field order, cells included: the
    reference that experiments.report_to_json is held to."""
    return {**rep._asdict(), "cells": [cell._asdict() for cell in rep.cells]}
