"""Experiment suite: one campaign or composite per paper table/figure/theorem."""

from .base import (
    Campaign,
    CampaignContext,
    Composite,
    ExperimentOutput,
    Reduction,
    save_experiment_output,
)
from .registry import EXPERIMENTS, experiment_ids, run_experiment, run_experiments

__all__ = [
    "Campaign",
    "CampaignContext",
    "Composite",
    "ExperimentOutput",
    "Reduction",
    "save_experiment_output",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "run_experiments",
]
