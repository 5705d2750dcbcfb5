"""beamsight: desk-scale vision-aided blockage prediction and proactive handoff.

A numpy toolkit that simulates a dynamic street scene observed by mmWave
basestations with cameras, builds bimodal (detections + beams) sequence
datasets, trains a recurrent future-link-status predictor against a
beam-only baseline, and evaluates proactive handoff between two
basestations.
"""

import importlib

from .config import (
    DatasetConfig,
    ExperimentConfig,
    ScenarioConfig,
    TrainConfig,
    load_experiment_config,
    load_scenario_config,
)
from .errors import BeamsightError, DataError, NumericError

# Re-exports from the numpy modules load on first use, so that importing
# ``beamsight.cli`` leaves numpy unloaded until ``--threads`` has capped
# the BLAS thread pools.
_LAZY = dict.fromkeys(
    ("Basestation", "Camera", "Detection", "DetectorNoiseModel", "SceneObject",
     "UlaGeometry", "VehicleClass", "World", "build_world", "detect",
     "project_object", "step_world"), "scene") | dict.fromkeys(
    ("ChannelPath", "Codebook", "channel_vector", "los_status", "received_power",
     "select_beam", "synthesize_paths"), "phy")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "Basestation", "BeamsightError", "Camera", "ChannelPath", "Codebook",
    "DataError", "DatasetConfig", "Detection", "DetectorNoiseModel",
    "ExperimentConfig", "NumericError", "ScenarioConfig", "SceneObject",
    "TrainConfig", "UlaGeometry", "VehicleClass", "World", "build_world",
    "channel_vector", "detect", "load_experiment_config", "load_scenario_config",
    "los_status", "project_object", "received_power", "select_beam", "step_world",
    "synthesize_paths",
]
