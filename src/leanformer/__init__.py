"""leanformer: a slim transformer encoder plus a resource-profiling benchkit."""

from .model import ModelConfig, ParamSet, PRESETS, init_params, model_forward, param_count
from .profiler import ComparisonReport, config_search, memory_bytes, profile_model

__all__ = [
    "ModelConfig",
    "ParamSet",
    "PRESETS",
    "init_params",
    "model_forward",
    "param_count",
    "ComparisonReport",
    "config_search",
    "memory_bytes",
    "profile_model",
]
