"""The names the benchmark binds exist, so a rename or a pruning that would
crash ``bench/run.py`` fails here instead.

``bench/spans.py`` is loaded from its file (it imports only the standard
library and numpy); its ``LAYERS`` table is what ``--trace 1`` wraps.
The names ``bench/workloads.py`` calls are listed by hand below.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import mograd

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# (module, attribute) that bench/workloads.py calls
WORKLOAD_NAMES = [
    ("mograd", "edm_direction"),
    ("mograd", "mgda_direction"),
    ("mograd.cli", "main"),
    ("mograd.data", "synth_imbalanced"),
    ("mograd.data", "synth_two_task"),
    ("mograd.data", "stratified_split"),
    ("mograd.neural", "init_mlp"),
    ("mograd.neural", "init_two_head_mlp"),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


@pytest.mark.parametrize("module_name, path, span", LAYERS)
def test_layer_entry_resolves(module_name, path, span):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        # spans.install reads the class's own __dict__, not an inherited attribute
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))


def test_solver_cfg_default_has_max_iters():
    from mograd.minnorm import frank_wolfe_min_norm

    default = inspect.signature(frank_wolfe_min_norm).parameters["cfg"].default
    assert isinstance(default.max_iters, int)


@pytest.mark.parametrize("module_name, name", WORKLOAD_NAMES)
def test_workload_name_exists(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


def _modules_with_all():
    names = ["mograd"] + [f"mograd.{m.name}" for m in pkgutil.iter_modules(mograd.__path__)]
    modules = [importlib.import_module(name) for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_two_head_init_takes_the_workload_keywords():
    # bench/workloads.py builds the multitask model with exactly these arguments
    from mograd.neural import init_two_head_mlp

    inspect.signature(init_two_head_mlp).bind(8, trunk_hidden=(32, 16), head_classes=(2, 2), seed=0)


def test_mlp_params_method_kinds_match_the_tracer():
    # spans.install unwraps each class attribute by its kind: from_flat as a
    # classmethod, flatten as a plain function.
    from mograd.neural import MlpParams

    assert isinstance(vars(MlpParams)["from_flat"], classmethod)
    assert inspect.isfunction(vars(MlpParams)["flatten"])


def _records():
    """One factory per mograd record type that holds an array."""
    from mograd.data import Dataset
    from mograd.direction import GradientSet, edm_direction
    from mograd.minnorm import frank_wolfe_min_norm
    from mograd.neural import init_mlp, init_two_head_mlp
    from mograd.optimize import IterationTrace, OptimizerConfig, RunResult
    from mograd.problems import QuadraticPair

    return {
        "GradientSet": lambda: GradientSet.from_gradients([[1.0, 0.0], [0.0, 1.0]]),
        "DirectionResult": lambda: edm_direction([[1.0, 0.0], [0.0, 1.0]]),
        "FwResult": lambda: frank_wolfe_min_norm([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "OptimizerConfig": lambda: OptimizerConfig(weights=[1.0, 1.0]),
        "IterationTrace": lambda: IterationTrace(0, [1.0, 2.0], 0.5, None, [0.5, 0.5], 0.1),
        "RunResult": lambda: RunResult([0.0, 1.0], True, 3, [], 0.0),
        "Dataset": lambda: Dataset([[0.0], [1.0]], [0, 1]),
        "QuadraticPair": lambda: QuadraticPair([0.0, 0.0], [1.0, 0.0]),
        "MlpParams": lambda: init_mlp([2, 3], 0),
        "TwoHeadMlp": lambda: init_two_head_mlp(2, trunk_hidden=(3,), seed=0),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_compare_by_identity(name):
    make = _records()[name]
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert len({a, b}) == 2


def test_solver_config_keeps_value_equality():
    from mograd.minnorm import FwConfig

    assert FwConfig() == FwConfig() and FwConfig(max_iters=7) != FwConfig()
