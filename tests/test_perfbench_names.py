"""The names the benchmark's trace mode binds still exist in the package.

``perfbench/layers.py`` resolves its counted and tallied functions when it is
imported, so a rename or deletion in ``src`` breaks ``run.py --trace 1``.
These tests import it in process, so such a break fails here first, and
check that each bound function lives in the layer its metric names.
"""

import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", os.path.join(BENCH_DIR, "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric_layer(metric):
    return metric.split(".", 1)[0]


def test_counted_functions_resolve_in_their_layer():
    layers = _load_layers()
    for metric, funcs in layers.CALL_COUNTS.items():
        assert funcs, metric
        for func in funcs:
            assert layers._layer_of(func.__code__.co_filename) == _metric_layer(metric), (metric, func)


def test_tallied_functions_resolve_in_their_layer():
    layers = _load_layers()
    for metric, (owner, name, _size) in layers.TALLIES.items():
        func = getattr(owner, name)
        assert layers._layer_of(func.__code__.co_filename) == _metric_layer(metric), (metric, func)
