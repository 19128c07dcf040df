"""Every function lives in the layer module that defines it, and no
function cache outlives the graphs it was asked about.

``perfbench/spans.py`` traces a layer module's public functions only
when their ``__module__`` is that module, so a function defined in one
module and re-exported from another would drop out of the per-layer
rows without an error.
"""

import importlib
import inspect
import pkgutil

import pytest

import clique_splitter as cs
from clique_splitter import kernels
from clique_splitter.graphs import Graph

LAYERS = ("graphs", "kernels", "cliques", "partition", "oracle")


@pytest.mark.parametrize(
    "name", ["has_clique_of_size", "max_clique_size", "maximum_cliques"])
def test_kernels_are_defined_in_kernels(name):
    assert getattr(kernels, name).__module__ == "clique_splitter.kernels"


def test_package_exports_come_from_layer_modules():
    exported = {name: obj for name, obj in vars(cs).items()
                if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)}
    assert exported
    outside = {name: obj.__module__ for name, obj in exported.items()
               if obj.__module__ not in {f"clique_splitter.{layer}" for layer in LAYERS}}
    assert not outside


def test_no_function_cache_takes_a_graph():
    # an lru_cache holds its arguments strongly, so one keyed by a Graph
    # keeps every graph it was asked about alive until newer ones push
    # it out; what depends on a graph alone belongs in the graph's memo
    cached = {}
    for info in pkgutil.iter_modules(cs.__path__):
        module = importlib.import_module(f"clique_splitter.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                first = next(iter(inspect.signature(obj.__wrapped__).parameters.values()), None)
                cached[f"{info.name}.{name}"] = first and first.annotation
    assert "partition._deal_order" in cached  # the scan sees the caches there are
    assert not [name for name, annotation in cached.items() if annotation in ("Graph", Graph)]
