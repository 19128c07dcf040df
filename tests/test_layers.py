"""Every function lives in the layer module that defines it.

``perfbench/spans.py`` traces a layer module's public functions only
when their ``__module__`` is that module, so a function defined in one
module and re-exported from another would drop out of the per-layer
rows without an error.
"""

import inspect

import pytest

import clique_splitter as cs
from clique_splitter import kernels

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
