"""Build script: compiles the optional clique-kernel extension.

The package is fully functional without the extension (a pure-Python twin
is selected at import time), so compilation failures are demoted to a
warning instead of aborting the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            warnings.warn(f"skipping compiled kernels, using pure-Python fallback: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name}, using pure-Python fallback: {exc}")


try:
    import os

    from Cython.Build import cythonize

    _pyx = os.path.join("src", "clique_splitter", "_ckernels.pyx")
    if os.path.exists(_pyx):
        ext_modules = cythonize(
            [Extension("clique_splitter._ckernels", [_pyx], extra_compile_args=["-O3"])],
            language_level=3,
        )
    else:
        ext_modules = []
except ImportError:
    warnings.warn(
        "Cython is not installed: no compiled kernel is built, "
        "the pure-Python kernels will be used"
    )
    ext_modules = []

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
