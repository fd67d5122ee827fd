"""Build script: compiles the simulation kernel when possible.

With Cython installed, the kernel is compiled from _simcore.pyx; without
it, from the committed Cython output _simcore.c. The package works
without the compiled extension (a pure-Python kernel is selected at
import time), so the extension is optional and a failed compile is not
fatal.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [
        Extension("aoiharvest._simcore", ["src/aoiharvest/_simcore.c"], optional=True)
    ]
else:
    ext_modules = cythonize(
        Extension("aoiharvest._simcore", ["src/aoiharvest/_simcore.pyx"], optional=True),
        compiler_directives={"language_level": "3", "boundscheck": False, "wraparound": False},
    )

setup(ext_modules=ext_modules)
