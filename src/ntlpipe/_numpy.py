"""numpy, loaded at its first use: every module of the package binds ``np`` from here.

Importing numpy takes about 0.1 s of a command's start-up, and ``report``
does no array work, so the package never imports numpy at its own import.
``np`` is the module that ``sys.modules`` holds under ``numpy``. If numpy is
already imported, that is numpy itself. If not, it is a module whose code
``importlib.util.LazyLoader`` runs on the first attribute read, such as
``np.asarray``. After that read it is numpy. A plain ``import numpy``
statement runs it too, because the import machinery reads its
``__spec__``.

Python 3.11's LazyLoader takes no lock on that first load: a thread that
reads ``np`` while another thread's first read is still running numpy's
code sees a half-made numpy, and can fail with AttributeError. The package
starts no threads. A caller that uses it from several threads imports
numpy first.
"""

import importlib.util
import sys

__all__ = ["np"]


def _lazy(name):
    """sys.modules[name], or a module put there whose code runs at its first attribute read."""
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)  # None where the module is not installed, or blocked by a None entry
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
