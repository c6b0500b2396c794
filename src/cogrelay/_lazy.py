"""numpy, loaded on first use.

`np` is numpy's module object, bound without running numpy's code: the
stdlib `importlib.util.LazyLoader` runs it when the first attribute is read.
The library modules take `np` from here, so `validate` and every setup-time
error exit without loading numpy.  On Python 3.11 an `import numpy` statement
reads the lazy module's `__spec__`, which loads it, so none may run on the
setup path; and the first read is not thread-safe, so numpy must load before
the library starts a thread or forks.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
