"""Every function the benchmark's traced mode wraps still exists.

perfbench/run.py --trace 1 wraps the functions that perfbench/layers.py
lists in LAYERS.  Tracer.install looks each name up on its oplax module,
or, for Class.attr, in the class's own namespace; a name that a cleanup
deletes or renames makes the traced run fail.  The file is only read.
"""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
LAYERS = runpy.run_path(str(LAYERS_FILE))["LAYERS"]
NAMES = [f"{module}.{func}" for module, funcs in LAYERS.items()
         for func in funcs]


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module_name, func = name.split(".", 1)
    module = importlib.import_module(f"oplax.{module_name}")
    if "." in func:
        cls_name, attr = func.split(".")
        assert callable(vars(getattr(module, cls_name))[attr])
    else:
        assert callable(getattr(module, func))
