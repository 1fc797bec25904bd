import importlib
import pkgutil

import romres


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # `from romres.<module> import *` only at import time of the caller
    for info in pkgutil.iter_modules(romres.__path__):
        mod = importlib.import_module(f"romres.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (info.name, missing)
