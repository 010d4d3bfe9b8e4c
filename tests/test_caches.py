"""The package's module-level caches are bounded."""

import importlib
import pkgutil

import schuralg


def test_every_lru_cache_has_a_bound():
    found = {}
    for info in pkgutil.iter_modules(schuralg.__path__):
        module = importlib.import_module(f"schuralg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert {"bases.block_dimension", "ring._integer_step",
            "rootvectors._signed_shift"} <= found.keys()
    assert all(isinstance(size, int) for size in found.values()), found
