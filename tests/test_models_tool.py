"""Smoke test of ``tools/models.py``, the model-build and certificate
timer whose numbers the ROADMAP quotes."""

import gc
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from schuralg import tensormodel

MODELS_PATH = Path(__file__).resolve().parent.parent / "tools" / "models.py"


def _load_models():
    spec = importlib.util.spec_from_file_location("models", MODELS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_models_prints_one_row_per_point():
    models = _load_models()
    out = io.StringIO()
    with redirect_stdout(out):
        models.main(points=[("classical", 2, 3), ("quantum", 3, 2)], rounds=2)
    header, *rows = out.getvalue().splitlines()
    assert header.split() == ["point", "build_ms", "cert_ms", "total_ms"]
    assert [row.split()[:3] for row in rows] == [["classical", "(2,", "3)"],
                                                 ["quantum", "(3,", "2)"]]
    for row in rows:
        build, certify, total = map(float, row.split()[3:])
        assert build > 0 and certify > 0
        assert abs(build + certify - total) <= 0.002
    assert gc.isenabled()


def test_measure_certifies_each_model_it_builds(monkeypatch):
    models = _load_models()
    built, certified = [], []
    real_build, real_certify = tensormodel.build_model, tensormodel.certify_hecke_commutation
    monkeypatch.setattr(tensormodel, "build_model",
                        lambda *a, **k: built.append(real_build(*a, **k)) or built[-1])
    monkeypatch.setattr(tensormodel, "certify_hecke_commutation",
                        lambda model: certified.append(model) or real_certify(model))
    models.measure(tensormodel, "quantum", 2, 3, rounds=3)
    assert len(built) == 3 and certified == built
    assert all(model._hecke_certified for model in built)
