"""Command-line behavior: exit codes, formats, and determinism."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from schuralg.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_dim_text_and_json():
    code, out, _ = run(["dim", "2", "2"])
    assert code == 0
    assert out == "count=10 rank=10 expected=10 pass\n"
    code, out, _ = run(["dim", "3", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["command"] == "dim"
    assert data["mode"] == "classical"
    assert data["count"] == data["rank"] == data["expected"] == 45
    assert data["pass"] is True


def test_dim_quantum_with_custom_spec_points():
    code, out, _ = run(
        ["dim", "2", "2", "--quantum", "--spec-points", "3/2,13/4", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["rank"] == 10


def test_negative_spec_points_need_the_equals_form():
    # In the spaced form the parser reads "-1,2" as an option, so the
    # command is refused as a usage error; the "=" form passes it on.
    default = run(["dim", "3", "3", "--quantum", "--format", "json"])
    code, out, _ = run(["dim", "3", "3", "--quantum", "--spec-points=-1,2", "--format", "json"])
    assert code == 0 and default[0] == 0
    assert out == default[1]
    code, out, err = run(["dim", "3", "3", "--quantum", "--spec-points", "-1,2"])
    assert code == 2 and out == ""
    assert "--spec-points: expected one argument" in err


def test_basis_formats():
    code, out, _ = run(["basis", "2", "2", "--kind", "zero"])
    assert code == 0
    assert out.splitlines() == ["1(2,0)", "1(1,1)", "1(0,2)"]
    code, out, _ = run(["basis", "2", "2", "--kind", "b2", "--format", "json"])
    data = json.loads(out)
    assert data["count"] == 10 and data["kind"] == "B2"
    assert len(data["basis"]) == 10
    code, out, _ = run(["basis", "2", "2", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "key,flavor,A,lambda,C,pbw,k0"
    assert len(lines) == 11
    code, out, _ = run(["basis", "2", "2", "--kind", "pbw", "--k0", "1"])
    assert code == 0 and len(out.splitlines()) == 10


def test_verify_text_names_relations():
    code, out, _ = run(["verify", "2", "2", "--suite", "relations"])
    assert code == 0
    assert "R1" in out and "R7" in out and "PASS" in out
    code, out, _ = run(["verify", "3", "2", "--quantum", "--suite", "relations"])
    assert code == 0
    for rid in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"):
        assert rid in out


def test_verify_json_reports():
    code, out, _ = run(["verify", "2", "2", "--suite", "idempotent", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["suite"] == "idempotent"
    items = data["reports"][0]["items"]
    assert all(item["ok"] for item in items)
    assert not any("seconds" in report for report in data["reports"])


def test_structconst_formats():
    code, out, _ = run(["structconst", "2", "2", "--left", "1", "--right", "2"])
    assert code == 0 and out.startswith("B1[1] * B1[2]:")
    code, out, _ = run(
        ["structconst", "2", "2", "--left", "1", "--right", "2", "--format", "csv"]
    )
    assert out.splitlines()[0] == "left,right,label,coefficient"
    code, out, _ = run(
        ["structconst", "2", "2", "--left", "1", "--right", "2", "--format", "json"]
    )
    triple = json.loads(out)["triples"][0]
    assert triple["left"] == 1 and triple["right"] == 2
    assert all(coeff.lstrip("-").isdigit() for coeff in triple["coeffs"].values())


def test_structconst_quantum_prints_laurent_polynomials():
    # Integral quantum coefficients print in canonical polynomial form,
    # not as an unreduced fraction such as (v^2 - 1)/(v^2 - 1).
    argv = ["structconst", "2", "2", "--quantum", "--left", "1", "--right", "8"]
    code, out, _ = run(argv)
    assert code == 0
    assert out == "B1[1] * B1[8]:\n  e{1-2:1} 1(0,2) f{1-2:1}: 1\n"
    code, out, _ = run(argv + ["--format", "json"])
    assert json.loads(out)["triples"] == [
        {"left": 1, "right": 8, "coeffs": {"e{1-2:1} 1(0,2) f{1-2:1}": "1"}}
    ]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_structconst_expands_the_product_once(fmt, monkeypatch):
    # Every format renders the one table: the CSV is made from it.
    from schuralg import bases

    calls = []
    real = bases.structure_constants

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(bases, "structure_constants", counted)
    argv = ["structconst", "2", "3", "--left", "1", "--right", "8", "--format", fmt]
    assert run(argv)[0] == 0
    assert calls == [(1, 8)]


def test_hecke_text():
    code, out, _ = run(["hecke", "3", "3"])
    assert code == 0
    assert "dim=6 expected=6" in out and out.rstrip().endswith("pass")


def test_exit_code_2_on_usage_and_hypothesis_errors():
    assert run(["hecke", "2", "3"])[0] == 2  # needs n >= d
    assert run(["verify", "3", "2", "--suite", "rank1"])[0] == 2  # needs n = 2
    assert run(["verify", "2", "2", "--suite", "bogus"])[0] == 2
    assert run(["basis", "2", "2", "--kind", "b1", "--k0", "1"])[0] == 2
    assert run(["basis", "2", "2", "--kind", "pbw", "--k0", "7"])[0] == 2
    assert run(["structconst", "2", "2", "--left", "0", "--right", "99"])[0] == 2
    assert run(["dim", "1", "2"])[0] == 2  # n too small
    assert run(["dim", "2", "0"])[0] == 2  # d too small
    assert run([])[0] == 2  # missing subcommand


def test_exit_code_3_on_word_cap():
    before = dict(os.environ)
    code, _, err = run(["dim", "3", "3", "--word-cap", "5"])
    assert code == 3
    assert "word cap" in err
    # The scoped cap must not leak into the process environment.
    assert dict(os.environ) == before


def test_json_runs_are_byte_identical():
    for argv in (
        ["dim", "2", "2", "--format", "json"],
        ["basis", "2", "2", "--kind", "b1", "--format", "json"],
        ["verify", "2", "2", "--format", "json"],
        ["verify", "2", "2", "--quantum", "--suite", "relations", "--format", "json"],
        ["structconst", "2", "2", "--left", "0", "--right", "5", "--format", "json"],
        ["hecke", "2", "2", "--quantum", "--format", "json"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[1].encode() == second[1].encode()


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["dim", "2", "2", "--format", "json", "--output", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["pass"] is True


def _raising(exc):
    def handler(args):
        raise exc

    return handler


def test_exit_code_1_on_not_in_span(monkeypatch):
    from schuralg import cli
    from schuralg.errors import NotInSpan

    monkeypatch.setitem(cli._HANDLERS, "dim", _raising(NotInSpan("no expansion")))
    code, out, err = run(["dim", "2", "2"])
    assert code == 1 and out == ""
    assert err == "schuralg: error: no expansion\n"


def test_exit_code_1_on_not_divisible(monkeypatch):
    from schuralg import cli
    from schuralg.errors import NotDivisible

    monkeypatch.setitem(cli._HANDLERS, "hecke", _raising(NotDivisible("remainder")))
    code, out, err = run(["hecke", "2", "2"])
    assert code == 1 and out == ""
    assert err == "schuralg: error: remainder\n"


def test_unexpected_errors_propagate(monkeypatch):
    from schuralg import cli

    monkeypatch.setitem(cli._HANDLERS, "dim", _raising(ValueError("internal bug")))
    with pytest.raises(ValueError, match="internal bug"):
        main(["dim", "2", "2"])


def test_common_options_reach_every_command():
    argv = ["--spec-points", "3/2,13/4", "--format", "json"]
    for command in (["verify", "2", "2", "--quantum", "--suite", "specialize"],
                    ["hecke", "2", "2", "--quantum"],
                    ["structconst", "2", "2", "--quantum", "--left", "1",
                     "--right", "2"]):
        code, out, _ = run(command + argv)
        assert code == 0 and json.loads(out)["pass"] is True
    assert run(["verify", "2", "3", "--suite", "specialize", "--word-cap", "7"])[0] == 3
    assert run(["hecke", "2", "3", "--word-cap", "7"])[0] == 3


def test_basis_borel_kinds():
    for kind, flavor in (("borel_up", "BOREL_UP"), ("borel_down", "BOREL_DOWN")):
        code, out, _ = run(["basis", "2", "2", "--kind", kind, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == flavor and data["count"] == 6
