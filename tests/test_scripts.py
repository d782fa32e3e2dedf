"""Smoke tests: the experiment scripts run end to end on tiny arguments."""

import importlib.util
import math
from pathlib import Path

import pytest

from slicefock import GridTooCoarse, fock

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_norm_sweep_rows(tmp_path, capsys):
    # p = 1.5 takes the blocked p != 2 quadrature, p = 2 the closed form
    out_path = tmp_path / "sweep.csv"
    code = load_script("norm_sweep").main(
        ["--degrees", "0,2", "--alphas", "1.0", "--p", "1.5,2", "--sphere", "2",
         "--output", str(out_path)])
    assert code == 0
    assert f"wrote 4 rows to {out_path}" in capsys.readouterr().out
    header, *rows = out_path.read_text().splitlines()
    assert header == "n,alpha,p,slice_norm,ball_norm,ball_over_slice,sup_norm"
    assert [row.split(",")[:3] for row in rows] == [
        ["0", "1.0", "1.5"], ["0", "1.0", "2.0"], ["2", "1.0", "1.5"], ["2", "1.0", "2.0"]]
    for row in rows:
        n, _, p, on_slice, ball, ratio, sup = (float(v) for v in row.split(","))
        assert on_slice > 0.0 and math.isfinite(ball)
        # real coefficients make every slice carry the same norm
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert sup == pytest.approx(1.0 if n == 0 else math.exp(-0.5),
                                    rel=1e-12)


def test_run_verification_one_cell(capsys):
    code = load_script("run_verification").main(
        ["--seeds", "0", "--p", "1.5", "--sphere", "2",
         "--props", "norm-sandwich-p,star"])
    out = capsys.readouterr().out
    assert code == 0
    assert "== seed=0 p=1.5 alpha=1.0" in out
    assert "norm-sandwich-p" in out and "star" in out
    assert out.rstrip().endswith("all cells passed")


@pytest.mark.parametrize("props", ["", ","])
def test_run_verification_refuses_an_empty_selection(props, capsys):
    code = load_script("run_verification").main(["--seeds", "0", "--props", props])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: no proposition selected")


def _raise_grid_too_coarse(*args):
    raise GridTooCoarse("no grid agrees with a coarser one", [])


def test_run_verification_refuses_a_grid_too_coarse(monkeypatch, capsys):
    # exit 1 would read as a failed cell
    monkeypatch.setattr(fock, "_refine_norms", _raise_grid_too_coarse)
    code = load_script("run_verification").main(
        ["--seeds", "0", "--p", "1.5", "--sphere", "2", "--props", "norm-sandwich-p"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: no grid agrees with a coarser one\n"


def test_norm_sweep_refuses_a_grid_too_coarse(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fock, "_refine_norms", _raise_grid_too_coarse)
    out_path = tmp_path / "sweep.csv"
    code = load_script("norm_sweep").main(
        ["--degrees", "1", "--alphas", "1.0", "--p", "1.5", "--sphere", "2",
         "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: no grid agrees with a coarser one\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["--seeds", ""], "--seeds names no value"),
    (["--p", ","], "--p names no value"),
    (["--seeds", "x"], "--seeds expects comma separated int values, got 'x'"),
    (["--seeds", "0,1.5"], "--seeds expects comma separated int values"),
    (["--p", "2,x"], "--p expects comma separated float values"),
    (["--p", "2,-1"], "p must be positive or infinity"),
    (["--p", "2,inf"], "verify needs a finite p, got inf"),
    (["--alpha", "0"], "alpha must be positive and finite")])
def test_run_verification_refuses_a_bad_list(argv, message, capsys):
    # each ran no cell and printed "all cells passed", or raised a traceback
    code = load_script("run_verification").main(argv + ["--props", "split"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    (["--degrees", ""], "--degrees names no value"),
    (["--alphas", ","], "--alphas names no value"),
    (["--p", ""], "--p names no value"),
    (["--degrees=-1,0"], "--degrees must be nonnegative, got '-1,0'"),
    (["--degrees", "1.5"], "--degrees expects comma separated int values"),
    (["--alphas", "x"], "--alphas expects comma separated float values, got 'x'"),
    (["--alphas", "1,-1"], "alpha must be positive and finite"),
    (["--p", "nan"], "p must be positive or infinity"),
    (["--radius", "0"], "radius must be positive and finite"),
    (["--sphere", "-3"], "count must be a positive integer")])
def test_norm_sweep_refuses_a_bad_list(argv, message, tmp_path, capsys):
    # degree -1 gave a row of the constant 1; a bad alpha raised a traceback
    out_path = tmp_path / "sweep.csv"
    code = load_script("norm_sweep").main(argv + ["--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out_path.exists()
