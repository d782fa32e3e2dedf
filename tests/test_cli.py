import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from slicefock import (UNIT_I, AtomicData, FockParams, MultiMonomial,
                       MultiPolynomial, Quaternion, SliceSeries, default_sphere,
                       fock_norm_p)
from slicefock.cli import build_parser, main
from slicefock.errors import GridTooCoarse
from slicefock.serialize import (atomic_to_dict, dumps_canonical,
                                 function_to_dict, load_function,
                                 save_function)


def write_series(tmp_path, coeffs, name="f.json", radius=1.0):
    path = tmp_path / name
    save_function(SliceSeries(tuple(coeffs), radius), str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text_with_truncation(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0)])
    code, out, err = run(capsys, ["eval", path, "--point", "0,0,1,0",
                                  "--truncate", "0"])
    assert code == 0 and err == ""
    # f(j) = 1 + j i = 1 - k
    assert "value = [1.0, 0.0, 0.0, -1.0]" in out
    assert "rep-formula residual = " in out
    assert "truncated(0) = [1.0, 0.0, 0.0, 0.0]" in out
    assert "tail bound = 1.0" in out
    assert "warning" not in out


def test_eval_json_and_outside_radius(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(0.0, 0.0, 0.0, 1.0)])
    code, out, err = run(capsys, ["eval", path, "--point", "2,0,0,0",
                                  "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [0.0, 0.0, 0.0, 1.0]
    assert payload["outside_radius"] is True
    assert payload["rep_residual"] <= 1e-12

    code, out, _ = run(capsys, ["eval", path, "--point", "2,0,0,0"])
    assert code == 0
    assert "warning: point lies outside the nominal radius" in out


def test_eval_at_a_tiny_imaginary_part(tmp_path, capsys):
    # |Im q|^2 = 1e-320 is subnormal: the slice unit must still have norm 1
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0)])
    code, out, err = run(capsys, ["eval", path, "--point", "0,0,0,1e-160",
                                  "--out", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == [1.0, 0.0, 1e-160, 0.0]       # 1 + (1e-160 k) i
    assert payload["rep_residual"] <= 1e-15


def test_eval_rejects_several_variable_files(tmp_path, capsys):
    poly = MultiPolynomial(2, (MultiMonomial((1, 0), Quaternion(1.0)),))
    path = tmp_path / "poly.json"
    path.write_text(dumps_canonical(function_to_dict(poly)) + "\n")
    code, out, err = run(capsys, ["eval", str(path), "--point", "0,0,0,0"])
    assert code == 2 and out == ""
    assert "error:" in err and "one-variable" in err


def test_eval_bad_point_exits_two(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(1.0)])
    code, _, err = run(capsys, ["eval", path, "--point", "1,2,3"])
    assert code == 2
    assert "--point expects 'w,x,y,z'" in err


def test_norm_constant_matches_closed_form(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(1.0)])
    code, out, err = run(capsys, ["norm", path, "--sphere", "4"])
    assert code == 0 and err == ""
    value = float(out.splitlines()[0].split("=")[1])
    assert math.isclose(value, math.sqrt((1 - math.exp(-1)) / math.pi),
                        rel_tol=1e-10)
    assert "grid:" in out and "worst slice unit" in out


def test_norm_sup_and_csv(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(0.0), Quaternion(1.0)])
    code, out, _ = run(capsys, ["norm", path, "--p", "inf", "--sphere", "2"])
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert math.isclose(value, math.exp(-0.5), rel_tol=1e-9)
    assert "p = inf" in out

    code, out, _ = run(capsys, ["norm", path, "--sphere", "2", "--out", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "function-id,p,alpha,R,value"
    assert lines[1].startswith(f"{path},2.0,1.0,1.0,")


def test_norm_json_payload(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(1.0)])
    code, out, _ = run(capsys, ["norm", path, "--sphere", "2", "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2.0 and payload["alpha"] == 1.0
    assert payload["grid"]["rule"] == "closed form"
    assert len(payload["per_slice"]) == 5  # sphere 2 plus the i, j, k tail
    assert "tail_bound" not in payload


def test_verify_subset_reproducible(capsys):
    argv = ["verify", "--props", "star,split", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "2/2 propositions passed" in out1

    code, out, _ = run(capsys, argv + ["--out", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "name,instances,worst,bound,passed"


def test_verify_unknown_prop_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "--props", "bogus"])
    assert code == 2
    assert "unknown proposition" in err


def test_kernel_json_and_normalized(capsys):
    code, out, _ = run(capsys, ["kernel", "--q", "0,0,0,0", "--w", "0.5,0,0,0",
                                "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [1.0, 0.0, 0.0, 0.0]
    assert payload["N"] == 32 and payload["normalized"] is False
    assert 0.0 <= payload["tail_bound"] < 1e-12

    code, out, _ = run(capsys, ["kernel", "--q", "0.5,0,0,0",
                                "--w", "0.5,0,0,0", "--normalized",
                                "--out", "json"])
    payload = json.loads(out)
    assert code == 0
    # real q, w: e^{alpha q w} * e^{-alpha w^2 / 2} = e^{0.25 - 0.125}
    assert math.isclose(payload["value"][0], math.exp(0.125), rel_tol=1e-12)


def test_synth_writes_loadable_function(tmp_path, capsys):
    data = AtomicData((Quaternion(0.0),), (Quaternion(2.0),), 1.0, 8)
    atoms = tmp_path / "atoms.json"
    atoms.write_text(dumps_canonical(atomic_to_dict(data, UNIT_I)) + "\n")
    out_path = tmp_path / "synth.json"
    code, out, _ = run(capsys, ["synth", str(atoms), "--output", str(out_path)])
    assert code == 0
    assert f"wrote degree 8 function from 1 atoms to {out_path}" in out
    f = load_function(str(out_path))
    # kernel at the origin is the constant one, so the atom synthesizes to 2
    assert (f.eval(Quaternion(0.3, 0.1, 0.0, 0.0)) - Quaternion(2.0)).modulus() <= 1e-12


def test_profile_member_verdict(tmp_path, capsys):
    path = write_series(tmp_path, [Quaternion(1.0)])
    code, out, _ = run(capsys, ["profile", path, "--alpha", "20",
                                "--rho", "0.5,0.75,1.0"])
    assert code == 0
    assert "vanishes at the boundary (tolerance 0.001): yes" in out
    values = [float(line.split("M =")[1]) for line in out.splitlines()[:-1]]
    assert values == sorted(values, reverse=True)
    assert math.isclose(values[-1], math.exp(-10.0), rel_tol=1e-9)

    code, out, _ = run(capsys, ["profile", path, "--rho", "0.5,0.75,1.0",
                                "--out", "json"])
    payload = json.loads(out)
    assert payload["member"] is False  # e^{-rho^2/2} stays order one
    assert payload["decreasing_tail"] is True


@pytest.mark.parametrize("out", ["text", "json", "csv"])
def test_profile_overflow_exits_three(tmp_path, capsys, out):
    # f = 1e308 (1 + q): the weighted peak at rho = 10 is about 1e309
    path = write_series(tmp_path, [Quaternion(1e308), Quaternion(1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, ["profile", path, "--radius", "10",
                                         "--alpha", "0.001", "--rho", "0.5,10",
                                         "--out", out])
    assert code == 3 and stdout == ""
    assert err == "error: a value is not finite: M(10.0) = inf\n"


@pytest.mark.parametrize("out", ["text", "json"])
def test_norm_sup_overflow_exits_three(tmp_path, capsys, out):
    # f = 1e308 (1 + q): the weighted sup near |q| = 10 is about 1e309
    path = write_series(tmp_path, [Quaternion(1e308), Quaternion(1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, ["norm", path, "--p", "inf", "--radius", "10",
                                         "--alpha", "0.001", "--out", out])
    assert code == 3 and stdout == ""
    assert err == "error: a value is not finite: norm = inf\n"


def test_norm_p2_overflow_exits_three(tmp_path, capsys):
    # f = 1e308 (1 + q): the p = 2 norm on the ball of radius 30 is about
    # 8.5e308, an inf from the closed form with no grid to refuse it
    path = write_series(tmp_path, [Quaternion(1e308), Quaternion(1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, ["norm", path, "--p", "2", "--radius", "30",
                                         "--alpha", "0.001"])
    assert code == 3 and stdout == ""
    assert err == "error: a value is not finite: norm = inf\n"


def test_norm_p2_builds_no_grid(tmp_path, capsys, monkeypatch):
    # --radial and --angular apply at p != 2 only: the closed form reads no grid
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0, 0.5, 0.0, 0.0)])

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built at p = 2")

    monkeypatch.setattr("slicefock.quadrature.QuadratureGrid.build", refuse)
    code, out, _ = run(capsys, ["norm", path, "--p", "2", "--radial", "3",
                                "--out", "json"])
    assert code == 0 and json.loads(out)["grid"]["rule"] == "closed form"


@pytest.mark.parametrize("extra", [[], ["--normalized"], ["--out", "json"]])
def test_kernel_overflow_exits_three(capsys, extra):
    # alpha |q| |w| = 900: e^900 overflows a float, so the tail bound is inf;
    # damped by e^{-alpha |w|^2 / 2} = e^{-450} it fits.  900^41/41! > 1, so
    # the bound is e^900 (the whole series), not 900^41/41! e^900 = e^615
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["kernel", "--q", "30,0,0,0", "--w", "30,0,0,0",
                                      "--trunc", "40"] + extra)
    if extra == ["--normalized"]:
        assert code == 0 and err == ""
        want = math.exp(900.0 - 450.0)
        assert math.isclose(float(out.split("tail bound = ")[1]), want,
                            rel_tol=1e-12)
        return
    assert code == 3 and out == ""
    assert err.startswith("error: a value is not finite: kernel value = [")
    assert err.endswith("tail bound = inf\n")


def test_kernel_tail_bound_of_a_representable_tail_is_finite(capsys):
    # e^400 fits a float: the dropped tail of the sum at N = 300 is below it,
    # although 400^301/301! e^400 is about e^783
    code, out, err = run(capsys, ["kernel", "--q", "20,0,0,0", "--w", "20,0,0,0",
                                  "--trunc", "300", "--out", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["tail_bound"] == math.exp(400.0)


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["norm", "/nonexistent/f.json"])
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["eval", str(path), "--point", "0,0,0,0"])
    assert code == 2
    assert "broken.json" in err


def test_grid_too_coarse_exits_three(tmp_path, capsys, monkeypatch):
    path = write_series(tmp_path, [Quaternion(1.0)])

    def explode(*args, **kwargs):
        raise GridTooCoarse("no stable value at the resolution cap",
                            [({"radial": 4, "angular": 8}, [1.0, 1.5]),
                             ({"radial": 8, "angular": 16}, [1.2])])

    monkeypatch.setattr("slicefock.fock.fock_norm_p", explode)
    code, out, err = run(capsys, ["norm", path, "--sphere", "2"])
    assert code == 3 and out == ""
    assert "no stable value at the resolution cap" in err
    assert "grid {'radial': 4, 'angular': 8}: [1.0, 1.5]" in err


def test_argparse_errors_raise_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "f.json", "--out", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "true", "false"])
def test_norm_rejects_non_numeric_coefficients(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "radius": 1.0, "coeffs": [[1, 0, 0, 0], '
                    f'[0, {entry}, 0, 0]]}}\n')
    code, out, err = run(capsys, ["norm", str(path), "--sphere", "2"])
    assert code == 2 and out == ""
    assert "coeffs[1] must be a list of four finite numbers" in err


def test_norm_rejects_non_finite_radius(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "radius": Infinity, "coeffs": [[1, 0, 0, 0]]}\n')
    code, _, err = run(capsys, ["norm", str(path), "--sphere", "2"])
    assert code == 2
    assert "field 'radius'" in err


def test_norm_of_huge_coefficients_is_finite(tmp_path, capsys):
    # |f|^2 overflows unscaled; on a power-of-two scale the norm is 1e200 times
    # that of 1 + q i
    path = write_series(tmp_path, [Quaternion(1e200), Quaternion(0.0, 1e200, 0.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["norm", path, "--sphere", "2", "--out", "json"])
    assert code == 0 and err == ""
    unit_f = SliceSeries((Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0)))
    want = 1e200 * fock_norm_p(unit_f, FockParams(1.0), sphere=default_sphere(2)).value
    assert math.isclose(json.loads(out)["value"], want, rel_tol=1e-12)


@pytest.mark.parametrize("argv", [
    ["--point", "nan,0,0,0"],
    ["--point", "0,inf,0,0"],
    ["--point", "0,0,0,0", "--slice-unit", "nan,0,0"],
    ["--point", "0,0,0,0", "--slice-unit", "1,-inf,0"],
])
def test_eval_rejects_non_finite_point_and_unit(tmp_path, capsys, argv):
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0)])
    code, out, err = run(capsys, ["eval", path] + argv)
    assert code == 2 and out == ""
    assert "finite numbers" in err


@pytest.mark.parametrize("flag", ["--q", "--w"])
@pytest.mark.parametrize("text", ["nan,0,0,0", "0,0,-inf,0"])
def test_kernel_rejects_non_finite_points(capsys, flag, text):
    points = {"--q": "0.1,0.2,0,0", "--w": "0.3,0,0.1,0"}
    points[flag] = text
    code, out, err = run(capsys, ["kernel", "--q", points["--q"],
                                  "--w", points["--w"]])
    assert code == 2 and out == ""
    assert f"{flag} expects four finite numbers" in err


@pytest.mark.parametrize("extra", [[], ["--out", "json"], ["--truncate", "1"]])
def test_eval_overflow_exits_three(tmp_path, capsys, extra):
    # f(q) = 1 + q i + q^2 0.5 overflows at q = 1e300
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0),
                                   Quaternion(0.5)])
    code, out, err = run(capsys, ["eval", path, "--point", "1e300,0,0,0"] + extra)
    assert code == 3 and out == ""
    assert "a value is not finite" in err


def test_eval_tail_bound_overflow_exits_three(tmp_path, capsys):
    # g(q) = 1 + q^2 1e-300: g(1e200) = 1e100 is finite, and so is the tail
    # bound, although |q|^2 alone overflows
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.0),
                                   Quaternion(1e-300)])
    code, out, err = run(capsys, ["eval", path, "--point", "1e200,0,0,0"])
    assert code == 0 and err == ""
    code, out, err = run(capsys, ["eval", path, "--point", "1e200,0,0,0",
                                  "--truncate", "1", "--out", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["truncated"] == [1.0, 0.0, 0.0, 0.0]
    assert math.isclose(payload["tail_bound"], 1e100, rel_tol=1e-15)
    # h(q) = 1 - 1e200 q + q^2: h(1e200) = 1 is finite, but the bound
    # 2e400 on the dropped terms exceeds the float range
    h_path = write_series(tmp_path, [Quaternion(1.0), Quaternion(-1e200),
                                     Quaternion(1.0)], name="h.json")
    code, out, err = run(capsys, ["eval", h_path, "--point", "1e200,0,0,0"])
    assert code == 0 and err == ""
    code, out, err = run(capsys, ["eval", h_path, "--point", "1e200,0,0,0",
                                  "--truncate", "0"])
    assert code == 3 and out == ""
    assert "a value is not finite" in err and "tail bound = inf" in err
    # at a moderate point the same truncation has a finite bound
    code, out, err = run(capsys, ["eval", path, "--point", "1e100,0,0,0",
                                  "--truncate", "1", "--out", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["truncated"] == [1.0, 0.0, 0.0, 0.0]
    assert math.isclose(payload["tail_bound"], 1e-100, rel_tol=1e-12)


@pytest.mark.parametrize("alpha", ["inf", "nan"])
@pytest.mark.parametrize("extra", [[], ["--normalized"]])
def test_kernel_rejects_non_finite_alpha(capsys, alpha, extra):
    code, out, err = run(capsys, ["kernel", "--q", "0.1,0.2,0,0", "--w", "0.3,0,0.1,0",
                                  f"--alpha={alpha}"] + extra)
    assert code == 2 and out == ""
    assert "alpha must be positive and finite" in err


def test_synth_rejects_infinite_alpha(tmp_path, capsys):
    data = AtomicData((Quaternion(0.0),), (Quaternion(2.0),), 1.0, 8)
    text = dumps_canonical(atomic_to_dict(data, UNIT_I))
    atoms = tmp_path / "atoms.json"
    atoms.write_text(text.replace('"alpha":1.0', '"alpha":1e400') + "\n")
    out_path = tmp_path / "synth.json"
    code, out, err = run(capsys, ["synth", str(atoms), "--output", str(out_path)])
    assert code == 2 and out == ""
    assert "field 'alpha'" in err
    assert not out_path.exists()


@pytest.mark.parametrize("point, coeff, shown", [
    # |z|^2 overflows, so the damping is 0 and 0 * z^n = NaN once z^n is inf
    ("1e200", "1.0", "coefficient 2 = [nan, nan, nan, nan], "
                     "coefficient 3 = [nan, nan, nan, nan]"),
    # z^3 a = 27e307 overflows before it is damped
    ("3.0", "1e307", "coefficient 3 = [inf, 0.0, 0.0, 0.0]"),
], ids=["nan", "inf"])
def test_synth_refuses_a_non_finite_series(tmp_path, capsys, point, coeff, shown):
    atoms = tmp_path / "atoms.json"
    atoms.write_text('{"alpha": 1.0, "N": 3, "slice": [1.0, 0.0, 0.0], '
                     f'"points": [[{point}, 0, 0, 0]], "coeffs": [[{coeff}, 0, 0, 0]]}}\n')
    out_path = tmp_path / "h.json"
    argv = ["synth", str(atoms), "--output", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == f"error: a value is not finite: {shown}\n"
        assert not out_path.exists()
        # nor is an existing file overwritten
        out_path.write_text("kept\n")
        assert run(capsys, argv) == (3, "", err)
        assert out_path.read_text() == "kept\n"


@pytest.mark.parametrize("argv, field", [
    (["--p", "inf", "--radius", "inf"], "radius"),
    (["--p", "inf", "--alpha", "inf"], "alpha"),
    (["--alpha", "inf"], "alpha"),
])
def test_norm_rejects_infinite_alpha_and_radius(tmp_path, capsys, argv, field):
    path = write_series(tmp_path, [Quaternion(1.0), Quaternion(0.5)])
    code, out, err = run(capsys, ["norm", path, "--sphere", "2"] + argv)
    assert code == 2 and out == ""
    assert f"{field} must be positive and finite" in err


@pytest.mark.parametrize("p", ["inf", "-inf", "nan"])
def test_verify_rejects_non_finite_p(capsys, p):
    code, out, err = run(capsys, ["verify", "--props", "star", f"--p={p}"])
    assert code == 2 and out == ""
    assert "verify needs a finite p" in err


def _readme_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("slicefock ")]


def test_readme_examples_parse():
    examples = _readme_examples()
    commands = set()
    for line in examples:
        args = build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"eval", "norm", "verify", "kernel", "synth", "profile"}


def test_verify_has_no_worker_flag(capsys):
    # argparse would accept this abbreviation if a matching flag existed
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--thread", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_has_no_sphere_flag(capsys):
    # M(rho) is exact over the units, so no unit sample is left to size
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["profile", "f.json", "--rho", "1", "--sphere", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- every subcommand's stdout, stderr and exit code, pinned byte for byte ---

OUTPUTS = Path(__file__).resolve().parent / "data" / "cli_outputs.json"

# f = 1 + q 0.5i + q^2 (0.25 - 0.5j + 0.125k); huge = 1e308 (1 + q)
_MATRIX_FILES = {
    "f.json": '{"n": 1, "radius": 1.0, "coeffs": [[1.0, 0.0, 0.0, 0.0], '
              '[0.0, 0.5, 0.0, 0.0], [0.25, 0.0, -0.5, 0.125]]}',
    "huge.json": '{"n": 1, "radius": 1.0, "coeffs": [[1e308, 0.0, 0.0, 0.0], '
                 '[1e308, 0.0, 0.0, 0.0]]}',
    "poly.json": dumps_canonical(function_to_dict(
        MultiPolynomial(2, (MultiMonomial((1, 0), Quaternion(1.0)),)))),
    "atoms.json": '{"alpha": 1.0, "N": 6, "slice": [1.0, 0.0, 0.0], '
                  '"points": [[0.1, 0.2, 0.0, 0.0], [-0.3, 0.1, 0.0, 0.0]], '
                  '"coeffs": [[1.0, 0.0, 0.5, 0.0], [0.0, -0.25, 0.0, 1.0]]}',
}

MATRIX = {
    "eval": "eval f.json --point 0.1,0.2,0.3,0.1",
    "eval-truncate": "eval f.json --point 0.1,0.2,0.3,0.1 --truncate 1",
    "eval-overflow": "eval f.json --point 1e300,0,0,0",
    "eval-several-variables": "eval poly.json --point 0,0,0,0",
    "eval-bad-point": "eval f.json --point 1,2,3",
    "norm-p2": "norm f.json --p 2 --sphere 2",
    "norm-p1.5": "norm f.json --p 1.5 --sphere 2",
    "norm-inf": "norm f.json --p inf --sphere 2",
    "norm-p2-overflow": "norm huge.json --p 2 --radius 30 --alpha 0.001 --sphere 2",
    "verify": "verify --props star,split",
    "kernel": "kernel --q 0.1,0.2,0.3,0 --w 0.5,0,0.25,0 --trunc 12",
    "kernel-normalized": "kernel --q 0.1,0.2,0.3,0 --w 0.5,0,0.25,0 --normalized",
    "kernel-overflow": "kernel --q 30,0,0,0 --w 30,0,0,0 --trunc 40",
    "synth": "synth atoms.json --output g.json",
    "profile": "profile f.json --rho 0.25,0.5,1.0",
    "profile-overflow": "profile huge.json --radius 10 --alpha 0.001 --rho 0.5,10",
}


def matrix_output(capsys, case: str, out: str) -> dict:
    """Exit code, stdout and stderr of one matrix command, run in the cwd."""
    for name, text in _MATRIX_FILES.items():
        Path(name).write_text(text + "\n")
    code, stdout, err = run(capsys, shlex.split(MATRIX[case]) + ["--out", out])
    return {"code": code, "out": stdout, "err": err}


@pytest.mark.parametrize("out", ["text", "json", "csv"])
@pytest.mark.parametrize("case", list(MATRIX))
def test_output_matrix(tmp_path, capsys, monkeypatch, case, out):
    monkeypatch.chdir(tmp_path)
    want = json.loads(OUTPUTS.read_text())[case][out]
    assert matrix_output(capsys, case, out) == want
