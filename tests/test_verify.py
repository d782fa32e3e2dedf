import errno
import inspect
import os
import re
import subprocess
import sys
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest

from slicefock import Quaternion, SliceSeries, default_sphere, fock, verify
from slicefock.cli import main
from slicefock.corpus import (_orthogonal_pair_rows, random_orthogonal_pair, rng_for,
                             standard_corpus)
from slicefock.errors import GridTooCoarse
from slicefock.quadrature import QuadratureGrid
from slicefock.serialize import dumps_canonical
from slicefock.verify import (PROPOSITIONS, _select, format_csv, format_text,
                              results_to_dicts, run_verify)

# algebra-only subset runs in well under a second; norm subsets get a small
# sphere so the whole file stays fast


def test_proposition_names_sorted_unique():
    assert list(PROPOSITIONS) == sorted(set(PROPOSITIONS))
    assert len(PROPOSITIONS) == 9


def test_select_exact_prefix_and_errors():
    assert _select(None) == list(PROPOSITIONS)
    assert _select("star,split") == ["split", "star"]
    assert _select(["rep-formula"]) == ["rep-formula"]
    assert _select("derivative,derivative") == ["derivative"]
    # names are exact: a prefix, unique or not, is an unknown name
    for token in ("holomorphy", "rep", "norm-sandwich"):
        with pytest.raises(ValueError, match=f"^unknown proposition '{token}'; "
                                             "choose from derivative, dilation"):
            _select([token])


@pytest.mark.parametrize("props", ["", ",", ",,", []])
def test_an_empty_selection_is_refused(props, capsys):
    with pytest.raises(ValueError, match="no proposition selected; choose from derivative"):
        _select(props)
    with pytest.raises(ValueError, match="no proposition selected"):
        run_verify(seed=0, props=props)
    if isinstance(props, str):
        assert main(["verify", "--props", props]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no proposition selected")


def test_corpus_determinism_and_shape():
    a = standard_corpus(3)
    b = standard_corpus(3)
    c = standard_corpus(4)
    assert len(a) == 200
    assert all(f.coeffs for f in a)
    assert [f.coeffs for f in a] == [f.coeffs for f in b]
    assert [f.coeffs for f in a] != [f.coeffs for f in c]
    assert rng_for(7).integers(0, 100, 4).tolist() == rng_for(7).integers(0, 100, 4).tolist()


def _scalar_pair_rows(rng, count):
    return np.array([[[u.x, u.y, u.z] for u in random_orthogonal_pair(rng)]
                     for _ in range(count)])


@pytest.mark.parametrize("seed", [0, 7, 39, 1234])
def test_bulk_unit_pairs_equal_the_scalar_draws(seed):
    # the split row's pairs: one normal draw, the scalar loop's arithmetic
    bulk_rng, scalar_rng = rng_for(seed), rng_for(seed)
    for count in (4000, 1, 3):
        got = _orthogonal_pair_rows(bulk_rng, count)
        assert got.shape == (count, 2, 3)
        assert got.tobytes() == _scalar_pair_rows(scalar_rng, count).tobytes()
    # both generators are left at the same place in the stream
    assert bulk_rng.normal() == scalar_rng.normal()


class _FixedNormals:
    """A generator whose normal draws are a fixed stream; its state is the position."""

    def __init__(self, stream):
        self.stream, self.position, self.bit_generator = stream, 0, self

    state = property(lambda self: self.position,
                     lambda self, value: setattr(self, "position", value))

    def normal(self, size):
        start, self.position = self.position, self.position + int(np.prod(size))
        return self.stream[start:self.position].reshape(size)


@pytest.mark.parametrize("rejected", ["unit", "partner"])
def test_a_rejected_draw_leaves_the_scalar_pairs(rejected):
    stream = rng_for(5).normal(size=200)
    if rejected == "unit":
        stream[:3] = 1e-9                   # |v| <= 1e-6: the loop draws I again
    else:
        stream[3:6] = 2.0 * stream[:3]      # v parallel to I: w = 0, J is drawn again
    bulk, scalar = _FixedNormals(stream), _FixedNormals(stream)
    want = _scalar_pair_rows(scalar, 20)
    got = _orthogonal_pair_rows(bulk, 20)
    assert got.tobytes() == want.tobytes()
    assert bulk.position == scalar.position == 123


def test_algebra_subset_passes_and_is_deterministic():
    first = run_verify(seed=11, props="star,split,rep-formula")
    second = run_verify(seed=11, props=["rep-formula", "split", "star"])
    assert [r.name for r in first] == ["rep-formula", "split", "star"]
    assert all(r.passed for r in first)
    assert format_text(first) == format_text(second)
    assert format_text(first).endswith("3/3 propositions passed")
    by_name = {r.name: r for r in first}
    assert by_name["split"].instances == 4000
    assert by_name["split"].bound == 1e-14
    assert by_name["rep-formula"].instances == 1000
    assert by_name["rep-formula"].bound == 1e-11


def test_selection_does_not_change_draws():
    alone = run_verify(seed=5, props="star")
    mixed = [r for r in run_verify(seed=5, props="star,split") if r.name == "star"]
    assert alone[0] == mixed[0]


def test_dilation_and_derivative_pass_on_seed_2():
    results = run_verify(seed=2, props="dilation,derivative", sphere_count=4)
    assert [r.name for r in results] == ["derivative", "dilation"]
    assert all(r.passed for r in results)
    # d^t f = 0 for degree < t is counted, not taken as the worst margin
    derivative = results[0]
    assert derivative.instances == 150
    assert re.fullmatch(r"vacuous=[1-9][0-9]*", derivative.detail)
    assert derivative.worst < 0.0


def test_norm_propositions_on_coarse_setup():
    with unittest.mock.patch.object(verify, "SANDWICH_SUP_GRID", (33, 64)):
        results = run_verify(
            seed=1, props="norm-sandwich-p,slice-pair,norm-sandwich-sup,monomial",
            sphere_count=8)
    assert [r.name for r in results] == ["monomial", "norm-sandwich-p",
                                         "norm-sandwich-sup", "slice-pair"]
    assert all(r.passed for r in results)
    sandwich = results[1]
    assert "grid-doubling-rel" not in sandwich.detail  # p = 2 compares no grids
    assert results[3].worst <= 1.0 + 1e-9  # pair ratio at p=2 is exactly one


def _doubling_rel(result):
    return float(re.search(r"grid-doubling-rel=(\S+)", result.detail).group(1))


def test_p_rows_refine_from_a_coarse_start_grid():
    # fock's 64 x 128 start grid against one doubling, compared without
    # refinement, read 1.03e-6 here (and 8 x 16 read 4.57e-3)
    with unittest.mock.patch.object(fock, "_refine_norms",
                                    wraps=fock._refine_norms) as refine:
        sandwich, pair = run_verify(0, props="norm-sandwich-p,slice-pair", p=1.5,
                                    sphere_count=2)
    assert refine.call_count == len(standard_corpus(0))
    assert sandwich.passed
    # one ratio per function serves both rows
    assert sandwich.worst == pair.worst
    assert re.fullmatch(r"grid-doubling-rel=\S+", sandwich.detail)
    assert _doubling_rel(sandwich) <= 1e-6


def test_p2_rows_take_the_closed_form_once_per_function():
    # a coarse and a doubled grid per function made 400 calls of each
    with unittest.mock.patch.object(fock, "_p2_norm", wraps=fock._p2_norm) as p2, \
            unittest.mock.patch.object(fock, "_slice_norms_on_grid") as on_grid, \
            unittest.mock.patch.object(verify, "_slice_norms_on_grid", on_grid), \
            unittest.mock.patch.object(QuadratureGrid, "build") as build:
        [sandwich] = run_verify(0, props="norm-sandwich-p", sphere_count=2)
    assert p2.call_count == len(standard_corpus(0))
    assert on_grid.call_count == build.call_count == 0
    assert sandwich.passed and sandwich.detail == ""


def test_run_verify_takes_no_sup_grid_size():
    # its sup grids are verify's constants and fock's; none is a keyword
    keywords = set(inspect.signature(run_verify).parameters)
    assert not {"sup_radial", "sup_angular"} & keywords


def test_run_verify_takes_no_quadrature_grid_size():
    # the p rows refine from fock's start grid, as norm does
    keywords = set(inspect.signature(run_verify).parameters)
    assert not {"grid", "radial", "angular"} & keywords
    assert "grid" not in inspect.signature(verify._check_p_norms).parameters


def test_formatters_agree_with_results():
    results = run_verify(seed=9, props="split")
    dicts = results_to_dicts(results)
    assert dicts[0]["name"] == "split" and dicts[0]["passed"] is True
    csv = format_csv(results).splitlines()
    assert csv[0] == "name,instances,worst,bound,passed"
    assert csv[1].startswith("split,4000,") and csv[1].endswith(",true")
    text = format_text(results)
    assert "split" in text and "PASS" in text and "1/1 propositions passed" in text


DATA = Path(__file__).parent / "data"


def test_small_verify_report_matches_pinned_output():
    # report pinned byte for byte.  The text rounds to 7 digits; the JSON
    # carries every float in full, so it pins the numbers themselves.
    with unittest.mock.patch.object(verify, "SANDWICH_SUP_GRID", (17, 32)):
        results = run_verify(0, sphere_count=8)
    for name, got in (("verify_seed0_small.txt", format_text(results)),
                      ("verify_seed0_small.json",
                       dumps_canonical(results_to_dicts(results)))):
        assert got == (DATA / name).read_text().rstrip("\n"), name


def test_default_verify_report_matches_pinned_output():
    # `slicefock verify --seed 0 --out json` with every default flag: the
    # grids and sphere that users and the benchmark run, in full precision
    got = dumps_canonical(results_to_dicts(run_verify(0)))
    assert got == (DATA / "verify_seed0.json").read_text().rstrip("\n")


# --- the sup row's worker ---

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("extra", [[], ["--p", "1.5", "--sphere", "2"]])
def test_verify_output_does_not_depend_on_the_core_count(extra, src_env):
    # with two cores the sup row runs in a forked worker beside the others
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        pytest.skip("needs two usable cores")
    argv = [sys.executable, "-m", "slicefock", "verify", "--seed", "0",
            "--out", "json", *extra]
    free = subprocess.run(argv, env=src_env, capture_output=True, timeout=300)
    pinned = subprocess.run(argv, env=src_env, capture_output=True, timeout=300,
                            preexec_fn=lambda: os.sched_setaffinity(0, cores[:1]))
    assert free.returncode == pinned.returncode == 0, free.stderr + pinned.stderr
    assert free.stdout == pinned.stdout


def _raise_grid_too_coarse(corpus, params, units):
    raise GridTooCoarse("no stable sup at the resolution cap",
                        [({"radial": 65, "angular": 128}, [1.0, 1.5])])


def test_an_exception_in_the_worker_reaches_the_caller(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_check_sup_norms", _raise_grid_too_coarse)
    forks = []
    monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
    with pytest.raises(GridTooCoarse) as raised:
        run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    assert forks == ([1] if fock._usable_cores() >= 2 else [])
    assert type(raised.value) is GridTooCoarse
    assert str(raised.value) == "no stable sup at the resolution cap"
    assert raised.value.trace == [({"radial": 65, "angular": 128}, [1.0, 1.5])]
    # raised again here, where this process computed the row
    assert any(entry.name == "_raise_grid_too_coarse" for entry in raised.traceback)
    _no_child_left()

    argv = ["verify", "--props", "norm-sandwich-sup,split", "--sphere", "4"]
    assert main(argv) == 3
    forked = capsys.readouterr()
    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)
    assert main(argv) == 3
    serial = capsys.readouterr()
    assert forked.out == serial.out == ""
    assert forked.err == serial.err
    assert "grid {'radial': 65, 'angular': 128}: [1.0, 1.5]" in forked.err
    _no_child_left()


def test_no_worker_is_left_behind(monkeypatch):
    results = run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    assert [r.name for r in results] == ["norm-sandwich-sup", "split"]
    _no_child_left()

    def fail(corpus, seed):
        raise RuntimeError("the parent's row failed")

    # the parent raises while the worker still searches: it is killed and reaped
    monkeypatch.setattr(verify, "_check_split", fail)
    with pytest.raises(RuntimeError, match="the parent's row failed"):
        run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    _no_child_left()


def test_an_exception_pickle_cannot_carry_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2)

    class Local(Exception):                     # pickle finds no local class
        pass

    def fail(corpus, params, units):
        raise Local("lost on the way")

    monkeypatch.setattr(verify, "_check_sup_norms", fail)
    with pytest.raises(Local, match="lost on the way"):
        run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    _no_child_left()


@pytest.mark.parametrize("cores", [1, 2])
def test_exceptions_reach_the_caller_in_serial_order(monkeypatch, cores):
    # the sup row runs last, so any other row's exception comes first
    monkeypatch.setattr(fock, "_usable_cores", lambda: cores)

    def fail(*args):
        raise RuntimeError("a parent row failed")

    props = "norm-sandwich-sup,slice-pair,split"
    monkeypatch.setattr(verify, "_check_sup_norms", _raise_grid_too_coarse)
    monkeypatch.setattr(verify, "_check_split", fail)
    with pytest.raises(RuntimeError, match="a parent row failed"):
        run_verify(seed=0, props=props, sphere_count=4)
    _no_child_left()
    monkeypatch.setattr(verify, "_check_p_norms", fail)
    with pytest.raises(RuntimeError, match="a parent row failed"):
        run_verify(seed=0, props=props, sphere_count=4)
    _no_child_left()


@pytest.mark.parametrize("p, props, spare", [
    (2.0, "norm-sandwich-sup,slice-pair", True),
    (3.0, "norm-sandwich-sup,slice-pair", False),
    (3.0, "norm-sandwich-sup,split", True),
    (3.0, "norm-sandwich-sup", False),
    (3.0, "norm-sandwich-sup,slice-pair", True),     # beside the p rows' lanes
    (2.0, "norm-sandwich-sup", True),
    (3.0, "norm-sandwich-sup", True),
    (3.0, None, True),
    (2.0, None, False),
    (3.0, "slice-pair,split", True)])
def test_the_worker_forks_only_beside_a_spare_core(monkeypatch, p, props, spare):
    # the one fork rule: the sup row is selected and a second core is usable
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2 if spare else 1)
    monkeypatch.setattr(verify, "_check_p_norms", lambda *args: (
        verify.PropositionResult("norm-sandwich-p", 0, 0.0, 1.0, True),
        verify.PropositionResult("slice-pair", 0, 0.0, 1.0, True)))
    rows = {"_check_sup_norms": "norm-sandwich-sup", "_check_star": "star",
            "_check_split": "split", "_check_rep_formula": "rep-formula",
            "_check_dilation": "dilation", "_check_derivative": "derivative",
            "_check_monomial": "monomial"}
    for check, name in rows.items():
        monkeypatch.setattr(verify, check, lambda *args, name=name: (
            verify.PropositionResult(name, 0, 0.0, 1.0, True)))
    forks = []
    monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
    results = run_verify(seed=0, props=props, p=p, sphere_count=2)
    assert [r.name for r in results] == _select(props)
    forked = spare and "norm-sandwich-sup" in _select(props)
    assert forks == ([1] if forked else [])
    _no_child_left()


def test_a_worker_that_dies_leaves_the_serial_report(monkeypatch):
    # a worker killed from outside (say, for memory) sends nothing, and
    # this process computes the row itself
    parent, check = os.getpid(), verify._check_sup_norms
    monkeypatch.setattr(verify, "_check_sup_norms", lambda *args: (
        check(*args) if os.getpid() == parent else os._exit(7)))
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2)
    forked = run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    _no_child_left()
    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)
    assert forked == run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    _no_child_left()


def _refuse(code):
    def refuse(*args):
        raise OSError(code, os.strerror(code))      # EAGAIN: a BlockingIOError
    return refuse


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
def test_a_worker_that_cannot_start_is_no_worker(monkeypatch, capsys, call, code):
    # at a process or descriptor limit the serial run is the run: same
    # results, exit code 0, and neither end of the pipe left open
    props = "norm-sandwich-sup,split"
    argv = ["verify", "--props", props, "--sphere", "4", "--out", "json"]
    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)
    serial = run_verify(seed=0, props=props, sphere_count=4)
    assert main(argv) == 0
    serial_out = capsys.readouterr()
    pipes, pipe = [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, call, _refuse(code))
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2)
    assert run_verify(seed=0, props=props, sphere_count=4) == serial
    _no_child_left()
    assert main(argv) == 0
    assert capsys.readouterr() == serial_out
    _no_child_left()
    assert len(pipes) == (2 if call == "fork" else 0)
    for fd in (fd for ends in pipes for fd in ends):
        with pytest.raises(OSError):
            os.fstat(fd)


def test_rows_skip_a_function_whose_sup_is_zero():
    # the zero series of degree 1 has sups of 0; a ratio over one would
    # raise ZeroDivisionError or read NaN
    zero = SliceSeries((Quaternion(), Quaternion()))
    corpus, params, units = standard_corpus(0)[:3], fock.FockParams(1.0), default_sphere(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup = verify._check_sup_norms([zero] + corpus, params, units)
        monomial = verify._check_monomial([zero] + corpus, params)
    # the zero series counts as ratio 1 on both sides of the sup sandwich
    assert sup.worst == verify._check_sup_norms(corpus, params, units).worst
    assert sup.passed and sup.detail == "lower=1.000000000000"
    assert verify._check_sup_norms([zero], params, units).worst == 1.0
    # the monomial row takes no instance from it
    assert monomial == verify._check_monomial(corpus, params)


def test_a_healthy_worker_leaves_the_sup_row_to_itself(monkeypatch, tmp_path):
    # a fallback that always ran here would turn verify serial unseen
    calls, check = tmp_path / "calls", verify._check_sup_norms

    def counted(*args):
        with open(calls, "a") as log:
            log.write(f"{os.getpid()}\n")
        return check(*args)

    monkeypatch.setattr(verify, "_check_sup_norms", counted)
    monkeypatch.setattr(fock, "_usable_cores", lambda: 2)
    run_verify(seed=0, props="norm-sandwich-sup,split", sphere_count=4)
    _no_child_left()
    pids = calls.read_text().split()
    assert len(pids) == 1 and int(pids[0]) != os.getpid()


def test_one_runner_leaves_the_sup_row_to_run_verify(monkeypatch):
    # the runner takes every other row; run_verify appends the sup row once
    calls = []
    monkeypatch.setattr(verify, "_check_sup_norms", lambda *args: (
        calls.append(os.getpid())
        or verify.PropositionResult("norm-sandwich-sup", 0, 0.0, 2.0, True)))
    selected = ["norm-sandwich-sup", "split"]
    rows = verify._run_rows(selected, standard_corpus(0), fock.FockParams(1.0),
                            verify.default_sphere(4), 0)
    assert [r.name for r in rows] == ["split"] and calls == []
    monkeypatch.setattr(fock, "_usable_cores", lambda: 1)
    results = run_verify(seed=0, props=",".join(selected), sphere_count=4)
    assert [r.name for r in results] == selected
    assert calls == [os.getpid()]
    _no_child_left()


def test_verify_prints_its_report_once(src_env):
    done = subprocess.run([sys.executable, "-m", "slicefock", "verify", "--seed", "0"],
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(PROPOSITIONS) + 1
    assert [line.split()[0] for line in lines[:-1]] == list(PROPOSITIONS)
    assert lines[-1] == "9/9 propositions passed"


@pytest.mark.parametrize("count", [1, 4, 67, 200])
def test_blocked_unit_values_equal_one_product(count):
    # a product of more than 2^18 / 3 units x points is cut into blocks of
    # whole 16-column groups, on a whole grid and on the pruned blocks of one
    rng = np.random.default_rng(count)
    unit_rows = rng.normal(size=(count, 3))
    unit_rows /= np.linalg.norm(unit_rows, axis=1, keepdims=True)
    size = (1 << 18) // (3 * count) // 16 * 48 + 16 * 7
    v = rng.normal(size=(3, size))
    s = 2.0 * np.sqrt((v * v).sum(axis=0)) + rng.uniform(0.0, 1.0, size)
    w = rng.uniform(0.1, 1.0, size)
    whole = np.arange(size)
    assert size % fock._PRUNE_BLOCK == 0
    blocks = np.flatnonzero(np.repeat(rng.uniform(size=size // 16) < 0.7, 16))
    for cols in (whole, blocks):
        want = unit_rows @ (2.0 * v[:, cols])
        want += s[cols]
        want = np.sqrt(np.maximum(want, 0.0)) * w[cols]
        got = fock._unit_values(s, v, unit_rows, w, cols)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("coeffs", [
    # f^c * f overflows, and inf - inf leaves NaN in the imaginary parts
    (Quaternion(1e200, 1e200, 0.0, 0.0), Quaternion(1e200, 0.0, 1e200, 0.0)),
    # the real part overflows and the imaginary parts stay exactly 0: the
    # realness figure reads NaN on its non-finite scale, not |Im c| / inf = 0
    (Quaternion(1e200),)])
def test_star_row_refuses_a_non_finite_symmetrization(coeffs, monkeypatch, capsys):
    # the row's worst keeps the NaN, so the row fails and the CLI refuses it
    corpus = [SliceSeries(coeffs), standard_corpus(0)[1]]
    monkeypatch.setattr(verify, "standard_corpus", lambda seed: corpus)
    with np.errstate(all="ignore"):
        result = verify._check_star(corpus, 0)
        assert np.isnan(result.worst) and not result.passed
        assert "real=nan" in result.detail
        assert main(["verify", "--props", "star"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a value is not finite: star worst = nan\n"


def _with_nan(fn, every):
    """fn, each result copied with its first value NaN, or every value NaN."""
    def patched(*args):
        out = np.array(fn(*args))
        if every:
            out[...] = np.nan
        else:
            out.reshape(-1, 4)[0] = np.nan
        return out
    return patched


@pytest.mark.parametrize("row, evaluator, every", [
    # a NaN in one split/extend round trip of each coefficient count, then in
    # every one: the rows read 7.4e-16 and 0.0 and passed while the worst
    # passed NaN over
    ("split", "_extend_rows", False),
    ("split", "_extend_rows", True),
    # one representation-formula value NaN (read 2.3e-15 and passed)
    ("rep-formula", "_rep_eval_rows", False),
    # one point's value NaN in the star formula (pointwise read 2.96e-15)
    ("star", "_eval_rows", False),
])
def test_a_nan_figure_fails_its_row_and_is_refused(monkeypatch, capsys, row,
                                                    evaluator, every):
    monkeypatch.setattr(verify, evaluator, _with_nan(getattr(verify, evaluator), every))
    [result] = run_verify(seed=0, props=row)
    assert np.isnan(result.worst) and not result.passed
    assert main(["verify", "--seed", "0", "--props", row]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a value is not finite: {row} worst = nan\n"
