import re
from pathlib import Path

import pytest

from slicefock.corpus import rng_for, standard_corpus
from slicefock.serialize import dumps_canonical
from slicefock.verify import (PROPOSITIONS, _select, format_csv, format_text,
                              results_to_dicts, run_verify)

# algebra-only subset runs in well under a second; norm subsets get a small
# sphere and coarse grid so the whole file stays fast


def test_proposition_names_sorted_unique():
    assert list(PROPOSITIONS) == sorted(set(PROPOSITIONS))
    assert len(PROPOSITIONS) == 9


def test_select_exact_prefix_and_errors():
    assert _select(None) == list(PROPOSITIONS)
    assert _select("star,split") == ["split", "star"]
    assert _select(["rep"]) == ["rep-formula"]
    assert _select("derivative,derivative") == ["derivative"]
    with pytest.raises(ValueError, match="unknown proposition"):
        _select(["holomorphy"])
    with pytest.raises(ValueError, match="ambiguous"):
        _select(["norm-sandwich"])


def test_corpus_determinism_and_shape():
    a = standard_corpus(3)
    b = standard_corpus(3)
    c = standard_corpus(4)
    assert len(a) == 200
    assert all(f.coeffs for f in a)
    assert [f.coeffs for f in a] == [f.coeffs for f in b]
    assert [f.coeffs for f in a] != [f.coeffs for f in c]
    assert rng_for(7).integers(0, 100, 4).tolist() == rng_for(7).integers(0, 100, 4).tolist()


def test_algebra_subset_passes_and_is_deterministic():
    first = run_verify(seed=11, props="star,split,rep-formula")
    second = run_verify(seed=11, props=["rep", "split", "star"])
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
    results = run_verify(seed=1, props="norm-sandwich-p,slice-pair,norm-sandwich-sup,monomial",
                         sphere_count=8, radial=24, angular=48,
                         sup_radial=33, sup_angular=64)
    assert [r.name for r in results] == ["monomial", "norm-sandwich-p",
                                         "norm-sandwich-sup", "slice-pair"]
    assert all(r.passed for r in results)
    sandwich = results[1]
    assert "grid-doubling-rel" in sandwich.detail
    assert results[3].worst <= 1.0 + 1e-9  # pair ratio at p=2 is exactly one


def test_formatters_agree_with_results():
    results = run_verify(seed=9, props="split")
    dicts = results_to_dicts(results)
    assert dicts[0]["name"] == "split" and dicts[0]["passed"] is True
    csv = format_csv(results).splitlines()
    assert csv[0] == "name,instances,worst,bound,passed"
    assert csv[1].startswith("split,4000,") and csv[1].endswith(",true")
    text = format_text(results)
    assert "split" in text and "PASS" in text and "1/1 propositions passed" in text


def test_small_verify_report_matches_pinned_output():
    # report pinned byte for byte; only the rounding-residual grid-doubling
    # figure may move when the order of the quadrature sums changes.  The
    # text rounds to 7 digits; the JSON carries every float in full, so it
    # pins the numbers themselves.
    data = Path(__file__).parent / "data"
    results = run_verify(0, sphere_count=8, radial=16, angular=32,
                         sup_radial=17, sup_angular=32)

    def mask(report):
        return re.sub(r"grid-doubling-rel=[0-9.e+-]+", "grid-doubling-rel=*", report)

    for name, got in (("verify_seed0_small.txt", format_text(results)),
                      ("verify_seed0_small.json",
                       dumps_canonical(results_to_dicts(results)))):
        assert mask(got) == mask((data / name).read_text().rstrip("\n")), name
