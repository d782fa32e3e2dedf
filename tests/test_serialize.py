import json
import math

import pytest

from slicefock import (UNIT_I, UNIT_J, AtomicData, FockParams, ImaginaryUnit,
                       MultiMonomial, MultiPolynomial, Quaternion, SliceSeries,
                       fock_norm_p)
from slicefock.serialize import (atomic_from_dict, atomic_to_dict,
                                 dumps_canonical, function_from_dict,
                                 function_to_dict, load_atomic, load_function,
                                 norm_report_csv_rows, norm_report_to_dict,
                                 quaternion_from_list, quaternion_to_list,
                                 save_function, unit_from_list, unit_to_list)


def test_quaternion_codec_roundtrip():
    q = Quaternion(0.1, -2.0, 3.5, 0.25)
    assert quaternion_from_list(quaternion_to_list(q)) == q
    for bad in ([1.0, 2.0], "nope", [1.0, 2.0, 3.0, "x"],
                [1.0, math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0],
                [True, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="coeffs\\[3\\]"):
            quaternion_from_list(bad, "coeffs[3]")


def test_unit_codec_roundtrip():
    u = ImaginaryUnit.normalized(1.0, 2.0, -2.0)
    assert unit_from_list(unit_to_list(u)) == u
    for bad in ([1.0, 1.0], [math.nan, 0.0, 0.0], [1.0, 0.0, math.inf],
                [True, False, False]):
        with pytest.raises(ValueError, match="slice"):
            unit_from_list(bad, "slice")
    with pytest.raises(ValueError, match="unit"):
        unit_from_list([1.0, 1.0, 1.0])  # not norm one


def test_series_roundtrip():
    f = SliceSeries((Quaternion(1.0), Quaternion(0.0, -0.5, 0.25, 2.0)), 1.5)
    back = function_from_dict(function_to_dict(f))
    assert isinstance(back, SliceSeries)
    assert back.coeffs == f.coeffs
    assert back.nominal_radius == 1.5


def test_multi_polynomial_roundtrip():
    poly = MultiPolynomial(2, (MultiMonomial((1, 2), Quaternion(0.5)),
                               MultiMonomial((0, 1), UNIT_J.as_quaternion())))
    back = function_from_dict(function_to_dict(poly))
    assert isinstance(back, MultiPolynomial)
    assert back.n == 2
    assert [m.multi_index for m in back.monomials] == [(1, 2), (0, 1)]
    assert back.monomials[1].coeff == UNIT_J.as_quaternion()


def test_function_from_dict_rejects_malformed():
    cases = [
        "not a dict",
        {},
        {"n": 0, "coeffs": []},
        {"n": 1, "radius": -1.0, "coeffs": [[1, 0, 0, 0]]},
        {"n": 1, "radius": 1.0, "coeffs": "xx"},
        {"n": 1, "radius": 1.0, "coeffs": [[1, 0, 0]]},
        {"n": 2, "monomials": [{"m": [1], "a": [1, 0, 0, 0]}]},
        {"n": 2, "monomials": [{"m": [1, 1]}]},
        {"n": 2, "monomials": "xx"},
        {"n": True, "coeffs": [[1, 0, 0, 0]]},
        {"n": 1, "radius": math.inf, "coeffs": [[1, 0, 0, 0]]},
        {"n": 2, "monomials": [{"m": [True, 1], "a": [1, 0, 0, 0]}]},
    ]
    for data in cases:
        with pytest.raises(ValueError):
            function_from_dict(data)


def test_load_save_function(tmp_path):
    f = SliceSeries((Quaternion(0.5, 1.0, 0.0, -1.0),), 2.0)
    path = tmp_path / "f.json"
    save_function(f, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["n"] == 1
    assert load_function(str(path)).coeffs == f.coeffs

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValueError, match="bad.json"):
        load_function(str(bad))


def test_atomic_roundtrip(tmp_path):
    data = AtomicData((Quaternion(0.5), Quaternion(0.0, 0.25, 0.0, 0.0)),
                      (Quaternion(1.0), Quaternion(0.0, 0.0, 1.0, 0.0)),
                      2.0, 16)
    encoded = atomic_to_dict(data, UNIT_I)
    back, unit = atomic_from_dict(encoded)
    assert unit == UNIT_I
    assert back.points == data.points
    assert back.coeffs == data.coeffs
    assert back.alpha == 2.0 and back.trunc_degree == 16

    path = tmp_path / "atoms.json"
    path.write_text(dumps_canonical(encoded))
    loaded, unit2 = load_atomic(str(path))
    assert loaded.points == data.points and unit2 == UNIT_I


def test_atomic_from_dict_rejects_malformed():
    good = {"alpha": 1.0, "N": 4, "slice": [1.0, 0.0, 0.0],
            "points": [[0.0, 0.0, 0.0, 0.0]], "coeffs": [[1.0, 0.0, 0.0, 0.0]]}
    for key, value in (("alpha", -1.0), ("alpha", math.inf), ("N", -2),
                       ("N", True), ("slice", [2.0, 0.0, 0.0]),
                       ("points", "xx"), ("coeffs", []),
                       ("coeffs", [[math.nan, 0.0, 0.0, 0.0]])):
        data = dict(good)
        data[key] = value
        with pytest.raises(ValueError):
            atomic_from_dict(data)


def test_norm_report_serialization():
    params = FockParams(alpha=1.0, p=2.0, n=1, radius=1.0)
    report = fock_norm_p(SliceSeries((Quaternion(1.0),)), params,
                         sphere=[UNIT_I, UNIT_J])
    payload = norm_report_to_dict(report)
    assert payload["value"] == report.value
    assert len(payload["per_slice"]) == 2
    assert payload["grid"]["rule"] == "closed form"

    rows = norm_report_csv_rows("f.json", 2.0, 1.0, 1.0, report)
    assert rows == [f"f.json,2.0,1.0,1.0,{report.value!r}"]


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1.0, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1.0})
    assert a == b == '{"a":[1,2],"b":1.0}'
    assert math.isfinite(json.loads(dumps_canonical({"x": 0.1}))["x"])
