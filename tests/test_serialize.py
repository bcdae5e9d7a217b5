import pytest

from siegelchi import (BadShape, EighthRoot, characteristic, generator,
                       random_word, siegel_point, verify_character)
from siegelchi import serialize


def test_matrix_roundtrip():
    mat = generator("B", 1, 2, 2)
    data = serialize.matrix_to_dict(mat)
    assert data["g"] == 2 and len(data["m"]) == 4
    assert serialize.matrix_from_dict(data) == mat


def test_matrix_dict_validation():
    with pytest.raises(BadShape):
        serialize.matrix_from_dict({"g": 1})
    with pytest.raises(BadShape):
        serialize.matrix_from_dict({"g": 2, "m": [[1, 0], [0, 1]]})  # wrong g
    with pytest.raises(BadShape):
        serialize.matrix_from_dict([1, 2, 3])
    with pytest.raises(BadShape):
        serialize.matrix_from_dict({"g": "x", "m": [[1, 0], [0, 1]]})


def test_word_roundtrip():
    w = random_word(2, 6, 17)
    data = serialize.word_to_dict(w)
    assert data["g"] == 2
    assert serialize.word_from_dict(data) == w
    with pytest.raises(BadShape):
        serialize.word_from_dict({"letters": []})


def test_characteristic_roundtrip():
    m = characteristic(1, 0, -2, 5)
    data = serialize.characteristic_to_list(m)
    assert data == [1, 0, -2, 5]
    assert serialize.characteristic_from_list(data) == m


def test_point_roundtrip():
    point = siegel_point([[0.25 + 1j, 0.1], [0.1, 0.5 + 2j]])
    data = serialize.point_to_dict(point)
    back = serialize.point_from_dict(data)
    assert back.g == 2
    assert abs(back.tau[0, 1] - 0.1) < 1e-15
    for bad in ({"re": [[0.0]]},
                {"re": [[1, 2], [3]], "im": [[1]]},                  # ragged
                {"re": [[0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]},     # shapes differ
                {"re": [["x"]], "im": [[1.0]]}):
        with pytest.raises(BadShape):
            serialize.point_from_dict(bad)


def test_eighth_root_dict():
    data = serialize.eighth_root_to_dict(EighthRoot(6))
    assert data == {"k": 6, "value": "e(6/8)", "symbol": "-i"}


def test_report_dict_shape():
    from siegelchi import generator as gen

    report = verify_character(gen("B", 1, 1, 1), siegel_point([[1j]]))
    data = serialize.report_to_dict(report)
    assert data["passed"] is True
    assert {"re", "im"} == set(data["estimated_unit"])
    assert len(data["ratios"]) == len(data["m_list"]) == 3
    assert data["tolerance"] == report.tolerance
