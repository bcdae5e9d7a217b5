"""JSON wire formats, shared between the library and the command line tool.

Matrix:          {"g": n, "m": [[... 2n ints ...], ...]}
Word:            {"g": n, "letters": [["B", 1, 1, 1], ...]}
Characteristic:  flat array of 2n ints, first half m', last half m''
Point:           {"g": n, "re": [[...]], "im": [[...]]}
Complex scalars: {"re": x, "im": y}
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape
from .characteristics import Characteristic
from .character import AbelianExponents, EighthRoot
from .symplectic import (GeneratorWord, SymplecticMatrix, _checked_symplectic,
                         _int_entry, _int_matrix, word)
from .theta import SiegelPoint, VerificationReport


def _g_field(data: dict) -> int:
    try:
        return _int_entry(data["g"])
    except TypeError as exc:
        raise BadShape(f"'g' must be an integer: {exc}") from exc


def matrix_to_dict(mat: SymplecticMatrix) -> dict:
    return {"g": mat.g, "m": [[int(x) for x in row] for row in mat.entries]}


def matrix_entries(data: dict) -> np.ndarray:
    """The 'm' field of matrix JSON as a square object array of Python ints,
    checked against 'g' where that is declared; not checked to be symplectic."""
    if not isinstance(data, dict) or "m" not in data:
        raise BadShape("matrix JSON needs an 'm' field")
    raw = _int_matrix(data["m"])
    if "g" in data and 2 * _g_field(data) != len(raw):
        raise BadShape(f"declared g={data['g']} but the matrix is {len(raw)} x {len(raw)}")
    return raw


def matrix_from_dict(data: dict) -> SymplecticMatrix:
    return _checked_symplectic(matrix_entries(data))


def word_to_dict(w: GeneratorWord) -> dict:
    return {"g": w.g, "letters": [[k, i, j, e] for k, i, j, e in w.letters]}


def word_from_dict(data: dict) -> GeneratorWord:
    if not isinstance(data, dict) or "g" not in data or "letters" not in data:
        raise BadShape("word JSON needs 'g' and 'letters' fields")
    return word(_g_field(data), data["letters"])


def characteristic_to_list(m: Characteristic) -> list:
    return list(m.vector())


def characteristic_from_list(data) -> Characteristic:
    return Characteristic.from_vector(data)


def eighth_root_to_dict(root: EighthRoot) -> dict:
    return {"k": root.k, "value": f"e({root.k}/8)", "symbol": root.symbol}


def complex_to_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def point_to_dict(point: SiegelPoint) -> dict:
    return {"g": point.g,
            "re": [[float(x) for x in row] for row in point.tau.real],
            "im": [[float(x) for x in row] for row in point.tau.imag]}


def point_from_dict(data: dict) -> SiegelPoint:
    if not isinstance(data, dict) or "re" not in data or "im" not in data:
        raise BadShape("point JSON needs 're' and 'im' fields")
    try:
        re, im = np.array(data["re"], dtype=float), np.array(data["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadShape(f"point 're' and 'im' must be numeric matrices: {exc}") from exc
    if re.shape != im.shape:
        raise BadShape(f"point 're' has shape {re.shape} but 'im' has {im.shape}")
    return SiegelPoint.make(re + 1j * im)


def exponents_to_dict(exps: AbelianExponents) -> dict:
    return {"g": exps.g,
            "p": [list(row) for row in exps.p],
            "q_diag": list(exps.q_diag),
            "q_off": [list(row) for row in exps.q_off],
            "r_diag": list(exps.r_diag),
            "r_off": [list(row) for row in exps.r_off]}


def _label_to_json(label):
    if isinstance(label, Characteristic):
        return characteristic_to_list(label)
    return [characteristic_to_list(x) for x in label]


def report_to_dict(report: VerificationReport) -> dict:
    return {"m_list": [_label_to_json(x) for x in report.m_list],
            "ratios": [complex_to_dict(z) for z in report.ratios],
            "estimated_unit": complex_to_dict(report.estimated_unit),
            "max_deviation": float(report.max_deviation),
            "tolerance": float(report.tolerance),
            "passed": bool(report.passed)}
