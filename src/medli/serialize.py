"""JSON interchange for ensembles, measurements, and reports.

Matrices are row-major arrays of [re, im] pairs. Every real is emitted with
17 significant digits so that parse -> serialize round-trips are exact and
reports are byte-stable for fixed input and seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ensembles import Ensemble, GeneralPOVM, validate_ensemble, validate_povm
from .errors import FileFormatError
from .linalg import DEFAULT_TOL, Tolerances

SCHEMA_VERSION = "med-li/1"


# --- deterministic emitter ---


def _format_float(value: float) -> str:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    if v == 0.0:
        v = 0.0
    return f"{v:.17g}"


def _depth(value) -> int:
    if isinstance(value, (list, tuple)):
        return 1 + max((_depth(item) for item in value), default=0)
    return 0


def _emit(value, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(_format_float(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for idx, (key, item) in enumerate(value.items()):
            pieces.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if idx < len(value) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            pieces.append("[]")
            return
        if _depth(items) <= 2 and not any(isinstance(item, dict) for item in items):
            pieces.append("[")
            for idx, item in enumerate(items):
                _emit(item, indent, pieces)
                if idx < len(items) - 1:
                    pieces.append(", ")
            pieces.append("]")
            return
        pieces.append("[\n")
        for idx, item in enumerate(items):
            pieces.append(pad + "  ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if idx < len(items) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(doc) -> str:
    pieces: list = []
    _emit(doc, 0, pieces)
    return "".join(pieces) + "\n"


# --- matrices ---


def matrix_to_json(mat: np.ndarray) -> list:
    arr = np.asarray(mat, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in arr]


def _matrix_from_json(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise FileFormatError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{where}[{i}]: expected {dim} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise FileFormatError(f"{where}[{i}][{j}]: expected a [re, im] pair")
            out[i, j] = complex(pair[0], pair[1])
    return out


def _require(doc, key: str, kind, where: str):
    if key not in doc:
        raise FileFormatError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise FileFormatError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _matrices(doc, key: str, where: str) -> list[np.ndarray]:
    """The matrix list under ``key`` of a schema-checked document with a positive dim."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    version = _require(doc, "schema_version", str, where)
    if version != SCHEMA_VERSION:
        raise FileFormatError(f"{where}.schema_version: expected {SCHEMA_VERSION!r}, got {version!r}")
    dim = _require(doc, "dim", int, where)
    if isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{where}.dim: expected a positive integer")
    raw = _require(doc, key, list, where)
    return [_matrix_from_json(rows, dim, f"{where}.{key}[{idx}]") for idx, rows in enumerate(raw)]


# --- ensembles ---


def ensemble_to_doc(ensemble: Ensemble, label: str | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": int(ensemble.dim),
        "priors": [float(p) for p in ensemble.priors],
        "states": [matrix_to_json(rho) for rho in ensemble.states],
    }
    if label is not None:
        doc["label"] = label
    return doc


def ensemble_from_doc(doc, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    states = _matrices(doc, "states", "ensemble")
    priors = _require(doc, "priors", list, "ensemble")
    for idx, p in enumerate(priors):
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise FileFormatError(f"ensemble.priors[{idx}]: expected a number")
    if len(states) != len(priors):
        raise FileFormatError(
            f"ensemble: {len(priors)} priors but {len(states)} states"
        )
    return validate_ensemble(priors, states, tol)


# --- measurements ---


def measurement_to_doc(measurement) -> dict:
    from .ensembles import measurement_elements

    elements = measurement_elements(measurement)
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": int(elements[0].shape[0]),
        "elements": [matrix_to_json(e) for e in elements],
    }


def povm_from_doc(doc, tol: Tolerances = DEFAULT_TOL) -> GeneralPOVM:
    if isinstance(doc, dict) and "measurement" in doc and "elements" not in doc:
        doc = doc["measurement"]
    return validate_povm(_matrices(doc, "elements", "measurement"), tol)


# --- files ---


def load_json(path) -> tuple[dict, bytes]:
    """Parse a JSON file, returning the document and the raw bytes (for digests)."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return doc, data
