"""JSON file formats for measurement artifacts.

All files are UTF-8 JSON with a ``kind`` discriminator.  Complex scalars are
stored as [re, im] pairs and matrices row-major, which round-trips binary64
values exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .completion import PartialMatrix
from .estimators import EstimateReport
from .linalg import HermitianMatrix
from .povm import BasisSet, MeasurementVector, Povm


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(obj) -> np.ndarray:
    rows = [[complex(entry[0], entry[1]) for entry in row] for row in obj]
    return np.array(rows, dtype=np.complex128)


def povm_to_dict(p: Povm) -> dict:
    return {
        "kind": "povm",
        "dim": p.dim,
        "elements": [matrix_to_json(e.mat) for e in p.elements],
        "provenance": p.provenance,
    }


def povm_from_dict(obj: dict) -> Povm:
    elements = tuple(HermitianMatrix(matrix_from_json(e)) for e in obj["elements"])
    return Povm(int(obj["dim"]), elements, dict(obj.get("provenance", {})))


def basis_set_to_dict(bs: BasisSet) -> dict:
    return {
        "kind": "basis_set",
        "dim": bs.dim,
        "bases": [matrix_to_json(u) for u in bs.bases],
        "provenance": bs.provenance,
    }


def basis_set_from_dict(obj: dict) -> BasisSet:
    bases = tuple(matrix_from_json(u) for u in obj["bases"])
    return BasisSet(int(obj["dim"]), bases, dict(obj.get("provenance", {})))


def record_to_dict(mv: MeasurementVector, meta: dict | None = None) -> dict:
    return {
        "kind": "record",
        "values": [float(v) for v in mv.values],
        "record_kind": mv.kind,
        "total_shots": mv.total_shots,
        "meta": meta or {},
    }


def record_from_dict(obj: dict) -> tuple[MeasurementVector, dict]:
    mv = MeasurementVector(
        np.array(obj["values"], dtype=float),
        kind=obj["record_kind"],
        total_shots=obj.get("total_shots"),
    )
    return mv, dict(obj.get("meta", {}))


def state_to_dict(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {"kind": "state", "dim": a.shape[0], "matrix": matrix_to_json(a)}


def state_from_dict(obj: dict) -> HermitianMatrix:
    return HermitianMatrix(matrix_from_json(obj["matrix"]))


def partial_from_dict(obj: dict) -> PartialMatrix:
    d = int(obj["dim"])
    values = np.full((d, d), complex(np.nan, np.nan), dtype=np.complex128)
    mask = np.zeros((d, d), dtype=bool)
    for i, j, re, im in obj["entries"]:
        values[i, j] = complex(re, im)
        values[j, i] = complex(re, -im)
        mask[i, j] = mask[j, i] = True
    return PartialMatrix(d, values, mask)


def report_to_dict(r: EstimateReport) -> dict:
    return {
        "kind": "estimate_report",
        "estimate": matrix_to_json(r.estimate.mat),
        "raw": matrix_to_json(r.raw.mat),
        "objective": r.objective,
        "residual_norm": r.residual_norm,
        "iterations": r.iterations,
        "converged": r.converged,
    }


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_LOADERS = {
    "povm": povm_from_dict,
    "basis_set": basis_set_from_dict,
    "record": record_from_dict,
    "state": state_from_dict,
    "partial_matrix": partial_from_dict,
}


def load_artifact(path) -> tuple[str, Any]:
    """Load any artifact file; returns (kind, object)."""
    obj = load_json(path)
    kind = obj.get("kind")
    if kind not in _LOADERS:
        raise ValueError(f"unrecognized artifact kind {kind!r} in {path}")
    return kind, _LOADERS[kind](obj)
