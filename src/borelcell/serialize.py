"""Deterministic JSON form of labeled complexes.

Schema:

    {"vars": n,
     "vertices": [{"id": int, "label": str}, ...],
     "cells": [{"id": int, "dim": int, "vertices": [int, ...],
                "label": str, "facets": [[int, sign], ...]}, ...]}

Vertices are listed rlex-descending by label and cells by (dim, sorted
vertex ids); labels always use the x<i> spelling.  Vertex ids coincide with
the ids of the dimension-0 cells.  Import checks the JSON's shape (types,
known and unrepeated ids, unit signs, one dimension per vertex set, a
0-cell per vertex record); the `_finalize` that checks built complexes then
checks the stored signs and every structural invariant.  Violations are
rejected, never repaired; an export-import round trip is the identity on
cells and signs.
"""
from __future__ import annotations

import json

from .complexes import LabeledComplex
from .monomials import parse_monomial

__all__ = [
    "complex_to_dict",
    "dict_to_complex",
    "dumps",
    "export_json",
    "import_json",
]


def complex_to_dict(X: LabeledComplex) -> dict:
    cells = X.cells
    vertices = [
        {"id": i, "label": v.canonical()} for i, v in enumerate(X.vertex_labels)
    ]
    return {
        "vars": X.n,
        "vertices": vertices,
        "cells": [
            {
                "id": c.id,
                "dim": c.dim,
                "vertices": list(c.vertices),
                "label": c.label.canonical(),
                "facets": [[fid, sign] for fid, sign in c.facets],
            }
            for c in cells
        ],
    }


def dumps(X: LabeledComplex) -> str:
    return json.dumps(complex_to_dict(X), indent=2) + "\n"


def export_json(X: LabeledComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(X))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid complex file: {message}")


def _parse_label(text: str, n: int):
    try:
        return parse_monomial(text, n)
    except ValueError as exc:
        raise ValueError(f"invalid complex file: {exc}") from exc


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int: 1 == True, 0 == False
    return isinstance(x, int) and not isinstance(x, bool)


def dict_to_complex(data: dict) -> LabeledComplex:
    _require(isinstance(data, dict), "top level must be an object")
    _require(
        set(data) == {"vars", "vertices", "cells"},
        "top-level keys must be vars, vertices, cells",
    )
    n = data["vars"]
    _require(_is_int(n) and n >= 1, "vars must be a positive integer")
    _require(isinstance(data["vertices"], list), "vertices must be a list")
    _require(isinstance(data["cells"], list), "cells must be a list")

    vlabels = {}
    for rec in data["vertices"]:
        _require(
            isinstance(rec, dict) and set(rec) == {"id", "label"},
            "vertex records carry id and label",
        )
        vid = rec["id"]
        _require(_is_int(vid) and vid not in vlabels, "vertex ids unique")
        _require(isinstance(rec["label"], str), "labels are strings")
        vlabels[vid] = _parse_label(rec["label"], n)
    _require(
        len(set(vlabels.values())) == len(vlabels), "vertex labels distinct"
    )

    recs = data["cells"]
    keys = {}
    faces = {}
    points = set()
    for rec in recs:
        _require(
            isinstance(rec, dict)
            and set(rec) == {"id", "dim", "vertices", "label", "facets"},
            "cell records carry id, dim, vertices, label, facets",
        )
        cid, dim = rec["id"], rec["dim"]
        _require(_is_int(cid) and cid not in keys, "cell ids unique")
        _require(_is_int(dim), "dim must be an integer")
        _require(isinstance(rec["label"], str), "labels are strings")
        _require(isinstance(rec["vertices"], list), "cell vertices must be a list")
        _require(
            all(_is_int(v) and v in vlabels for v in rec["vertices"]),
            "cell vertices reference known vertex ids",
        )
        key = frozenset(vlabels[v] for v in rec["vertices"])
        _require(
            len(key) == len(rec["vertices"]), "cell vertex lists have no repeats"
        )
        _require(faces.get(key, dim) == dim, "one vertex set, one dimension")
        _require(key not in faces, "cell vertex sets distinct")
        keys[cid] = key
        faces[key] = dim
        if dim == 0:
            points.update(rec["vertices"])
    _require(points == set(vlabels), "every vertex record is a 0-cell")

    signs = {}
    for rec in recs:
        key = keys[rec["id"]]
        _require(isinstance(rec["facets"], list), "facets must be a list")
        listed = set()
        for pair in rec["facets"]:
            _require(
                isinstance(pair, list) and len(pair) == 2,
                "facets are [id, sign] pairs",
            )
            fid, sign = pair
            _require(_is_int(fid) and fid in keys, "facet ids known")
            _require(_is_int(sign) and sign in (1, -1), "facet signs are +1 or -1")
            _require(fid not in listed, "facet ids listed once")
            listed.add(fid)
            signs[(key, keys[fid])] = sign

    try:
        # the constructor and `cells` re-assert every structural invariant
        # and check the signs against the facet relation they derive
        X = LabeledComplex(n, faces, signs)
        X.cells
    except ValueError as exc:
        raise ValueError(f"invalid complex file: {exc}") from exc
    for rec in recs:
        _require(
            _parse_label(rec["label"], n) == X.labels[keys[rec["id"]]],
            "cell label is the lcm of its vertices",
        )
    return X


def import_json(path: str) -> LabeledComplex:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return dict_to_complex(data)
