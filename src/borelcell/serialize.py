"""Deterministic JSON form of labeled complexes.

Schema:

    {"vars": n,
     "vertices": [{"id": int, "label": str}, ...],
     "cells": [{"id": int, "dim": int, "vertices": [int, ...],
                "label": str, "facets": [[int, sign], ...]}, ...]}

Vertices are listed rlex-descending by label and cells by (dim, sorted
vertex ids); labels always use the x<i> spelling.  Vertex ids coincide with
the ids of the dimension-0 cells.  Import re-asserts every structural
invariant, including the orientation constraints on the stored signs, and
rejects violations rather than repairing them; an export-import round trip
is the identity on cells and signs.
"""
from __future__ import annotations

import json

from .complexes import LabeledComplex
from .monomials import lcm_many, parse_monomial

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
        vlabels[vid] = parse_monomial(rec["label"], n)
    _require(
        len(set(vlabels.values())) == len(vlabels), "vertex labels distinct"
    )

    recs = data["cells"]
    keys = {}
    dims = {}
    for rec in recs:
        _require(
            isinstance(rec, dict)
            and set(rec) == {"id", "dim", "vertices", "label", "facets"},
            "cell records carry id, dim, vertices, label, facets",
        )
        cid = rec["id"]
        _require(_is_int(cid) and cid not in keys, "cell ids unique")
        _require(_is_int(rec["dim"]), "dim must be an integer")
        _require(isinstance(rec["vertices"], list), "cell vertices must be a list")
        _require(
            all(_is_int(v) and v in vlabels for v in rec["vertices"]),
            "cell vertices reference known vertex ids",
        )
        key = frozenset(vlabels[v] for v in rec["vertices"])
        _require(
            len(key) == len(rec["vertices"]), "cell vertex lists have no repeats"
        )
        keys[cid] = key
        dims[cid] = rec["dim"]

    face_dict = {}
    for cid in keys:
        _require(
            face_dict.get(keys[cid], dims[cid]) == dims[cid],
            "one vertex set, one dimension",
        )
        face_dict[keys[cid]] = dims[cid]
    _require(len(face_dict) == len(recs), "cell vertex sets distinct")

    sign_map = {}
    for rec in recs:
        key = keys[rec["id"]]
        label = parse_monomial(rec["label"], n)
        _require(label == lcm_many(key), "cell label is the lcm of its vertices")
        listed = set()
        for pair in rec["facets"]:
            _require(
                isinstance(pair, list) and len(pair) == 2,
                "facets are [id, sign] pairs",
            )
            fid, sign = pair
            _require(_is_int(fid) and fid in keys, "facet ids known")
            _require(_is_int(sign) and sign in (1, -1), "facet signs are +1 or -1")
            _require(keys[fid] < key, "facets are proper vertex subsets")
            _require(
                dims[fid] == rec["dim"] - 1,
                "facets drop dimension by exactly one",
            )
            _require(fid not in listed, "facet ids listed once")
            listed.add(fid)
            sign_map[(key, keys[fid])] = sign
        expected = {
            other
            for other in keys
            if dims[other] == rec["dim"] - 1 and keys[other] < key
        }
        _require(listed == expected, "facet lists match the face relation")

    try:
        X = LabeledComplex(n, face_dict)  # re-asserts structural invariants
        X._install_cells(sign_map)  # re-asserts orientation constraints
    except ValueError as exc:
        raise ValueError(f"invalid complex file: {exc}") from exc
    return X


def import_json(path: str) -> LabeledComplex:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return dict_to_complex(data)
