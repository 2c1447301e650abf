"""Deterministic JSON form of labeled complexes.

Schema:

    {"vars": n,
     "vertices": [{"id": int, "label": str}, ...],
     "cells": [{"id": int, "dim": int, "vertices": [int, ...],
                "label": str, "facets": [[int, sign], ...]}, ...]}

Export lists vertices rlex-descending by label and cells by (dim, sorted
vertex ids), numbering both from 0, so vertex ids coincide with the ids of
the dimension-0 cells; labels always use the x<i> spelling.  The text is
written a cell at a time, once the complex is finished, so a failed check
leaves the file as it was.  Import accepts any unique integer ids in any
record order: it builds the face bitmasks straight from the file's vertex
ids and renumbers vertices and cells canonically, so a file with shifted ids
or reordered records imports and re-exports to the canonical bytes.  Import
checks the JSON's shape (types, known and unrepeated ids, unit signs, one
dimension per vertex set, a 0-cell per vertex record) and keeps the signs
per cell, as {cell mask: {facet mask: sign}}, and the label texts; the
document is freed before the `_finalize` that checks built complexes checks
the signs and every structural invariant.  Each label text is then checked
against the finished arrays: the label of the cell with the same vertex ids.
Structural, sign and label violations are rejected, never repaired; an
export-import round trip is the identity on cells and signs.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

from .complexes import LabeledComplex
from .monomials import _exps_key, _exps_text, parse_monomial

__all__ = [
    "complex_to_dict",
    "dict_to_complex",
    "dumps",
    "export_json",
    "import_json",
]


def complex_to_dict(X: LabeledComplex) -> dict:
    C = X._chain
    vertices = [{"id": i, "label": _exps_text(v)} for i, v in enumerate(X._verts)]
    return {
        "vars": X.n,
        "vertices": vertices,
        "cells": [
            {
                "id": i,
                "dim": d,
                "vertices": list(C.vertices[i]),
                "label": _exps_text(C.labels[i]),
                "facets": [[fid, sign] for fid, sign in C.columns[i]],
            }
            for i, d in enumerate(C.dims)
        ],
    }


def _array(items, pad: str, ends: str = "[]") -> str:
    """Rendered items as json.dumps(indent=2) lays out a list (an object
    with ends "{}") that opens on a line indented by pad."""
    inner = f",\n{pad}  ".join(items)
    return f"{ends[0]}\n{pad}  {inner}\n{pad}{ends[1]}" if items else ends


def _pieces(X: LabeledComplex):
    """dumps(X) in pieces: the header with the vertices, a cell each, the tail."""
    vertices = [
        f'{{\n      "id": {i},\n      "label": {_string(_exps_text(v))}\n    }}'
        for i, v in enumerate(X._verts)
    ]
    C = X._chain
    yield f'{{\n  "vars": {X.n},\n  "vertices": {_array(vertices, "  ")},\n  "cells": ['
    for i, (d, ids, e, col) in enumerate(zip(C.dims, C.vertices, C.labels, C.columns)):
        vs = _array([str(v) for v in ids], "      ")
        pairs = [f"[\n          {f},\n          {s}\n        ]" for f, s in col]
        yield (
            f'{"," if i else ""}\n    {{\n      "id": {i},\n      "dim": {d},\n'
            f'      "vertices": {vs},\n'
            f'      "label": {_string(_exps_text(e))},\n'
            f'      "facets": {_array(pairs, "      ")}\n    }}'
        )
    yield "\n  ]\n}" if C.dims else "]\n}"


def dumps(X: LabeledComplex) -> str:
    """json.dumps(complex_to_dict(X), indent=2) and a newline, written
    directly: an indent makes json fall back to its pure-Python encoder."""
    return "".join(_pieces(X)) + "\n"


def _write(path: str, pieces) -> None:
    """Write the pieces and a newline to path; the first before it opens."""
    head = next(pieces)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for piece in pieces:
            fh.write(piece)
        fh.write("\n")


def export_json(X: LabeledComplex, path: str) -> None:
    _write(path, _pieces(X))


def _invalid(message) -> ValueError:
    return ValueError(f"invalid complex file: {message}")


def _parse_label(text: str, n: int):
    try:
        return parse_monomial(text, n)
    except ValueError as exc:
        raise _invalid(exc) from exc


_VERTEX_FIELDS = {"id", "label"}
_CELL_FIELDS = {"id", "dim", "vertices", "label", "facets"}


def _read(data: dict):
    """A complex file's shape-checked records: vars, the vertex exponent
    tuples, {face mask: dim}, the signs and {cell mask: label text}."""
    # ints are tested with `type(x) is int`: JSON true/false load as bool,
    # a subclass of int with 1 == True and 0 == False
    if not isinstance(data, dict):
        raise _invalid("top level must be an object")
    if data.keys() != {"vars", "vertices", "cells"}:
        raise _invalid("top-level keys must be vars, vertices, cells")
    n, vrecs, recs = data["vars"], data["vertices"], data["cells"]
    if type(n) is not int or n < 1:
        raise _invalid("vars must be a positive integer")
    if not isinstance(vrecs, list):
        raise _invalid("vertices must be a list")
    if not isinstance(recs, list):
        raise _invalid("cells must be a list")

    vlabels = {}
    for rec in vrecs:
        if not isinstance(rec, dict) or rec.keys() != _VERTEX_FIELDS:
            raise _invalid("vertex records carry id and label")
        vid = rec["id"]
        if type(vid) is not int or vid in vlabels:
            raise _invalid("vertex ids unique")
        if not isinstance(rec["label"], str):
            raise _invalid("labels are strings")
        vlabels[vid] = _parse_label(rec["label"], n).exps
    verts = sorted(vlabels.values(), key=_exps_key)
    pos = {e: i for i, e in enumerate(verts)}
    if len(pos) != len(verts):
        raise _invalid("vertex labels distinct")
    # file vertex id -> the bit of its canonical vertex id
    bit = {v: 1 << pos[e] for v, e in vlabels.items()}

    keys = {}
    faces = {}
    points = 0
    for rec in recs:
        if not isinstance(rec, dict) or rec.keys() != _CELL_FIELDS:
            raise _invalid("cell records carry id, dim, vertices, label, facets")
        cid, dim, vs = rec["id"], rec["dim"], rec["vertices"]
        if type(cid) is not int or cid in keys:
            raise _invalid("cell ids unique")
        if type(dim) is not int:
            raise _invalid("dim must be an integer")
        if not isinstance(rec["label"], str):
            raise _invalid("labels are strings")
        if not isinstance(vs, list):
            raise _invalid("cell vertices must be a list")
        if not all(type(v) is int and v in vlabels for v in vs):
            raise _invalid("cell vertices reference known vertex ids")
        key = sum({bit[v] for v in vs})
        if key.bit_count() != len(vs):
            raise _invalid("cell vertex lists have no repeats")
        if faces.get(key, dim) != dim:
            raise _invalid("one vertex set, one dimension")
        if key in faces:
            raise _invalid("cell vertex sets distinct")
        keys[cid] = key
        faces[key] = dim
        if dim == 0:
            points |= key
    if points != (1 << len(verts)) - 1:
        raise _invalid("every vertex record is a 0-cell")

    signs = {}  # cell mask -> {facet mask: sign}, the form `_finalize` reads
    for rec in recs:
        if not isinstance(rec["facets"], list):
            raise _invalid("facets must be a list")
        signs[keys[rec["id"]]] = listed = {}
        for pair in rec["facets"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise _invalid("facets are [id, sign] pairs")
            fid, sign = pair
            if type(fid) is not int or fid not in keys:
                raise _invalid("facet ids known")
            if type(sign) is not int or sign not in (1, -1):
                raise _invalid("facet signs are +1 or -1")
            if keys[fid] in listed:  # cell ids and vertex sets correspond 1:1
                raise _invalid("facet ids listed once")
            listed[keys[fid]] = sign
    return n, tuple(verts), faces, signs, {keys[r["id"]]: r["label"] for r in recs}


def _build(n: int, verts: tuple, faces: dict, signs: dict, texts: dict):
    try:
        # the constructor and `_chain` re-assert every structural invariant
        # and check the signs against the facet relation they derive
        X = LabeledComplex._from_masks(n, verts, faces, signs)
        C = X._chain
    except ValueError as exc:
        raise _invalid(exc) from exc
    bit = [1 << i for i in range(len(verts))]
    for ids, e in zip(C.vertices, C.labels):
        # a canonically spelled label needs no parse
        text = texts[sum(map(bit.__getitem__, ids))]
        if text != _exps_text(e) and _parse_label(text, n).exps != e:
            raise _invalid("cell label is the lcm of its vertices")
    return X


def dict_to_complex(data: dict) -> LabeledComplex:
    return _build(*_read(data))


def import_json(path: str) -> LabeledComplex:
    with open(path, "r", encoding="utf-8") as fh:
        # only an argument holds the document: it is freed before _build
        records = _read(json.load(fh))
    return _build(*records)
