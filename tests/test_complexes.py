import copy
import pickle
import random
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import pytest

from borelcell import builders
from borelcell.borel import BorelIdeal, expand_principal
from borelcell.complexes import (
    ChainComplex,
    LabeledComplex,
    product,
    restrict,
    simplex,
    spanned_subcomplex,
    union,
)
from borelcell.monomials import Monomial, VarRange, _bits, parse_monomial, unit
from borelcell.resolution import chain_complex
from borelcell.serialize import complex_to_dict, dict_to_complex, dumps, import_json
from references import finalize_reference, lcm_many, scale_labels

DATA = Path(__file__).parent / "data"


def m(text, n=3):
    return parse_monomial(text, n)


def fs(*texts, n=3):
    return frozenset(m(t, n) for t in texts)


def p2abc():
    from borelcell.builders import power_complex
    from borelcell.monomials import VarRange

    return power_complex(3, VarRange(1, 3), 2)


class TestSimplex:
    def test_triangle(self):
        X = simplex([m("a"), m("b"), m("c")])
        assert X.f_vector() == (3, 3, 1)
        assert X.labels[fs("a", "b", "c")] == m("abc")

    def test_point(self):
        X = simplex([m("bc")])
        assert X.f_vector() == (1,)
        assert X.dim == 0

    def test_squared_labels(self):
        X = simplex([m("a^2"), m("b^2"), m("c^2")])
        assert X.labels[fs("a^2", "b^2", "c^2")] == m("a^2*b^2*c^2")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            simplex([m("a"), m("a")])
        with pytest.raises(ValueError):
            simplex([])


class TestValidation:
    def test_vertex_must_be_zero_cell(self):
        with pytest.raises(ValueError):
            LabeledComplex(3, {fs("a", "b"): 1, fs("a"): 0})

    def test_singleton_dimension(self):
        with pytest.raises(ValueError):
            LabeledComplex(3, {fs("a"): 1})
        with pytest.raises(ValueError):
            LabeledComplex(3, {fs("a", "b"): 0, fs("a"): 0, fs("b"): 0})

    def test_edge_has_two_vertices(self):
        faces = {fs("a"): 0, fs("b"): 0, fs("c"): 0, fs("a", "b", "c"): 1}
        with pytest.raises(ValueError):
            LabeledComplex(3, faces)

    def test_enough_vertices_per_dim(self):
        faces = {fs("a"): 0, fs("b"): 0, fs("a", "b"): 2}
        with pytest.raises(ValueError):
            LabeledComplex(3, faces)

    def test_bool_dimension_rejected(self):
        # True == 1 and False == 0, but dumps would write them as Python
        # literals, which no JSON reader accepts
        for faces in (
            {fs("a"): False, fs("b"): 0, fs("a", "b"): 1},
            {fs("a"): 0, fs("b"): 0, fs("a", "b"): True},
        ):
            with pytest.raises(ValueError, match="non-negative integers"):
                LabeledComplex(3, faces)
        with pytest.raises(ValueError, match="at least one variable"):
            LabeledComplex(True, {frozenset([m("a", 1)]): 0})

    def test_ambient_match(self):
        with pytest.raises(ValueError):
            LabeledComplex(2, {frozenset([m("a")]): 0})

    def test_faces_read_only(self):
        X = simplex([m("a"), m("b")])
        with pytest.raises(TypeError):
            X.faces[fs("a")] = 1


class TestAccessors:
    def test_vertex_labels_canonical_order(self):
        X = p2abc()
        assert [str(v) for v in X.vertex_labels] == [
            "a^2", "a*b", "b^2", "a*c", "b*c", "c^2"
        ]

    def test_f_vector_and_dim(self):
        X = p2abc()
        assert X.f_vector() == (6, 8, 3)
        assert X.dim == 2
        assert len(X) == 17

    def test_labels_are_lcms(self):
        X = p2abc()
        for f in X.faces:
            assert X.labels[f] == lcm_many(f)

    def test_eq_by_content(self):
        assert simplex([m("a"), m("b")]) == simplex([m("b"), m("a")])
        assert simplex([m("a")]) != simplex([m("b")])


class TestCells:
    def test_p2_cell_incidence(self):
        X = p2abc()
        cells = X.cells
        assert [c.id for c in cells] == list(range(17))
        # vertex ids follow the rlex-descending vertex order
        verts = {c.id: c for c in cells if c.dim == 0}
        assert [str(verts[i].label) for i in range(6)] == [
            "a^2", "a*b", "b^2", "a*c", "b*c", "c^2"
        ]
        edges = {c.vertices for c in cells if c.dim == 1}
        assert edges == {
            (0, 1), (0, 3), (1, 3), (1, 2), (2, 4), (3, 4), (3, 5), (4, 5)
        }
        tops = sorted(c.vertices for c in cells if c.dim == 2)
        assert tops == [(0, 1, 3), (1, 2, 3, 4), (3, 4, 5)]

    def test_zero_cells_have_no_facets(self):
        for c in p2abc().cells:
            if c.dim == 0:
                assert c.facets == ()
                assert c.vertices == (c.id,)

    def test_edge_signs(self):
        X = simplex([m("a"), m("b")])
        (edge,) = [c for c in X.cells if c.dim == 1]
        signs = dict(edge.facets)
        ida = next(c.id for c in X.cells if c.label == m("a"))
        idb = next(c.id for c in X.cells if c.label == m("b"))
        # +1 on the rlex-greater endpoint
        assert signs[ida] == 1 and signs[idb] == -1

    def test_ridge_cancellation(self):
        X = p2abc()
        cells = X.cells
        for c in cells:
            if c.dim < 2:
                continue
            acc = {}
            for fid, s1 in c.facets:
                for rid, s2 in cells[fid].facets:
                    acc[rid] = acc.get(rid, 0) + s1 * s2
            assert all(v == 0 for v in acc.values())

    def test_diamond_violation(self):
        # vertex a lies in three edges of the single 2-cell
        faces = {fs(t, n=4): 0 for t in "abcd"}
        faces[fs("a", "b", "c", "d", n=4)] = 2
        for e in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")]:
            faces[fs(*e, n=4)] = 1
        X = LabeledComplex(4, faces)
        with pytest.raises(ValueError, match="diamond"):
            X.cells

    def test_ridge_in_one_facet(self):
        # the boundary of the 2-cell is the open path ab, bc, cd
        faces = {fs(t, n=4): 0 for t in "abcd"}
        faces[fs("a", "b", "c", "d", n=4)] = 2
        for e in [("a", "b"), ("b", "c"), ("c", "d")]:
            faces[fs(*e, n=4)] = 1
        X = LabeledComplex(4, faces)
        with pytest.raises(ValueError, match="diamond"):
            X.cells

    def test_disconnected_boundary(self):
        # one 2-cell whose facet-ridge graph is two disjoint 3-cycles
        labels = ["a", "b", "c", "ab", "bc", "ac"]
        faces = {fs(t): 0 for t in labels}
        cycles = [("a", "b"), ("b", "c"), ("a", "c"),
                  ("ab", "bc"), ("ab", "ac"), ("bc", "ac")]
        for e in cycles:
            faces[fs(*e)] = 1
        faces[fs(*labels)] = 2
        X = LabeledComplex(3, faces)
        with pytest.raises(ValueError, match="disconnected"):
            X.cells

    def test_too_few_facets(self):
        faces = {fs("a"): 0, fs("b"): 0, fs("c"): 0,
                 fs("a", "b"): 1, fs("a", "b", "c"): 2}
        X = LabeledComplex(3, faces)
        with pytest.raises(ValueError, match="facets"):
            X.cells


def sign_map(X):
    """X's signs as the constructor takes them: {(cell, facet): sign}."""
    cells = X.cells
    key = {c.id: frozenset(X.vertex_labels[i] for i in c.vertices) for c in cells}
    return {(key[c.id], key[fid]): s for c in cells for fid, s in c.facets}


def cube_with_diagonal():
    """The cube on x1..x6 plus a 1-cell on its space diagonal, which lies
    inside the 3-cell and in none of its facets."""
    def edge(a, b):
        return simplex([m(a, 6), m(b, 6)])

    cube = product(product(edge("x1", "x2"), edge("x3", "x4")), edge("x5", "x6"))
    return cube, fs("x2*x4*x6", "x1*x3*x5", n=6)


class TestRidgeCount:
    """The half of the diamond check that counts the ridges of a cell."""

    def test_stray_cell_inside_a_cell_rejected(self):
        cube, diagonal = cube_with_diagonal()
        assert len(cube.cells) == 27
        faces = dict(cube.faces)
        faces[diagonal] = 1
        X = LabeledComplex(6, faces)
        with pytest.raises(ValueError) as new:
            X.cells
        cube_name = sorted(map(str, cube.vertex_labels))
        assert str(new.value) == f"diamond property fails inside cell {cube_name}"
        with pytest.raises(ValueError) as ref:
            finalize_reference(LabeledComplex(6, faces))
        assert str(new.value) == str(ref.value)

    def test_stray_cell_rejected_on_import(self):
        cube, diagonal = cube_with_diagonal()
        data = complex_to_dict(cube)
        u, v = sorted(cube.vertex_labels.index(w) for w in diagonal)
        data["cells"].append(
            {"id": len(data["cells"]), "dim": 1, "vertices": [u, v],
             "label": "x1*x2*x3*x4*x5*x6", "facets": [[u, 1], [v, -1]]}
        )
        with pytest.raises(
            ValueError, match="invalid complex file: diamond property fails"
        ):
            dict_to_complex(data)


def reference_chain(X):
    """`finalize_reference` in the array form that `_finalize` returns."""
    cells = finalize_reference(X)
    return ChainComplex(
        tuple(c.dim for c in cells),
        tuple(c.vertices for c in cells),
        tuple(c.label.exps for c in cells),
        tuple(c.facets for c in cells),
    )


class TestFinalizeAgainstReference:
    """Stars and ridge masks against the scan-and-BFS reference, where the
    masks of one dimension span many machine words (P(6,4) has 840 2-cells)."""

    @pytest.fixture(scope="class")
    def built(self):
        return {
            "P(6,4)": builders.power_complex(6, VarRange(1, 6), 4),
            "P(7,3)": builders.power_complex(7, VarRange(1, 7), 3),
            "Q(x2*x4*x6^2)": builders.borel_complex(
                BorelIdeal.from_borel_gens(6, [m("x2*x4*x6^2", 6)])
            ),
        }

    @staticmethod
    def imported(data, monkeypatch=None):
        if monkeypatch is None:
            return dict_to_complex(data).cells
        with monkeypatch.context() as mp:
            mp.setattr(LabeledComplex, "_finalize", reference_chain)
            return dict_to_complex(data).cells

    def test_built_and_imported_cells_agree(self, built, monkeypatch):
        sizes = {}
        for name, X in built.items():
            fresh = LabeledComplex._from_masks(X.n, X._verts, X._dims)
            ref = finalize_reference(fresh)
            assert fresh.cells == ref == X.cells, name
            data = complex_to_dict(X)
            assert self.imported(data) == self.imported(data, monkeypatch) == ref
            sizes[name] = len(ref)
        assert sizes == {"P(6,4)": 2561, "P(7,3)": 2815, "Q(x2*x4*x6^2)": 1501}

    @staticmethod
    def with_facets(data, i, facets):
        cells = list(data["cells"])
        cells[i] = dict(cells[i], facets=facets)
        return dict(data, cells=cells)

    def test_imported_sign_flips(self, built, monkeypatch):
        X = built["P(6,4)"]
        data = complex_to_dict(X)
        top = next(r for r in data["cells"] if r["dim"] == X.dim)
        flipped = [[t, -s] for t, s in top["facets"]]
        cells = self.imported(self.with_facets(data, top["id"], flipped))
        assert cells[top["id"]].facets == tuple(map(tuple, flipped))
        assert cells[: top["id"]] == X.cells[: top["id"]]
        # one sign on a 3-cell, whose facets span 840 2-cells
        rec = next(r for r in data["cells"] if r["dim"] == 3)
        facets = [list(p) for p in rec["facets"]]
        facets[3][1] *= -1
        one = self.with_facets(data, rec["id"], facets)
        messages = []
        for mp in (None, monkeypatch):
            with pytest.raises(ValueError, match="orientation contradiction") as e:
                self.imported(one, mp)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    def test_random_edits_end_alike(self):
        # seeded edits of two small complexes: cells dropped, added or given
        # another dimension, and signs flipped, dropped or made non-units;
        # the same cells as the reference, or the same first error
        rng = random.Random(0)
        bases = [
            builders.power_complex(3, VarRange(1, 3), 3),
            product(
                simplex([m("x1", 6), m("x2", 6)]),
                simplex([m("x3", 6), m("x4", 6), m("x5", 6)]),
            ),
        ]
        ends = Counter()
        for _ in range(600):
            B = rng.choice(bases)
            dims, signs = dict(B._dims), None
            cells = [f for f, d in dims.items() if d > 0]
            edit = rng.randrange(4)
            if edit == 0:
                for f in rng.sample(cells, rng.randint(1, 3)):
                    del dims[f]
            elif edit == 1:
                k = rng.randint(2, min(len(B._verts), 6))
                f = sum(1 << i for i in rng.sample(range(len(B._verts)), k))
                dims.setdefault(f, 1 if k == 2 else rng.randint(2, k - 1))
            elif edit == 2:
                f = rng.choice([f for f in cells if f.bit_count() > 2])
                dims[f] = rng.randint(2, f.bit_count() - 1)
            else:
                key = sorted(dims, key=lambda f: (dims[f], tuple(_bits(f))))
                signs = {
                    key[c.id]: {key[t]: s for t, s in c.facets} for c in B.cells
                }
                c = rng.choice([c for c in B.cells if c.dim > 0])
                sg, t = signs[key[c.id]], key[rng.choice(c.facets)[0]]
                rng.choice([
                    lambda: sg.update({t: -sg[t]}),
                    lambda: sg.update({u: -s for u, s in sg.items()}),
                    lambda: sg.pop(t),
                    lambda: sg.update({t: 2}),
                ])()
            end = []
            for finalize in (LabeledComplex._finalize, reference_chain):
                X = LabeledComplex._from_masks(
                    B.n, B._verts, dims, copy.deepcopy(signs)
                )
                try:
                    end.append(finalize(X))
                except ValueError as exc:
                    end.append(str(exc))
            assert end[0] == end[1]
            ends[end[0].split(" ")[0] if isinstance(end[0], str) else "ok"] += 1
        # a disconnected boundary is rare under these edits; see
        # test_disconnected_boundary
        assert set(ends) >= {
            "ok", "cell", "diamond", "orientation", "edge", "signs"
        }, ends


class TestCopyAndPickle:
    """A complex copies and pickles whichever of its caches have been read."""

    def flipped(self):
        # a whole-cell flip: signs that the cells alone carry once checked
        X = p2abc()
        signs = sign_map(X)
        square = fs("ab", "b^2", "ac", "bc")
        return LabeledComplex(
            3, X.faces, {k: (-s if k[0] == square else s) for k, s in signs.items()}
        )

    @pytest.mark.parametrize("read", ["faces", "labels", "cells"])
    def test_shared_power_complex(self, read):
        X = builders.power_complex(2, VarRange(1, 2), 2)
        getattr(X, read)
        for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert Y == X
            assert Y.cells == X.cells
            assert dict(Y.labels) == dict(X.labels)

    @pytest.mark.parametrize("read", ["faces", "labels", "cells"])
    def test_supplied_signs_survive(self, read):
        X = self.flipped()
        getattr(X, read)
        derived = p2abc().cells
        for Y in (copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert Y == X
            assert Y.cells == X.cells != derived
            assert Y.faces == X.faces

    def test_imported_flip_read_through_chain_complex(self):
        # the array form alone holds the file's signs once it is read; the
        # cells view is left out of the copies and rebuilt from it
        data = complex_to_dict(p2abc())
        top = next(r for r in data["cells"] if len(r["vertices"]) == 4)
        top["facets"] = [[t, -s] for t, s in top["facets"]]
        X = dict_to_complex(data)
        C = chain_complex(X)
        assert X._signs is None
        assert C.columns[top["id"]] == tuple(map(tuple, top["facets"]))
        X.cells
        assert "cells" not in X.__getstate__()
        for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert Y == X and chain_complex(Y) == C
            assert "cells" not in vars(Y)
            assert Y.cells == X.cells != p2abc().cells
            assert Y.cells[top["id"]].facets == C.columns[top["id"]]

    @pytest.mark.parametrize("read", ["faces", "labels", "cells"])
    def test_imported_complex(self, read):
        X = import_json(str(DATA / "complex_Q5_two_gens.json"))
        getattr(X, read)
        for Y in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert Y == X
            assert Y.cells == X.cells
            assert dict(Y.labels) == dict(X.labels)
            assert dumps(Y) == dumps(X)


class TestOneStoredForm:
    """Once finished, a complex holds the face masks it was built on and the
    `ChainComplex`; no other copy of its cells is keyed by face mask."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: p2abc(),
            lambda: builders.borel_complex(
                BorelIdeal.from_borel_gens(4, [m("b*c*d", 4), m("a^2*d", 4)])
            ),
            lambda: import_json(str(DATA / "complex_P43.json")),
        ],
        ids=["power", "borel", "imported"],
    )
    def test_no_mask_keyed_copies(self, make):
        X = make()
        chain_complex(X)
        assert X._signs is None
        for read in (None, "faces", "labels", "vertex_labels", "cells"):
            if read:
                getattr(X, read)
            state = vars(X)
            assert not {"_vertex_ids", "_label_exps"} & set(state)
            for name, value in state.items():
                if name != "_dims" and isinstance(value, Mapping):
                    assert not set(value) & set(X._dims), (read, name)


class TestInstallCells:
    """Signs supplied to the constructor, as an import installs them."""

    def test_recomputed_signs_accepted(self):
        X = p2abc()
        signs = sign_map(X)
        assert LabeledComplex(3, X.faces, signs).cells == X.cells

    def test_whole_cell_flip_accepted(self):
        # negating every facet sign of one top cell is still a valid orientation
        X = p2abc()
        signs = sign_map(X)
        square = fs("ab", "b^2", "ac", "bc")
        flipped = {
            (f, t): (-s if f == square else s) for (f, t), s in signs.items()
        }
        cells = LabeledComplex(3, X.faces, flipped).cells
        sq = next(c for c in cells if len(c.vertices) == 4)
        orig = next(c for c in X.cells if len(c.vertices) == 4)
        assert dict(sq.facets) == {i: -s for i, s in orig.facets}

    def test_single_flip_rejected(self):
        X = p2abc()
        signs = sign_map(X)
        square = fs("ab", "b^2", "ac", "bc")
        edge = fs("ab", "b^2")
        bad = dict(signs)
        bad[(square, edge)] = -bad[(square, edge)]
        with pytest.raises(ValueError, match="contradiction"):
            LabeledComplex(3, X.faces, bad).cells

    def test_equal_edge_signs_rejected(self):
        X = simplex([m("a"), m("b")])
        e = fs("a", "b")
        with pytest.raises(ValueError, match="opposite"):
            LabeledComplex(3, X.faces, {(e, fs("a")): 1, (e, fs("b")): 1}).cells

    def test_extra_pairs_rejected(self):
        X = simplex([m("a"), m("b")])
        e = fs("a", "b")
        signs = {(e, fs("a")): 1, (e, fs("b")): -1, (fs("a"), fs("b")): 1}
        with pytest.raises(ValueError, match="do not match"):
            LabeledComplex(3, X.faces, signs).cells

    def test_missing_pair_rejected(self):
        X = p2abc()
        signs = sign_map(X)
        del signs[next(iter(signs))]
        with pytest.raises(ValueError, match="do not match"):
            LabeledComplex(3, X.faces, signs).cells

    def test_non_unit_sign_rejected(self):
        X = p2abc()
        signs = sign_map(X)
        signs[next(iter(signs))] = 2
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            LabeledComplex(3, X.faces, signs).cells

    def test_bool_sign_rejected(self):
        X = p2abc()
        signs = sign_map(X)
        signs[next(k for k, s in signs.items() if s == 1)] = True
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            LabeledComplex(3, X.faces, signs).cells

    def test_signs_released_once_checked(self):
        X = p2abc()
        Y = LabeledComplex(3, X.faces, sign_map(X))
        assert Y.cells == X.cells
        assert Y._signs is None


class TestProduct:
    def test_square(self):
        X = simplex([m("a", 4), m("b", 4)])
        Y = simplex([m("c", 4), m("d", 4)])
        P = product(X, Y)
        assert P.f_vector() == (4, 4, 1)
        assert set(P.vertex_labels) == {m(t, 4) for t in ["ac", "ad", "bc", "bd"]}

    def test_dimensions_add(self):
        X = simplex([m("a", 4), m("b", 4), m("c", 4)])
        Y = simplex([m("d", 4), m("d^2", 4) * m("d", 4)])  # d and d^3: distinct
        P = product(X, Y)
        assert P.dim == X.dim + Y.dim

    def test_collision_rejected(self):
        X = simplex([m("a"), m("b")])
        with pytest.raises(ValueError, match="collide"):
            product(X, X)

    def test_point_is_identity_up_to_scaling(self):
        X = p2abc()
        P = product(X, simplex([unit(3)]))
        assert P == X


class TestUnion:
    def test_glue_along_edge(self):
        X = simplex([m("a"), m("b"), m("c")])
        Y = simplex([m("b"), m("c"), m("bc")])
        U = union(X, Y)
        assert U.f_vector() == (4, 5, 2)

    def test_idempotent(self):
        X = p2abc()
        assert union(X, X) == X

    def test_many_pieces_glue_as_a_chain(self):
        assert union(p2abc()) == p2abc()
        X = simplex([m("a"), m("b"), m("c")])
        Y = simplex([m("b"), m("c"), m("bc")])
        Z = simplex([m("bc"), m("c^2")])
        assert union(X, Y, Z) == union(union(X, Y), Z)
        assert union(X, Y, Z).f_vector() == (5, 6, 2)

    def test_dim_conflict_rejected(self):
        sq = product(simplex([m("a", 4), m("b", 4)]), simplex([m("c", 4), m("d", 4)]))
        tet = simplex([m(t, 4) for t in ["ac", "ad", "bc", "bd"]])
        with pytest.raises(ValueError, match="different dimensions"):
            union(sq, tet)


class TestScaleRestrictSpan:
    def test_scale_labels(self):
        X = simplex([m("a"), m("b")])
        Y = scale_labels(X, m("c"))
        assert set(Y.vertex_labels) == {m("ac"), m("bc")}
        assert Y.labels[fs("ac", "bc")] == m("abc")

    def test_restrict_square_degree(self):
        X = p2abc()
        Y = restrict(X, m("a*b^2*c"))
        assert Y.f_vector() == (4, 4, 1)
        assert set(Y.vertex_labels) == {m(t) for t in ["ab", "b^2", "ac", "bc"]}

    def test_restrict_top_and_unit(self):
        X = p2abc()
        assert restrict(X, m("a^2*b^2*c^2")) == X
        assert len(restrict(X, unit(3))) == 0

    def test_spanned_subcomplex_bc(self):
        X = p2abc()
        Y = spanned_subcomplex(X, expand_principal(m("bc")).expanded)
        assert Y.f_vector() == (5, 6, 2)

    def test_spanned_all_vertices(self):
        X = p2abc()
        assert spanned_subcomplex(X, X.vertex_labels) == X

    def test_spanned_missing_label_rejected(self):
        with pytest.raises(ValueError, match="not among"):
            spanned_subcomplex(p2abc(), [m("c^3")])


class TestNoMonomialKeyedScans:
    def test_build_orient_export_touch_each_vertex_label_a_few_times(
        self, monkeypatch
    ):
        # P(4,3) has 20 vertices and 111 cells; a face relation or a sign map
        # keyed by Monomial frozensets hashes and compares thousands of them
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in ("__hash__", "__eq__"):
            monkeypatch.setattr(Monomial, name, counted(name, getattr(Monomial, name)))
        builders._power.cache_clear()
        X = builders.power_complex(4, VarRange(1, 4), 3)
        X.cells
        dumps(X)
        assert len(X.vertex_labels) == 20 and len(X) == 111
        assert sum(calls.values()) <= 2 * len(X.vertex_labels), calls
