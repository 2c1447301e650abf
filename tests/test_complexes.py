from collections import Counter

import pytest

from borelcell import builders
from borelcell.borel import expand_principal
from borelcell.complexes import (
    LabeledComplex,
    product,
    restrict,
    simplex,
    spanned_subcomplex,
    union,
)
from borelcell.monomials import Monomial, VarRange, lcm_many, parse_monomial, unit
from borelcell.serialize import dumps
from references import scale_labels


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


class TestInstallCells:
    """Signs supplied to the constructor, as an import installs them."""

    def _sign_map(self, X):
        cells = X.cells
        by_id = {c.id: c for c in cells}
        key = {c.id: frozenset(X.vertex_labels[i] for i in c.vertices) for c in cells}
        return {
            (key[c.id], key[fid]): s for c in cells for fid, s in c.facets
        }

    def test_recomputed_signs_accepted(self):
        X = p2abc()
        signs = self._sign_map(X)
        assert LabeledComplex(3, X.faces, signs).cells == X.cells

    def test_whole_cell_flip_accepted(self):
        # negating every facet sign of one top cell is still a valid orientation
        X = p2abc()
        signs = self._sign_map(X)
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
        signs = self._sign_map(X)
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
        signs = self._sign_map(X)
        del signs[next(iter(signs))]
        with pytest.raises(ValueError, match="do not match"):
            LabeledComplex(3, X.faces, signs).cells

    def test_non_unit_sign_rejected(self):
        X = p2abc()
        signs = self._sign_map(X)
        signs[next(iter(signs))] = 2
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            LabeledComplex(3, X.faces, signs).cells

    def test_bool_sign_rejected(self):
        X = p2abc()
        signs = self._sign_map(X)
        signs[next(k for k, s in signs.items() if s == 1)] = True
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            LabeledComplex(3, X.faces, signs).cells

    def test_signs_released_once_checked(self):
        X = p2abc()
        Y = LabeledComplex(3, X.faces, self._sign_map(X))
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
