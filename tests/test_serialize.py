import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from borelcell.borel import BorelIdeal
from borelcell.builders import borel_complex, power_complex, principal_complex
from borelcell.complexes import LabeledComplex
from borelcell.monomials import VarRange, monomials_of_degree, parse_monomial, rlex_cmp
from borelcell.serialize import (
    complex_to_dict,
    dict_to_complex,
    dumps,
    export_json,
    import_json,
)


DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("complex_*.json"))

# Borel complexes in at most 4 variables, degree at most 3
small_borel = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.sampled_from(list(monomials_of_degree(n, d))), min_size=1, max_size=3
        ).map(lambda gens: borel_complex(BorelIdeal.from_borel_gens(n, gens)))
    )
)


def p2abc():
    return power_complex(3, VarRange(1, 3), 2)


def reject(data, fragment):
    with pytest.raises(ValueError, match="invalid complex file") as err:
        dict_to_complex(data)
    assert fragment in str(err.value)


class TestExport:
    def test_schema_shape(self):
        data = complex_to_dict(p2abc())
        assert set(data) == {"vars", "vertices", "cells"}
        assert data["vars"] == 3
        assert len(data["vertices"]) == 6
        assert len(data["cells"]) == 17

    def test_vertices_listed_rlex_descending(self):
        data = complex_to_dict(p2abc())
        assert [v["id"] for v in data["vertices"]] == list(range(6))
        labels = [parse_monomial(v["label"], 3) for v in data["vertices"]]
        assert all(
            rlex_cmp(a, b) > 0 for a, b in zip(labels, labels[1:])
        )

    def test_labels_use_x_spelling(self):
        data = complex_to_dict(p2abc())
        assert data["vertices"][0]["label"] == "x1^2"
        for rec in data["cells"]:
            assert "x" in rec["label"]

    def test_vertex_cells_share_vertex_ids(self):
        data = complex_to_dict(p2abc())
        for rec in data["cells"]:
            if rec["dim"] == 0:
                assert rec["vertices"] == [rec["id"]]
                assert rec["facets"] == []

    def test_cells_ordered_by_dim_then_vertices(self):
        data = complex_to_dict(p2abc())
        keys = [(rec["dim"], tuple(sorted(rec["vertices"]))) for rec in data["cells"]]
        assert keys == sorted(keys)
        assert [rec["id"] for rec in data["cells"]] == list(range(17))

    def test_edge_complex(self):
        data = complex_to_dict(power_complex(2, VarRange(1, 2), 1))
        assert len(data["vertices"]) == 2
        assert len(data["cells"]) == 3
        edge = data["cells"][-1]
        assert edge["dim"] == 1 and edge["label"] == "x1*x2"
        assert sorted(sign for _, sign in edge["facets"]) == [-1, 1]

    def test_dumps_is_deterministic(self):
        assert dumps(p2abc()) == dumps(power_complex(3, VarRange(1, 3), 2))
        assert dumps(p2abc()).endswith("\n")


class TestWriterLayout:
    """dumps writes the bytes json.dumps(complex_to_dict(X), indent=2) does."""

    @staticmethod
    def reference(X):
        return json.dumps(complex_to_dict(X), indent=2) + "\n"

    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
    def test_golden_files(self, path):
        X = import_json(str(path))
        assert dumps(X) == self.reference(X) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LabeledComplex(3, {}),
            lambda: power_complex(3, VarRange(1, 1), 1),
            lambda: power_complex(3, VarRange(1, 3), 1),
        ],
        ids=["empty", "one_vertex", "triangle"],
    )
    def test_small_complexes(self, make):
        X = make()
        assert dumps(X) == self.reference(X)

    @given(small_borel)
    @settings(max_examples=25, deadline=None)
    def test_borel_complexes(self, X):
        assert dumps(X) == self.reference(X)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: p2abc(),
            lambda: principal_complex(4, parse_monomial("b*d^2", 4)),
            lambda: power_complex(3, VarRange(2, 3), 3),
        ],
    )
    def test_identity_on_cells(self, make):
        X = make()
        back = dict_to_complex(json.loads(dumps(X)))
        assert back == X
        assert back.cells == X.cells

    def test_any_unique_ids_are_renumbered_canonically(self):
        X = p2abc()
        data = complex_to_dict(X)
        for rec in data["vertices"]:
            rec["id"] += 100
        for rec in data["cells"]:
            rec["id"] += 500
            rec["vertices"] = [v + 100 for v in rec["vertices"]]
            rec["facets"] = [[fid + 500, sign] for fid, sign in rec["facets"]]
        data["vertices"].reverse()
        data["cells"].reverse()
        Y = dict_to_complex(data)
        assert Y.cells == X.cells
        assert dumps(Y) == dumps(X)

    def test_file_round_trip(self, tmp_path):
        X = p2abc()
        path = tmp_path / "complex.json"
        export_json(X, str(path))
        assert import_json(str(path)) == X
        assert path.read_text().endswith("\n")


class TestImportValidation:
    def base(self):
        return complex_to_dict(p2abc())

    def test_top_level(self):
        reject([], "top level")
        reject({"vars": 3}, "top-level keys")
        data = self.base()
        data["extra"] = 1
        reject(data, "top-level keys")

    def test_bad_vars(self):
        data = self.base()
        data["vars"] = 0
        reject(data, "positive integer")

    def test_duplicate_vertex_label(self):
        data = self.base()
        data["vertices"][1]["label"] = data["vertices"][0]["label"]
        reject(data, "distinct")

    def test_duplicate_vertex_id(self):
        data = self.base()
        data["vertices"][1]["id"] = 0
        reject(data, "unique")

    def test_unknown_vertex_in_cell(self):
        data = self.base()
        data["cells"][-1]["vertices"][0] = 99
        reject(data, "known vertex ids")

    def test_repeated_vertex_in_cell(self):
        data = self.base()
        rec = data["cells"][-1]
        rec["vertices"] = [rec["vertices"][0]] * len(rec["vertices"])
        reject(data, "no repeats")

    def test_wrong_label(self):
        data = self.base()
        data["cells"][-1]["label"] = "x1^9"
        reject(data, "lcm")

    def test_malformed_vertex_label(self):
        data = self.base()
        data["vertices"][0]["label"] = "x1^"
        reject(data, "bad factor 'x1^'")

    def test_cell_label_outside_the_ambient(self):
        data = self.base()
        data["cells"][-1]["label"] = "x9"
        reject(data, "variable index 9 outside ambient 1..3")

    def test_label_not_a_string(self):
        for records in ("vertices", "cells"):
            data = self.base()
            data[records][-1]["label"] = 5
            reject(data, "labels are strings")

    def test_wrong_dim(self):
        data = self.base()
        data["cells"][-1]["dim"] = 3
        reject(data, "")

    def test_dangling_facet_id(self):
        data = self.base()
        data["cells"][-1]["facets"][0][0] = 99
        reject(data, "facet ids known")

    def test_missing_facet_entry(self):
        data = self.base()
        data["cells"][-1]["facets"].pop()
        reject(data, "match the face relation")

    def test_facets_not_a_list(self):
        data = self.base()
        data["cells"][-1]["facets"] = 5
        reject(data, "facets must be a list")

    def test_duplicated_facet_entry(self):
        data = self.base()
        rec = data["cells"][-1]
        rec["facets"].append(copy.deepcopy(rec["facets"][0]))
        reject(data, "listed once")

    def test_bad_sign_value(self):
        for bad in (0, 2, "1"):
            data = self.base()
            data["cells"][-1]["facets"][0][1] = bad
            reject(data, "+1 or -1")

    def test_flipped_sign_is_a_contradiction(self):
        data = self.base()
        data["cells"][-1]["facets"][0][1] *= -1
        with pytest.raises(ValueError, match="invalid complex file"):
            dict_to_complex(data)

    def test_whole_cell_flip_is_a_valid_orientation(self):
        data = self.base()
        for pair in data["cells"][-1]["facets"]:
            pair[1] *= -1
        X = dict_to_complex(data)
        assert X == p2abc()
        flipped = X.cells[-1]
        original = p2abc().cells[-1]
        assert dict(flipped.facets) == {
            fid: -sign for fid, sign in original.facets
        }

    def test_missing_edge_record(self):
        data = self.base()
        victim = next(rec for rec in data["cells"] if rec["dim"] == 1)
        data["cells"].remove(victim)
        reject(data, "facet ids known")

    def test_vertex_record_without_a_0_cell(self):
        # an unused vertex would silently change the ideal verify defaults to
        data = self.base()
        data["vertices"].append({"id": 99, "label": "x1^5"})
        reject(data, "0-cell")

    def test_dropping_a_top_cell_gives_the_smaller_complex(self):
        # facets only point downward, so a top cell can be removed cleanly;
        # the result is a genuinely different (and here non-acyclic) complex
        data = self.base()
        data["cells"].pop()
        X = dict_to_complex(data)
        assert X != p2abc()
        assert X.f_vector() == (6, 8, 2)


def _set_vars(data):
    data["vars"] = True


def _set_vertex_id(data):
    data["vertices"][1]["id"] = True


def _set_cell_id(data):
    data["cells"][1]["id"] = True


def _set_dim(data):
    data["cells"][1]["dim"] = False


def _set_cell_vertex(data):
    data["cells"][1]["vertices"] = [True]


def _set_facet_id(data):
    pair = next(p for rec in data["cells"] for p in rec["facets"] if p[0] == 1)
    pair[0] = True


def _set_facet_sign(data):
    pair = next(
        p for rec in data["cells"] for p in rec["facets"] if p[1] == 1
    )
    pair[1] = True


class TestBoolsRejected:
    """JSON true/false equal 1/0 in Python; none may stand in for an int."""

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (_set_vars, "positive integer"),
            (_set_vertex_id, "vertex ids unique"),
            (_set_cell_id, "cell ids unique"),
            (_set_dim, "dim must be an integer"),
            (_set_cell_vertex, "known vertex ids"),
            (_set_facet_id, "facet ids known"),
            (_set_facet_sign, "+1 or -1"),
        ],
    )
    def test_bool_in_place_of_int(self, edit, fragment):
        # one variable for vars, so that True == 1 names a ring the labels fit
        X = p2abc() if edit is not _set_vars else power_complex(1, VarRange(1, 1), 2)
        data = complex_to_dict(X)
        assert dict_to_complex(json.loads(json.dumps(data))) == X
        edit(data)
        reject(json.loads(json.dumps(data)), fragment)
