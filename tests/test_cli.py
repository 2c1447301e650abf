import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from borelcell.builders import induced_complex, principal_complex
from borelcell.cli import main
from borelcell.complexes import LabeledComplex, simplex
from borelcell.monomials import parse_monomial
from borelcell.serialize import dict_to_complex, export_json

BC5 = ["a^2", "a*b", "b^2", "a*c", "b*c"]
MIXED = ["--vars", "4", "--borel", "ab,ac,a*d^2,b^2*c*d^2"]
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGen:
    def test_borel_generator(self, capsys):
        rc, out, _ = run(capsys, "gen", "--vars", "3", "--borel", "bc")
        assert rc == 0
        assert out.splitlines() == BC5

    def test_mixed_degrees(self, capsys):
        rc, out, _ = run(capsys, "gen", *MIXED)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[:5] == ["a^2", "a*b", "a*c", "a*d^2", "b^5"]
        assert lines[-1] == "b^2*c*d^2"

    def test_ideal_spec(self, capsys):
        rc, out, _ = run(capsys, "gen", "--ideal", "vars:3; borel: b*c")
        assert rc == 0
        assert out.splitlines() == BC5

    def test_mono_kind_echoes_minimal_generators(self, capsys):
        rc, out, _ = run(
            capsys, "gen", "--vars", "3", "--mono", ",".join(BC5)
        )
        assert rc == 0
        assert out.splitlines() == BC5

    def test_mono_kind_rejects_non_closed_sets(self, capsys):
        rc, _, err = run(capsys, "gen", "--vars", "3", "--mono", "b*c")
        assert rc == 2
        assert "error:" in err

    def test_large_one_degree_ideal(self, capsys):
        # all C(17, 6) sextics of 12 variables, so minimalization must not
        # compare every pair
        rc, out, _ = run(capsys, "gen", "--vars", "12", "--borel", "x12^6")
        assert rc == 0
        assert len(out.splitlines()) == 12376

    def test_bad_monomial(self, capsys):
        rc, _, err = run(capsys, "gen", "--vars", "3", "--borel", "z")
        assert rc == 2
        assert "error:" in err


class TestMin:
    def test_pair(self, capsys):
        rc, out, _ = run(capsys, "min", "--vars", "3", "b^5*c", "a*b^3*c^2")
        assert rc == 0
        assert out.strip() == "a*b^4*c"

    def test_intersection_with_a_two_generator_ideal(self, capsys):
        rc, out, _ = run(
            capsys,
            "min",
            "--vars",
            "4",
            "a*b^4*c^3*d",
            "a^2*b^4*c*d^2",
            "a^3*b*c^2*d^3",
        )
        assert rc == 0
        assert out.splitlines() == ["a^2*b^4*c^2*d", "a^3*b^2*c^3*d"]

    def test_needs_two(self, capsys):
        rc, _, err = run(capsys, "min", "--vars", "3", "a*b")
        assert rc == 2
        assert "at least two" in err


class TestComplex:
    def test_power_complex(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        rc, out, _ = run(
            capsys,
            "complex",
            "P",
            "--vars",
            "3",
            "--degree",
            "2",
            "--out",
            str(out_file),
        )
        assert rc == 0
        assert "dimension 2, f-vector (6, 8, 3)" in out
        assert f"wrote {out_file}" in out
        assert json.loads(out_file.read_text())["vars"] == 3

    def test_methods_agree(self, capsys):
        rc, out, _ = run(
            capsys, "complex", "Q", "--vars", "3", "--borel", "bc", "--method", "both"
        )
        assert rc == 0
        assert "dimension 2, f-vector (5, 6, 2)" in out
        assert "recursive = extract: yes" in out

    def test_methods_disagree(self, capsys, monkeypatch):
        def drop_a_maximal_cell(I):
            faces = dict(induced_complex(I).faces)
            # a cell of top dimension is a face of no other cell
            del faces[max(faces, key=lambda f: (faces[f], sorted(map(str, f))))]
            return LabeledComplex(I.n, faces)

        monkeypatch.setattr("borelcell.cli.induced_complex", drop_a_maximal_cell)
        rc, out, _ = run(
            capsys, "complex", "Q", "--vars", "3", "--borel", "bc", "--method", "both"
        )
        assert rc == 1
        assert "dimension 2, f-vector (5, 6, 2)" in out
        assert "recursive = extract: no" in out

    def test_p_needs_degree(self, capsys):
        rc, _, err = run(capsys, "complex", "P", "--vars", "3")
        assert rc == 2
        assert "--degree" in err

    def test_q_rejects_mixed_degrees(self, capsys):
        rc, _, err = run(capsys, "complex", "Q", *MIXED)
        assert rc == 2
        assert "error:" in err


class TestVerify:
    def write_q(self, tmp_path):
        path = tmp_path / "q.json"
        export_json(principal_complex(3, parse_monomial("bc", 3)), str(path))
        return path

    def test_pass(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, out, _ = run(capsys, "verify", "--in", str(path))
        assert rc == 0
        assert "field: q" in out
        assert "boundary_squared_zero: pass" in out
        assert "minimal: pass" in out
        assert "ok: yes" in out

    def test_explicit_matching_ideal(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, out, _ = run(
            capsys, "verify", "--in", str(path), "--vars", "3", "--borel", "bc"
        )
        assert rc == 0 and "ok: yes" in out

    def test_explicit_mismatched_ideal(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, _, err = run(
            capsys, "verify", "--in", str(path), "--vars", "3", "--borel", "c^2"
        )
        assert rc == 2
        assert "vertex labels" in err

    def test_non_minimal_complex_fails(self, capsys, tmp_path):
        path = tmp_path / "taylor.json"
        gens = [parse_monomial(t, 2) for t in ("a^2", "a*b", "b^2")]
        export_json(simplex(gens), str(path))
        rc, out, _ = run(capsys, "verify", "--in", str(path))
        assert rc == 1
        assert "minimal: fail" in out
        assert "ok: no" in out

    def test_tampered_file(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        data = json.loads(path.read_text())
        data["cells"][-1]["facets"][0][1] *= -1
        path.write_text(json.dumps(data))
        rc, _, err = run(capsys, "verify", "--in", str(path))
        assert rc == 2
        assert "invalid complex file" in err

    def test_malformed_label(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        data = json.loads(path.read_text())
        data["cells"][-1]["label"] = "x9"
        path.write_text(json.dumps(data))
        rc, _, err = run(capsys, "verify", "--in", str(path))
        assert rc == 2
        assert "invalid complex file" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
        assert rc == 2

    def test_report_contents(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        report = tmp_path / "report.json"
        rc, _, _ = run(
            capsys, "verify", "--in", str(path), "--report", str(report)
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["tool"] == "borelcell"
        assert doc["ok"] is True
        assert doc["checks"][0]["name"] == "boundary_squared_zero"
        assert doc["checks"][-1]["name"] == "minimal"
        blob = json.dumps(doc["config"], sort_keys=True).encode()
        assert doc["config_hash"] == hashlib.sha256(blob).hexdigest()
        assert "in_path" not in json.dumps(doc["config"])

    def test_prime_field(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, out, _ = run(
            capsys, "verify", "--in", str(path), "--field", "p:32003"
        )
        assert rc == 0
        assert "field: p:32003" in out

    def test_composite_field_rejected(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, _, err = run(capsys, "verify", "--in", str(path), "--field", "p:10")
        assert rc == 2

    def test_field_env_default(self, capsys, tmp_path, monkeypatch):
        path = self.write_q(tmp_path)
        monkeypatch.setenv("BORELCELL_FIELD", "p:7")
        rc, out, _ = run(capsys, "verify", "--in", str(path))
        assert rc == 0
        assert "field: p:7" in out


class TestBetti:
    def test_single_method(self, capsys):
        rc, out, _ = run(
            capsys, "betti", "--vars", "3", "--borel", "bc", "--method", "ek"
        )
        assert rc == 0
        assert out.strip() == "ek: (5, 6, 2)"

    def test_all_methods_agree(self, capsys):
        rc, out, _ = run(capsys, "betti", "--vars", "3", "--borel", "bc")
        assert rc == 0
        assert "agree: yes" in out
        for name in ("cellular", "koszul", "ek"):
            assert name in out

    def test_mixed_degrees_rejected(self, capsys):
        rc, _, err = run(capsys, "betti", *MIXED)
        assert rc == 2


class TestLattice:
    def test_ranked_equigenerated(self, capsys):
        rc, out, _ = run(
            capsys, "lattice", "--vars", "3", "--borel", "bc", "--check", "ranked"
        )
        assert rc == 0
        assert "ranked: yes (criterion: degree)" in out

    def test_mixed_ideal_not_ranked(self, capsys):
        rc, out, _ = run(capsys, "lattice", *MIXED, "--check", "ranked")
        assert rc == 1
        assert "atoms: 13" in out
        assert "elements: 130" in out
        assert "ranked: no (criterion: chains)" in out
        assert "witness cover:" in out
        assert "witness interval:" in out

    def test_labels(self, capsys):
        rc, out, _ = run(
            capsys,
            "lattice",
            *MIXED,
            "--check",
            "labels",
            "--interval",
            "1..a*b^2*c*d^2",
        )
        assert rc == 0
        assert "7 maximal chains" in out
        assert "decreasing from top: 0" in out
        assert "decreasing bottom-up: 1" in out

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "lattice.json"
        rc, out, _ = run(
            capsys,
            "lattice",
            "--vars",
            "3",
            "--borel",
            "bc",
            "--check",
            "ranked",
            "--out",
            str(out_file),
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["result"]["ranked"] is True
        assert doc["elements"][0] == "1"
        assert set(doc["covers"]) == set(doc["elements"])

    def test_mono_matches_borel(self, capsys, tmp_path):
        outs = []
        for kind, gens in (("--borel", "bc"), ("--mono", ",".join(BC5))):
            path = tmp_path / f"{kind[2:]}.json"
            rc, out, _ = run(
                capsys, "lattice", "--vars", "3", kind, gens,
                "--check", "ranked", "--out", str(path),
            )
            assert rc == 0
            outs.append((out.replace(str(path), ""), path.read_text()))
        assert outs[0] == outs[1]
        assert "atoms: 5" in outs[0][0]

    def test_mono_rejects_non_closed_sets(self, capsys):
        rc, _, err = run(
            capsys, "lattice", "--vars", "3", "--mono", "b*c", "--check", "ranked"
        )
        assert rc == 2
        assert "closed" in err

    def test_mono_rejects_mixed_degrees(self, capsys):
        rc, _, err = run(
            capsys, "lattice", "--vars", "3", "--mono", "a,b^2", "--check", "ranked"
        )
        assert rc == 2
        assert "error:" in err

    def test_labels_needs_interval(self, capsys):
        rc, _, err = run(
            capsys, "lattice", "--vars", "3", "--borel", "bc", "--check", "labels"
        )
        assert rc == 2
        assert "--interval" in err

    def test_interval_rejected_for_ranked(self, capsys):
        rc, _, err = run(
            capsys,
            "lattice",
            "--vars",
            "3",
            "--borel",
            "bc",
            "--check",
            "ranked",
            "--interval",
            "1..a^2*b^2*c",
        )
        assert rc == 2

    def test_bad_interval_syntax(self, capsys):
        rc, _, err = run(
            capsys,
            "lattice",
            "--vars",
            "3",
            "--borel",
            "bc",
            "--check",
            "labels",
            "--interval",
            "a-b",
        )
        assert rc == 2
        assert "lo..hi" in err


class TestDeterminism:
    def test_complex_export_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc, _, _ = run(
                capsys,
                "complex",
                "Q",
                "--vars",
                "4",
                "--borel",
                "b*d^2",
                "--out",
                str(path),
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_job_count_never_changes_the_report(self, capsys, tmp_path):
        src = tmp_path / "q.json"
        export_json(principal_complex(4, parse_monomial("b*d^2", 4)), str(src))
        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"report{jobs}.json"
            rc, _, _ = run(
                capsys,
                "verify",
                "--in",
                str(src),
                "--jobs",
                jobs,
                "--report",
                str(report),
            )
            assert rc == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestGoldenArtifacts:
    """Artifacts stored from an earlier version: ordering drift shows here."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("lattice_ranked_mixed.json", [*MIXED, "--check", "ranked"]),
            (
                "lattice_labels_mixed.json",
                [*MIXED, "--check", "labels", "--interval", "1..a*b^2*c*d^2"],
            ),
        ],
    )
    def test_lattice_out(self, capsys, tmp_path, name, argv):
        out = tmp_path / name
        run(capsys, "lattice", *argv, "--out", str(out))
        assert out.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("complex_P43.json", ["P", "--vars", "4", "--degree", "3"]),
            ("complex_Q4_bd2.json", ["Q", "--vars", "4", "--borel", "b*d^2"]),
            (
                "complex_Q5_two_gens.json",
                ["Q", "--vars", "5", "--borel", "x2*x3*x5,x1*x4^2"],
            ),
        ],
    )
    def test_complex_out(self, capsys, tmp_path, name, argv):
        # pins the sign convention: +1 on the rlex-greater endpoint of an
        # edge, breadth-first from the lowest facet of every other cell
        out = tmp_path / name
        run(capsys, "complex", *argv, "--out", str(out))
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_verify_report(self, capsys, tmp_path):
        src, report = tmp_path / "p33.json", tmp_path / "verify_P33.json"
        run(capsys, "complex", "P", "--vars", "3", "--degree", "3", "--out", str(src))
        rc, _, _ = run(capsys, "verify", "--in", str(src), "--report", str(report))
        assert rc == 0
        assert report.read_bytes() == (DATA / "verify_P33.json").read_bytes()


def single_edit_mutants(doc):
    """Edit a complex file's data in place, one edit per yield of its kind.

    Each edit is undone before the next, and none leaves the content equal
    to the original.  Kinds: flip one facet sign; drop one cell; point one
    facet entry at another cell of the same dimension, the next by id
    (cyclically) that the cell does not already list; relabel one vertex.
    """
    cells, vertices = doc["cells"], doc["vertices"]
    ids_of_dim, dim_of = {}, {}
    for rec in cells:
        ids_of_dim.setdefault(rec["dim"], []).append(rec["id"])
        dim_of[rec["id"]] = rec["dim"]
    for rec in cells:
        listed = {fid for fid, _ in rec["facets"]}
        for pair in rec["facets"]:
            pair[1] = -pair[1]
            yield "flip sign"
            pair[1] = -pair[1]
            fid = pair[0]
            ids = ids_of_dim[dim_of[fid]]
            k = ids.index(fid)
            free = [t for t in ids[k + 1:] + ids[:k] if t not in listed]
            if free:
                pair[0] = free[0]
                yield "retarget facet"
                pair[0] = fid
    for i in range(len(cells)):
        rec = cells.pop(i)
        yield "drop cell"
        cells.insert(i, rec)
    # a new label either repeats the next vertex's or is a fresh monomial
    n = doc["vars"]
    for i, rec in enumerate(vertices):
        old = rec["label"]
        fresh = (parse_monomial(old, n) * parse_monomial(f"x{n}", n)).canonical()
        for label in (vertices[(i + 1) % len(vertices)]["label"], fresh):
            rec["label"] = label
            yield "relabel vertex"
        rec["label"] = old


class TestMutationSuite:
    """Every single-edit mutant of a golden complex file is caught.

    A mutant is either rejected by the import (`verify` then exits 2 with
    the message, see TestVerify) or imports and makes `verify` exit 1
    naming a failing degree.  Only dropping a maximal cell imports.
    """

    @pytest.mark.parametrize("name", ["complex_P43.json", "complex_Q4_bd2.json"])
    def test_every_mutant_is_caught(self, capsys, tmp_path, name):
        doc = json.loads((DATA / name).read_text())
        original = json.dumps(doc)
        facet_ids = {fid for rec in doc["cells"] for fid, _ in rec["facets"]}
        maximal = sum(rec["id"] not in facet_ids for rec in doc["cells"])
        kinds, imported = Counter(), []
        for kind in single_edit_mutants(doc):
            kinds[kind] += 1
            try:
                dict_to_complex(doc)
            except ValueError as exc:
                assert str(exc).startswith("invalid complex file: "), kind
            else:
                assert kind == "drop cell"
                imported.append(json.dumps(doc))
        assert json.dumps(doc) == original
        assert set(kinds) == {
            "flip sign", "retarget facet", "drop cell", "relabel vertex"
        }
        assert len(imported) == maximal
        path = tmp_path / "mutant.json"
        for text in imported:
            path.write_text(text)
            rc, out, _ = run(capsys, "verify", "--in", str(path))
            assert rc == 1
            assert re.search(r"^  fail at \S+: ", out, re.M)
            assert "ok: no" in out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "borelcell" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
