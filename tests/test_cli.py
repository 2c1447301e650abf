import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from borelcell import __version__, cli, lattice
from borelcell.borel import BorelIdeal
from borelcell.builders import (
    borel_complex,
    induced_complex,
    power_complex,
    principal_complex,
)
from borelcell.cli import main
from borelcell.complexes import LabeledComplex, simplex
from borelcell.exact import Field
from borelcell.monomials import VarRange, canonical_key, parse_monomial
from borelcell.resolution import check_minimal, verify_resolution
from borelcell.serialize import dict_to_complex, export_json, import_json
from references import record_writes, report_checks

BC5 = ["a^2", "a*b", "b^2", "a*c", "b*c"]
MIXED = ["--vars", "4", "--borel", "ab,ac,a*d^2,b^2*c*d^2"]
DATA = Path(__file__).parent / "data"
GOLDEN_COMPLEXES = ["complex_P43.json", "complex_Q4_bd2.json", "complex_Q5_two_gens.json"]


def drop_a_maximal_cell(X):
    faces = dict(X.faces)
    # a cell of top dimension is a face of no other cell
    del faces[max(faces, key=lambda f: (faces[f], sorted(map(str, f))))]
    return LabeledComplex(X.n, faces)


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

    def test_ideal_spec_rejects_a_second_vars_segment(self, capsys):
        rc, out, err = run(capsys, "gen", "--ideal", "vars: 3; vars: 4; borel: d")
        assert (rc, out, err) == (
            2,
            "",
            "error: ideal spec has more than one vars segment\n",
        )

    def test_ideal_spec_names_a_non_integer_vars_segment(self, capsys):
        rc, out, err = run(capsys, "gen", "--ideal", "vars: x; borel: a")
        assert (rc, out, err) == (
            2,
            "",
            "error: bad vars segment 'vars: x': not an integer\n",
        )

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
        monkeypatch.setattr(
            "borelcell.cli.induced_complex",
            lambda I: drop_a_maximal_cell(induced_complex(I)),
        )
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

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--method", ["--method", "both"]),
            ("--borel", ["--borel", "bc"]),
            ("--mono", ["--mono", ",".join(BC5)]),
            ("--ideal", ["--ideal", "vars: 3; borel: bc"]),
        ],
    )
    def test_p_rejects_the_ideal_flags(self, capsys, flag, argv):
        rc, out, err = run(
            capsys, "complex", "P", "--vars", "3", "--degree", "2", *argv
        )
        assert (rc, out, err) == (2, "", f"error: complex P takes no {flag}\n")

    def test_q_rejects_degree(self, capsys):
        rc, out, err = run(
            capsys, "complex", "Q", "--vars", "3", "--degree", "5", "--borel", "bc"
        )
        assert (rc, out, err) == (2, "", "error: complex Q takes no --degree\n")

    def test_vars_must_match_the_spec(self, capsys):
        rc, out, err = run(
            capsys, "complex", "Q", "--vars", "3", "--ideal", "vars: 4; borel: bc"
        )
        assert (rc, out, err) == (
            2,
            "",
            "error: --vars 3 does not match the spec's vars: 4\n",
        )
        rc, out, _ = run(
            capsys, "complex", "Q", "--vars", "3", "--ideal", "vars: 3; borel: bc"
        )
        assert rc == 0
        assert "dimension 2, f-vector (5, 6, 2)" in out


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

    def test_vars_must_match_the_file_without_an_ideal(self, capsys, tmp_path):
        src = tmp_path / "p33.json"
        run(capsys, "complex", "P", "--vars", "3", "--degree", "3", "--out", str(src))
        rc, out, err = run(capsys, "verify", "--in", str(src), "--vars", "7")
        assert (rc, out, err) == (
            2,
            "",
            "error: --vars 7 does not match the file's vars: 3\n",
        )

    def test_vars_must_match_the_file_with_an_ideal(self, capsys, tmp_path):
        path = self.write_q(tmp_path)
        rc, out, err = run(
            capsys, "verify", "--in", str(path), "--vars", "4", "--borel", "d^3"
        )
        assert (rc, out, err) == (
            2,
            "",
            "error: --vars 4 does not match the file's vars: 3\n",
        )

    def test_spec_vars_must_match_the_file(self, capsys, tmp_path):
        src = tmp_path / "p32.json"
        run(capsys, "complex", "P", "--vars", "3", "--degree", "2", "--out", str(src))
        rc, out, err = run(
            capsys, "verify", "--in", str(src), "--ideal", "vars: 4; borel: d^2"
        )
        assert (rc, out, err) == (
            2,
            "",
            "error: the spec's vars: 4 does not match the file's vars: 3\n",
        )

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

    def test_vars_must_match_the_spec(self, capsys):
        rc, out, err = run(
            capsys, "betti", "--vars", "3", "--ideal", "vars: 4; borel: bc"
        )
        assert (rc, out, err) == (
            2,
            "",
            "error: --vars 3 does not match the spec's vars: 4\n",
        )

    def test_spec_alone_fixes_vars(self, capsys):
        rc, out, _ = run(
            capsys, "betti", "--method", "ek", "--ideal", "vars: 4; borel: bc"
        )
        assert rc == 0
        assert out.strip() == "ek: (5, 6, 2)"

    @pytest.mark.parametrize("method", ["cellular", "all"])
    def test_a_complex_failing_verification(self, capsys, monkeypatch, method):
        monkeypatch.setattr(
            cli, "borel_complex", lambda I: drop_a_maximal_cell(borel_complex(I))
        )
        assert run(
            capsys, "betti", "--vars", "3", "--borel", "bc", "--method", method
        ) == (1, "cellular method: complex failed resolution verification\n", "")

    @pytest.mark.parametrize("method", ["cellular", "all"])
    def test_a_non_minimal_complex(self, capsys, monkeypatch, method):
        # the Taylor complex of (a^2, ab, b^2) resolves it, but not minimally
        taylor = simplex([parse_monomial(t, 2) for t in ("a^2", "a*b", "b^2")])
        monkeypatch.setattr(cli, "borel_complex", lambda I: taylor)
        assert run(
            capsys, "betti", "--vars", "2", "--borel", "b^2", "--method", method
        ) == (1, "cellular method: complex is not minimal\n", "")


class TestFieldSelection:
    """Only verify and betti take a field, so only they read BORELCELL_FIELD."""

    @pytest.mark.parametrize("env", ["bogus", "p:4"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--vars", "3", "--borel", "bc"],
            ["min", "--vars", "3", "b^5*c", "a*b^3*c^2"],
            ["complex", "Q", "--vars", "3", "--borel", "bc"],
            ["lattice", "--vars", "3", "--borel", "bc", "--check", "ranked"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_other_commands_ignore_a_bad_env(self, capsys, monkeypatch, argv, env):
        monkeypatch.delenv("BORELCELL_FIELD", raising=False)
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("BORELCELL_FIELD", env)
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize(
        "env, message",
        [
            ("bogus", "field must be 'q' or 'p:<prime>', got 'bogus'"),
            ("p:4", "4 is not prime"),
        ],
    )
    def test_verify_and_betti_reject_a_bad_env(
        self, capsys, monkeypatch, tmp_path, env, message
    ):
        path = TestVerify().write_q(tmp_path)
        monkeypatch.setenv("BORELCELL_FIELD", env)
        betti = ["betti", "--vars", "3", "--borel", "bc"]
        for argv in (["verify", "--in", str(path)], betti):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["p:abc", "p:", "p:7x"])
    def test_an_unparsable_modulus_names_the_field_text(self, capsys, text):
        rc, out, err = run(
            capsys, "betti", "--vars", "3", "--borel", "bc", "--field", text
        )
        message = f"field must be 'q' or 'p:<prime>', got {text!r}"
        assert (rc, out, err) == (2, "", f"error: {message}\n")


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

    def test_labels_over_the_chain_budget_is_an_input_error(self, capsys):
        # [1, top] of P(4,4) has more maximal chains than the default budget
        rc, out, err = run(
            capsys,
            "lattice",
            "--vars",
            "4",
            "--borel",
            "x4^4",
            "--check",
            "labels",
            "--interval",
            "1..x1^4*x2^4*x3^4*x4^4",
        )
        # found before the first print, as every input error is
        assert (rc, out) == (2, "")
        assert err == "error: more than 100000 maximal chains\n"

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

    # flag errors are found before the lattice is built: nothing is printed
    def test_labels_needs_interval(self, capsys):
        rc, out, err = run(
            capsys, "lattice", "--vars", "3", "--borel", "bc", "--check", "labels"
        )
        message = "--check labels needs --interval lo..hi"
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_interval_rejected_for_ranked(self, capsys):
        rc, out, err = run(
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
        assert (rc, out, err) == (
            2,
            "",
            "error: --interval only applies to --check labels\n",
        )

    def test_bad_interval_syntax(self, capsys):
        rc, out, err = run(
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
        assert (rc, out, err) == (2, "", "error: --interval must look like lo..hi\n")

    # interval errors are found once the lattice is built, still before the
    # first print
    @pytest.mark.parametrize(
        "interval, message",
        [
            ("a*b..a^2", "a*b does not divide a^2"),
            ("1..a^3", "interval endpoints must be lattice elements"),
        ],
    )
    def test_rejected_interval_prints_nothing(self, capsys, interval, message):
        argv = ["lattice", "--vars", "2", "--borel", "b^2", "--check", "labels"]
        rc, out, err = run(capsys, *argv, "--interval", interval)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


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

    def test_verify_report_of_a_non_power_complex(self, capsys, tmp_path):
        # 238 degrees of a two-generator Borel ideal, listed in canonical
        # order though the kernel's walk reaches them lexicographically
        report = tmp_path / "verify_Q5_two_gens.json"
        src = DATA / "complex_Q5_two_gens.json"
        rc, _, _ = run(capsys, "verify", "--in", str(src), "--report", str(report))
        assert rc == 0
        assert report.read_bytes() == (DATA / "verify_Q5_two_gens.json").read_bytes()

    def test_verify_report_of_a_failing_complex(self, capsys, tmp_path):
        # complex_P43.json without its last maximal cell in file order: 27
        # degrees fail, listed in canonical order though the kernel's walk
        # reaches them lexicographically
        doc = json.loads((DATA / "complex_P43.json").read_text())
        facet_ids = {fid for rec in doc["cells"] for fid, _ in rec["facets"]}
        last = max(i for i, r in enumerate(doc["cells"]) if r["id"] not in facet_ids)
        del doc["cells"][last]
        src = DATA / "complex_P43_drop.json"
        assert json.loads(src.read_text()) == doc
        report = tmp_path / "verify_P43_drop.json"
        rc, out, err = run(capsys, "verify", "--in", str(src), "--report", str(report))
        assert (rc, err) == (1, "")
        golden = (DATA / "verify_P43_drop.json").read_bytes()
        assert report.read_bytes() == golden
        checks = json.loads(golden)["checks"]
        # the witness as printed: a dict, homology first
        keys = ("reduced_homology", "first_nonzero")
        failing = [
            (c["degree"], {k: c["witness"][k] for k in keys})
            for c in checks
            if c["status"] == "fail"
        ]
        assert out.splitlines() == [
            "field: q",
            "boundary_squared_zero: pass",
            "acyclic degrees: 214/241 pass",
            *(f"  fail at {b}: {w}" for b, w in failing),
            "minimal: pass",
            "ok: no",
        ]
        assert out.splitlines()[3] == (
            "  fail at x1*x2*x3*x4^3: "
            "{'reduced_homology': [0, 0, 0, 1], 'first_nonzero': 2}"
        )
        degrees = [parse_monomial(c["degree"], 4) for c in checks[1:-1]]
        assert degrees == sorted(degrees, key=canonical_key)

    def test_verify_report_loads_no_openssl(self, tmp_path):
        # a fresh process: the config hash comes from the builtin sha256
        src, report = tmp_path / "p33.json", tmp_path / "verify_P33.json"
        code = (
            "import sys\n"
            "from borelcell.cli import main\n"
            f"main(['complex', 'P', '--vars', '3', '--degree', '3', '--out', {str(src)!r}])\n"
            f"rc = main(['verify', '--in', {str(src)!r}, '--report', {str(report)!r}])\n"
            "print(rc, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert done.stdout.endswith("\n0 []\n")
        assert report.read_bytes() == (DATA / "verify_P33.json").read_bytes()


class TestReportEncoding:
    """--report and --out bytes are json.dumps(indent=2, sort_keys=True)
    of the document plus a newline."""

    @staticmethod
    def assert_json_layout(path):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_failing_verify_report(self, capsys, tmp_path):
        I = cli.BorelIdeal.from_borel_gens(3, [parse_monomial("bc", 3)])
        src, report = tmp_path / "bad.json", tmp_path / "report.json"
        export_json(drop_a_maximal_cell(borel_complex(I)), str(src))
        rc, _, _ = run(capsys, "verify", "--in", str(src), "--report", str(report))
        assert rc == 1
        doc = json.loads(report.read_text())
        assert [c["witness"] for c in doc["checks"] if "witness" in c]
        self.assert_json_layout(report)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--check", "labels", "--interval", "1..a*b^2*c*d^2"],
            ["--check", "labels", "--interval", "a*b..a*b"],
            ["--check", "ranked"],
        ],
    )
    def test_lattice_out(self, capsys, tmp_path, argv):
        out = tmp_path / "lattice.json"
        run(capsys, "lattice", *MIXED, *argv, "--out", str(out))
        self.assert_json_layout(out)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"b": [], "a": {}, "c": [{}, [[]]]},
            {"k\u00e9y": "v\u00e4l\"ue\n", "t": (1, -2), "u": [True, False, None]},
            [{"z": 1, "y": {"x": [0, "1"]}}, "s", 3],
            "top",
            7,
            None,
        ],
    )
    def test_encoder_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [[], {}, [[]], [1, [2, [3, []]]], {"b": [{"a": [0, ["x"]]}], "a": [], "c": 1}],
    )
    def test_any_iterable_is_a_list_read_once(self, value):
        def lazy(v):  # every list of value as a generator
            if isinstance(v, list):
                return (lazy(x) for x in v)
            if isinstance(v, dict):
                return {k: lazy(x) for k, x in v.items()}
            return v

        want = json.dumps(value, indent=2, sort_keys=True)
        assert cli._dumps(lazy(value)) == want
        for depth in (1, 2, 3):
            assert "".join(cli._chunks(lazy(value), depth=depth)) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--in", "{src}", "--report", "{out}"],
            ["lattice", *MIXED, "--check", "ranked", "--out", "{out}"],
        ],
        ids=["verify", "lattice"],
    )
    def test_reports_are_written_a_record_at_a_time(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        src, out = tmp_path / "p33.json", tmp_path / "report.json"
        run(capsys, "complex", "P", "--vars", "3", "--degree", "3", "--out", str(src))
        writes = record_writes(monkeypatch)
        run(capsys, *(a.format(src=src, out=out) for a in argv))
        text = out.read_text(encoding="utf-8")
        assert "".join(writes) == text
        # a record: an item of a top-level list or dict, or a top-level
        # scalar; 4 more spaces per line at depth 2, and 64 characters for
        # the key and the separators
        records = []
        for v in json.loads(text).values():
            if isinstance(v, (list, dict)):
                records += v.values() if isinstance(v, dict) else v
            else:
                records.append(v)
        dumped = [json.dumps(r, indent=2, sort_keys=True) for r in records]
        longest = max(len(d) + 4 * d.count("\n") for d in dumped) + 64
        assert len(text) > 2 * longest
        assert max(map(len, writes)) <= longest


def verify_inputs(tmp_path):
    """Complex files for verify: the three golden complexes, each of them
    without one of its maximal cells (every choice), P(4,4) and P(5,3)."""
    paths = []
    for name in GOLDEN_COMPLEXES:
        doc = json.loads((DATA / name).read_text())
        paths.append(DATA / name)
        cells = doc["cells"]
        facet_ids = {fid for rec in cells for fid, _ in rec["facets"]}
        for i, rec in enumerate(cells):
            if rec["id"] not in facet_ids:
                path = tmp_path / f"{name[:-5]}_drop{i}.json"
                path.write_text(json.dumps({**doc, "cells": cells[:i] + cells[i + 1:]}))
                paths.append(path)
    for n, d in [(4, 4), (5, 3)]:
        paths.append(tmp_path / f"P{n}{d}.json")
        export_json(power_complex(n, VarRange(1, n), d), str(paths[-1]))
    return paths


class TestReportWriter:
    """verify --report writes each passing check from one template; its bytes
    are json.dumps(indent=2, sort_keys=True) of the document built from the
    library report's boundary verdict, degrees and failures, and the exit
    code follows its ok."""

    @pytest.mark.parametrize("field", ["q", "p:2"])
    def test_against_json_dumps(self, capsys, tmp_path, field):
        outcomes = Counter()
        out = tmp_path / "report.json"
        for path in verify_inputs(tmp_path):
            argv = ["verify", "--in", str(path), "--field", field, "--report", str(out)]
            rc, _, _ = run(capsys, *argv)
            X = import_json(str(path))
            I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
            report = verify_resolution(X, I, Field.parse(field))
            minimal = check_minimal(X)
            config = {
                "command": "verify",
                "field": field,
                "ideal": {
                    "vars": I.n,
                    "degree": I.d,
                    "borel_generators": [g.canonical() for g in I.borel_gens],
                },
            }
            blob = json.dumps(config, sort_keys=True).encode()
            doc = {
                "tool": "borelcell",
                "version": __version__,
                "config": config,
                "config_hash": hashlib.sha256(blob).hexdigest(),
                "ok": report.ok and minimal,
                "checks": report_checks(report)
                + [{"name": "minimal", "status": "pass" if minimal else "fail"}],
            }
            expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert out.read_text(encoding="utf-8") == expected, path.name
            assert rc == (0 if doc["ok"] else 1)
            outcomes[rc] += 1
        # 3 golden complexes and P(4,4), P(5,3) pass; every mutant fails
        assert outcomes[0] == 5 and outcomes[1] > 20


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

    def test_jobs_must_be_at_least_one(self, capsys, tmp_path):
        path = TestVerify().write_q(tmp_path)
        rc, out, err = run(capsys, "verify", "--in", str(path), "--jobs", "0")
        assert (rc, out, err) == (2, "", "error: --jobs must be at least 1\n")

    def test_vars_must_be_at_least_one(self, capsys):
        rc, out, err = run(capsys, "gen", "--vars", "0", "--borel", "a")
        assert (rc, out, err) == (2, "", "error: --vars must be at least 1\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [(["verify"], "--in"), (["min", "a", "b"], "--vars")],
    )
    def test_required_flags_are_argparse_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestParserReuse:
    """main builds one parser per process; no call leaks into the next."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        # every build adds the subcommands exactly once
        built = []
        real = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            built.append(self.prog)
            return real(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli.build_parser.cache_clear()
        assert run(capsys, "gen", "--vars", "3", "--borel", "bc")[0] == 0
        assert run(capsys, "gen", "--vars", "3", "--borel", "ab")[0] == 0
        assert built == ["borelcell"]

    def test_calls_in_sequence_stay_independent(self, capsys, tmp_path, monkeypatch):
        parser = cli.build_parser()
        path = TestVerify().write_q(tmp_path)
        report = tmp_path / "r.json"
        assert run(capsys, "verify", "--in", str(path), "--report", str(report))[0] == 0
        report.unlink()
        assert run(capsys, "verify", "--in", str(path))[0] == 0
        assert not report.exists()

        monkeypatch.setenv("BORELCELL_FIELD", "p:7")
        assert "field: p:7\n" in run(capsys, "verify", "--in", str(path))[1]
        monkeypatch.setenv("BORELCELL_FIELD", "p:5")
        assert "field: p:5\n" in run(capsys, "verify", "--in", str(path))[1]
        monkeypatch.delenv("BORELCELL_FIELD")

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--in", str(path), "--jobs", "two"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        first = run(capsys, "betti", "--vars", "3", "--borel", "bc")
        assert first[0] == 0 and first[1].endswith("agree: yes\n")
        assert run(capsys, "betti", "--vars", "3", "--borel", "bc") == first
        assert cli.build_parser() is parser


class TestOneLatticePerCommand:
    def test_betti_all_and_verify_build_no_lattice(self, capsys, tmp_path, monkeypatch):
        # the cellular check and the Koszul oracle each decide their degrees
        # as a lattice walk of their own reaches them; only the lattice
        # command builds an LcmLattice
        built = []
        init = lattice.LcmLattice.__init__
        monkeypatch.setattr(
            lattice.LcmLattice,
            "__init__",
            lambda L, *args: built.append(args) or init(L, *args),
        )
        rc, out, _ = run(
            capsys, "betti", "--vars", "4", "--borel", "b*d^2", "--method", "all"
        )
        assert rc == 0 and out.endswith("agree: yes\n")
        path = TestVerify().write_q(tmp_path)
        assert run(capsys, "verify", "--in", str(path))[0] == 0
        assert not built
        rc, _, _ = run(
            capsys, "lattice", "--vars", "3", "--borel", "bc", "--check", "ranked"
        )
        assert rc == 0
        assert len(built) == 1


class TestModuleEntryPoint:
    def cli(self, *argv):
        env = {k: v for k, v in os.environ.items() if k != "BORELCELL_FIELD"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "borelcell.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_betti(self):
        done = self.cli("betti", "--vars", "3", "--borel", "bc")
        assert done.returncode == 0, done.stderr
        assert "agree: yes" in done.stdout

    def test_bad_field(self):
        done = self.cli("betti", "--vars", "3", "--borel", "bc", "--field", "p:10")
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
