"""Tiny-size self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload, untraced and traced, at the smallest sizes, checks the
reference oracles against independently known counts, and checks that the
output checks reject wrong answers.  Takes a few seconds; exit 0 on success.
"""
from __future__ import annotations

import json
import shutil
import sys

import oracles as orc
import run
import workloads

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def oracle_checks() -> None:
    # Borel fixed ideals per (n, d), counted as antichains of the exchange order
    for (n, d), count in {(4, 3): 65, (3, 5): 63, (3, 6): 127, (5, 2): 31,
                          (4, 4): 351, (5, 3): 351}.items():
        expect(len(orc.borel_ideals(n, d)) == count, f"{count} Borel fixed ideals for (n,d)=({n},{d})")
    expect(orc.ek_totals(orc.closure([(0, 1, 1)])) == (5, 6, 2), "README betti bc: 5 6 2")
    expect(len(orc.lattice(orc.monomials(4, 4))) == 591, "P(4,4) lattice has 591 elements")
    mixed = orc.generators([orc.parse(t, 4) for t in workloads.README_MIXED.split(",")])
    expect(len(mixed) == 13 and len(orc.lattice(mixed)) == 130, "README mixed: 13 atoms, 130 elements")
    expect(orc.borel_gens(orc.closure([(1, 0, 2), (0, 2, 1)])) == ((0, 2, 1), (1, 0, 2)),
           "Borel generators are the exchange-maximal elements")
    expect(orc.parse("a*b^2", 4) == orc.parse("x1*x2^2", 4) == (1, 2, 0, 0), "both spellings parse")


def check_rejects() -> None:
    sizes = workloads.TINY
    steps = workloads.build("sweep", 0, sizes).steps
    complex_op = next(s for s in steps if s.get("cmd") == "complex")
    fv = complex_op["expect"]["fvector"]
    wrong = {"rc": 0, "stdout": f"Q: dimension 1, f-vector ({fv[0] + 1}, 1)\nrecursive = extract: yes\n"}
    expect(bool(workloads.check(complex_op, wrong, ".")), "a wrong f-vector is rejected")
    verify_op = next(s for s in steps if s.get("cmd") == "verify")
    k = verify_op["expect"]["degrees"] + 1
    lying = {"rc": 0, "stdout": f"field: q\nacyclic degrees: {k}/{k} pass\nok: yes\n"}
    expect(bool(workloads.check(verify_op, lying, ".")), "a wrong degree count is rejected")
    expect(workloads.build("sweep", 1, sizes).steps == workloads.build("sweep", 1, sizes).steps,
           "one seed, one plan")
    expect(any(workloads.build("sweep", s, sizes).steps != steps for s in range(1, 6)),
           "the seed changes the sweep draw")


def contract_checks() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.E2E_CONTRACT, "BENCHMARK.json end_to_end matches the trace-0 line")
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer matches the trace-1 line")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names the three workloads")


def workload_checks() -> None:
    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(name, 0, 0.0, trace, sizes=workloads.TINY, out_dir=out)
            tag = f"{name} trace={int(trace)}"
            expect(res["correct"], f"{tag}: every output matches its reference")
            known = {k["control"] for k in res["known_defects"]}
            if name == "verify-ladder":
                expect(known == {"vertex_dim_false", "facet_sign_true"},
                       f"{tag}: the two known-defect controls fail, the other controls pass")
            expect(res["failed"] == len(known) * res["repetitions"], f"{tag}: failed counts only them")
            line = run.contract_line(res)
            want = run.PER_LAYER if trace else run.E2E_CONTRACT
            expect(set(line["metrics"]) == set(want), f"{tag}: every contract metric reported")
            if trace:
                expect(not res["absent_layers"], f"{tag}: every wrapped name exists")
                cli_ops = sum(1 for s in workloads.build(name, 0, workloads.TINY).steps
                              if s["kind"] == "cli")
                expect(res["per_layer"]["cli.calls"] == cli_ops, f"{tag}: one cli span per command")
    shutil.rmtree(out)


def main() -> int:
    oracle_checks()
    check_rejects()
    contract_checks()
    workload_checks()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
