"""Cross-check of the ROADMAP baseline table (one repetition, checked outputs).

    python3 benchmarks/baseline.py

Times `verify` on P(4,4) and P(5,3) over q and p:32003 and the Koszul
oracle on both, each in the same fresh worker process the benchmark uses,
and prints them beside the table's figures.  The table was measured on 2
CPUs with Python 3.11.7; compare only with a run on a like machine.
"""
from __future__ import annotations

import json
import shutil
import sys

import oracles as orc
import run
import workloads

# (op label, ROADMAP seconds) in plan order
TABLE = [
    ("verify P(4,4) q", 3.05), ("verify P(4,4) p:32003", 2.49),
    ("verify P(5,3) q", 12.0), ("verify P(5,3) p:32003", 7.98),
    ("koszul P(4,4)", 0.33), ("koszul P(5,3)", 0.70),
]


def plan() -> workloads.Plan:
    p = workloads.Plan()
    for n, d in ((4, 4), (5, 3)):
        gens = orc.monomials(n, d)
        path = f"p{n}{d}.json"
        p.cli(["complex", "P", "--vars", str(n), "--degree", str(d), "--out", path],
              workloads.power_expect(n, d, path))
        for field in ("q", "p:32003"):
            p.cli(["verify", "--in", path, "--field", field],
                  workloads.verify_expect(gens, field), label=f"verify P({n},{d}) {field}")
    for n, d in ((4, 4), (5, 3)):
        ek = list(orc.ek_totals(orc.monomials(n, d)))
        p.cli(["betti", "--vars", str(n), "--borel", f"x{n}^{d}", "--method", "koszul"],
              {"rc": 0, "betti_row": ["koszul", ek]}, label=f"koszul P({n},{d})")
    return p


def main() -> int:
    steps = plan().steps
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "work" / "baseline"
    result = run.run_rep(steps, False, workdir, run.RUN_LIMIT_S)
    ops = {s["id"]: s for s in steps}
    times, bad = {}, 0
    for rec in result["ops"]:
        problems = workloads.check(ops[rec["id"]], rec, str(workdir))
        bad += bool(problems)
        if "label" in ops[rec["id"]]:
            times[ops[rec["id"]]["label"]] = rec["s"]
    shutil.rmtree(workdir)
    env = run.environment(0)
    print(f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha']}")
    print(f"{'op':<24}{'ROADMAP s':>10}{'here s':>10}{'here/ROADMAP':>14}")
    for label, ref in TABLE:
        print(f"{label:<24}{ref:>10.2f}{times[label]:>10.2f}{times[label] / ref:>14.2f}")
    print(json.dumps({"correct": bad == 0, "seconds": times, "environment": env}))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
