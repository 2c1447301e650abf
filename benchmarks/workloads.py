"""The three workloads: plans built from a seed, and their output checks.

A plan is a list of steps the worker runs in order.  Each op step carries
the reference it must reproduce, computed here by `oracles` and never by
borelcell.  `mutate` steps are benchmark glue: they edit a complex file
the previous op wrote into a negative-control input.
"""
from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

import oracles as orc

README_MIXED = "ab,ac,ad^2,b^2*c*d^2"
# intervals with maximal chains of two lengths; each one is re-proved by the
# oracle when a plan is built, so "unranked" is a checked known answer
README_MIXED_WITNESS = ("1", "a*b^4*c")
README_LABEL_INTERVAL = "1..a*b^2*c*d^2"
KNOWN_DEFECT = "known defect: JSON import accepts bool for an int or a sign (ROADMAP item 4)"


@dataclass(frozen=True)
class Sizes:
    ladder: tuple[tuple[int, int], ...]  # power complexes P(n, d) to build and verify
    control: tuple[int, int]  # P(n, d) whose mutants are the negative controls
    pool: tuple[tuple[int, int], ...]  # (n, d) classes of the sweep pool
    draw: int  # ideals drawn from the pool per run
    gen_power: tuple[int, int]  # gen --vars n --borel xn^d
    chains_ideal: tuple[int, str, tuple[str, str]] | None  # vars, borel gens, witness
    degree_lattice: tuple[int, int]  # lattice --check ranked on P(n, d)
    power_out: tuple[int, int]  # complex P --out, then the JSON round trip
    q_both: tuple[int, str]  # complex Q --method both
    koszul: tuple[int, int]  # betti --method koszul / ek on P(n, d)


FULL = Sizes(
    ladder=((4, 4), (5, 3)),
    control=(4, 3),
    pool=((4, 3), (3, 5), (3, 6), (5, 2)),
    draw=100,
    gen_power=(8, 5),
    chains_ideal=(5, "x1*x5,x2^2*x4,x3^3,x2*x5^3", ("1", "x1*x2^2*x3")),
    degree_lattice=(5, 3),
    power_out=(6, 4),
    q_both=(6, "x2*x4*x6^2"),
    koszul=(5, 4),
)

TINY = Sizes(
    ladder=((3, 2), (3, 3)),
    control=(3, 2),
    pool=((3, 2), (2, 3)),
    draw=4,
    gen_power=(4, 2),
    chains_ideal=None,
    degree_lattice=(3, 2),
    power_out=(3, 3),
    q_both=(3, "x2*x3^2"),
    koszul=(3, 3),
)

class Plan:
    def __init__(self) -> None:
        self.steps: list[dict] = []

    def op(self, kind: str, cmd: str, expect: dict, **extra) -> dict:
        step = {"id": sum(1 for s in self.steps if "id" in s), "kind": kind,
                "cmd": cmd, "expect": expect}
        step.update(extra)
        self.steps.append(step)
        return step

    def cli(self, argv: list[str], expect: dict, **extra) -> dict:
        return self.op("cli", argv[0], expect, argv=argv, **extra)


def power_expect(n: int, d: int, out: str | None) -> dict:
    gens = orc.monomials(n, d)
    fv = list(orc.ek_totals(gens))
    exp = {"rc": 0, "fvector": fv}
    if out:
        exp["file"] = {"path": out, "fvector": fv, "vertices": sorted(gens)}
    return exp


def verify_expect(gens, field: str | None = None) -> dict:
    return {"rc": 0, "ok": "yes", "field": field or "q",
            "degrees": len(orc.lattice(gens)) - 1}


def _unranked_proof(n: int, gens, lo: str, hi: str) -> None:
    lengths = {len(c) - 1 for c in orc.interval_chains(
        orc.lattice(gens), orc.parse(lo, n), orc.parse(hi, n))}
    if len(lengths) < 2:
        raise RuntimeError(f"recorded witness [{lo}, {hi}] does not prove unranked")


def verify_ladder(seed: int, sizes: Sizes) -> Plan:
    rng = random.Random(seed)
    p = Plan()
    files = {}
    for n, d in sizes.ladder:
        files[(n, d)] = f"p{n}{d}.json"
        p.cli(["complex", "P", "--vars", str(n), "--degree", str(d), "--out", files[(n, d)]],
              power_expect(n, d, files[(n, d)]))
    (n1, d1), (n2, d2) = sizes.ladder
    g1, g2 = orc.monomials(n1, d1), orc.monomials(n2, d2)
    report = {"path": "r_j1.json", "ok": True}
    p.cli(["verify", "--in", files[(n1, d1)], "--field", "q", "--jobs", "1", "--report", "r_j1.json"],
          dict(verify_expect(g1), report=report), jobs=1)
    p.cli(["verify", "--in", files[(n1, d1)], "--field", "q", "--jobs", "2", "--report", "r_j2.json"],
          dict(verify_expect(g1), report={"path": "r_j2.json", "ok": True, "same_as": "r_j1.json"}),
          jobs=2)
    p.cli(["verify", "--in", files[(n1, d1)], "--field", "p:32003"], verify_expect(g1, "p:32003"))
    p.cli(["verify", "--in", files[(n2, d2)], "--field", "q", "--report", "r_big.json"],
          dict(verify_expect(g2), report={"path": "r_big.json", "ok": True}))

    n, d = sizes.control
    p.cli(["complex", "P", "--vars", str(n), "--degree", str(d), "--out", "control.json"],
          power_expect(n, d, "control.json"))
    controls = [
        ("drop_maximal_cell", {"rc": 1, "ok": "no", "fail_named": True}, None),
        ("flip_facet_sign", {"rc": 2}, None),
        ("vertex_dim_false", {"rc": 2}, KNOWN_DEFECT),
        ("facet_sign_true", {"rc": 2}, KNOWN_DEFECT),
    ]
    for mutation, expect, defect in controls:
        out = f"m_{mutation}.json"
        p.steps.append({"kind": "mutate", "base": "control.json", "mutation": mutation,
                        "pick": rng.randrange(1 << 30), "out": out})
        p.cli(["verify", "--in", out], expect, known_defect=defect, control=mutation)
    return p


def sweep_pool(sizes: Sizes) -> list[tuple[int, tuple]]:
    """Every Borel fixed ideal of the pool classes, cheapest-looking first.

    The sort key is a cost proxy the oracle knows without running borelcell:
    lcm-lattice size (degrees to verify) times cell count (Eliahou-Kervaire
    total), so consecutive ideals cost about the same.
    """
    pool = []
    for n, d in sizes.pool:
        for ideal in orc.borel_ideals(n, d):
            cost = (len(orc.lattice(ideal)) * sum(orc.ek_totals(ideal)), n, d, sorted(ideal))
            pool.append((cost, n, ideal))
    pool.sort(key=lambda t: t[0])
    return [(n, ideal) for _, n, ideal in pool]


def sweep(seed: int, sizes: Sizes) -> Plan:
    """One ideal from each of `draw` consecutive blocks of the cost-sorted pool.

    Stratifying by the cost proxy keeps the work per run nearly the same for
    every seed while the seed still chooses the ideals and their order.
    """
    rng = random.Random(seed)
    pool = sweep_pool(sizes)
    k = sizes.draw
    bounds = [len(pool) * i // k for i in range(k + 1)]
    chosen = [pool[rng.randrange(bounds[i], bounds[i + 1])] for i in range(k)]
    rng.shuffle(chosen)
    p = Plan()
    for idx, (n, ideal) in enumerate(chosen):
        gens = sorted(ideal)
        borel = ",".join(orc.fmt(m) for m in orc.borel_gens(ideal))
        fv = list(orc.ek_totals(gens))
        out = f"q{idx}.json"
        p.cli(["complex", "Q", "--vars", str(n), "--borel", borel, "--method", "both", "--out", out],
              {"rc": 0, "fvector": fv, "agree": True,
               "file": {"path": out, "fvector": fv, "vertices": gens}}, ideal=idx)
        p.cli(["verify", "--in", out], verify_expect(gens), ideal=idx)
        p.cli(["betti", "--vars", str(n), "--borel", borel, "--method", "all"],
              {"rc": 0, "betti_rows": fv, "agree": True}, ideal=idx)
    return p


def build_oracles(seed: int, sizes: Sizes) -> Plan:
    """Fixed ops; the seed has nothing to choose here and is only recorded."""
    p = Plan()
    n, d = sizes.gen_power
    p.cli(["gen", "--vars", str(n), "--borel", f"x{n}^{d}"],
          {"rc": 0, "gens": sorted(orc.monomials(n, d))})
    mixed = orc.generators([orc.parse(t, 4) for t in README_MIXED.split(",")])
    p.cli(["gen", "--vars", "4", "--borel", README_MIXED], {"rc": 0, "gens": sorted(mixed)})

    lattices = [(4, README_MIXED, README_MIXED_WITNESS)]
    if sizes.chains_ideal is not None:
        lattices.append(sizes.chains_ideal)
    for n, borel, (lo, hi) in lattices:
        gens = orc.generators([orc.parse(t, n) for t in borel.split(",")])
        _unranked_proof(n, gens, lo, hi)
        p.cli(["lattice", "--vars", str(n), "--borel", borel, "--check", "ranked"],
              {"rc": 1, "atoms": len(gens), "elements": len(orc.lattice(gens)),
               "ranked": "no", "criterion": "chains", "witness_of": [n, sorted(gens)]})
    n, d = sizes.degree_lattice
    gens = orc.monomials(n, d)
    # equigenerated: the degree criterion applies and the lattice is ranked
    p.cli(["lattice", "--vars", str(n), "--borel", f"x{n}^{d}", "--check", "ranked"],
          {"rc": 0, "atoms": len(gens), "elements": len(orc.lattice(gens)),
           "ranked": "yes", "criterion": "degree"})
    lo, _, hi = README_LABEL_INTERVAL.partition("..")
    chains = orc.interval_chains(orc.lattice(mixed), orc.parse(lo, 4), orc.parse(hi, 4))
    labels = [orc.chain_labels(c) for c in chains]
    p.cli(["lattice", "--vars", "4", "--borel", README_MIXED, "--check", "labels",
           "--interval", README_LABEL_INTERVAL],
          {"rc": 0, "chains": len(chains),
           "increasing": sum(all(a < b for a, b in zip(ls, ls[1:])) for ls in labels),
           "decreasing": sum(all(a > b for a, b in zip(ls, ls[1:])) for ls in labels)})

    n, d = sizes.power_out
    p.cli(["complex", "P", "--vars", str(n), "--degree", str(d), "--out", "power.json"],
          power_expect(n, d, "power.json"))
    n, borel = sizes.q_both
    gens = sorted(orc.closure([orc.parse(borel, n)]))
    p.cli(["complex", "Q", "--vars", str(n), "--borel", borel, "--method", "both"],
          {"rc": 0, "fvector": list(orc.ek_totals(gens)), "agree": True})
    p.op("roundtrip", "roundtrip", {"same_as": "power.json"}, src="power.json", dst="power_rt.json")
    n, d = sizes.koszul
    ek = list(orc.ek_totals(orc.monomials(n, d)))
    for method in ("koszul", "ek"):
        p.cli(["betti", "--vars", str(n), "--borel", f"x{n}^{d}", "--method", method],
              {"rc": 0, "betti_row": [method, ek]})
    return p


BUILDERS = {"verify-ladder": verify_ladder, "sweep": sweep, "build-oracles": build_oracles}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, sizes: Sizes = FULL) -> Plan:
    return BUILDERS[name](seed, sizes)


# ---------------------------------------------------------------- mutations


def mutate(base: str, mutation: str, pick: int, out: str) -> None:
    """Write a one-edit mutant of a complex file (worker side, stdlib only)."""
    with open(base, encoding="utf-8") as fh:
        doc = json.load(fh)
    cells = doc["cells"]
    facet_ids = {f for c in cells for f, _ in c["facets"]}
    if mutation == "drop_maximal_cell":
        cand = [i for i, c in enumerate(cells) if c["id"] not in facet_ids]
        del cells[cand[pick % len(cand)]]
    elif mutation == "vertex_dim_false":
        cand = [c for c in cells if c["dim"] == 0]
        cand[pick % len(cand)]["dim"] = False
    else:
        want = (1,) if mutation == "facet_sign_true" else (1, -1)
        cand = [(c, j) for c in cells for j, (_, s) in enumerate(c["facets"]) if s in want]
        cell, j = cand[pick % len(cand)]
        sign = cell["facets"][j][1]
        cell["facets"][j][1] = True if mutation == "facet_sign_true" else -sign
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ------------------------------------------------------------------- checks


def _tuple(text: str) -> list[int]:
    return [int(t) for t in text.replace(" ", "").strip("()").split(",") if t]


def _field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    return None


def _file_problems(spec: dict, workdir: str) -> list[str]:
    path = os.path.join(workdir, spec["path"])
    if not os.path.isfile(path):
        return [f"{spec['path']} not written"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["vars"]
    counts = [0] * len(spec["fvector"])
    for c in doc["cells"]:
        if 0 <= c["dim"] < len(counts):
            counts[c["dim"]] += 1
    out = []
    if counts != spec["fvector"] or len(doc["cells"]) != sum(spec["fvector"]):
        out.append(f"{spec['path']} cell counts {counts}")
    vertices = sorted(orc.parse(v["label"], n) for v in doc["vertices"])
    if vertices != [tuple(v) for v in spec["vertices"]]:
        out.append(f"{spec['path']} vertex labels differ from the generators")
    return out


def _same_bytes(workdir: str, a: str, b: str) -> bool:
    pa, pb = os.path.join(workdir, a), os.path.join(workdir, b)
    if not (os.path.isfile(pa) and os.path.isfile(pb)):
        return False
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        return fa.read() == fb.read()


def _witness_problems(stdout: str, n: int, gens) -> list[str]:
    hit = re.search(r"witness interval: \[(.*), (.*)\] chain lengths", stdout)
    if not hit:
        return ["no witness interval printed"]
    elements = orc.lattice([tuple(g) for g in gens])
    lengths = {len(c) - 1 for c in orc.interval_chains(
        elements, orc.parse(hit.group(1), n), orc.parse(hit.group(2), n))}
    return [] if len(lengths) > 1 else [f"printed witness has one chain length {lengths}"]


def check(step: dict, rec: dict, workdir: str) -> list[str]:
    """Problems with one op's result; empty when it matches its reference."""
    exp = step["expect"]
    if rec.get("error"):
        return [f"raised: {rec['error'].strip().splitlines()[-1]}"]
    out = rec.get("stdout", "")
    probs = []
    if "rc" in exp and rec["rc"] != exp["rc"]:
        probs.append(f"exit {rec['rc']}, expected {exp['rc']}")
    if "fvector" in exp:
        hit = re.search(r"f-vector (\([0-9, ]*\))", out)
        if not hit or _tuple(hit.group(1)) != exp["fvector"]:
            probs.append(f"f-vector {hit and hit.group(1)}, expected {exp['fvector']}")
    if exp.get("agree") and not ("recursive = extract: yes" in out or "agree: yes" in out):
        probs.append("routes disagree")
    if "file" in exp:
        probs += _file_problems(exp["file"], workdir)
    for key in ("ok", "field"):
        if key in exp and _field(out, key) != exp[key]:
            probs.append(f"{key}: {_field(out, key)}, expected {exp[key]}")
    if "degrees" in exp:
        want = f"{exp['degrees']}/{exp['degrees']} pass"
        if _field(out, "acyclic degrees") != want:
            probs.append(f"acyclic degrees: {_field(out, 'acyclic degrees')}, expected {want}")
    if exp.get("fail_named") and not re.search(r"^  fail at \S", out, re.M):
        probs.append("no failing degree named")
    if "report" in exp:
        spec = exp["report"]
        path = os.path.join(workdir, spec["path"])
        if not os.path.isfile(path):
            return probs + [f"{spec['path']} not written"]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        acyclic = sum(1 for c in doc["checks"] if c["name"] == "acyclic")
        if doc["ok"] is not spec["ok"] or acyclic != exp["degrees"]:
            probs.append(f"report ok={doc['ok']} with {acyclic} acyclic checks")
        if "same_as" in spec and not _same_bytes(workdir, spec["same_as"], spec["path"]):
            probs.append(f"{spec['path']} differs from {spec['same_as']}")
    if "betti_rows" in exp:
        rows = [line.split() for line in out.splitlines()[1:] if line[:1].isdigit()]
        cols = list(zip(*[[int(v) for v in r[1:]] for r in rows])) if rows else []
        if len(cols) != 3 or any(list(c) != exp["betti_rows"] for c in cols):
            probs.append(f"betti table {cols}, expected {exp['betti_rows']} thrice")
    if "betti_row" in exp:
        method, values = exp["betti_row"]
        got = _field(out, method)
        if got is None or _tuple(got) != values:
            probs.append(f"{method}: {got}, expected {values}")
    if "gens" in exp:
        n = int(step["argv"][step["argv"].index("--vars") + 1])
        got = sorted(orc.parse(line, n) for line in out.splitlines() if line.strip())
        if got != [tuple(g) for g in exp["gens"]]:
            probs.append(f"{len(got)} generators, expected {len(exp['gens'])}")
    for key in ("atoms", "elements"):
        if key in exp and _field(out, key) != str(exp[key]):
            probs.append(f"{key}: {_field(out, key)}, expected {exp[key]}")
    if "ranked" in exp:
        want = f"{exp['ranked']} (criterion: {exp['criterion']})"
        if _field(out, "ranked") != want:
            probs.append(f"ranked: {_field(out, 'ranked')}, expected {want}")
    if "witness_of" in exp:
        probs += _witness_problems(out, *exp["witness_of"])
    if "chains" in exp:
        hit = re.search(r"\]: (\d+) maximal chains", out)
        got = (int(hit.group(1)) if hit else None,
               _field(out, "increasing bottom-up"), _field(out, "decreasing from top"),
               _field(out, "decreasing bottom-up"))
        want = (exp["chains"], str(exp["increasing"]), str(exp["increasing"]), str(exp["decreasing"]))
        if got != want:
            probs.append(f"chains/increasing/from-top/decreasing {got}, expected {want}")
    if "same_as" in exp and not _same_bytes(workdir, exp["same_as"], step["dst"]):
        probs.append(f"{step['dst']} differs from {exp['same_as']}")
    return probs
