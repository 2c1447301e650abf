"""Command-line surface.

Commands:

    gen      expand Borel-sense generators to the minimal generating set
    min      intersection of principal Borel pieces (suffix minimum)
    complex  build a resolving complex: P (power ideal) or Q (Borel ideal)
    verify   check a complex file supports a minimal free resolution
    betti    total Betti numbers by one or all of three independent methods
    lattice  lcm-lattice checks: rankedness or natural chain labels

Exit codes: 0 all checks pass, 1 a verification-type check fails, 2 input
error.  Human summaries go to standard output; machine artifacts go to
--out / --report as UTF-8 JSON.  Report files embed the tool version and a
hash of the semantic configuration (never file paths or the job count), so
identical tasks yield byte-identical artifacts, for any --jobs value.

Letters a..d are accepted for x1..x4 on input; JSON always uses the x<i>
spelling.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields

from . import __version__
from .borel import (
    BorelIdeal,
    borel_generators,
    eliahou_kervaire_betti,
    intersect_borel,
    min_monomial,
    parse_ideal_spec,
)
from .builders import borel_complex, induced_complex, power_complex
from .exact import Field
from .koszul import betti_via_koszul
from .lattice import build_lattice, is_ranked, natural_label_check
from .monomials import VarRange, canonical_key, parse_monomial
from .resolution import (
    CheckResult,
    betti_from_cells,
    betti_totals,
    check_minimal,
    verify_resolution,
)
from .serialize import export_json, import_json

__all__ = ["RunConfig", "run_command", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; paths and job count never enter report content."""

    command: str
    field: Field
    jobs: int = 1
    vars: int | None = None
    degree: int | None = None
    kind: str | None = None  # complex: "P" | "Q"
    method: str | None = None
    check: str | None = None
    interval: str | None = None
    borel: str | None = None
    mono: str | None = None
    ideal: str | None = None
    monomials: tuple[str, ...] = ()
    in_path: str | None = None
    out: str | None = None
    report: str | None = None

    def __post_init__(self) -> None:
        if self.vars is not None and self.vars < 1:
            raise ValueError("--vars must be at least 1")
        if self.jobs < 1:
            raise ValueError("--jobs must be at least 1")

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        # each subcommand sets the flags it has; the rest keep their defaults
        args = {f.name: getattr(ns, f.name) for f in fields(cls) if hasattr(ns, f.name)}
        field_text = args.get("field") or os.environ.get("BORELCELL_FIELD", "q")
        args["field"] = Field.parse(field_text)
        args["monomials"] = tuple(args.get("monomials") or ())
        return cls(**args)


def _ideal_triple(cfg: RunConfig):
    """Resolve the ideal flags to (vars, kind, generator monomials)."""
    if cfg.ideal is not None:
        return parse_ideal_spec(cfg.ideal, cfg.vars)
    if cfg.borel is None and cfg.mono is None:
        raise ValueError("need --borel, --mono, or --ideal")
    if cfg.vars is None:
        raise ValueError("--vars is required alongside --borel / --mono")
    kind = "borel" if cfg.borel is not None else "mono"
    text = cfg.borel if cfg.borel is not None else cfg.mono
    gens = tuple(parse_monomial(p, cfg.vars) for p in text.split(",") if p.strip())
    if not gens:
        raise ValueError("empty generator list")
    return cfg.vars, kind, gens


def _equal_degree_ideal(n: int, kind: str, gens) -> BorelIdeal:
    if kind == "borel":
        return BorelIdeal.from_borel_gens(n, gens)
    return BorelIdeal.from_expanded(n, frozenset(gens))


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_report(path: str, config: dict, body: dict) -> None:
    doc = {
        "tool": "borelcell",
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
    }
    doc.update(body)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_gen(cfg: RunConfig) -> int:
    n, kind, gens = _ideal_triple(cfg)
    if kind == "mono":
        mini = _equal_degree_ideal(n, "mono", gens)
        out = sorted(mini.expanded, key=canonical_key)
    else:
        out = borel_generators(n, gens)
    for m in out:
        print(m)
    return 0


def _run_min(cfg: RunConfig) -> int:
    if cfg.vars is None:
        raise ValueError("--vars is required")
    ms = [parse_monomial(t, cfg.vars) for t in cfg.monomials]
    if len(ms) < 2:
        raise ValueError("min needs at least two monomials")
    if len(ms) == 2:
        print(min_monomial(ms[0], ms[1]))
        return 0
    J = BorelIdeal.from_borel_gens(cfg.vars, ms[1:])
    for g in intersect_borel(ms[0], J).borel_gens:
        print(g)
    return 0


def _run_complex(cfg: RunConfig) -> int:
    agree = None
    if cfg.kind == "P":
        if cfg.vars is None or cfg.degree is None:
            raise ValueError("complex P needs --vars and --degree")
        X = power_complex(cfg.vars, VarRange(1, cfg.vars), cfg.degree)
        name = f"P(vars={cfg.vars}, degree={cfg.degree})"
    else:
        n, kind, gens = _ideal_triple(cfg)
        I = _equal_degree_ideal(n, kind, gens)
        method = cfg.method or "recursive"
        if method == "recursive":
            X = borel_complex(I)
        elif method == "extract":
            X = induced_complex(I)
        else:
            X = borel_complex(I)
            agree = X == induced_complex(I)
        name = f"Q({I})"
    print(f"{name}: dimension {X.dim}, f-vector {X.f_vector()}")
    if agree is not None:
        print(f"recursive = extract: {'yes' if agree else 'no'}")
    if cfg.out:
        export_json(X, cfg.out)
        print(f"wrote {cfg.out}")
    return 0 if agree in (None, True) else 1


def _ideal_config(I: BorelIdeal) -> dict:
    return {
        "vars": I.n,
        "degree": I.d,
        "borel_generators": [g.canonical() for g in I.borel_gens],
    }


def _run_verify(cfg: RunConfig) -> int:
    if cfg.in_path is None:
        raise ValueError("verify needs --in")
    X = import_json(cfg.in_path)
    if cfg.ideal is not None or cfg.borel is not None or cfg.mono is not None:
        n, kind, gens = _ideal_triple(cfg)
        I = _equal_degree_ideal(n, kind, gens)
    else:
        I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
    report = verify_resolution(X, I, cfg.field, jobs=cfg.jobs)
    minimal = check_minimal(X)
    ok = report.ok and minimal

    acyc = [c for c in report.checks if c.name == "acyclic"]
    npass = sum(1 for c in acyc if c.status == "pass")
    print(f"field: {cfg.field}")
    print(f"boundary_squared_zero: {report.checks[0].status}")
    print(f"acyclic degrees: {npass}/{len(acyc)} pass")
    for c in acyc:
        if c.status == "fail":
            print(f"  fail at {c.degree}: {c.witness}")
    print(f"minimal: {'pass' if minimal else 'fail'}")
    print(f"ok: {'yes' if ok else 'no'}")

    if cfg.report:
        config = {
            "command": "verify",
            "field": str(cfg.field),
            "ideal": _ideal_config(I),
        }
        checks = [c.as_dict() for c in report.checks]
        checks.append(
            CheckResult("minimal", "pass" if minimal else "fail").as_dict()
        )
        _write_report(cfg.report, config, {"ok": ok, "checks": checks})
    return 0 if ok else 1


def _trim_zeros(t) -> tuple[int, ...]:
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _run_betti(cfg: RunConfig) -> int:
    n, kind, gens = _ideal_triple(cfg)
    I = _equal_degree_ideal(n, kind, gens)
    method = cfg.method or "all"
    wanted = ["cellular", "koszul", "ek"] if method == "all" else [method]
    vals: dict[str, tuple[int, ...]] = {}
    if "cellular" in wanted:
        X = borel_complex(I)
        report = verify_resolution(X, I, cfg.field)
        if not report.ok:
            print("cellular method: complex failed resolution verification")
            return 1
        if not check_minimal(X):
            print("cellular method: complex is not minimal")
            return 1
        vals["cellular"] = betti_totals(betti_from_cells(X, report))
    if "koszul" in wanted:
        vals["koszul"] = betti_totals(betti_via_koszul(I.expanded, None, cfg.field))
    if "ek" in wanted:
        vals["ek"] = eliahou_kervaire_betti(I)

    if len(wanted) == 1:
        print(f"{wanted[0]}: {vals[wanted[0]]}")
        return 0
    top = max(len(_trim_zeros(v)) for v in vals.values())
    rows = {k: _trim_zeros(v) + (0,) * (top - len(_trim_zeros(v))) for k, v in vals.items()}
    print("i  " + "  ".join(f"{k:>8}" for k in wanted))
    for i in range(top):
        print(f"{i}  " + "  ".join(f"{rows[k][i]:>8}" for k in wanted))
    agree = len({rows[k] for k in wanted}) == 1
    print(f"agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


def _run_lattice(cfg: RunConfig) -> int:
    n, kind, gens = _ideal_triple(cfg)
    # as in gen, Borel generators may mix degrees; an explicit set may not
    if kind == "borel":
        L = build_lattice(borel_generators(n, gens))
    else:
        L = build_lattice(_equal_degree_ideal(n, kind, gens))
    print(f"atoms: {len(L.atoms)}")
    print(f"elements: {len(L)}")
    config = {
        "command": "lattice",
        "check": cfg.check,
        "vars": n,
        "atoms": [a.canonical() for a in L.atoms],
        "interval": None,
    }

    if cfg.check == "ranked":
        if cfg.interval is not None:
            raise ValueError("--interval only applies to --check labels")
        rep = is_ranked(L)
        print(f"ranked: {'yes' if rep else 'no'} (criterion: {rep.criterion})")
        result: dict = {"ranked": rep.ranked, "criterion": rep.criterion}
        if rep.witness_cover is not None:
            m, c = rep.witness_cover
            print(
                f"witness cover: {m} -> {c} (degree {m.degree} -> {c.degree})"
            )
            result["witness_cover"] = [m.canonical(), c.canonical()]
        if rep.witness_interval is not None:
            lo, hi, lens = rep.witness_interval
            print(f"witness interval: [{lo}, {hi}] chain lengths {lens}")
            result["witness_interval"] = {
                "lo": lo.canonical(),
                "hi": hi.canonical(),
                "lengths": list(lens),
            }
        rc = 0 if rep.ranked else 1
    else:
        if cfg.interval is None:
            raise ValueError("--check labels needs --interval lo..hi")
        lo_text, sep, hi_text = cfg.interval.partition("..")
        if not sep:
            raise ValueError("--interval must look like lo..hi")
        lo = parse_monomial(lo_text, n)
        hi = parse_monomial(hi_text, n)
        config["interval"] = [lo.canonical(), hi.canonical()]
        rep = natural_label_check(L, lo, hi)
        print(f"interval [{lo}, {hi}]: {len(rep.chains)} maximal chains")
        print(f"increasing bottom-up: {len(rep.increasing)}")
        # reversing a walk reverses its labels: read from the top, the
        # increasing chains are exactly the decreasing ones
        print(f"decreasing from top: {len(rep.increasing)}")
        print(f"decreasing bottom-up: {len(rep.decreasing)}")
        result = {
            "interval": [lo.canonical(), hi.canonical()],
            "chains": [[m.canonical() for m in ch] for ch in rep.chains],
            "labels": [list(ls) for ls in rep.labels],
            "increasing": list(rep.increasing),
            "decreasing": list(rep.decreasing),
            "decreasing_from_top": list(rep.increasing),
        }
        rc = 0
    if cfg.out:
        text = {e: e.canonical() for e in L.sorted_elements}
        body = {
            "vars": n,
            "atoms": config["atoms"],
            "elements": list(text.values()),
            "covers": {text[e]: [text[c] for c in L.covers[e]] for e in text},
            "result": result,
        }
        _write_report(cfg.out, config, body)
        print(f"wrote {cfg.out}")
    return rc


_HANDLERS = {
    "gen": _run_gen,
    "min": _run_min,
    "complex": _run_complex,
    "verify": _run_verify,
    "betti": _run_betti,
    "lattice": _run_lattice,
}


def run_command(cfg: RunConfig) -> int:
    return _HANDLERS[cfg.command](cfg)


def _add_ideal_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vars", type=int, help="number of ambient variables")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--borel", help="comma-separated generators in the Borel sense")
    g.add_argument(
        "--mono", help="comma-separated explicit generating set (closure-checked)"
    )
    g.add_argument(
        "--ideal", help="ideal spec string, e.g. 'vars: 3; borel: bc'"
    )


def _add_field_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--field",
        help="coefficient field, q or p:<prime> (default: $BORELCELL_FIELD or q)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelcell",
        description="Cell complexes resolving Borel fixed ideals, exactly verified.",
    )
    parser.add_argument(
        "--version", action="version", version=f"borelcell {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="minimal generating set of a Borel fixed ideal")
    _add_ideal_flags(p)

    p = sub.add_parser(
        "min",
        help="intersection of principal Borel pieces; two monomials give the "
        "suffix-minimum generator, more give the Borel generators of "
        "<first> meet <rest>",
    )
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("monomials", nargs="+", metavar="MONOMIAL")

    p = sub.add_parser("complex", help="build a resolving cell complex")
    p.add_argument("kind", choices=["P", "Q"])
    p.add_argument("--degree", type=int, help="power d (kind P)")
    p.add_argument(
        "--method",
        choices=["recursive", "extract", "both"],
        help="kind Q: recursive gluing, extraction from the power complex, "
        "or both compared (default recursive)",
    )
    p.add_argument("--out", help="write the complex as JSON")
    _add_ideal_flags(p)

    p = sub.add_parser("verify", help="verify a complex file resolves its ideal")
    p.add_argument("--in", dest="in_path", required=True, help="complex JSON file")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; degrees are checked serially",
    )
    _add_field_flag(p)
    _add_ideal_flags(p)

    p = sub.add_parser("betti", help="total Betti numbers of a Borel fixed ideal")
    p.add_argument(
        "--method",
        choices=["cellular", "koszul", "ek", "all"],
        help="default all (three-way comparison)",
    )
    _add_field_flag(p)
    _add_ideal_flags(p)

    p = sub.add_parser("lattice", help="lcm-lattice checks")
    p.add_argument("--check", choices=["ranked", "labels"], required=True)
    p.add_argument("--interval", help="lo..hi for --check labels")
    p.add_argument("--out", help="write lattice data as JSON")
    _add_ideal_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(ns)
        return run_command(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
