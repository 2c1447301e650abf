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
--out / --report as UTF-8 JSON, written a record at a time.  Reports embed
the tool version and a hash of the semantic configuration (never file paths
or the job count), so identical tasks yield byte-identical artifacts.

Letters a..d are accepted for x1..x4 on input; JSON always uses the x<i>
spelling.

The argument parser is built once per process, on the first call of main,
and reused by later calls; the environment ($BORELCELL_FIELD, the default
field of verify and betti) is still read on every call of those two.
A report's config hash is the interpreter's builtin sha256, so no command
loads hashlib or OpenSSL; hashlib is the fallback for a build without it.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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
from .monomials import VarRange, _exps_key, _exps_text, canonical_key, parse_monomial
from .resolution import betti_from_cells, betti_totals, check_minimal, verify_resolution
from .serialize import _array, _string, _write, export_json, import_json

__all__ = ["main"]


def _ideal_triple(ns: argparse.Namespace):
    """Resolve the ideal flags to (vars, kind, generator monomials)."""
    if ns.ideal is not None:
        n, kind, gens = parse_ideal_spec(ns.ideal, ns.vars)
        if ns.vars is not None and n != ns.vars:
            raise ValueError(f"--vars {ns.vars} does not match the spec's vars: {n}")
        return n, kind, gens
    if ns.borel is None and ns.mono is None:
        raise ValueError("need --borel, --mono, or --ideal")
    if ns.vars is None:
        raise ValueError("--vars is required alongside --borel / --mono")
    kind = "borel" if ns.borel is not None else "mono"
    text = ns.borel if ns.borel is not None else ns.mono
    gens = tuple(parse_monomial(p, ns.vars) for p in text.split(",") if p.strip())
    if not gens:
        raise ValueError("empty generator list")
    return ns.vars, kind, gens


def _equal_degree_ideal(n: int, kind: str, gens) -> BorelIdeal:
    if kind == "borel":
        return BorelIdeal.from_borel_gens(n, gens)
    return BorelIdeal.from_expanded(n, frozenset(gens))


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    # the builtin sha256 module (_sha256 to 3.11, _sha2 from 3.12, each a
    # standard module on its versions alone) skips hashlib's OpenSSL
    for name in ("_sha256", "_sha2"):
        try:
            return __import__(name).sha256(blob).hexdigest()
        except ImportError:
            pass
    import hashlib  # loads OpenSSL

    return hashlib.sha256(blob).hexdigest()


class _Text(str):
    """JSON text that _dumps writes as it is."""


def _dumps(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), any iterable a list, written
    directly: an indent makes json fall back to its pure-Python encoder."""
    if isinstance(value, str):
        return value if type(value) is _Text else _string(value)
    sub = pad + "  "
    if isinstance(value, dict):
        items = [f"{_string(k)}: {_dumps(v, sub)}" for k, v in sorted(value.items())]
        return _array(items, pad, "{}")
    if hasattr(value, "__iter__"):
        return _array([_dumps(v, sub) for v in value], pad)
    return json.dumps(value)


def _chunks(value, pad: str = "", depth: int = 2):
    """_dumps(value, pad) of a dict or list in pieces, one per item; the
    items of containers fewer than depth levels down come in pieces too."""
    sub, keyed = pad + "  ", isinstance(value, dict)
    sep = "{" if keyed else "["
    for k, v in sorted(value.items()) if keyed else enumerate(value):
        head = f"{sep}\n{sub}{_string(k)}: " if keyed else f"{sep}\n{sub}"
        if depth > 1 and not isinstance(v, str) and hasattr(v, "__iter__"):
            yield head
            yield from _chunks(v, sub, depth - 1)
        else:
            yield head + _dumps(v, sub)
        sep = ","
    yield (f"\n{pad}" if sep == "," else sep) + ("}" if keyed else "]")


def _write_report(path: str, config: dict, body: dict) -> None:
    doc = {
        "tool": "borelcell",
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
    }
    doc.update(body)
    _write(path, _chunks(doc))


def _run_gen(ns: argparse.Namespace) -> int:
    n, kind, gens = _ideal_triple(ns)
    if kind == "mono":
        mini = _equal_degree_ideal(n, "mono", gens)
        out = sorted(mini.expanded, key=canonical_key)
    else:
        out = borel_generators(n, gens)
    for m in out:
        print(m)
    return 0


def _run_min(ns: argparse.Namespace) -> int:
    ms = [parse_monomial(t, ns.vars) for t in ns.monomials]
    if len(ms) < 2:
        raise ValueError("min needs at least two monomials")
    if len(ms) == 2:
        print(min_monomial(ms[0], ms[1]))
        return 0
    J = BorelIdeal.from_borel_gens(ns.vars, ms[1:])
    for g in intersect_borel(ms[0], J).borel_gens:
        print(g)
    return 0


def _run_complex(ns: argparse.Namespace) -> int:
    agree = None
    if ns.kind == "P":
        for flag in ("method", "borel", "mono", "ideal"):
            if getattr(ns, flag) is not None:
                raise ValueError(f"complex P takes no --{flag}")
        if ns.vars is None or ns.degree is None:
            raise ValueError("complex P needs --vars and --degree")
        X = power_complex(ns.vars, VarRange(1, ns.vars), ns.degree)
        name = f"P(vars={ns.vars}, degree={ns.degree})"
    else:
        if ns.degree is not None:
            raise ValueError("complex Q takes no --degree")
        n, kind, gens = _ideal_triple(ns)
        I = _equal_degree_ideal(n, kind, gens)
        method = ns.method or "recursive"
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
    if ns.out:
        export_json(X, ns.out)
        print(f"wrote {ns.out}")
    return 0 if agree in (None, True) else 1


def _ideal_config(I: BorelIdeal) -> dict:
    return {
        "vars": I.n,
        "degree": I.d,
        "borel_generators": [g.canonical() for g in I.borel_gens],
    }


_VERDICT = {True: "pass", False: "fail"}


def _run_verify(ns: argparse.Namespace) -> int:
    X = import_json(ns.in_path)
    if ns.vars is not None and ns.vars != X.n:
        raise ValueError(f"--vars {ns.vars} does not match the file's vars: {X.n}")
    if ns.ideal is not None or ns.borel is not None or ns.mono is not None:
        n, kind, gens = _ideal_triple(ns)
        if n != X.n:  # --vars matched above; a spec's vars: may not
            raise ValueError(
                f"the spec's vars: {n} does not match the file's vars: {X.n}"
            )
        I = _equal_degree_ideal(n, kind, gens)
    else:
        I = BorelIdeal.from_expanded(X.n, frozenset(X.vertex_labels))
    report = verify_resolution(X, I, ns.field)
    minimal = check_minimal(X)
    ok = report.ok and minimal

    bsq = _VERDICT[report.boundary_squared_zero]
    degrees, failures = report.degrees, report.failures
    print(f"field: {ns.field}")
    print(f"boundary_squared_zero: {bsq}")
    print(f"acyclic degrees: {len(degrees) - len(failures)}/{len(degrees)} pass")
    for b in sorted(failures, key=_exps_key):  # canonical order
        print(f"  fail at {_exps_text(b)}: {failures[b]}")
    print(f"minimal: {_VERDICT[minimal]}")
    print(f"ok: {'yes' if ok else 'no'}")

    if ns.report:
        config = {
            "command": "verify",
            "field": str(ns.field),
            "ideal": _ideal_config(I),
        }
        # every passing check is written from one template, as _dumps lays it out
        row = _dumps(dict(degree=_Text("%s"), name="acyclic", status="pass"), "    ")
        fail = {"name": "acyclic", "status": "fail"}

        def checks():
            yield {"name": "boundary_squared_zero", "status": bsq}
            for b in degrees:
                text = _exps_text(b)
                if b in failures:
                    yield dict(fail, degree=text, witness=failures[b])
                else:
                    yield _Text(row % _string(text))
            yield {"name": "minimal", "status": _VERDICT[minimal]}

        _write_report(ns.report, config, {"ok": ok, "checks": checks()})
    return 0 if ok else 1


def _trim_zeros(t) -> tuple[int, ...]:
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _run_betti(ns: argparse.Namespace) -> int:
    n, kind, gens = _ideal_triple(ns)
    I = _equal_degree_ideal(n, kind, gens)
    method = ns.method or "all"
    wanted = ["cellular", "koszul", "ek"] if method == "all" else [method]
    vals: dict[str, tuple[int, ...]] = {}
    if "cellular" in wanted:
        X = borel_complex(I)
        report = verify_resolution(X, I, ns.field)
        try:  # demands a passing report and a minimal complex
            vals["cellular"] = betti_totals(betti_from_cells(X, report))
        except ValueError as exc:
            print(f"cellular method: {exc}")
            return 1
    if "koszul" in wanted:  # decided on its own walk of the lcm lattice
        vals["koszul"] = betti_totals(betti_via_koszul(I.expanded, fld=ns.field))
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


def _run_lattice(ns: argparse.Namespace) -> int:
    n, kind, gens = _ideal_triple(ns)
    # the flags are checked before the lattice is built and printed
    if ns.check == "ranked" and ns.interval is not None:
        raise ValueError("--interval only applies to --check labels")
    if ns.check == "labels":
        if ns.interval is None:
            raise ValueError("--check labels needs --interval lo..hi")
        lo_text, sep, hi_text = ns.interval.partition("..")
        if not sep:
            raise ValueError("--interval must look like lo..hi")
        lo = parse_monomial(lo_text, n)
        hi = parse_monomial(hi_text, n)
    # as in gen, Borel generators may mix degrees; an explicit set may not
    if kind == "borel":
        L = build_lattice(borel_generators(n, gens))
    else:
        L = build_lattice(_equal_degree_ideal(n, kind, gens))
    # the check runs before the first print: a rejected interval prints nothing
    rep = is_ranked(L) if ns.check == "ranked" else natural_label_check(L, lo, hi)
    print(f"atoms: {len(L.atoms)}")
    print(f"elements: {len(L)}")
    config = {
        "command": "lattice",
        "check": ns.check,
        "vars": n,
        "atoms": [a.canonical() for a in L.atoms],
        "interval": None,
    }

    if ns.check == "ranked":
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
        config["interval"] = [lo.canonical(), hi.canonical()]
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
    if ns.out:
        # one text per element, shared by its covers
        text = dict(zip(L.exps, map(_exps_text, L.exps)))
        covers: dict[str, list[str]] = {t: [] for t in text.values()}
        for b, cs in L.lower_covers.items():  # canonical order
            for c in cs:
                covers[text[c]].append(text[b])
        body = {
            "vars": n,
            "atoms": config["atoms"],
            "elements": text.values(),
            "covers": covers,
            "result": result,
        }
        _write_report(ns.out, config, body)
        print(f"wrote {ns.out}")
    return rc


_HANDLERS = {
    "gen": _run_gen,
    "min": _run_min,
    "complex": _run_complex,
    "verify": _run_verify,
    "betti": _run_betti,
    "lattice": _run_lattice,
}


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


@functools.cache
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
    ns = build_parser().parse_args(argv)
    try:
        # each subcommand sets the flags it has; verify and betti have --field
        if hasattr(ns, "field"):
            ns.field = Field.parse(ns.field or os.environ.get("BORELCELL_FIELD", "q"))
        if getattr(ns, "vars", None) is not None and ns.vars < 1:
            raise ValueError("--vars must be at least 1")
        if getattr(ns, "jobs", 1) < 1:
            raise ValueError("--jobs must be at least 1")
        return _HANDLERS[ns.command](ns)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
