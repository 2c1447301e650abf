"""Benchmark for borelcell: three workloads, checked outputs, layer traces.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload all three workloads run, one after the other.  Each
repetition runs in a fresh worker process (CLI users pay import and cold
caches on every run); repetitions continue while another one still fits in
--seconds.  End-to-end metrics are medians over untraced repetitions.  With
--trace 1 the run alternates untraced and traced repetitions and reports
the per-layer metrics instead, plus the tracing overhead.  Every op's output
is checked against references the benchmark computes itself (oracles.py).

Human-readable results go to standard output, followed by one JSON line;
the full record, environment included, goes to .bench_out/.  See README.md
beside this file for the workloads and the metric -> layer -> workload map.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 5  # extra set-up-only workers per untraced run; set-up time is short and noisy

# metric name -> unit; the contract line carries E2E_CONTRACT (trace 0) or
# every per-layer metric (trace 1), the summary prints all of E2E_ALL
E2E_CONTRACT = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_S = {"verify": "verify_s", "complex": "complex_s", "betti": "betti_s",
             "gen": "gen_s", "lattice": "lattice_s", "roundtrip": "json_roundtrip_s"}
E2E_ALL = dict(
    [("setup_s", "s"), ("wall_s", "s")]
    + [(m, "s") for m in COMMAND_S.values()]
    + [("ideals_per_s", "1/s"), ("ideal_p50_s", "s"), ("ideal_p90_s", "s"),
       ("peak_rss_mb", "MB"), ("failed_frac", "ratio")]
)


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_complex")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


LAYER_NAMES = list(spans.layer_metrics(spans.SpanStats([], {})))
PER_LAYER = {n: layer_unit(n) for n in LAYER_NAMES + ["cli.verify_jobs2_ratio", "trace.overhead_frac"]}


def git_sha(root: Path) -> str | None:
    """HEAD's commit id read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: p90 of 100 samples leaves ten samples above it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def run_rep(steps, traced: bool, workdir: Path, timeout: float) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = {"src": str(SRC), "trace": traced, "steps": steps,
            "spans_out": str(workdir / "spans.json")}
    (workdir / "plan.json").write_text(json.dumps(plan))
    env = {k: v for k, v in os.environ.items() if k not in ("BORELCELL_FIELD", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["BENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((workdir / "result.json").read_text())


def rep_metrics(steps, result: dict, problems: dict) -> dict:
    ops = {s["id"]: s for s in steps if "id" in s}
    m = {"setup_s": result["setup_s"], "wall_s": result["wall_s"],
         "peak_rss_mb": result["peak_rss_mb"]}
    for rec in result["ops"]:
        key = COMMAND_S.get(ops[rec["id"]]["cmd"])
        if key:
            m[key] = m.get(key, 0.0) + rec["s"]
    ideals: dict[int, list] = {}
    for rec in result["ops"]:
        k = ops[rec["id"]].get("ideal")
        if k is not None:
            ideals.setdefault(k, []).append(rec)
    if ideals:
        lat = [sum(r["s"] for r in recs) for recs in ideals.values()]
        good = sum(1 for recs in ideals.values() if not any(problems.get(r["id"]) for r in recs))
        m.update(ideals_per_s=good / result["wall_s"], ideal_p50_s=quantile(lat, 0.5),
                 ideal_p90_s=quantile(lat, 0.9), ideal_samples=len(lat))
    jobs = {ops[r["id"]].get("jobs"): r["s"] for r in result["ops"] if ops[r["id"]].get("jobs")}
    if 1 in jobs and 2 in jobs:
        m["cli.verify_jobs2_ratio"] = jobs[2] / jobs[1]
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=workloads.FULL, out_dir: Path = OUT) -> dict:
    steps = workloads.build(name, seed, sizes).steps
    ops = {s["id"]: s for s in steps if "id" in s}
    load_before = os.getloadavg()
    setups = [] if trace else [
        run_rep([], False, out_dir / "work" / f"{name}-setup", RUN_LIMIT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        workdir = out_dir / "work" / f"{name}-{len(reps)}"
        timeout = max(5.0, RUN_LIMIT_S - (t0 - start))
        result = run_rep(steps, traced, workdir, timeout)
        problems = {r["id"]: workloads.check(ops[r["id"]], r, str(workdir)) for r in result["ops"]}
        if traced:
            shutil.copyfile(workdir / "spans.json", out_dir / f"SPANS_{name}_seed{seed}.json")
        shutil.rmtree(workdir)
        reps.append({"traced": traced, "metrics": rep_metrics(steps, result, problems),
                     "layers": result.get("layers"), "absent": result.get("absent", []),
                     "span_count": result.get("span_count"),
                     "ops": [{"id": r["id"], "argv": ops[r["id"]].get("argv"), "rc": r["rc"],
                              "s": r["s"], "problems": problems[r["id"]]} for r in result["ops"]]})
        longest = max(longest, time.monotonic() - t0)
        done = not trace or len(reps) >= 2
        if done and time.monotonic() - start + longest > seconds:
            break
    load_after = os.getloadavg()
    shutil.rmtree(out_dir / "work", ignore_errors=True)
    return summarize(name, seed, trace, steps, reps, setups, load_before, load_after)


def _median(reps, key):
    vals = [r["metrics"][key] for r in reps if key in r["metrics"]]
    return (statistics.median(vals), len(vals)) if vals else (None, 0)


def summarize(name, seed, trace, steps, reps, setups, load_before, load_after) -> dict:
    ops = {s["id"]: s for s in steps if "id" in s}
    attempted = sum(len(r["ops"]) for r in reps)
    failures = [(o["id"], o["problems"]) for r in reps for o in r["ops"] if o["problems"]]
    unexpected = [f for f in failures if not ops[f[0]].get("known_defect")]
    plain = [r for r in reps if not r["traced"]]
    e2e = {}
    for key in E2E_ALL:
        value, n = _median(plain, key)
        e2e[key] = {"value": value, "n": n}
    setups = setups + [r["metrics"]["setup_s"] for r in plain]
    e2e["setup_s"] = {"value": statistics.median(setups), "n": len(setups)}
    e2e["failed_frac"] = {"value": len(failures) / attempted, "n": attempted}
    layers = {}
    traced = [r for r in reps if r["traced"]]
    if traced:
        for key in LAYER_NAMES:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        ratio, _ = _median(plain, "cli.verify_jobs2_ratio")
        layers["cli.verify_jobs2_ratio"] = ratio if ratio is not None else 0.0
        t_wall, _ = _median(traced, "wall_s")
        layers["trace.overhead_frac"] = t_wall / e2e["wall_s"]["value"] - 1
    known = sorted({(ops[i]["control"], tuple(p)) for i, p in failures if ops[i].get("known_defect")})
    return {
        "workload": name,
        "environment": environment(seed),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "trace": trace,
        "repetitions": len(reps),
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": e2e,
        "per_layer": layers,
        "absent_layers": sorted({a for r in traced for a in r["absent"]}),
        "known_defects": [{"control": c, "problems": list(p)} for c, p in known],
        "unexpected_failures": [{"op": ops[i].get("argv") or ops[i]["cmd"], "problems": p}
                                for i, p in unexpected],
        "reps": reps,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed={env['seed']}  trace={int(res['trace'])}  "
          f"repetitions={res['repetitions']}  python {env['python']}  nproc {env['nproc']}  "
          f"git {str(env['git_sha'])[:12]}  load {res['loadavg_before'][0]:.2f} -> "
          f"{res['loadavg_after'][0]:.2f}")
    for key, unit in E2E_ALL.items():
        m = res["end_to_end"][key]
        note = {"failed_frac": f"of {m['n']} ops", "setup_s": f"median of {m['n']} set-ups"}.get(
            key, f"median of {m['n']} untraced repetitions")
        print(f"  {key:<34} {_fmt(m['value']):>12} {unit:<6} {note}")
    for key, value in res["per_layer"].items():
        print(f"  {key:<34} {_fmt(value):>12} {PER_LAYER[key]:<6} traced")
    for a in res["absent_layers"]:
        print(f"  absent layer: {a}")
    for k in res["known_defects"]:
        print(f"  known-defect control {k['control']} fails: {'; '.join(k['problems'])}")
    for f in res["unexpected_failures"]:
        print(f"  FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(f"  correct={res['correct']}  attempted={res['attempted']}  failed={res['failed']}")


def contract_line(res: dict) -> dict:
    if res["trace"]:
        metrics = {k: {"value": res["per_layer"][k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": res["end_to_end"][k]["value"], "unit": u}
                   for k, u in E2E_CONTRACT.items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all three")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "borelcell" / "__init__.py").is_file():
        print(f"error: no borelcell sources under {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    lines = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        print_summary(res)
        print(f"  record: {path.relative_to(ROOT)}")
        lines[name] = contract_line(res)
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
