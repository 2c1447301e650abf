"""One workload repetition in a fresh interpreter.

    python3 worker.py PLAN.json RESULT.json

Run by run.py with the repetition's work directory as the current
directory and BENCH_SPAWN set to time.monotonic() just before the spawn, so
setup_s covers interpreter start, `import borelcell` and loading the plan.
Every op goes through `borelcell.cli.main(argv)` in this process with its
output captured, except the JSON round trip, which calls the serialize
module's public functions.  One process, no threads: only `verify --jobs 2`
starts a thread pool, inside borelcell.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from borelcell import cli, serialize

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(plan["src"]) + os.sep):
        raise SystemExit(f"borelcell imported from {cli.__file__}, not from {plan['src']}")
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN"])

    records = []
    start = time.perf_counter()
    for step in plan["steps"]:
        if step["kind"] == "mutate":
            import workloads

            workloads.mutate(step["base"], step["mutation"], step["pick"], step["out"])
            continue
        if tracer is not None:
            tracer.op = step["id"]
        out, err = io.StringIO(), io.StringIO()
        rec = {"id": step["id"]}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if step["kind"] == "cli":
                    rec["rc"] = cli.main(step["argv"])
                else:
                    serialize.export_json(serialize.import_json(step["src"]), step["dst"])
                    rec["rc"] = 0
        except SystemExit as exc:  # argparse rejects bad flags this way
            rec["rc"] = exc.code
        except Exception:
            rec["rc"] = None
            rec["error"] = traceback.format_exc()
        rec["s"] = time.perf_counter() - t0
        rec["stdout"] = out.getvalue()
        rec["stderr"] = err.getvalue()
        records.append(rec)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(spans.SpanStats(tracer.spans, tracer.counts))
        result["absent"] = tracer.absent
        result["span_count"] = len(tracer.spans)
        tracer.write(plan["spans_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
