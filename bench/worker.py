"""Child process of the benchmark: imports covercert from the checkout's
`src/`, runs one planned op through `covercert.cli.main`, checks its
outputs and writes what it measured as JSON. Each op gets a fresh process,
as each CLI invocation of a user does.

    python3 bench/worker.py PLAN.json     run the op of a plan
    python3 bench/worker.py --setup-only  import, report ready, exit

The parent times set-up from spawning this process to the `ready` line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from checks import check_call

ROOT = Path(__file__).resolve().parent.parent

# Warnings covercert raises today, by message prefix; each becomes a count.
WARNING_COUNTERS = {
    "lemma hypotheses fail": "coclique.hypotheses_failed",
    "Dykstra projection hit the sweep cap": "bodies.dykstra_cap_hits",
    "min_enclosing_ball stopped at the iteration cap": "geom_core.meb_uncertified",
}


def import_covercert():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covercert.cli as cli

    location = Path(cli.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"covercert imported from {location}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def run_call(cli, argv: list[str]) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
            error = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            rc, error = None, traceback.format_exc(limit=4)
        seconds = perf_counter() - t0
    counts: dict[str, int] = {}
    for w in caught:
        message = str(w.message)
        key = next((v for k, v in WARNING_COUNTERS.items() if message.startswith(k)),
                   "warnings.other")
        counts[key] = counts.get(key, 0) + 1
    return {"rc": rc, "error": error, "seconds": seconds, "warnings": counts}


def tamper(cert_path: str) -> None:
    """Change one per-member count, as a hand edit would."""
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    cert["per_member_counts"][0] += 1
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, sort_keys=True, separators=(",", ":"))


def _span(tracer, group: str, label: str):
    return tracer.span(group, label) if tracer else nullcontext()


def run_op(cli, plan: dict, tracer) -> dict:
    run_dir = Path(plan["run_dir"])
    i = plan["op"]
    tag = f"op{i}-{'traced' if tracer else 'plain'}"
    paths = {"seed": plan["cli_seed"], "body": plan["body"],
             "cert": str(run_dir / f"{tag}-witness.json")}
    calls = []
    if tracer:
        tracer.op = i
    t0 = perf_counter()
    with _span(tracer, "op", f"op{i}"):
        for name, template, suffix in plan["calls"]:
            paths["out"] = str(run_dir / f"{tag}-{name}{suffix}")
            if tracer:
                tracer.call = name
            with _span(tracer, "call", name):
                result = run_call(cli, [a.format(**paths) for a in template])
            result.update(name=name, out=paths["out"])
            calls.append(result)
            if name == "witness" and plan["tamper"] and result["rc"] == 0:
                tamper(paths["cert"])
    op = {"cli_seed": plan["cli_seed"], "seconds": perf_counter() - t0, "calls": calls,
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        op["trace"] = tracer.op_summary(0)
    # Outputs are checked, then deleted, so disk use stays flat however
    # many ops fit in the time.
    for call in calls:
        call["check"] = check_call(call["name"], call["rc"], call["out"])
        Path(call.pop("out")).unlink(missing_ok=True)
    return op


def main(argv: list[str]) -> int:
    cli = import_covercert()
    if argv == ["--setup-only"]:
        print("ready", flush=True)
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)

    result = {"op": run_op(cli, plan, tracer)}
    if plan["environment"]:
        result["environment"] = environment()
    if tracer:
        result["trace_missing"] = sorted(tracer.missing)
        result["spans"] = tracer.columns()
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
