#!/usr/bin/env python3
"""covercert benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload, one op per fresh child process of this Python
(bench/worker.py), which calls `covercert.cli.main(argv)` directly on
inputs made from --seed. The loop is closed with one client, since
covercert is a batch certifier: each op starts when the previous one has
ended, for about --seconds. Between ops, further children only import
covercert, so that set-up is sampled across the whole run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
each op's input twice in a row, untraced and with spans at each module
boundary, and reports the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Every op's
output is checked; an op fails when a call exits with an unexpected code,
an output breaks its rule (verdicts, audit results, fault detection), its
seeded fields differ from bench/references.json, or, traced, its
certificate bytes differ between the untraced and traced replay of the same
input. The exit code is 0 only
when no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT_ROOT = ROOT / ".bench_out"
# One BLAS/OpenMP thread: numpy's OpenBLAS here may start up to 64.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Share of the run's time spent in children that only import covercert.
SETUP_SHARE = 0.15
TIME_LIMIT_S = 170.0
# The CLI's segment_body() shortened to length 0.6: a 4,598-member family
# instead of 11,328, so that a run holds about five ops instead of three.
SEGMENT_BODY = {
    "dim": 2, "kind": "halfspaces", "exact_volume": None,
    "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.3},
                   {"normal": [-1.0, 0.0], "offset": 0.3},
                   {"normal": [0.0, 1.0], "offset": 0.0},
                   {"normal": [0.0, -1.0], "offset": 0.0}],
    "bound": {"center": [0.0, 0.0], "radius": 0.3},
}

# Each workload is a list of CLI calls (name, argv template, output suffix);
# one op runs them all in order. {seed} is the op's CLI seed, {out} the
# call's output file, {cert} the op's witness certificate, {body} the body.
WITNESS = ("witness", ["witness", "--seed", "{seed}", "--samples", "2000", "--out", "{out}"],
           ".json")
VERIFY = ("verify", ["witness", "--verify-cert", "{cert}", "--out", "{out}"], ".json")
WORKLOADS = {
    # Ball base: the vectorised ball path of family_counts over 39,193
    # translated balls, 39k body objects built twice, 3.5 MB of JSON. The
    # default witness except for a 2,000-point probe (default 20,000), so
    # that a run holds five ops; family and certificate are unchanged.
    "witness-ball": [WITNESS, VERIFY],
    # Segment base (SEGMENT_BODY): every membership test goes through
    # Dykstra projection and the rotation net is built; the audits use the
    # CLI's own unit segment. The normal audit finds a cover early
    # (about one test per trial), the fault-injected one scans the net.
    "segment-body": [
        ("witness", ["witness", "--seed", "{seed}", "--body", "{body}", "--eps", "0.4",
                     "--samples", "500", "--out", "{out}"], ".json"),
        VERIFY,
        ("cover_audit", ["audit", "--suite", "cover", "--seed", "{seed}",
                         "--samples", "200", "--out", "{out}"], ".json"),
        ("fault_audit", ["audit", "--suite", "cover", "--seed", "{seed}",
                         "--samples", "20", "--expect-fail", "--out", "{out}"], ".json"),
    ],
    # Solvers without a family: minimum enclosing balls dominate; the cheap
    # bound and edge suites ride along so a regression in them shows.
    "solver-audits": [
        ("jung", ["jung-check", "--n", "6", "--seed", "{seed}", "--samples", "300",
                  "--cloud-size", "16", "--out", "{out}"], ".json"),
        ("edges", ["audit", "--suite", "edges", "--seed", "{seed}", "--out", "{out}"], ".json"),
        ("cone", ["audit", "--suite", "cone", "--seed", "{seed}", "--out", "{out}"], ".json"),
        ("sweep", ["audit", "--suite", "sweep", "--seed", "{seed}", "--out", "{out}"], ".json"),
        ("bounds_sweep", ["bounds", "--sweep", "2", "100", "--out", "{out}"], ".csv"),
    ],
}
STAGE_OF_CALL = {"witness": "witness_s", "verify": "verify_s",
                 "cover_audit": "cover_audit_s", "fault_audit": "fault_audit_s",
                 "jung": "jung_s", "edges": "suites_s", "cone": "suites_s",
                 "sweep": "suites_s", "bounds_sweep": "suites_s"}
STAGES = ("witness_s", "verify_s", "cover_audit_s", "fault_audit_s", "jung_s", "suites_s")


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> float:
    """Run bench/worker.py with `args`; return the seconds from spawn to
    its `ready` line, which covers interpreter start and importing
    covercert."""
    env = dict(os.environ, **THREAD_PINS)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_s = perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return setup_s


def run_op(args, i: int, trace: bool, deadline: float) -> tuple[float, dict]:
    """Op i of the run in a fresh worker: its set-up seconds and its result.
    Op i gets CLI seed 1000 * seed + i, so the ops of one run see different
    inputs and a run's median averages over them."""
    tag = f"op{i}-{'traced' if trace else 'plain'}"
    plan = {
        "calls": WORKLOADS[args.workload], "op": i, "cli_seed": str(1000 * args.seed + i),
        "trace": trace, "tamper": args.tamper, "environment": i == 0,
        "run_dir": str(args.run_dir), "body": str(args.run_dir / "body.json"),
        "result_path": str(args.run_dir / f"{tag}-result.json"),
    }
    plan_path = args.run_dir / f"{tag}-plan.json"
    plan_path.write_text(json.dumps(plan))
    setup_s = spawn([str(plan_path)], deadline)
    return setup_s, json.loads(Path(plan["result_path"]).read_text())


def run_loop(args, trace: bool, deadline: float) -> dict:
    """Closed loop with one client: op i+1 starts when op i has ended, and
    ops continue while the expected end of the next one stays within
    --seconds. Traced, each op's input runs untraced, then traced. After
    each op, children that only import covercert run until they have taken
    SETUP_SHARE of the time, so set-up samples span the run."""
    run = {"setup": [], "plain": [], "traced": [], "traced_setup": [], "spans": []}
    t_start = perf_counter()
    setup_only_s = 0.0
    while True:
        i = len(run["plain"])
        setup_s, result = run_op(args, i, False, deadline)
        run["setup"].append(setup_s)
        run["plain"].append(result["op"])
        run.setdefault("environment", result.get("environment"))
        if trace:
            setup_s, result = run_op(args, i, True, deadline)
            run["traced_setup"].append(setup_s)
            run["traced"].append(result["op"])
            run["spans"].append(result["spans"])
            run["trace_missing"] = result["trace_missing"]
        while setup_only_s < SETUP_SHARE * (perf_counter() - t_start):
            t0 = perf_counter()
            run["setup"].append(spawn(["--setup-only"], deadline))
            setup_only_s += perf_counter() - t0
        elapsed = perf_counter() - t_start
        if elapsed + 0.5 * elapsed / (i + 1) >= args.seconds:
            return run


def gate(workload: str, ops: list[dict], references: dict) -> list[str]:
    """Failure reasons of each op, empty when it passed."""
    expected = references.get(workload, {})
    reasons = []
    for op in ops:
        why = []
        want = expected.get(op["cli_seed"], {})
        for call in op["calls"]:
            check = call["check"]
            if call["error"]:
                why.append(f"{call['name']}: raised {call['error'].strip().splitlines()[-1]}")
            elif not check["ok"]:
                why.append(f"{call['name']}: {check['reason']}")
            elif call["name"] in want and check.get("semantic") != want[call["name"]]:
                why.append(f"{call['name']}: seeded fields differ from the reference")
        reasons.append("; ".join(why))
    return reasons


def witness_check(op: dict) -> dict:
    return next((c["check"] for c in op["calls"] if c["name"] == "witness"), {})


def stage_seconds(op: dict) -> dict:
    out = dict.fromkeys(STAGES, 0.0)
    for call in op["calls"]:
        out[STAGE_OF_CALL[call["name"]]] += call["seconds"]
    return out


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def layer_metrics(op: dict) -> dict:
    """Per-layer figures of one traced op, named <module>.<what>."""
    trace = op["trace"]
    self_s, spans = trace["self_s"], trace["spans"]
    m = {}
    for group in tracer.GROUPS:
        m[f"{group}.s"] = self_s.get(group, 0.0)
        m[f"{group}.calls"] = spans.get(group, 0)

    def counter(key: str, call: str | None = None) -> float:
        return sum(v for k, v in trace["counters"].items()
                   if k.split(":")[1] == key and (call is None or k.split(":")[0] == call))

    warned: dict[str, int] = {}
    for call in op["calls"]:
        for key, n in call["warnings"].items():
            warned[key] = warned.get(key, 0) + n
    attempts = counter("attempts")
    trials = counter("trials")
    m.update({
        "geom_core.meb_uncertified": warned.get("geom_core.meb_uncertified", 0),
        "bodies.members_built": spans.get("bodies.build/transform", 0),
        "bodies.dykstra_cap_hits": warned.get("bodies.dykstra_cap_hits", 0),
        "isometry_nets.family_size": counter("family_size", "witness"),
        "isometry_nets.audit.tests_per_trial": trace["tests_in_audit"] / trials if trials else 0.0,
        "coclique.attempts": attempts,
        "coclique.accept_ratio": counter("accepted") / attempts if attempts else 0.0,
        "coclique.edges": counter("edges"),
        "coclique.survivors": counter("survivors"),
        "coclique.hypotheses_failed": warned.get("coclique.hypotheses_failed", 0),
        "trace.untraced_share": trace["untraced_share"],
    })
    return m


def run_untraced(args, deadline: float) -> tuple[list[dict], dict, dict, list[str]]:
    run = run_loop(args, False, deadline)
    ops = run["plain"]
    stages = median_of([stage_seconds(op) for op in ops])
    metrics = {
        "op_s": statistics.median(op["seconds"] for op in ops),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in ops),
    }
    lines = [f"setup_s samples ({len(run['setup'])}): "
             f"{' '.join(f'{s:.4f}' for s in run['setup'])}"]
    lines += [f"{name} = {value:.4f} s" for name, value in stages.items() if value]
    cert_bytes = [witness_check(op).get("cert_bytes") for op in ops]
    if cert_bytes[0]:
        lines.append(f"cert_bytes = {statistics.median(cert_bytes):.0f} B")
    return ops, metrics, run["environment"], lines


def run_traced(args, deadline: float) -> tuple[list[dict], dict, dict, list[str]]:
    """Each op's input untraced, then traced, in fresh workers."""
    run = run_loop(args, True, deadline)
    pairs = list(zip(run["plain"], run["traced"]))
    for a, b in pairs:
        if witness_check(a).get("cert_sha256") != witness_check(b).get("cert_sha256"):
            for call in b["calls"]:
                if call["name"] == "witness":
                    call["check"].update(ok=False, reason="certificate bytes differ on replay")
    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"ops": run["spans"]}, separators=(",", ":")))

    metrics = median_of([layer_metrics(b) for _, b in pairs])
    stages = median_of([stage_seconds(a) for a, _ in pairs])
    metrics.update({f"cli.{k}": v for k, v in stages.items()})
    metrics["cli.cert_bytes"] = statistics.median(
        witness_check(a).get("cert_bytes", 0) for a, _ in pairs)
    metrics["trace.overhead.op_s"] = statistics.median(
        b["seconds"] - a["seconds"] for a, b in pairs)
    metrics["trace.overhead.setup_s"] = (
        statistics.median(run["traced_setup"]) - statistics.median(run["setup"]))
    metrics["trace.overhead.peak_rss_mb"] = statistics.median(
        b["rss_mb"] - a["rss_mb"] for a, b in pairs)

    lines = []
    for _, op in pairs:
        shares = " ".join(f"{name} {1.0 - c['covered'] / c['seconds']:.3f}"
                          for name, c in op["trace"]["calls"].items())
        lines.append(f"op cli-seed {op['cli_seed']} untraced share per call: {shares}")
    if run.get("trace_missing"):
        lines.append(f"not traced (missing in covercert): {run['trace_missing']}")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return [op for pair in pairs for op in pair], metrics, run["environment"], lines


def record_references(workload: str, ops: list[dict]) -> None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    table = refs.setdefault(workload, {})
    for op in ops:
        table[op["cli_seed"]] = {c["name"]: c["check"]["semantic"]
                                 for c in op["calls"] if "semantic" in c["check"]}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="self-check of the gate: change one per-member count of "
                             "each certificate before it is verified; every op must fail")
    parser.add_argument("--record-references", action="store_true",
                        help="store this run's seeded result hashes in bench/references.json")
    args = parser.parse_args()
    deadline = perf_counter() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    args.run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(args.run_dir, ignore_errors=True)
    args.run_dir.mkdir(parents=True)
    # One body file for both children of a traced run: certificates echo
    # its path, so the replay comparison needs it to be the same.
    (args.run_dir / "body.json").write_text(json.dumps(SEGMENT_BODY))
    try:
        runner = run_traced if args.trace else run_untraced
        ops, measured, machine, notes = runner(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)

    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reasons = gate(args.workload, ops, references)
    failed = sum(1 for r in reasons if r)
    if args.record_references and not failed:
        record_references(args.workload, ops)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, closed loop, one client")
    for i, (op, why) in enumerate(zip(ops, reasons)):
        if i >= 20 and not why:
            continue  # fast ops would flood the log; failures always show
        calls = " ".join(f"{c['name']} {c['seconds']:.3f}" for c in op["calls"])
        print(f"  op cli-seed {op['cli_seed']}: {op['seconds']:.3f} s ({calls}) "
              f"{'FAILED: ' + why if why else 'ok'}")
    for line in notes:
        print(f"  {line}")
    print(f"  error_rate = {failed / len(ops):.4f} ratio")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
