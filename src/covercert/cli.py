"""Command-line front end: reproducible bound sweeps, Jung-radius spot
checks, invariant audit suites, and the non-cover witness search and
certificate verifier of covercert.witness.

Every randomized command takes a mandatory --seed and is a deterministic
function of (arguments, seed); rerunning reproduces output files byte for
byte (output paths are excluded from the echoed configuration for exactly
this reason).

Exit codes: 0 success / verdict true, 1 audit failure / verdict false,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bounds as _bounds
from .bodies import BallBody, HalfspaceIntersectionBody, body_from_json_dict
from .coclique import edge_measure_audit
from .geom_core import (
    Ball,
    PointSet,
    RngStream,
    cap_measure_bounds,
    cap_measure_exact,
    diameter,
    jung_radius,
    min_enclosing_ball,
    regular_simplex,
    sample_uniform_ball,
)
from .isometry_nets import IsometryNet, audit_cover_family, build_cover_family
from .witness import check_witness_dim, default_alpha, search_witness, verify_witness_certificate

SCHEMA_VERSION = 1  # of bounds, jung-check and audit reports


def run_config(command: str, seed: int | None, params: dict) -> dict:
    """Echo of the arguments that determine a command's output. Output
    paths are deliberately not part of the record."""
    return {"command": command, "seed": seed, "params": dict(params)}


def _json_default(x):
    """numpy values json cannot encode (np.float64 is a float: never here)."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def render_json(obj: dict) -> str:
    """Canonical JSON: sorted keys, compact separators, one trailing
    newline — the byte-identical replay contract. A NaN or infinity is a
    ValueError (exit 2): JSON has no token for it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default, allow_nan=False) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# bounds


_SWEEP_COLUMNS = ["n", "r_n", "bound_log", "borsuk_log", "eps_log",
                  "diam_bound_log", "family_margin_log"]


def render_sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_bounds(args) -> int:
    if args.sweep is not None:
        lo, hi = args.sweep
        if lo < 2 or hi < lo:
            raise ValueError("sweep range must satisfy 2 <= start <= stop")
        _emit(render_sweep_csv(_bounds.sweep_rows(range(lo, hi + 1))), args.out)
        return 0
    if args.n is None:
        raise ValueError("either --n or --sweep is required")
    for name in ("lam", "r", "alpha"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name} must be finite")
    n = args.n
    config = run_config("bounds", None, {"n": n, "lam": args.lam,
                                         "r": args.r, "alpha": args.alpha})
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "theorem_lower_bound_log": _bounds.theorem_lower_bound(n),
        "borsuk": _bounds.borsuk_report(n),
        "pipeline": _bounds.proof_pipeline_budget(n).to_json_dict(),
        "thickening": _bounds.thickening_budget(n)._asdict(),
        "constant_width": _bounds.constant_width_geometry()._asdict(),
    }
    if args.lam is not None:
        report["choose_alpha"] = _bounds.choose_alpha(n, args.lam).to_json_dict()
    if args.r is not None:
        alpha = args.alpha
        if alpha is None and args.lam is not None:
            alpha = report["choose_alpha"]["alpha"]
        if alpha is None:
            raise ValueError("main inequality needs --alpha or --lam besides --r")
        report["main_inequality"] = _bounds.main_inequality(n, args.r, alpha).to_json_dict()
    _emit(render_json(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# jung-check


def cmd_jung_check(args) -> int:
    n = args.n
    if not 1 <= n <= 10:
        raise ValueError("jung-check is desk-scale: 1 <= n <= 10")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.samples > RngStream.CHILD_LIMIT:
        raise ValueError(f"--samples is at most {RngStream.CHILD_LIMIT} (one substream per cloud)")
    if args.cloud_size < 2:
        raise ValueError("clouds need at least two points")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError("--tol must be finite and positive")
    rng = RngStream(args.seed, 0)
    r_n = jung_radius(n)
    solver_tol = min(1e-8, args.tol / 10.0)

    simplex = regular_simplex(n)
    simplex_ball = min_enclosing_ball(simplex, tol=solver_tol)
    simplex_ok = abs(simplex_ball.radius - r_n) <= args.tol

    max_radius = 0.0
    for trial in range(args.samples):
        pts = sample_uniform_ball(n, 1.0, args.cloud_size, rng.child(trial)).points
        d = diameter(PointSet(n, pts))
        if d <= 0.0:
            continue  # coincident cloud; nothing to normalize
        ball = min_enclosing_ball(PointSet(n, pts / d), tol=solver_tol)
        max_radius = max(max_radius, ball.radius)
    clouds_ok = max_radius <= r_n + args.tol

    config = run_config("jung-check", args.seed,
                        {"n": n, "samples": args.samples,
                         "cloud_size": args.cloud_size, "tol": args.tol})
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "r_n": r_n,
        "simplex": {"radius": simplex_ball.radius, "ok": simplex_ok},
        "clouds": {"trials": args.samples, "max_radius": max_radius,
                   "ok": clouds_ok},
        "pass": simplex_ok and clouds_ok,
    }
    _emit(render_json(report), args.out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# witness


def _read_json(path: str, what: str, parse):
    """parse(the JSON document at path); a document of the wrong shape is
    a ValueError naming `what`, so it exits 2 with one line."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"malformed {what}: missing key {exc}") from None
    except (TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def cmd_witness(args) -> int:
    if args.verify_cert:
        report = _read_json(args.verify_cert, "certificate", verify_witness_certificate)
        _emit(render_json(report), args.out)
        return 0 if report["pass"] else 1

    if args.seed is None:
        raise ValueError("witness search requires --seed")
    n = args.n
    check_witness_dim(n)
    if args.body:
        base = _read_json(args.body, "body", body_from_json_dict)
        if base.dim != n:
            raise ValueError("body dimension does not match --n")
    else:
        base = BallBody(np.zeros(n), args.ball_radius)
    if args.r <= 0:
        raise ValueError("r must be positive")
    alpha = args.alpha if args.alpha is not None else default_alpha(args.r)
    if args.eps <= 0:
        raise ValueError("eps must be positive")

    config = run_config("witness", args.seed, {
        "n": n, "r": args.r, "alpha": alpha, "k": args.k, "eps": args.eps,
        "M": args.M, "p": args.p, "max_retries": args.max_retries,
        "samples": args.samples, "ball_radius": None if args.body else args.ball_radius,
        "body": args.body,
    })
    cert = search_witness(base, args.seed, args.r, alpha, args.k, args.eps, args.M, args.p,
                          args.max_retries, args.samples, config)
    _emit(render_json(cert), args.out)
    return 0 if cert["verdict"] else 1


# ---------------------------------------------------------------------------
# audit suites


def _suite_caps() -> dict:
    failures = []
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89):
        for alpha in np.linspace(0.1, math.pi / 2.0 - 0.1, 15):
            alpha = float(alpha)
            m = cap_measure_exact(n, alpha)
            lo, hi = cap_measure_bounds(n, alpha)
            if not lo < m < hi:
                failures.append({"n": n, "alpha": alpha, "lower": lo,
                                 "exact": m, "upper": hi})
            sym = cap_measure_exact(n, alpha) + cap_measure_exact(n, math.pi - alpha)
            if abs(sym - 1.0) > 1e-12:
                failures.append({"n": n, "alpha": alpha, "symmetry": sym})
    return {"suite": "caps", "failures": failures, "pass": not failures}


_CONE_GRID = [(math.pi / 6.0, 0.5), (math.pi / 6.0, 1.5),
              (math.pi / 3.0, 0.5), (math.pi / 3.0, 1.5),
              (1.3, 0.5), (1.3, 1.5)]


def _cone_spec(n: int, alpha: float, ell: float) -> _bounds.ConeSpec:
    axis = np.zeros(n)
    axis[-1] = 1.0
    return _bounds.ConeSpec(np.zeros(n), axis, alpha, ell)


def _suite_cone(rng: RngStream, probes: int, expect_fail: bool) -> dict:
    reports = []
    failures = []
    cell = 0
    for n in (2, 3):
        for alpha, ell in _CONE_GRID:
            cone = _cone_spec(n, alpha, ell)
            sub = rng.child(cell)
            cell += 1
            if expect_fail:
                rep = _bounds.cone_negative_control(n, cone, probes, sub)
                ok = rep["violations"] >= 1
            else:
                const = _bounds.cone_constants(alpha, ell)
                rep = _bounds.verify_cone_inclusion(n, cone, 0.5 * const.eps0,
                                                    probes, sub)
                ok = rep["pass"]
            reports.append(rep)
            if not ok:
                failures.append({"n": n, "alpha": alpha, "ell": ell,
                                 "violations": rep["violations"]})
    return {"suite": "cone", "fault_injection": expect_fail,
            "reports": reports, "failures": failures, "pass": not failures}


def _suite_sweep(rng: RngStream, trials: int) -> dict:
    rep = _bounds.verify_sweep_inequality(trials, rng.child(0))
    return {"suite": "sweep", "report": rep, "failures": rep["examples"],
            "pass": rep["pass"]}


def _suite_edges(rng: RngStream, trials: int) -> dict:
    reports = []
    failures = []
    idx = 0
    for n in (2, 3, 5):
        for alpha in (1.0, 1.3):
            rep = edge_measure_audit(n, alpha, trials, rng.child(idx), anchors=8)
            idx += 1
            reports.append(rep)
            if not rep["pass"]:
                failures.append({"n": n, "alpha": alpha})
    return {"suite": "edges", "reports": reports, "failures": failures,
            "pass": not failures}


def segment_body() -> HalfspaceIntersectionBody:
    """Unit segment on the x-axis as a degenerate halfspace intersection."""
    normals = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    offsets = [0.5, 0.5, 0.0, 0.0]
    return HalfspaceIntersectionBody(normals, offsets, Ball(np.zeros(2), 0.5))


def strip_rotations(net: IsometryNet) -> IsometryNet:
    """Fault injection for cover audits: drop every element whose matrix is
    not the identity, destroying rotational coverage."""
    keep = np.isclose(net.matrices, np.eye(net.dim), atol=1e-12).all(axis=(1, 2))
    cert = dict(net.certificate)
    cert["fault"] = "rotation net removed"
    return IsometryNet(net.dim, net.delta, net.matrices[keep], net.translations[keep], cert)


def _suite_cover(rng: RngStream, trials: int, expect_fail: bool) -> dict:
    body = segment_body()
    eps = 0.2
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, eps)
    if expect_fail:
        net = strip_rotations(net)
    rep = audit_cover_family(net, body, window, eps, trials, rng.child(2))
    ok = (rep["failures"] > 0) if expect_fail else rep["pass"]
    return {"suite": "cover", "fault_injection": expect_fail,
            "net_size": len(net), "report": rep,
            "failures": rep["failure_examples"] if not ok else [],
            "pass": ok}


_SUITE_SAMPLES = {"cone": 2000, "sweep": 1000, "edges": 20000, "cover": 200}


def cmd_audit(args) -> int:
    rng = RngStream(args.seed, 0)
    suite = args.suite
    if args.expect_fail and suite not in ("cone", "cover"):
        raise ValueError(f"suite {suite!r} has no fault-injection mode")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be positive")
    samples = _SUITE_SAMPLES.get(suite) if args.samples is None else args.samples
    if suite == "caps":
        result = _suite_caps()
    elif suite == "cone":
        result = _suite_cone(rng, samples, args.expect_fail)
    elif suite == "sweep":
        result = _suite_sweep(rng, samples)
    elif suite == "edges":
        result = _suite_edges(rng, samples)
    else:
        result = _suite_cover(rng, samples, args.expect_fail)
    config = run_config("audit", args.seed,
                        {"suite": suite, "samples": args.samples,
                         "expect_fail": args.expect_fail})
    out = {"schema_version": SCHEMA_VERSION, "config": config}
    out.update(result)
    _emit(render_json(out), args.out)
    return 0 if result["pass"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="Desk-scale constructions and verifiers for universal-"
                    "cover volume bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate the bound pipeline at one n "
                                      "or sweep a range to CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sweep", type=int, nargs=2, metavar=("START", "STOP"),
                   default=None)
    p.add_argument("--lam", type=float, default=None,
                   help="cap-angle parameter lambda")
    p.add_argument("--r", type=float, default=None,
                   help="witness radius for the main inequality")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("witness", help="run the non-cover witness pipeline "
                                       "or verify a certificate")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, required=False, default=None)
    p.add_argument("--body", default=None, help="JSON body spec path")
    p.add_argument("--ball-radius", type=float, default=0.5)
    p.add_argument("--r", type=float, default=0.55)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--M", type=int, default=64)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--max-retries", type=int, default=64)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--verify-cert", default=None,
                   help="verify an existing certificate instead of searching")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("jung-check", help="stochastic audit of the "
                                          "enclosing-ball radius bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--cloud-size", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_jung_check)

    p = sub.add_parser("audit", help="run a named invariant suite")
    p.add_argument("--suite", required=True,
                   choices=["caps", "cone", "sweep", "edges", "cover"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--expect-fail", action="store_true",
                   help="run the suite's fault-injected variant and succeed "
                        "iff failures are detected")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
