"""Command-line front end: reproducible bound sweeps, the Jung-radius spot
check and invariant audit suites of covercert.audits, and the non-cover
witness search and certificate verifier of covercert.witness.

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
from .audits import SUITES, TOL_FLOOR, jung_check, run_suite
from .audits import strip_rotations  # noqa: F401  bench/tracer.py times it as cli.strip_rotations
from .bodies import BallBody, body_from_json_dict
from .geom_core import RngStream
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
    if args.tol < TOL_FLOOR:
        raise ValueError(f"--tol is at least {TOL_FLOOR:g}: below it the enclosing-ball "
                         "solves may stop uncertified")
    config = run_config("jung-check", args.seed,
                        {"n": n, "samples": args.samples,
                         "cloud_size": args.cloud_size, "tol": args.tol})
    report = {"schema_version": SCHEMA_VERSION, "config": config,
              **jung_check(n, RngStream(args.seed, 0), args.samples, args.cloud_size, args.tol)}
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
    for flag, value in (("--r", args.r), ("--eps", args.eps),
                        ("--ball-radius", None if args.body else args.ball_radius)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive")
    if args.body:
        base = _read_json(args.body, "body", body_from_json_dict)
        if base.dim != n:
            raise ValueError("body dimension does not match --n")
    else:
        base = BallBody(np.zeros(n), args.ball_radius)
    alpha = args.alpha if args.alpha is not None else default_alpha(args.r)

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
# audit


def cmd_audit(args) -> int:
    suite = SUITES[args.suite]
    if args.expect_fail and not suite.fault:
        raise ValueError(f"suite {args.suite!r} has no fault-injection mode")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.samples is not None and suite.samples is None:
        raise ValueError(f"suite {args.suite!r} takes no --samples")
    result = run_suite(args.suite, RngStream(args.seed, 0), args.samples, args.expect_fail)
    config = run_config("audit", args.seed,
                        {"suite": args.suite, "samples": args.samples,
                         "expect_fail": args.expect_fail})
    _emit(render_json({"schema_version": SCHEMA_VERSION, "config": config, **result}), args.out)
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
    p.add_argument("--samples", type=int, default=20000,
                   help="probe points of r B_n that estimate the largest member measure "
                        "of a non-ball base; a ball base's is exact and draws no probe")
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
                   choices=list(SUITES))
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
