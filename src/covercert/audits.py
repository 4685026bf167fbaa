"""Seeded re-checks of the paper's ingredients: jung_check for Jung's ball
J_n, the upper benchmark the volume bound matches, and the SUITES for the
lemmas behind the lower bound (cap sandwich, cone inclusion, sweep, edge
measure, cover family). Each check draws from fixed rng.child(i)
substreams of its RngStream, so a report replays byte for byte.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as _bounds
from . import geom_core
from .bodies import HalfspaceIntersectionBody
from .coclique import edge_measure_audit
from .geom_core import (Ball, RngStream, cap_measure_bounds, cap_measure_exact, diameter,
                        enclosing_radius_ceilings, jung_radius, min_enclosing_ball,
                        regular_simplex, sample_uniform_balls)
from .isometry_nets import IsometryNet, audit_cover_family, build_cover_family


TOL_FLOOR = 1e-12  # smallest jung_check tol: its solves at tol / 10 still certify


def jung_check(n: int, rng: RngStream, clouds: int, cloud_size: int, tol: float) -> dict:
    """The regular simplex of diameter 1 needs radius r_n (within tol), and
    no random cloud, rescaled to diameter 1, needs more than r_n + tol.

    Only the largest cloud radius is reported, so only the clouds that can
    set it are solved. Cloud `trial` is drawn from rng.child(trial) and
    rescaled by its diameter; a coincident cloud (every row equal to the
    first, an exact test: diameter() may give it a few 1e-8 from rounding)
    or one of float diameter 0 is skipped. Batches of at most
    geom_core.BLOCK_ELEMS coordinates (one cloud at least) get ceilings from
    enclosing_radius_ceilings at the solver tolerance t = min(1e-8, tol/10):

        C = b (1 + t)(1 + 32 g) + 32 u S,

    b a Badoiu-Clarkson upper bound on the cloud's optimal radius, S its
    largest |p|, u = 2^-53 and g = rounding_gamma(n + 3); the margin over b
    covers the solver's (1 + t) certificate and its rounding. No certified
    solve returns more than C. min_enclosing_ball solves the clouds in
    descending order of C and stops at the first C below the largest radius
    so far: no cloud left unsolved could raise it, so max_radius has the
    bits a solve of every cloud gives. Below TOL_FLOOR a solve may stop
    uncertified, which the pruning cannot allow: such a tol is refused."""
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise ValueError(f"tol must be finite and at least {TOL_FLOOR:g}: below it the "
                         "enclosing-ball solves may stop uncertified")
    r_n = jung_radius(n)
    solver_tol = min(1e-8, tol / 10.0)
    simplex_radius = min_enclosing_ball(regular_simplex(n), tol=solver_tol).radius
    simplex_ok = abs(simplex_radius - r_n) <= tol

    max_radius = 0.0
    batch = max(1, geom_core.BLOCK_ELEMS // (cloud_size * n))
    for start in range(0, clouds, batch):
        streams = [rng.child(trial) for trial in range(start, min(start + batch, clouds))]
        stack = sample_uniform_balls(n, 1.0, cloud_size, streams)
        keep = np.ones(len(stack), dtype=bool)
        for k, pts in enumerate(stack):
            # a coincident cloud has nothing to normalize
            d = 0.0 if (pts == pts[0]).all() else diameter(pts)
            if d > 0.0:
                pts /= d
            else:
                keep[k] = False
        if not keep.all():
            stack = stack[keep]
        if len(stack) == 0:
            continue
        ceilings = enclosing_radius_ceilings(stack, solver_tol)
        for k in np.argsort(-ceilings, kind="stable"):
            if ceilings[k] < max_radius:
                break
            max_radius = max(max_radius, min_enclosing_ball(stack[k], tol=solver_tol).radius)
    clouds_ok = max_radius <= r_n + tol
    return {"r_n": r_n, "simplex": {"radius": simplex_radius, "ok": simplex_ok},
            "clouds": {"trials": clouds, "max_radius": max_radius, "ok": clouds_ok},
            "pass": simplex_ok and clouds_ok}


# ---------------------------------------------------------------------------
# suites: run(rng, samples, expect_fail) -> dict with a "failures" list


def _caps(rng: RngStream, samples: None, expect_fail: bool) -> dict:
    failures = []
    for n, alpha in itertools.product((2, 3, 5, 8, 13, 21, 34, 55, 89),
                                      np.linspace(0.1, math.pi / 2.0 - 0.1, 15)):
        alpha = float(alpha)
        m = cap_measure_exact(n, alpha)
        lo, hi = cap_measure_bounds(n, alpha)
        if not lo < m < hi:
            failures.append({"n": n, "alpha": alpha, "lower": lo, "exact": m, "upper": hi})
        sym = m + cap_measure_exact(n, math.pi - alpha)
        if abs(sym - 1.0) > 1e-12:
            failures.append({"n": n, "alpha": alpha, "symmetry": sym})
    return {"failures": failures}


_CONE_GRID = [(math.pi / 6.0, 0.5), (math.pi / 6.0, 1.5),
              (math.pi / 3.0, 0.5), (math.pi / 3.0, 1.5),
              (1.3, 0.5), (1.3, 1.5)]


def _cone(rng: RngStream, probes: int, expect_fail: bool) -> dict:
    """Cells (n, alpha, ell); the fault-injected variant must find
    violations in every cell (bounds.cone_negative_control)."""
    reports = []
    failures = []
    for cell, (n, (alpha, ell)) in enumerate(itertools.product((2, 3), _CONE_GRID)):
        cone = _bounds.ConeSpec(np.zeros(n), np.eye(n)[-1], alpha, ell)
        if expect_fail:
            rep = _bounds.cone_negative_control(n, cone, probes, rng.child(cell))
            ok = rep["violations"] >= 1
        else:
            eps = 0.5 * _bounds.cone_constants(alpha, ell).eps0
            rep = _bounds.verify_cone_inclusion(n, cone, eps, probes, rng.child(cell))
            ok = rep["pass"]
        reports.append(rep)
        if not ok:
            failures.append({"n": n, "alpha": alpha, "ell": ell,
                             "violations": rep["violations"]})
    return {"reports": reports, "failures": failures}


def _sweep(rng: RngStream, trials: int, expect_fail: bool) -> dict:
    rep = _bounds.verify_sweep_inequality(trials, rng.child(0))
    return {"report": rep, "failures": rep["examples"]}


def _edges(rng: RngStream, trials: int, expect_fail: bool) -> dict:
    reports = []
    failures = []
    for idx, (n, alpha) in enumerate(itertools.product((2, 3, 5), (1.0, 1.3))):
        rep = edge_measure_audit(n, alpha, trials, rng.child(idx), anchors=8)
        reports.append(rep)
        if not rep["pass"]:
            failures.append({"n": n, "alpha": alpha})
    return {"reports": reports, "failures": failures}


def segment_body() -> HalfspaceIntersectionBody:
    """Unit segment on the x-axis as a degenerate halfspace intersection."""
    normals = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    offsets = [0.5, 0.5, 0.0, 0.0]
    return HalfspaceIntersectionBody(normals, offsets, Ball(np.zeros(2), 0.5))


def strip_rotations(net: IsometryNet) -> IsometryNet:
    """Fault injection for cover audits: drop every rotation of the net but
    the identity, destroying rotational coverage."""
    keep = np.isclose(net.rotations, np.eye(net.dim), atol=1e-12).all(axis=(1, 2))
    cert = dict(net.certificate)
    cert["fault"] = "rotation net removed"
    return IsometryNet(net.dim, net.delta, net.rotations[keep], net.translations, cert)


def _cover(rng: RngStream, trials: int, expect_fail: bool) -> dict:
    """The cover family of segment_body(); the fault-injected variant strips
    its rotations and must then fail some trial."""
    body = segment_body()
    eps = 0.2
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, eps)
    if expect_fail:
        net = strip_rotations(net)
    rep = audit_cover_family(net, body, window, eps, trials, rng.child(2))
    if expect_fail:
        failures = [] if rep["failures"] else [{"undetected": net.certificate["fault"]}]
    else:
        failures = rep["failure_examples"]
    return {"net_size": len(net), "report": rep, "failures": failures}


class Suite(NamedTuple):
    run: Callable[[RngStream, int | None, bool], dict]
    samples: int | None  # default sample count; None: the suite takes none
    fault: bool  # has a fault-injected variant (--expect-fail)


SUITES = {
    "caps": Suite(_caps, None, False),
    "cone": Suite(_cone, 2000, True),
    "sweep": Suite(_sweep, 1000, False),
    "edges": Suite(_edges, 20000, False),
    "cover": Suite(_cover, 200, True),
}


def run_suite(name: str, rng: RngStream, samples: int | None = None,
              expect_fail: bool = False) -> dict:
    """Run SUITES[name] at `samples` (None: its default count); the suite
    passes when it reports no failure. In the fault-injected variant a
    failure is an injected fault that went undetected."""
    suite = SUITES[name]
    result = suite.run(rng, suite.samples if samples is None else samples, expect_fail)
    if suite.fault:
        result["fault_injection"] = expect_fail
    result.update({"suite": name, "pass": not result["failures"]})
    return result
