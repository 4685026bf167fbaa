"""Non-cover witnesses: the cover family a witness must defeat, the one
verdict on a candidate set X, the seeded search that emits a certificate,
and the verifier that rechecks one from its JSON alone. A certificate names
its family by its rule, and the verifier counts against the family it
regenerates, so a certificate cannot claim a smaller one.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np

from .bodies import Body, body_from_json_dict
from .coclique import (
    EDGE_MEASURE_NODES,
    CocliqueParams,
    build_coclique,
    check_hypotheses,
    edge_measure_exact,
    edge_threshold,
    family_counts,
    geometric_spec,
)
from .families import CoverFamily
from .geom_core import (
    PREDICATE_TOL,
    Ball,
    RngStream,
    as_points,
    ball_volume_log,
    diameter,
    lens_measure,
)
from .isometry_nets import IsometryNet, build_cover_family

SCHEMA_VERSION = 2  # of certificates and their verification reports
ENUMERATION_CAP = 1_000_000  # k-subsets enumerated exhaustively below this
FAMILY_CAP = 10**7  # most members a search builds; larger families are refused unbuilt
# orthogonal nets are deterministic grids here, so families regenerate exactly
WITNESS_DIMS = (2, 3)
# the family each certificate schema names, by its rule
MEMBER_RULES = {
    1: "member = g(thicken(base_body, eps)) for g in net.elements",
    2: "member = g(thicken(base_body, eps)) for g in witness_family(base_body, r, eps).net",
}
# the closed forms behind a certificate's estimates; lens(d; a, b) is
# Vol(B(0, a) & B(d e_1, b)) / Vol(a B_n) (geom_core.lens_measure), and V
# bounds Vol(base + eps B_n) (bodies.Body.thickened_volume)
MEMBER_FORMULA = "lens(min_i |c_i|; r, R + eps)"
MEMBER_BOUND_FORMULA = "min(1, V / Vol(r B_n)), V = thickened_volume(base_body, eps)"
EDGE_FORMULA = (f"1 - E_x[lens(|x|; r, threshold)], {EDGE_MEASURE_NODES}-node "
                "Gauss-Legendre in u, |x| = s0 + (r - s0) u^2")


def check_witness_dim(n: int) -> None:
    """The witness domain, shared by the search and the verifier: a family
    is regenerated exactly only for n in WITNESS_DIMS."""
    if n not in WITNESS_DIMS:
        dims = ", ".join(map(str, WITNESS_DIMS))
        raise ValueError(f"n = {n} is outside the witness domain n in {{{dims}}}: "
                         "its family cannot be regenerated")


def default_alpha(r: float) -> float:
    """Largest cap angle keeping the edge threshold 2 r cos(alpha/2) at 1
    (so cocliques have diameter <= 1); a fixed interior angle when r <= 1/2
    already keeps the threshold below 1. From r = 1/sqrt(2) on, that angle
    is at least pi/2, outside the cap-angle domain, so there is no default."""
    if r <= 0.5:
        return 1.0
    alpha = 2.0 * math.acos(1.0 / (2.0 * r))
    if alpha >= math.pi / 2.0:
        raise ValueError(f"r = {r} is at least 1/sqrt(2), where no default cap angle in "
                         "(0, pi/2) keeps the edge threshold at 1: --alpha must be given")
    return alpha


def witness_family(base: Body, r: float, eps: float, max_size: float = math.inf) -> CoverFamily:
    """The copies g(base + eps B_n) for g in the cover family of every
    placement of `base` that can touch r B_n. diam(base) is bounded by
    2 (|c| + R) from its bounding ball, and a copy touching r B_n has
    |g(0)| <= r + diam(base) + eps. A family that must hold more than
    `max_size` members is refused before it is built."""
    diam_bound = 2.0 * (float(np.linalg.norm(base.bound.center)) + base.bound.radius)
    window = Ball(np.zeros(base.dim), r + diam_bound + eps)
    return CoverFamily(base, eps, build_cover_family(base, diam_bound, window, eps,
                                                     max_size=max_size))


def verdict(points: np.ndarray, counts, family: CoverFamily, k: int,
            threshold: float) -> tuple[bool, float, str]:
    """Is X (the points) a witness: non-empty, of diameter <= threshold,
    and covered by no k members of the family? Returns the verdict, the
    diameter of X and the non-coverage method.

    k = 1 reads off the per-member counts. Small k-subset spaces are
    enumerated exhaustively on the membership matrix; above the
    enumeration cap, the sum of the k largest counts < |X| certificate is
    used (a union never covers more than the sum of its parts). Coverage of
    a set wider than the threshold is not decided (method "diameter").
    k must lie in [1, |family|]: more members than the family holds state
    nothing, and exhaustive enumeration would allocate k indices first.
    """
    if not 1 <= k <= len(family):
        raise ValueError(f"k = {k} must lie in [1, {len(family)}], the family size")
    if len(points) == 0:
        return False, 0.0, "empty"
    diam = diameter(points)
    if diam > threshold:
        return False, diam, "diameter"
    counts = np.asarray(counts)
    if k == 1:
        return bool(np.all(counts < len(points))), diam, "per-member-counts"
    if math.comb(counts.size, k) <= ENUMERATION_CAP:
        masks = family.contains(points)
        covered = any(bool(np.all(np.any(masks[list(combo)], axis=0)))
                      for combo in itertools.combinations(range(counts.size), k))
        return not covered, diam, "exhaustive-enumeration"
    top = np.sort(counts)[-k:]
    return bool(int(top.sum()) < len(points)), diam, "count-sum"


def _estimates(family: CoverFamily, r: float, threshold: float) -> dict:
    """The estimates entries by name, each a closed form: the edge measure,
    and the largest member measure on r B_n. Ball members B(c, R + eps) lose
    measure on r B_n as |c| grows (Anderson's inequality), so the member
    nearest the origin has the exact maximum. Any other member is a copy of
    base + eps B_n, so the base's thickened volume bounds every one."""
    n = family.dim
    if family.centers is not None:
        nearest = math.sqrt(float(family.centers_sq.min()))
        member = {"value": lens_measure(n, nearest, r, family.radius), "method": "exact",
                  "formula": MEMBER_FORMULA}
    else:
        volume = family.base.thickened_volume(family.eps) / math.exp(ball_volume_log(n, r))
        member = {"value": min(1.0, volume), "method": "bound", "formula": MEMBER_BOUND_FORMULA}
    return {"member_measure_max": member, "edge_measure": {
        "value": edge_measure_exact(n, r, threshold), "method": "exact", "formula": EDGE_FORMULA}}


def _estimates_check(estimates: dict, family: CoverFamily, r: float, threshold: float) -> dict:
    """The estimates-recomputed check: the certificate states exactly the
    recomputed entries, each bit for bit (method, formula and value), but a
    member bound stated as a Monte Carlo estimate, as schema-2 certificates
    gave it before the bound, is reported as not rechecked."""
    fresh = _estimates(family, r, threshold)
    probed = [name for name, entry in fresh.items() if entry["method"] == "bound"
              and name in estimates and estimates[name]["method"] == "monte-carlo"]
    ok = sorted(estimates) == sorted(fresh) and all(
        name in probed or json.dumps(estimates[name], sort_keys=True)
        == json.dumps(entry, sort_keys=True) for name, entry in fresh.items())
    return {"name": "estimates-recomputed", "ok": ok,
            "recomputed": sorted(set(fresh) - set(probed)), "not_rechecked": probed}


def search_witness(base: Body, seed: int, r: float, alpha: float, k: int, eps: float,
                   M: int, p: float, max_retries: int, config: dict) -> dict:
    """Seeded search for a witness against witness_family(base, r, eps);
    returns its certificate, a deterministic function of the arguments.
    `config` is the caller's echo of its arguments."""
    n = base.dim
    check_witness_dim(n)
    # the parameter checks (n, M, k, p, retries, alpha, the unit-diameter
    # edge threshold) all run before the family is built
    params = CocliqueParams(M=M, k=k, p=p, max_retries=max_retries)
    spec = geometric_spec(n, r, alpha, unit_diameter=True)
    family = spec.family = witness_family(base, r, eps, max_size=FAMILY_CAP)

    # the lemma's two measures on r B_n (diagnostic only; never gate the verdict)
    threshold = edge_threshold(r, alpha)
    estimates = _estimates(family, r, threshold)
    hypotheses = check_hypotheses(params, len(family),
                                  [estimates["member_measure_max"]["value"]],
                                  estimates["edge_measure"]["value"])
    if not hypotheses["pass"]:
        warnings.warn("lemma hypotheses fail on measured estimates; "
                      "continuing — the verdict is decided by direct "
                      "verification", UserWarning)

    # randomized coclique search, accepting on the certificate's verdict
    result = build_coclique(spec, params, RngStream(seed, 0).child(4),
                            accept=lambda x, counts: verdict(x, counts, family, k, threshold)[0])
    holds, diam_x, method = verdict(result.X, result.per_Y_counts, family, k, threshold)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "witness-certificate",
        "config": config,
        "n": n,
        "k": k,
        "r": r,
        "alpha": alpha,
        "threshold": threshold,
        "family_manifest": {
            "base_body": base.to_json_dict(),
            "eps": eps,
            "net": {"dim": n, "delta": family.net.delta, "certificate": family.net.certificate},
            "member_rule": MEMBER_RULES[SCHEMA_VERSION],
        },
        "X": {"dim": n, "points": result.X.tolist()},
        "diam_X": diam_x,
        "per_member_counts": list(result.per_Y_counts),
        "verdict": holds,
        "non_coverage_method": method,
        "coclique": {
            "success": result.success,
            "retries_used": result.retries_used,
            "edges_found_per_attempt": result.edges_found_per_attempt,
            "rule": result.rule,
            "diagnostics": result.diagnostics,
        },
        "estimates": estimates,
        "hypotheses": hypotheses,
    }


_JSON_KINDS = {int: ({int}, "integer"), float: ({int, float}, "number")}


def _json_numbers(field: str, values: list, kind: type) -> list:
    """`values` if it is a list of JSON integers (kind int) or of JSON
    numbers (kind float: ints and floats). json.load reads true as a bool
    and "2" as a str; where a number belongs, either makes the certificate
    malformed instead of being read as 1 or 2."""
    allowed, noun = _JSON_KINDS[kind]
    if type(values) is not list or not set(map(type, values)) <= allowed:
        raise ValueError(f"malformed certificate: {field} holds a value that is "
                         f"not a JSON {noun}")
    return values


def verify_witness_certificate(cert: dict) -> dict:
    """Recheck a certificate from its JSON alone: regenerate the family from
    its base body, r and eps, compare the stated net record, member rule
    (and a schema-1 certificate's element list) with it, and recompute the
    threshold, the diameter, the counts, the verdict and its method against
    it, and every estimate, each a closed form (see _estimates_check). No
    search is re-run."""
    version = cert["schema_version"]
    if type(version) is not int or version not in MEMBER_RULES:
        raise ValueError(f"schema_version {version!r} is not one of "
                         f"{', '.join(map(str, MEMBER_RULES))}")
    if cert["kind"] != "witness-certificate":
        raise ValueError(f"kind {cert['kind']!r} is not a witness certificate")
    manifest = cert["family_manifest"]
    stated = manifest["net"]
    n, k, net_dim, r, alpha, threshold, diam_stated, eps, delta = (
        _json_numbers(name, [value], kind)[0] for name, value, kind in (
            ("n", cert["n"], int), ("k", cert["k"], int), ("net.dim", stated["dim"], int),
            ("r", cert["r"], float), ("alpha", cert["alpha"], float),
            ("threshold", cert["threshold"], float), ("diam_X", cert["diam_X"], float),
            ("eps", manifest["eps"], float), ("net.delta", stated["delta"], float)))
    points = cert["X"]["points"]
    _json_numbers("X.points", [x for point in points for x in point], float)
    X = as_points(np.asarray(points, dtype=float).reshape(len(points), cert["X"]["dim"]))
    base = body_from_json_dict(manifest["base_body"])
    listed = IsometryNet.from_json_dict(stated) if "elements" in stated else None
    stored = np.asarray(_json_numbers("per_member_counts", cert["per_member_counts"], int),
                        dtype=int)
    check_witness_dim(n)
    if not r > 0.0:
        raise ValueError(f"r = {r} is not a positive radius")
    if X.shape[1] != n or base.dim != n:
        raise ValueError(f"X and the base body must have dimension n = {n}")
    family = witness_family(base, r, eps, max_size=len(stored))
    fresh = family.net
    counts = family_counts(family, X)
    holds, diam, method = verdict(X, counts, family, k, threshold)
    checks = [
        {"name": "threshold-recomputed", "recomputed": edge_threshold(r, alpha),
         "ok": threshold == edge_threshold(r, alpha) and threshold <= 1.0 + PREDICATE_TOL},
        {"name": "family-regenerated", "ok": manifest["member_rule"] == MEMBER_RULES[version]
         and net_dim == n and delta == fresh.delta and stated["certificate"] == fresh.certificate
         and (listed is None or fresh.lists(*listed.members(np.arange(len(listed)))))},
        {"name": "diameter-recomputed", "recomputed": diam,
         "ok": abs(diam - diam_stated) <= 1e-12},
        {"name": "diameter-threshold", "ok": diam <= threshold, "threshold": threshold}
        if len(X) > 0 else {"name": "diameter-threshold", "ok": False, "note": "empty witness"},
        {"name": "membership-counts",
         "ok": counts.shape == stored.shape and bool(np.all(counts == stored))},
        {"name": "non-coverage", "ok": holds, "method": method,
         "stored_method": cert["non_coverage_method"]},
        {"name": "verdict-matches", "recomputed": holds,
         "ok": cert["verdict"] is holds and cert["non_coverage_method"] == method},
        _estimates_check(cert["estimates"], family, r, edge_threshold(r, alpha)),
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "witness-verification",
        "checks": checks,
        "verdict": holds,
        "pass": all(c["ok"] for c in checks),
    }
