"""Randomized deletion construction of large cocliques in measurable
graphs, with the tail bounds and hypothesis checks that justify it.

The template: draw M i.i.d. samples, delete one endpoint of every edge,
and test that no family member grabbed too many survivors. When the
hypotheses hold (each member has measure at most p, the family is small
against the Chernoff tail, and the edge measure is at most 1/(2M)), an
attempt succeeds with positive probability; attempts are retried over
independent substreams and the first success by attempt index is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp

from .geom_core import PointSet, RngStream, cap_measure_exact, sq_distances, uniform_ball_points


@dataclass
class MeasurableGraphSpec:
    """Sampling law, symmetric irreflexive edge predicate, and a finite
    family: a list of membership oracles (objects exposing contains_many,
    labelled Y0, Y1, ... by default) or a bodies.CoverFamily."""

    dim: int
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    edge_matrix: Callable[[np.ndarray], np.ndarray]
    family: list
    labels: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.labels and isinstance(self.family, list):
            self.labels = [f"Y{i}" for i in range(len(self.family))]
        if self.labels and len(self.labels) != len(self.family):
            raise ValueError("one label per family member required")

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        pts = np.asarray(self.sampler(gen, count), dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape != (count, self.dim):
            raise ValueError("sampler returned wrong shape")
        return pts

    def edge(self, x, y) -> bool:
        pair = np.vstack([np.atleast_1d(x), np.atleast_1d(y)]).astype(float)
        m = self.edge_matrix(pair)
        return bool(m[0, 1])


@dataclass
class CocliqueParams:
    M: int
    k: int
    p: float
    max_retries: int = 64

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 1/2)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")
        self.M = int(self.M)
        self.k = int(self.k)

    @property
    def count_threshold(self) -> int:
        """Strict integer threshold for |X intersect Y| comparisons."""
        return int(math.ceil(self.M / (2.0 * self.k)))

    def to_json_dict(self) -> dict:
        return {"M": self.M, "k": self.k, "p": self.p, "max_retries": self.max_retries}


@dataclass
class CocliqueResult:
    success: bool
    X: PointSet
    retries_used: int
    edges_found_per_attempt: list[int]
    per_Y_counts: list[int]
    rule: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "X": self.X.to_json_dict(),
            "retries_used": self.retries_used,
            "edges_found_per_attempt": self.edges_found_per_attempt,
            "per_Y_counts": self.per_Y_counts,
            "rule": self.rule,
            "diagnostics": self.diagnostics,
        }


def chernoff_bound_log(M: int, k: int, p: float) -> float:
    if M < 1 or k < 1:
        raise ValueError("M and k must be positive")
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    return (M / (2.0 * k)) * math.log(2.0 * math.e * k * p)


def chernoff_bound(M: int, k: int, p: float) -> float:
    """Tail bound (2ekp)^(M/(2k)) for the count of samples landing in one
    member; vacuous (>= 1) when 2ekp >= 1."""
    return math.exp(chernoff_bound_log(M, k, p))


def exact_binomial_tail(M: int, p: float, t: int) -> float:
    """P(Bin(M, p) >= t) summed in log space."""
    if int(M) != M or M < 0:
        raise ValueError("M must be a nonnegative integer")
    if int(t) != t or not 0 <= t <= M:
        raise ValueError("t must be an integer in [0, M]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    M, t = int(M), int(t)
    if t == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    j = np.arange(t, M + 1)
    log_terms = (
        gammaln(M + 1) - gammaln(j + 1) - gammaln(M - j + 1)
        + j * math.log(p) + (M - j) * math.log1p(-p)
    )
    return float(np.exp(logsumexp(log_terms)))


def check_hypotheses(params: CocliqueParams, family_size: int,
                     nu_Y_bounds, edge_measure: float) -> dict:
    """Per-condition report with margins; never raises on a failed
    condition."""
    nu = np.asarray(nu_Y_bounds, dtype=float).reshape(-1)
    conditions = []

    limit_k = 1.0 / (2.0 * params.p)
    conditions.append({
        "name": "parameter-domain",
        "statement": "1 <= k <= 1/(2p)",
        "ok": bool(1 <= params.k <= limit_k),
        "margin": limit_k - params.k,
    })

    worst_nu = float(nu.max()) if nu.size else float("-inf")
    conditions.append({
        "name": "member-measure",
        "statement": "nu(Y) <= p for every member",
        "ok": bool(nu.size == 0 or worst_nu <= params.p),
        "margin": params.p - worst_nu if nu.size else float("inf"),
    })

    log_limit = math.log(0.5) - chernoff_bound_log(params.M, params.k, params.p)
    log_margin = log_limit - math.log(family_size) if family_size > 0 else float("inf")
    conditions.append({
        "name": "family-size",
        "statement": "|family| <= (1/2) (2ekp)^(-M/(2k))",
        "ok": bool(log_margin >= 0.0),
        "margin_log": log_margin,
    })

    edge_limit = 1.0 / (2.0 * params.M)
    conditions.append({
        "name": "edge-measure",
        "statement": "(nu x nu)(E) <= 1/(2M)",
        "ok": bool(edge_measure <= edge_limit),
        "margin": edge_limit - edge_measure,
    })

    return {"pass": all(c["ok"] for c in conditions), "conditions": conditions}


def family_counts(family, points: np.ndarray) -> np.ndarray:
    """How many of the points each member contains. An array family
    (bodies.CoverFamily) counts all members at once; a list of oracles is
    asked member by member."""
    if hasattr(family, "counts"):
        return family.counts(points)
    return np.array(
        [int(np.count_nonzero(f.contains_many(points))) for f in family], dtype=int
    )


def family_membership_matrix(family, points: np.ndarray) -> np.ndarray:
    """Boolean matrix: entry (i, j) says member i contains point j."""
    if hasattr(family, "counts"):
        return family.contains(points)
    return np.array([f.contains_many(points) for f in family],
                    dtype=bool).reshape(len(family), len(points))


def _greedy_delete(edge_mat: np.ndarray) -> np.ndarray:
    """Delete the endpoint with the larger incident-edge count, ties by
    sample index; returns the keep mask."""
    work = edge_mat.copy()
    keep = np.ones(work.shape[0], dtype=bool)
    while True:
        deg = work.sum(axis=1)
        worst = int(np.argmax(deg))
        if deg[worst] == 0:
            return keep
        keep[worst] = False
        work[worst, :] = False
        work[:, worst] = False


def build_coclique(spec: MeasurableGraphSpec, params: CocliqueParams,
                   rng: RngStream,
                   accept: Callable[[np.ndarray, np.ndarray], bool] | None = None
                   ) -> CocliqueResult:
    """Sample, delete, and test until an attempt is accepted or retries run
    out.

    Per attempt: draw M points; if the edge count exceeds M/2 the attempt
    is abandoned (the deletion guarantee |X| >= M/2 would be lost);
    otherwise delete greedily and evaluate the acceptance rule. The default
    rule is the per-member count test (every count < ceil(M/(2k))), which
    also certifies that no k members cover X, since k members then hold
    fewer than k * M/(2k) <= |X| points. A custom `accept(points, counts)`
    replaces the count test; the edge gate and deletion are unchanged.
    """
    edges_per_attempt: list[int] = []
    attempt_log: list[dict] = []
    last_x = np.empty((0, spec.dim))
    last_counts = np.zeros(len(spec.family), dtype=int)
    rule = "per-member-counts" if accept is None else "custom-accept"

    for attempt in range(params.max_retries):
        gen = rng.child(attempt).generator()
        z = spec.sample(gen, params.M)
        edge_mat = np.asarray(spec.edge_matrix(z), dtype=bool)
        np.fill_diagonal(edge_mat, False)
        edge_count = int(edge_mat.sum()) // 2
        edges_per_attempt.append(edge_count)
        if edge_count > params.M / 2.0:
            attempt_log.append({"attempt": attempt, "edges": edge_count,
                                "outcome": "edge-overflow"})
            continue
        keep = _greedy_delete(edge_mat)
        x = z[keep]
        counts = family_counts(spec.family, x)
        last_x, last_counts = x, counts
        if accept is None:
            ok = bool(np.all(counts < params.count_threshold)) if counts.size else True
        else:
            ok = bool(accept(x, counts))
        attempt_log.append({"attempt": attempt, "edges": edge_count,
                            "survivors": int(len(x)),
                            "outcome": "accepted" if ok else "rejected"})
        if ok:
            return CocliqueResult(
                success=True,
                X=PointSet(spec.dim, x),
                retries_used=attempt,
                edges_found_per_attempt=edges_per_attempt,
                per_Y_counts=[int(c) for c in counts],
                rule=rule,
                diagnostics={"attempts": attempt_log,
                             "count_threshold": params.count_threshold},
            )

    return CocliqueResult(
        success=False,
        X=PointSet(spec.dim, last_x),
        retries_used=params.max_retries,
        edges_found_per_attempt=edges_per_attempt,
        per_Y_counts=[int(c) for c in last_counts],
        rule=rule,
        diagnostics={"attempts": attempt_log,
                     "count_threshold": params.count_threshold,
                     "note": "retries exhausted"},
    )


def edge_threshold(r: float, alpha: float) -> float:
    """Far-pair distance 2 r cos(alpha/2) of the geometric graph on r B_n."""
    return 2.0 * r * math.cos(alpha / 2.0)


def geometric_spec(n: int, r: float, alpha: float, family,
                   labels: list[str] | None = None,
                   unit_diameter: bool = False) -> MeasurableGraphSpec:
    """Uniform sampling on r B_n with far-pair edges:
    edge(x, y) iff |x - y| >= 2 r cos(alpha/2)."""
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    if r <= 0:
        raise ValueError("r must be positive")
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("alpha must lie in (0, pi/2)")
    n = int(n)
    threshold = edge_threshold(r, alpha)
    if unit_diameter and threshold > 1.0 + 1e-12:
        raise ValueError(
            f"2 r cos(alpha/2) = {threshold:.6f} > 1; a diameter-1 witness "
            "needs the edge threshold at or below 1"
        )

    def sampler(gen, count):
        return uniform_ball_points(gen, n, r, count)

    def edge_matrix(points):
        mat = sq_distances(points, points) >= threshold * threshold
        np.fill_diagonal(mat, False)
        return mat

    return MeasurableGraphSpec(
        dim=n,
        sampler=sampler,
        edge_matrix=edge_matrix,
        family=family if hasattr(family, "counts") else list(family),
        labels=list(labels) if labels is not None else [],
        meta={"r": r, "alpha": alpha, "edge_threshold": threshold},
    )


def edge_measure_audit(n: int, alpha: float, trials: int, rng: RngStream,
                       anchors: int = 20) -> dict:
    """For anchors x in the unit ball, the far-point fraction
    P(|x - y| >= 2 cos(alpha/2)) must stay within m(alpha) + 3 sigma, and
    every far y must satisfy y . (-x/|x|) >= cos(alpha)."""
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("alpha must lie in (0, pi/2)")
    if anchors < 2:
        raise ValueError("at least the origin and one more anchor required")
    n = int(n)
    threshold = edge_threshold(1.0, alpha)
    m_alpha = cap_measure_exact(n, alpha)
    sigma = math.sqrt(m_alpha * (1.0 - m_alpha) / trials)
    gen = rng.generator()

    anchor_pts = [np.zeros(n)]
    boundary_dir = gen.standard_normal(n)
    boundary_dir /= np.linalg.norm(boundary_dir)
    anchor_pts.append(0.999 * boundary_dir)
    anchor_pts.extend(uniform_ball_points(gen, n, 1.0, anchors - 2))

    rows = []
    cos_alpha = math.cos(alpha)
    for i, x in enumerate(anchor_pts):
        ys = uniform_ball_points(rng.child(i + 1).generator(), n, 1.0, trials)
        far = np.linalg.norm(ys - x, axis=1) >= threshold
        fraction = float(np.count_nonzero(far)) / trials
        norm_x = float(np.linalg.norm(x))
        if norm_x > 0 and np.any(far):
            v = -x / norm_x
            cone_ok = bool(np.all(ys[far] @ v >= cos_alpha))
        else:
            cone_ok = True  # no far points exist (trivial at the origin)
        rows.append({
            "anchor_norm": norm_x,
            "far_fraction": fraction,
            "bound": m_alpha + 3.0 * sigma,
            "fraction_ok": fraction <= m_alpha + 3.0 * sigma,
            "cone_ok": cone_ok,
            "origin_exact_zero": (norm_x == 0.0 and fraction == 0.0) or norm_x > 0,
        })
    ok = all(r["fraction_ok"] and r["cone_ok"] and r["origin_exact_zero"] for r in rows)
    return {
        "n": n,
        "alpha": alpha,
        "cap_measure": m_alpha,
        "sigma": sigma,
        "trials_per_anchor": int(trials),
        "anchors": rows,
        "pass": ok,
    }
