"""Desk-scale evaluators for the volume lower bound and the lemmas feeding
it: the exact 1-D sweep-set inequality, cone-inclusion constants with an MC
audit, the thickening budget, and log-space bound arithmetic that stays
finite far beyond floating-point range.

Every asymptotic convention (o(1) terms set to zero, unnamed constants
fitted empirically) is recorded in a report's `conventions` block; fitted
values are diagnostics, never assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom_core import (
    PREDICATE_TOL,
    RngStream,
    as_dim,
    as_points,
    as_vector,
    ball_volume_log,
    cap_measure_exact,
    jung_radius,
    row_norms,
    uniform_ball_points,
)

_LOG_FLOAT_MAX = 709.0
SWEEP_MAX_COMPONENTS = 6  # most components of U in a verify_sweep_inequality instance
CONE_T_POINTS = 17  # grid points in t of each cone sweep


# ---------------------------------------------------------------------------
# one-dimensional sweep sets


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of closed intervals, stored sorted and disjoint."""

    intervals: tuple = ()

    def __post_init__(self):
        prev_end = -math.inf
        clean = []
        for pair in self.intervals:
            a, b = float(pair[0]), float(pair[1])
            if not a <= b:
                raise ValueError(f"malformed interval [{a}, {b}]")
            if a < prev_end:
                raise ValueError("intervals must be sorted and disjoint")
            prev_end = b
            clean.append((a, b))
        object.__setattr__(self, "intervals", tuple(clean))

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalUnion":
        """Normalize arbitrary [a, b] pairs: drop empty ones, sort, merge
        overlapping or touching intervals."""
        cleaned = sorted((float(a), float(b)) for a, b in pairs if a <= b)
        merged: list[list[float]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference self minus other; exact on interval endpoints
        (boundaries carry no length)."""
        out = []
        for a, b in self.intervals:
            lo = a
            for c, d in other.intervals:
                if d <= lo:
                    continue
                if c >= b:
                    break
                if c > lo:
                    out.append((lo, min(c, b)))
                lo = max(lo, d)
                if lo >= b:
                    break
            if lo < b:
                out.append((lo, b))
        return IntervalUnion(tuple(out))

    def to_json_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}


def sweep_set_1d(U: IntervalUnion, h1: float, h2: float) -> IntervalUnion:
    """T = {x : [x + h1, x + h2] inside U}, computed exactly.

    A translate of positive length fits in U exactly when it fits in a
    single component [a, b], so T is the union of [a - h1, b - h2] over
    the components with b - a >= h2 - h1.
    """
    if not 0.0 < h1 < h2:
        raise ValueError("need 0 < h1 < h2")
    pairs = [(a - h1, b - h2) for a, b in U.intervals if b - a >= h2 - h1]
    return IntervalUnion.from_pairs(pairs)


def verify_sweep_inequality(trials: int, rng: RngStream) -> dict:
    """Randomized exact check of Vol(T minus U) <= h1/(h2-h1) * Vol(U).

    Instances use dyadic endpoints (multiples of 1/1024) so every length,
    difference, and the cross-multiplied comparison below are exact in
    floating point; no tolerance is applied.
    """
    gen = rng.generator()
    violations = 0
    examples: list[dict] = []
    worst = -math.inf
    for _ in range(int(trials)):
        parts = int(gen.integers(1, SWEEP_MAX_COMPONENTS + 1))
        # sorted distinct cuts pair up into sorted disjoint intervals
        ends = (np.sort(gen.choice(2048, size=2 * parts, replace=False)) / 1024.0).tolist()
        U = IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
        j = int(gen.integers(2, 513))
        i = int(gen.integers(1, j))
        h1, h2 = i / 1024.0, j / 1024.0
        T = sweep_set_1d(U, h1, h2)
        # cross-multiplied to avoid the inexact division h1/(h2-h1)
        lhs = T.difference(U).total_length * (h2 - h1)
        rhs = h1 * U.total_length
        worst = max(worst, lhs - rhs)
        if lhs > rhs:
            violations += 1
            if len(examples) < 5:
                examples.append({"U": U.to_json_dict(), "h1": h1, "h2": h2,
                                 "excess": lhs - rhs})
    return {"trials": int(trials), "violations": violations,
            "max_excess": worst, "pass": violations == 0, "examples": examples}


# ---------------------------------------------------------------------------
# cone inclusion


class ConeConstants(NamedTuple):
    eps0: float
    c1: float
    c2: float


def cone_constants(alpha: float, ell: float) -> ConeConstants:
    """eps0 = (ell/3) tan(alpha/2) cos(alpha), c1 = 1/sin(alpha/2),
    c2 = ell/3."""
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("alpha must lie in (0, pi/2)")
    if ell <= 0:
        raise ValueError("height must be positive")
    eps0 = (ell / 3.0) * math.tan(alpha / 2.0) * math.cos(alpha)
    return ConeConstants(eps0, 1.0 / math.sin(alpha / 2.0), ell / 3.0)


@dataclass(frozen=True)
class ConeSpec:
    """Solid cone with apex a, unit axis xi, half-angle alpha and height
    ell: x belongs iff |x - a| cos(alpha) <= (x - a) . xi <= ell."""

    apex: np.ndarray
    axis: np.ndarray
    angle: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "apex", as_vector(self.apex))
        object.__setattr__(self, "axis", as_vector(self.axis))
        if self.apex.shape != self.axis.shape:
            raise ValueError("apex and axis dimensions differ")
        if abs(float(np.linalg.norm(self.axis)) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit vector")
        if not 0.0 < self.angle < math.pi / 2.0:
            raise ValueError("angle must lie in (0, pi/2)")
        if self.height <= 0:
            raise ValueError("height must be positive")

    @property
    def dim(self) -> int:
        return int(self.apex.shape[0])

    def contains_many(self, points, tol: float = 0.0) -> np.ndarray:
        pts = as_points(points, self.dim)
        rel = pts - self.apex
        proj = rel @ self.axis
        norms = row_norms(rel)
        return (proj >= norms * math.cos(self.angle) - tol) & \
               (proj <= self.height + tol)


def _householder_to(axis: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping e1 to `axis` (a reflection, or the
    identity when axis is already e1)."""
    n = axis.shape[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = e1 - axis
    norm_w = float(np.linalg.norm(w))
    if norm_w < 1e-12:
        return np.eye(n)
    w = w / norm_w
    return np.eye(n) - 2.0 * np.outer(w, w)


def _cap_directions(gen: np.random.Generator, axis: np.ndarray,
                    half_angle: float, count: int) -> np.ndarray:
    """Uniform unit vectors within angle half_angle of axis; exact cap
    sampling for n in {2, 3} (arc-uniform angle, height-uniform z)."""
    n = axis.shape[0]
    if n == 2:
        theta = gen.uniform(-half_angle, half_angle, size=count)
        local = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        z = gen.uniform(math.cos(half_angle), 1.0, size=count)
        phi = gen.uniform(0.0, 2.0 * math.pi, size=count)
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        local = np.stack([z, s * np.cos(phi), s * np.sin(phi)], axis=1)
    else:
        raise ValueError("cap sampling implemented for n in {2, 3}")
    return local @ _householder_to(axis).T


def _cone_constants_for(n: int, cone: ConeSpec) -> ConeConstants:
    if n not in (2, 3):
        raise ValueError("verification is desk-scale: n in {2, 3}")
    if cone.dim != n:
        raise ValueError("cone dimension does not match n")
    return cone_constants(cone.angle, cone.height)


def _cone_sweep(cone: ConeSpec, const: ConeConstants, eps: float, window_eps: float,
                probes: int, rng: RngStream) -> dict:
    """x + t rho for x in apex + eps B_n, rho within alpha/2 of the axis, t
    on a grid over [c1 window_eps, c1 window_eps + c2]."""
    gen = rng.generator()
    rho = _cap_directions(gen, cone.axis, cone.angle / 2.0, int(probes))
    x = cone.apex + uniform_ball_points(gen, cone.dim, eps, int(probes))
    t_lo = const.c1 * window_eps
    t = np.linspace(t_lo, t_lo + const.c2, CONE_T_POINTS)
    pts = x[:, None, :] + t[None, :, None] * rho[:, None, :]
    flat = pts.reshape(-1, cone.dim)
    inside = cone.contains_many(flat, tol=PREDICATE_TOL)
    bad = np.flatnonzero(~inside)
    examples = [{"point": [float(v) for v in flat[idx]],
                 "t": float(t[int(idx) % CONE_T_POINTS])} for idx in bad[:5]]
    return {"probes": int(probes), "t_points": CONE_T_POINTS,
            "evaluations": int(flat.shape[0]), "violations": int(bad.size),
            "pass": bad.size == 0, "examples": examples,
            "n": cone.dim, "alpha": cone.angle, "ell": cone.height,
            "eps": eps, "eps0": const.eps0, "c1": const.c1, "c2": const.c2}


def verify_cone_inclusion(n: int, cone: ConeSpec, eps: float, probes: int,
                          rng: RngStream) -> dict:
    """MC audit that the eps-ball at the apex sweeps inside the cone: for
    x in a + eps B_n, rho within angle alpha/2 of the axis, and t on a grid
    over [c1 eps, c1 eps + c2], the point x + t rho stays in the cone.

    Membership allows a 1e-12 slack: probes can land arbitrarily close to
    the boundary at the sharp corner (t = c1 eps with rho at the cap edge),
    and genuine violations (see cone_negative_control) are macroscopic.
    """
    const = _cone_constants_for(n, cone)
    if not 0.0 < eps < const.eps0:
        raise ValueError(f"eps must lie in (0, eps0) = (0, {const.eps0:.6g})")
    return _cone_sweep(cone, const, eps, eps, probes, rng)


def cone_negative_control(n: int, cone: ConeSpec, probes: int,
                          rng: RngStream, eps_factor: float = 1.5) -> dict:
    """Fault injection documenting sharpness: inflate the apex ball to
    eps_factor * eps0 while keeping the sweep window certified for eps0.

    The window [c1 eps, c1 eps + c2] grows with eps precisely so that the
    lateral clearance t sin(alpha/2) >= c1 eps sin(alpha/2) = eps keeps up
    with the perturbation; freezing the window at eps0 while perturbing by
    1.5 eps0 breaks that accounting, and violations appear near t = c1 eps0.
    """
    const = _cone_constants_for(n, cone)
    if eps_factor <= 0:
        raise ValueError("eps_factor must be positive")
    report = _cone_sweep(cone, const, eps_factor * const.eps0, const.eps0, probes, rng)
    report.update({"eps_factor": eps_factor, "expected_violations": eps_factor > 1.0})
    return report


# ---------------------------------------------------------------------------
# fixed constants of the construction


class ThickeningBudget(NamedTuple):
    eps: float
    ratio_bound: float
    log_eps: float


def thickening_budget(n: int) -> ThickeningBudget:
    """eps = 1/(55 * 5^n); the thickened-volume ratio bound
    1 + eps * 55 * 5^n equals 2 exactly by construction.

    log_eps is exact for every n; the linear eps underflows to 0.0 past
    n around 470 and is informational only there.
    """
    n = as_dim(n, 1)
    log_eps = -math.log(55.0) - n * math.log(5.0)
    if n <= 300:
        eps = 1.0 / (55.0 * 5.0 ** n)
    else:
        eps = math.exp(log_eps)
    return ThickeningBudget(eps, 2.0, log_eps)


class ConstantWidthGeometry(NamedTuple):
    R: float
    r: float
    alpha: float
    N_directions_exponent: int
    sin_half_alpha: float
    sin_half_exceeds_fifth: bool


def constant_width_geometry() -> ConstantWidthGeometry:
    """Constants of the two-radius constant-width construction: outer
    radius R = 1/sqrt(2) and inner radius r = 1 - 1/sqrt(2) summing to 1,
    contact angle alpha = arcsin(r/R) = arcsin(sqrt(2) - 1), direction
    count 5^n, and the check sin(alpha/2) > 1/5."""
    R = 1.0 / math.sqrt(2.0)
    r = 1.0 - R
    alpha = math.asin(r / R)
    sin_half = math.sin(alpha / 2.0)
    return ConstantWidthGeometry(R, r, alpha, 5, sin_half, sin_half > 0.2)


# ---------------------------------------------------------------------------
# bound evaluators


@dataclass(frozen=True)
class BoundReport:
    """Named numeric outcomes of one evaluator call plus the convention
    choices (o(1) = 0, fitted constants) that produced them."""

    n: int
    lam: float | None
    alpha: float | None
    r: float | None
    quantities: dict
    conventions: dict

    def __post_init__(self):
        for key, value in self.quantities.items():
            if isinstance(value, bool) or isinstance(value, (int, str)) or value is None:
                continue
            if not math.isfinite(float(value)):
                raise ValueError(f"quantity {key!r} is not finite")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "alpha": self.alpha,
            "r": self.r,
            "quantities": dict(self.quantities),
            "conventions": dict(self.conventions),
        }


_O1_CONVENTION = "o(1) terms set to 0"
_VOLUME_CONVENTION = "Vol(B_n) = pi^(n/2) / Gamma(n/2 + 1), in log space"


def theorem_lower_bound(n: int) -> float:
    """log of exp(-sqrt(1.25 n ln n)) * Vol(r_n B_n): the volume floor with
    the o(1) term of the 5/4 exponent set to zero."""
    n = as_dim(n, 2)
    return -math.sqrt(1.25 * n * math.log(n)) + ball_volume_log(n, jung_radius(n))


def main_inequality(n: int, r: float, alpha: float) -> BoundReport:
    """Log-space evaluation of the central inequality
    4 e p >= (r/r_n)^n * n^(-4 m(alpha) n^3).

    Both the exact cap measure and its sandwich upper bound drive the
    power term; substituting the upper bound can only lower the implied
    floor on p (the conservative direction), and both floors are reported.
    """
    n = as_dim(n, 2)
    r_n = jung_radius(n)
    if not 0.0 < r < r_n:
        raise ValueError(f"r must lie in (0, r_n) = (0, {r_n:.6g})")
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("alpha must lie in (0, pi/2)")
    log_n = math.log(n)
    m_exact = cap_measure_exact(n, alpha)
    # sandwich upper bound in log space (the linear form underflows early)
    log_m_upper = ((n - 1) * math.log(math.sin(alpha))
                   - 0.5 * math.log(2.0 * math.pi * (n - 1))
                   - math.log(math.cos(alpha)))
    m_upper = math.exp(log_m_upper)
    log_ratio_term = n * math.log(r / r_n)
    cube = float(n) ** 3
    log_power_exact = -4.0 * m_exact * cube * log_n
    log_power_upper = -4.0 * m_upper * cube * log_n
    log_4e = math.log(4.0) + 1.0
    quantities = {
        "r_n": r_n,
        "m_alpha_exact": m_exact,
        "m_alpha_upper": m_upper,
        "log_ratio_term": log_ratio_term,
        "log_power_term_exact": log_power_exact,
        "log_power_term_upper": log_power_upper,
        "log_rhs_exact": log_ratio_term + log_power_exact,
        "log_rhs_upper": log_ratio_term + log_power_upper,
        "log_p_floor_exact": log_ratio_term + log_power_exact - log_4e,
        "log_p_floor_upper": log_ratio_term + log_power_upper - log_4e,
    }
    conventions = {
        "volume": _VOLUME_CONVENTION,
        "upper_bound_direction":
            "larger cap measure shrinks the power term, so the upper-bound "
            "p floor is weakly smaller (conservative)",
    }
    return BoundReport(n=n, lam=None, alpha=float(alpha), r=float(r),
                       quantities=quantities, conventions=conventions)


def choose_alpha(n: int, lam: float) -> BoundReport:
    """Cap-angle selection sin(alpha) = 1 - lam ln n / n, with asymptote
    diagnostics.

    Reports cos(alpha) against sqrt(2 lam ln n / n), the fitted constant
    c = 4 m(alpha) n^lam sqrt(ln n) (fitted, never asserted), the final
    exponent -sqrt((lam/2) n ln n), and whether lam clears the 5/2
    threshold the full argument requires.
    """
    n = as_dim(n, 2)
    if lam <= 0:
        raise ValueError("lam must be positive")
    log_n = math.log(n)
    shift = lam * log_n / n
    if shift >= 1.0:
        raise ValueError("domain requires lam ln n < n")
    sin_alpha = 1.0 - shift
    alpha = math.asin(sin_alpha)
    cos_alpha = math.sqrt(shift * (2.0 - shift))  # exact complement of sin
    asymptote = math.sqrt(2.0 * lam * log_n / n)
    m_alpha = cap_measure_exact(n, alpha)
    if m_alpha <= 0.0:
        raise ValueError("cap measure underflows; lam too large for this n")
    log_m_upper = ((n - 1) * math.log(sin_alpha)
                   - 0.5 * math.log(2.0 * math.pi * (n - 1))
                   - math.log(cos_alpha))
    log_fitted_c = (math.log(4.0) + math.log(m_alpha)
                    + lam * log_n + 0.5 * math.log(log_n))
    above = lam > 2.5
    quantities = {
        "sin_alpha": sin_alpha,
        "cos_alpha": cos_alpha,
        "cos_asymptote": asymptote,
        "cos_ratio": cos_alpha / asymptote,
        "m_alpha": m_alpha,
        "m_upper_log": log_m_upper,
        "m_upper_ratio": math.exp(math.log(m_alpha) - log_m_upper),
        "fitted_c": math.exp(log_fitted_c),
        "final_exponent_log": -math.sqrt((lam / 2.0) * n * log_n),
        "lambda_above_threshold": above,
        "threshold_note": "ok" if above else "boundary: lambda > 5/2 required",
    }
    conventions = {
        "o1": _O1_CONVENTION,
        "fitted_c": "c = 4 m(alpha) n^lam sqrt(ln n), fitted at this n only",
        "threshold": "the final bound needs lambda strictly above 5/2",
    }
    return BoundReport(n=n, lam=float(lam), alpha=float(alpha), r=None,
                       quantities=quantities, conventions=conventions)


_INNER_RADIUS = 1.0 - 1.0 / math.sqrt(2.0)


def _diam_check_logs(n: int) -> tuple[float, float, float]:
    """(log v_n, log(diam bound + 1), (n/2) ln n) for the comparison
    2(1 + v)/v < n^(n/2) - 1; diam + 1 = (2 + 3v)/v avoids cancellation."""
    log_v = ball_volume_log(n, _INNER_RADIUS)
    v_lin = math.exp(log_v)  # underflow to 0.0 is harmless inside log(2 + 3v)
    return log_v, math.log(2.0 + 3.0 * v_lin) - log_v, 0.5 * n * math.log(n)


def proof_pipeline_budget(n: int) -> BoundReport:
    """Log-space audit of the bookkeeping at a given n: the small-ball
    volume v_n = Vol((1 - 1/sqrt 2) B_n), the diameter bound 2(1 + v_n)/v_n
    against n^(n/2) - 1, the thickening eps, and the two family-size
    expressions with their inequality margin."""
    n = as_dim(n, 2)
    log_v, diam_lhs_log, diam_rhs_log = _diam_check_logs(n)
    v_lin = math.exp(log_v)
    log_diam = math.log(2.0) + math.log1p(v_lin) - log_v

    first_n = None
    for m in range(2, 64):
        _, lhs, rhs = _diam_check_logs(m)
        if lhs < rhs:
            first_n = m
            break

    budget = thickening_budget(n)
    log_T_product = (n * n * (n + 3) / 4.0) * math.log(n) \
        + (n * (n + 1) / 2.0) * (math.log(500.0) - budget.log_eps)
    log_T_target = float(n) ** 3 * math.log(n) - math.log(2.0)

    quantities = {
        "v_n_log": log_v,
        "v_n": v_lin,
        "diam_bound_log": log_diam,
        "diam_check_lhs_log": diam_lhs_log,
        "diam_check_rhs_log": diam_rhs_log,
        "diam_ok": bool(diam_lhs_log < diam_rhs_log),
        "first_n_diam_ok": first_n,
        "eps": budget.eps,
        "eps_log": budget.log_eps,
        "log_T_product": log_T_product,
        "log_T_target": log_T_target,
        "family_margin_log": log_T_target - log_T_product,
        "family_ok": bool(log_T_target > log_T_product),
    }
    if log_diam < _LOG_FLOAT_MAX:
        quantities["diam_bound"] = math.exp(log_diam)
    conventions = {
        "volume": _VOLUME_CONVENTION,
        "diam_comparison": "diam < n^(n/2) - 1 tested as "
                           "log((2 + 3v)/v) < (n/2) ln n",
        "first_n_scan": "scanned n in [2, 63]; reports the first n where "
                        "the diameter comparison holds, with no claim it "
                        "is the least admissible threshold",
    }
    return BoundReport(n=n, lam=None, alpha=None, r=None,
                       quantities=quantities, conventions=conventions)


def borsuk_piece_bound(n: int) -> float:
    """log of theorem_lower_bound(n) / Vol(B_n / 2): the piece count a
    partition into diameter-1 parts must have, since the isodiametric
    inequality caps each part's volume at Vol(B_n / 2)."""
    n = as_dim(n, 2)
    return theorem_lower_bound(n) - ball_volume_log(n, 0.5)


def borsuk_report(n: int) -> dict:
    """borsuk_piece_bound with context: the sqrt(2)^n target it approaches
    and the sqrt(3/2)^n comparison rate, all in log space."""
    log_bound = borsuk_piece_bound(n)
    report = {
        "n": int(n),
        "bound_log": log_bound,
        "sqrt2_power_log": n * 0.5 * math.log(2.0),
        "schramm_power_log": n * 0.5 * math.log(1.5),
    }
    if log_bound < _LOG_FLOAT_MAX:
        pieces = math.exp(log_bound)
        report["pieces"] = pieces
        if pieces < 1.0:
            report["pieces_clamped"] = 1.0
            report["note"] = ("bound below one piece at this n; the "
                              "statement is asymptotic")
    return report


def sweep_rows(n_values) -> list[dict]:
    """Per-n summary rows for CSV sweeps of the main evaluators."""
    rows = []
    for n in n_values:
        n = int(n)
        budget = thickening_budget(n)
        pipeline = proof_pipeline_budget(n)
        rows.append({
            "n": n,
            "r_n": jung_radius(n),
            "bound_log": theorem_lower_bound(n),
            "borsuk_log": borsuk_piece_bound(n),
            "eps_log": budget.log_eps,
            "diam_bound_log": pipeline.quantities["diam_bound_log"],
            "family_margin_log": pipeline.quantities["family_margin_log"],
        })
    return rows
