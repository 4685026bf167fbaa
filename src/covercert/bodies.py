"""Measurable bodies: membership oracles with bounding balls, rigid motions
(Isometry) and the images of bodies under them, and Minkowski thickening.

Supported kinds: ball, halfspace intersection, ball intersection, thickened
body, transformed body, finite union. Thickening relies on a projection
routine (closed form for balls, cyclic Dykstra projections for convex
intersections, nearest part for unions), via

    dist(p, S + eps*B) = max(dist(p, S) - eps, 0).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geom_core import (
    PREDICATE_TOL,
    Ball,
    RngStream,
    as_points,
    as_vector,
    min_enclosing_ball,
    rounding_gamma,
    row_norms,
    sample_uniform_ball,
    sq_norms,
)

PROJECTION_TOL = 1e-9
PROJECTION_SWEEP_CAP = 10_000
# A body may reach R (1 + BOUND_SLACK) from the centre of its bound ball of
# radius R: the halfspace body's vertex check allows this much rounding.
BOUND_SLACK = 1e-9
# ThickenedBody.contains_many decides a point outside without a projection
# when it lies farther than R + eps + CULL_SLACK (1 + |c| + R + eps) from the
# centre c of the base's bound ball (c, R), or farther than eps plus that
# slack outside one of the base's halfspaces or balls; the reasoning is in
# ThickenedBody.near.
CULL_SLACK = 1e-6
# ThickenedBody.near bounds the rounding of Dykstra's steps for iterates and
# increments up to this factor of the body's scale
INCREMENT_ALLOWANCE = 1e6
VERTEX_SUBSET_CAP = 10_000  # most n-subsets the halfspace body's vertex check solves
ORTHOGONALITY_TOL = 1e-10
DET_TOL = 1e-8


def check_isometries(matrices, translations=None, name: str = "isometry matrix"):
    """Validate T rigid motions at once: finite matrices (T, n, n), orthogonal
    within ORTHOGONALITY_TOL and of determinant +-1 within DET_TOL, and finite
    translations (T, n), zero if omitted. Raises naming the first bad one."""
    m = np.asarray(matrices, dtype=float)
    v = np.zeros(m.shape[:2]) if translations is None else np.asarray(translations, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
        raise ValueError(f"{name} must be square and non-empty")
    if v.shape != m.shape[:2]:
        raise ValueError("translation dimension mismatch")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
        raise ValueError("isometry entries must be finite")
    gram_err = np.abs(m.transpose(0, 2, 1) @ m - np.eye(m.shape[1])).max(
        axis=(1, 2), initial=0.0)
    for bad, what in ((gram_err > ORTHOGONALITY_TOL, f"orthogonal within {ORTHOGONALITY_TOL}"),
                      (np.abs(np.abs(np.linalg.det(m)) - 1.0) > DET_TOL,
                       f"of determinant +-1 within {DET_TOL}")):
        if bad.any():
            where = f" {np.argmax(bad)}" if len(m) > 1 else ""
            raise ValueError(f"{name}{where} is not {what}")
    return m, v


@dataclass(frozen=True)
class Isometry:
    """Rigid motion x -> matrix @ x + translation."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m, v = check_isometries(np.asarray(self.matrix, dtype=float)[None],
                                np.asarray(self.translation, dtype=float)[None])
        object.__setattr__(self, "matrix", m[0])
        object.__setattr__(self, "translation", v[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.dim)
        return pts @ self.matrix.T + self.translation

    def inverse(self) -> "Isometry":
        return Isometry(self.matrix.T, -(self.matrix.T @ self.translation))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: x -> self(other(x))."""
        return Isometry(self.matrix @ other.matrix,
                        self.matrix @ other.translation + self.translation)

    def to_json_dict(self) -> dict:
        return {"matrix": self.matrix.tolist(), "translation": self.translation.tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "Isometry":
        return Isometry(d["matrix"], d["translation"])


class Body:
    """Base membership oracle. Subclasses must set dim and bound, a ball
    that holds the body up to a relative BOUND_SLACK of its radius, and
    implement contains_many / project / to_json_dict. An intersection of
    slab_sets > 0 halfspaces or balls also implements within (each set
    widened by a margin) and sets slab_scale, the largest |b_i| or
    |c_j| + r_j of their data: ThickenedBody.near then culls by them."""

    kind = "abstract"
    dim: int
    bound: Ball
    slab_sets = 0
    slab_scale = 0.0

    def contains(self, p) -> bool:
        v = as_vector(p)
        if v.size != self.dim:
            raise ValueError(f"dimension mismatch: body dim {self.dim}, point dim {v.size}")
        return bool(self.contains_many(v.reshape(1, -1))[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.dim)
        return row_norms(pts, self.project(pts))

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class BallBody(Body):
    kind = "ball"

    def __init__(self, center, radius: float):
        self.ball = self.bound = Ball(center, radius)
        self.dim = self.ball.dim

    def contains_many(self, points):
        return self.ball.contains_points(points)

    def project(self, points):
        return _project_onto_ball(as_points(points, self.dim), self.ball.center, self.ball.radius)

    def to_json_dict(self):
        return {"dim": self.dim, "kind": "ball", "ball": self.ball.to_json_dict()}


def _project_onto_ball(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Each row of x moved onto the ball of the given radius about center (one
    vector, or one row per point) if it lies outside."""
    rel = x - center
    norms = row_norms(rel)
    scale = np.divide(radius, norms, out=np.ones_like(norms), where=norms > radius)
    return center + rel * scale[:, None]


def _dykstra(points: np.ndarray, projectors: list) -> np.ndarray:
    """Batch Dykstra projection onto an intersection of convex sets, given
    by projectors that each return a new array. Each point's result is its
    iterate after its first sweep that moved none of its coordinates by
    more than PROJECTION_TOL, and later sweeps leave it out. At most
    PROJECTION_SWEEP_CAP sweeps run. The stop rule is per point, and so is
    a step onto a ball or an axis-aligned halfspace (its dot products are
    exact), so for such sets a result depends on its point alone, not on
    the batch it came in. Other halfspaces take x @ a, a BLAS product whose
    rounding of a row can depend on the batch's other rows."""
    x, rows = points, None  # rows: the index in points of each row of x, once some settled
    increments = [np.zeros_like(points) for _ in projectors]
    for _ in range(PROJECTION_SWEEP_CAP):
        move = np.zeros(len(x))  # each point's largest coordinate move
        for increment, proj in zip(increments, projectors):
            increment += x  # z = x + increment, projected to y; the new increment is z - y
            y = proj(increment)
            increment -= y
            step = y - x
            for column in np.abs(step, out=step).T:
                np.maximum(move, column, out=move)
            x = y
        moved = move > PROJECTION_TOL
        if not moved.any():
            break
        if not moved.all():  # the settled points leave the batch
            if rows is None:
                rows, out = np.arange(len(points)), np.empty_like(points)
            out[rows[~moved]] = x[~moved]
            x, rows = x[moved], rows[moved]
            increments = [increment[moved] for increment in increments]
    else:
        warnings.warn("Dykstra projection hit the sweep cap without converging "
                      f"to tolerance {PROJECTION_TOL}", RuntimeWarning)
    if rows is None:
        return x
    out[rows] = x
    return out


class HalfspaceIntersectionBody(Body):
    """Intersection P of halfspaces {x : normal . x <= offset}. The bound
    ball must be supplied, and it is checked: the body is refused when P is
    empty, unbounded, or reaches farther than its radius (see _check_bound).
    """

    kind = "halfspaces"

    def __init__(self, normals, offsets, bound: Ball, exact_volume: float | None = None):
        normals = as_points(normals)
        offsets = np.asarray(offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.size:
            raise ValueError("one offset per normal required")
        norms = row_norms(normals)
        if np.any(norms < 1e-15):
            raise ValueError("halfspace normals must be nonzero")
        self.normals = normals / norms[:, None]
        self.offsets = offsets / norms
        self.dim = normals.shape[1]
        if bound.dim != self.dim:
            raise ValueError("bound dimension mismatch")
        self.bound = bound
        self.exact_volume = exact_volume
        self._check_bound()
        self.slab_sets, self.slab_scale = len(self.offsets), float(np.abs(self.offsets).max())

    def _check_bound(self) -> None:
        """Refuse P unless every point of it lies within R (1 + BOUND_SLACK)
        of the bound's centre c. Q, the cube of half-width 2R about c, makes
        P n Q a polytope, and its vertices solve n of the constraints (the
        halfspaces and the 2n faces of Q) with independent normals. When
        every vertex lies within R (1 + BOUND_SLACK) of c, so does their
        hull P n Q, which then keeps off the faces of Q. Then P = P n Q: P
        is convex, so a point of P beyond Q would put a point of P n Q on a
        face of Q. No vertex means P n Q is empty: P is empty or lies wholly
        outside the bound. At most VERTEX_SUBSET_CAP subsets are solved."""
        n, c, radius = self.dim, self.bound.center, self.bound.radius
        normals = np.vstack([self.normals, np.eye(n), -np.eye(n)])
        offsets = np.concatenate([self.offsets, c + 2.0 * radius, 2.0 * radius - c])
        subsets = math.comb(len(normals), n)
        if subsets > VERTEX_SUBSET_CAP:
            raise ValueError(f"checking the bound of {len(self.normals)} halfspaces in "
                             f"dimension {n} takes {subsets} vertex solves, more than the "
                             f"{VERTEX_SUBSET_CAP} allowed")
        idx = np.array(list(itertools.combinations(range(len(normals)), n)))
        mats = normals[idx]
        sing = np.linalg.svd(mats, compute_uv=False)
        solvable = sing[:, -1] > 1e-9 * sing[:, 0]  # normals independent, with room to spare
        verts = np.linalg.solve(mats[solvable], offsets[idx[solvable]][..., None])[..., 0]
        scale = float(np.abs(c).max()) + 2.0 * radius
        verts = verts[np.all(verts @ normals.T <= offsets + BOUND_SLACK * scale, axis=1)]
        if len(verts) == 0:
            raise ValueError("the halfspaces meet in no point of their bound ball")
        reach = math.sqrt(float(sq_norms(verts, c).max()))
        if not reach <= radius * (1.0 + BOUND_SLACK):
            raise ValueError(f"the halfspaces reach at least {reach:.6g} from the bound's centre, "
                             f"beyond its radius {radius:.6g}: the bound must hold the body")

    def contains_many(self, points):
        return self.within(as_points(points, self.dim), PREDICATE_TOL)

    def project(self, points):
        pts = as_points(points, self.dim)
        return _dykstra(pts, [lambda x, a=a, b=b: x - np.maximum(x @ a - b, 0.0)[:, None] * a
                              for a, b in zip(self.normals, self.offsets)])

    def within(self, points: np.ndarray, margin: float) -> np.ndarray:
        """The slab test a_i . p <= b_i + margin for every halfspace i, in
        float: a point within margin of the body passes it, up to the
        rounding that ThickenedBody.near bounds."""
        ok = np.ones(len(points), dtype=bool)
        for a, b in zip(self.normals, self.offsets + margin):
            ok &= points @ a <= b
        return ok

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "halfspaces",
            "halfspaces": [
                {"normal": n.tolist(), "offset": float(b)}
                for n, b in zip(self.normals, self.offsets)
            ],
            "bound": self.bound.to_json_dict(),
            "exact_volume": self.exact_volume,
        }


class BallIntersectionBody(Body):
    """Intersection of closed balls. Two balls with |c_i - c_j| > r_i + r_j
    are refused: they share no point, and Dykstra would run to
    PROJECTION_SWEEP_CAP on the empty body. The pairwise rule is exact for
    two balls and in R^1, where pairwise meeting intervals share a point
    (Helly); for three or more balls in R^2 and up it is not, and pairwise
    meeting balls with an empty intersection are still accepted."""

    kind = "ball_intersection"

    def __init__(self, balls: list[Ball]):
        if not balls:
            raise ValueError("ball intersection needs at least one ball")
        dims = {b.dim for b in balls}
        if len(dims) != 1:
            raise ValueError("all balls must share one dimension")
        for a, b in itertools.combinations(balls, 2):
            gap = float(np.linalg.norm(a.center - b.center))
            if gap > a.radius + b.radius:
                raise ValueError(f"balls of radii {a.radius:.6g} and {b.radius:.6g} at "
                                 f"distance {gap:.6g} do not meet: the intersection is empty")
        self.balls = list(balls)
        self.dim = balls[0].dim
        self.bound = min(balls, key=lambda b: b.radius)
        self.slab_sets = len(balls)
        self.slab_scale = max(float(np.linalg.norm(b.center)) + b.radius for b in balls)

    def contains_many(self, points):
        pts = as_points(points, self.dim)
        return np.all([b.contains_points(pts) for b in self.balls], axis=0)

    def project(self, points):
        pts = as_points(points, self.dim)
        return _dykstra(pts, [lambda x, b=b: _project_onto_ball(x, b.center, b.radius)
                              for b in self.balls])

    def within(self, points: np.ndarray, margin: float) -> np.ndarray:
        """The test |p - c_j| <= r_j + margin for every ball j, in float,
        compared squared: a point within margin of the body passes it, up to
        the rounding that ThickenedBody.near bounds."""
        ok = np.ones(len(points), dtype=bool)
        for b in self.balls:
            q = b.radius + margin
            ok &= sq_norms(points, b.center) <= q * q
        return ok

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "ball_intersection",
            "balls": [b.to_json_dict() for b in self.balls],
        }


class ThickenedBody(Body):
    """base + eps B_n: the points within eps (and PROJECTION_TOL) of the
    base, found by projecting onto it. Points that fail a cheap necessary
    test, near, are decided without a projection (see contains_many)."""

    kind = "thickened"

    def __init__(self, base: Body, eps: float):
        if eps < 0:
            raise ValueError("thickening amount must be nonnegative")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.bound = Ball(base.bound.center, base.bound.radius + eps)
        center_term = 1.0 + float(np.linalg.norm(self.bound.center))
        self.slack = CULL_SLACK * (center_term + self.bound.radius)
        self.reach = self.bound.radius + self.slack
        # whether near also tests the base's slab_sets sets (see Body)
        scale = INCREMENT_ALLOWANCE * (center_term + self.reach + base.slab_scale)
        self.slabs = base.slab_sets > 0 and (
            base.slab_sets * math.sqrt(self.dim) * PROJECTION_TOL
            + 16.0 * self.dim * rounding_gamma(self.dim + 3) * scale <= 0.5 * self.slack)

    def near(self, points) -> np.ndarray:
        """The necessary test of contains_many: |p - c| <= reach for the
        base's bound ball (c, R), reach = R + eps + s and s = slack =
        CULL_SLACK (1 + |c| + R + eps), and, when slabs is set, the base's
        own test within(p, eps + s): a_i . p <= b_i + eps + s for each
        halfspace i, or |p - c_j| <= r_j + eps + s for each ball j. Each
        comparison is made in float.

        A point that fails any float evaluation of it is rejected by the
        projection as well, so contains_many keeps its decisions.
        - Beyond reach: the base lies within R (1 + BOUND_SLACK) of c (the
          Body contract), so such a point is more than eps + s - R
          BOUND_SLACK > eps + PROJECTION_TOL from it. The projection agrees:
          it accepts p only when |p - x| <= eps + PROJECTION_TOL for its
          result x, and |p - x| >= |p - c| - |x - c|, so x would have to end
          more than s - PROJECTION_TOL >= 999 PROJECTION_TOL outside the
          bound ball. Dykstra stops a point only after a whole sweep that
          moved none of its coordinates by more than PROJECTION_TOL, so its
          result is off the base by about that much. |p - c| itself is off
          by a few ulps of |p| + |c|, far below s.
        - Failing set i of the base's m sets (halfspace or ball): let
          g = rounding_gamma(n + 3) and S = INCREMENT_ALLOWANCE (1 + |c| +
          reach + max_i |b_i|, or max_j |c_j| + r_j). The float test puts p
          more than eps + s - 2 g S outside set i. In p's last Dykstra sweep
          the step onto set i ended within 8 n g S of it, when its iterate
          and increment are at most S (a step rounds by a few ulps of
          them), and each of the m - 1 later steps moved no coordinate by
          more than PROJECTION_TOL, so the result x by at most sqrt(n)
          PROJECTION_TOL. So x lies within (m - 1) sqrt(n) PROJECTION_TOL +
          8 n g S of set i, and |p - x| > eps + s - m sqrt(n)
          PROJECTION_TOL - 10 n g S. slabs is set only when m sqrt(n)
          PROJECTION_TOL + 16 n g S <= s / 2; then |p - x| exceeds eps +
          s / 2, and its float value eps + PROJECTION_TOL: the projection
          rejects p. A projection that hits PROJECTION_SWEEP_CAP warns, and
          this argument does not hold for it."""
        pts = as_points(points, self.dim)
        ok = sq_norms(pts, self.bound.center) <= self.reach * self.reach
        if self.slabs:
            ok &= self.base.within(pts, self.eps + self.slack)
        return ok

    def contains_many(self, points):
        """dist(p, base) <= eps + PROJECTION_TOL, with the distance projected
        only for the points p that pass near; the rest are outside, as the
        projection would find (see near)."""
        pts = as_points(points, self.dim)
        inside = self.near(pts)
        if inside.any():
            inside[inside] = self.base.distance_many(pts[inside]) <= self.eps + PROJECTION_TOL
        return inside

    def project(self, points):
        pts = as_points(points, self.dim)
        return _project_onto_ball(pts, self.base.project(pts), self.eps)

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "thickened",
            "base": self.base.to_json_dict(),
            "eps": self.eps,
        }


class TransformedBody(Body):
    kind = "transformed"

    def __init__(self, base: Body, isometry: Isometry):
        if isometry.dim != base.dim:
            raise ValueError("isometry dimension mismatch")
        self.base = base
        self.isometry = isometry
        self.dim = base.dim
        self.bound = Ball(isometry.apply(base.bound.center.reshape(1, -1))[0],
                          base.bound.radius)

    def contains_many(self, points):
        pts = as_points(points, self.dim)
        return self.base.contains_many(self.isometry.inverse().apply(pts))

    def project(self, points):
        pts = as_points(points, self.dim)
        back = self.isometry.inverse().apply(pts)
        return self.isometry.apply(self.base.project(back))

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "transformed",
            "base": self.base.to_json_dict(),
            "isometry": self.isometry.to_json_dict(),
        }


class UnionBody(Body):
    kind = "union"

    def __init__(self, parts: list[Body]):
        if not parts:
            raise ValueError("union needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")
        self.parts = list(parts)
        self.dim = parts[0].dim
        centers = np.array([p.bound.center for p in parts])
        hub = min_enclosing_ball(centers).center if len(parts) > 1 else parts[0].bound.center
        radius = max(
            float(np.linalg.norm(hub - p.bound.center)) + p.bound.radius for p in parts
        )
        self.bound = Ball(hub, radius)

    def contains_many(self, points):
        pts = as_points(points, self.dim)
        return np.any([p.contains_many(pts) for p in self.parts], axis=0)

    def project(self, points):
        """Each point's nearest projection onto a part, the first on a tie."""
        pts = as_points(points, self.dim)
        cands = np.stack([p.project(pts) for p in self.parts])
        nearest = np.argmin([row_norms(pts, c) for c in cands], axis=0)
        return cands[nearest, np.arange(len(pts))]

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "union",
            "parts": [p.to_json_dict() for p in self.parts],
        }


def thicken(b: Body, eps: float) -> Body:
    """Minkowski sum with eps * B_n. Balls, also thickened ones, stay balls;
    stacked thickenings add their amounts."""
    if eps < 0:
        raise ValueError("thickening amount must be nonnegative")
    if eps == 0:
        return b
    if isinstance(b, BallBody):
        return BallBody(b.ball.center, b.ball.radius + eps)
    if isinstance(b, ThickenedBody):
        return thicken(b.base, b.eps + eps)
    return ThickenedBody(b, eps)


def transform(b: Body, g: Isometry) -> Body:
    """Isometric image: membership(result, p) = membership(b, g^-1 p)."""
    if g.dim != b.dim:
        raise ValueError("isometry dimension mismatch")
    if isinstance(b, BallBody):
        return BallBody(g.apply(b.ball.center.reshape(1, -1))[0], b.ball.radius)
    if isinstance(b, TransformedBody):
        # compose rather than nest, avoiding drift under long chains
        return TransformedBody(b.base, g.compose(b.isometry))
    return TransformedBody(b, g)


def reduce_to_ball(b: Body) -> Ball | None:
    """Collapse transformed/thickened balls to a plain ball when possible;
    None when the body is not exactly a ball."""
    if isinstance(b, BallBody):
        return b.ball
    if isinstance(b, ThickenedBody):
        inner = reduce_to_ball(b.base)
        if inner is not None:
            return Ball(inner.center, inner.radius + b.eps)
        return None
    if isinstance(b, TransformedBody):
        inner = reduce_to_ball(b.base)
        if inner is not None:
            return Ball(b.isometry.apply(inner.center.reshape(1, -1))[0], inner.radius)
        return None
    return None


def probe_points(b: Body, count: int, rng: RngStream) -> np.ndarray:
    """Points of the body obtained by projecting bounding-ball samples onto
    it; includes extremal points with high probability for convex bodies."""
    raw = sample_uniform_ball(b.dim, b.bound.radius, count, rng) + b.bound.center
    return b.project(raw)


def body_from_json_dict(d: dict) -> Body:
    kind = d["kind"]
    if kind == "ball":
        ball = Ball.from_json_dict(d["ball"])
        return BallBody(ball.center, ball.radius)
    if kind == "halfspaces":
        normals = [h["normal"] for h in d["halfspaces"]]
        offsets = [h["offset"] for h in d["halfspaces"]]
        return HalfspaceIntersectionBody(
            normals, offsets, Ball.from_json_dict(d["bound"]),
            exact_volume=d.get("exact_volume"),
        )
    if kind == "ball_intersection":
        return BallIntersectionBody([Ball.from_json_dict(x) for x in d["balls"]])
    if kind == "thickened":
        return ThickenedBody(body_from_json_dict(d["base"]), float(d["eps"]))
    if kind == "transformed":
        return TransformedBody(
            body_from_json_dict(d["base"]), Isometry.from_json_dict(d["isometry"])
        )
    if kind == "union":
        return UnionBody([body_from_json_dict(x) for x in d["parts"]])
    raise ValueError(f"unknown body kind: {kind}")
