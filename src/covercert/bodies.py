"""Measurable bodies: membership oracles with bounding balls, isometric
transforms and Minkowski thickening.

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

import numpy as np

from .geom_core import (
    PREDICATE_TOL,
    Ball,
    RngStream,
    as_points,
    as_vector,
    in_balls,
    min_enclosing_ball,
    rounding_gamma,
    sample_uniform_ball,
    sq_norms,
)
from .isometry_nets import Isometry, IsometryNet

PROJECTION_TOL = 1e-9
PROJECTION_SWEEP_CAP = 10_000
# A body may reach R (1 + BOUND_SLACK) from the centre of its bound ball of
# radius R: the halfspace body's vertex check allows this much rounding.
BOUND_SLACK = 1e-9
# ThickenedBody.contains_many decides a point outside without a projection
# when it lies farther than R + eps + CULL_SLACK (1 + |c| + R + eps) from the
# centre c of the base's bound ball (c, R); the reasoning is in that method.
CULL_SLACK = 1e-6
VERTEX_SUBSET_CAP = 10_000  # most n-subsets the halfspace body's vertex check solves
_FAMILY_CHUNK_ELEMS = 32_768  # centre-point pairs per distance block (256 KB of float64)
_FAMILY_CHUNK_POINTS = 16_384  # mapped points per stacked membership batch
_FAMILY_LEAF_POINTS = 128  # points per k-d leaf of the ball-family count


class Body:
    """Base membership oracle. Subclasses must set dim and bound, a ball
    that holds the body up to a relative BOUND_SLACK of its radius, and
    implement contains_many / project / to_json_dict."""

    kind = "abstract"
    dim: int
    bound: Ball

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
        return np.linalg.norm(pts - self.project(pts), axis=1)

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class BallBody(Body):
    kind = "ball"

    def __init__(self, center, radius: float):
        ball = Ball(center, radius)
        self.dim = ball.dim
        self.bound = ball
        self.ball = ball

    def contains_many(self, points):
        return self.ball.contains_points(points)

    def project(self, points):
        return _project_onto_ball(as_points(points, self.dim), self.ball)

    def to_json_dict(self):
        return {"dim": self.dim, "kind": "ball", "ball": self.ball.to_json_dict()}


def _project_onto_ball(x: np.ndarray, ball: Ball) -> np.ndarray:
    rel = x - ball.center
    norms = np.linalg.norm(rel, axis=1)
    scale = np.ones_like(norms)
    outside = norms > ball.radius
    scale[outside] = ball.radius / norms[outside]
    return ball.center + rel * scale[:, None]


def _dykstra(points: np.ndarray, projectors: list, tol: float = PROJECTION_TOL,
             sweep_cap: int = PROJECTION_SWEEP_CAP) -> np.ndarray:
    """Batch Dykstra projection onto an intersection of convex sets."""
    x = points.copy()
    increments = [np.zeros_like(points) for _ in projectors]
    for _ in range(sweep_cap):
        move = 0.0
        for i, proj in enumerate(projectors):
            y = proj(x + increments[i])
            increments[i] = x + increments[i] - y
            move = max(move, float(np.abs(y - x).max(initial=0.0)))
            x = y
        if move <= tol:
            return x
    warnings.warn("Dykstra projection hit the sweep cap without converging "
                  f"to tolerance {tol}", RuntimeWarning)
    return x


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
        norms = np.linalg.norm(normals, axis=1)
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
        reach = math.sqrt(float(sq_norms(verts - c).max()))
        if not reach <= radius * (1.0 + BOUND_SLACK):
            raise ValueError(f"the halfspaces reach at least {reach:.6g} from the bound's centre, "
                             f"beyond its radius {radius:.6g}: the bound must hold the body")

    def contains_many(self, points):
        pts = as_points(points, self.dim)
        return np.all(pts @ self.normals.T <= self.offsets + PREDICATE_TOL, axis=1)

    def project(self, points):
        pts = as_points(points, self.dim)
        return _dykstra(pts, [lambda x, a=a, b=b: x - np.maximum(x @ a - b, 0.0)[:, None] * a
                              for a, b in zip(self.normals, self.offsets)])

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
    kind = "ball_intersection"

    def __init__(self, balls: list[Ball]):
        if not balls:
            raise ValueError("ball intersection needs at least one ball")
        dims = {b.dim for b in balls}
        if len(dims) != 1:
            raise ValueError("all balls must share one dimension")
        self.balls = list(balls)
        self.dim = balls[0].dim
        self.bound = min(balls, key=lambda b: b.radius)

    def contains_many(self, points):
        pts = as_points(points, self.dim)
        return np.all([b.contains_points(pts) for b in self.balls], axis=0)

    def project(self, points):
        pts = as_points(points, self.dim)
        return _dykstra(pts, [lambda x, b=b: _project_onto_ball(x, b) for b in self.balls])

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "kind": "ball_intersection",
            "balls": [b.to_json_dict() for b in self.balls],
        }


class ThickenedBody(Body):
    """base + eps B_n: the points within eps (and PROJECTION_TOL) of the
    base, found by projecting onto it. Points far outside the base's bound
    ball are decided without a projection (see contains_many)."""

    kind = "thickened"

    def __init__(self, base: Body, eps: float):
        if eps < 0:
            raise ValueError("thickening amount must be nonnegative")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.bound = Ball(base.bound.center, base.bound.radius + eps)
        outer = self.bound.radius
        reach = outer + CULL_SLACK * (1.0 + float(np.linalg.norm(self.bound.center)) + outer)
        self._reach_sq = reach * reach

    def contains_many(self, points):
        """dist(p, base) <= eps + PROJECTION_TOL, with the distance projected
        only for the points p with |p - c| <= reach = R + eps + s, where (c, R)
        is the base's bound ball and s = CULL_SLACK (1 + |c| + R + eps); the
        rest are outside.

        The base lies within R (1 + BOUND_SLACK) of c (the Body contract), so
        a point beyond reach is more than eps + s - R BOUND_SLACK > eps +
        PROJECTION_TOL from it. The projection agrees: it accepts p only
        when |p - x| <= eps + PROJECTION_TOL for its result x, and
        |p - x| >= |p - c| - |x - c|, so x would have to end more than
        s - PROJECTION_TOL >= 999 PROJECTION_TOL outside the bound ball.
        Dykstra stops only once a whole sweep moved no point by more than
        PROJECTION_TOL, so its result is off the base by about that much.
        |p - c| itself is off by a few ulps of |p| + |c|, far below s."""
        pts = as_points(points, self.dim)
        near = sq_norms(pts - self.bound.center) <= self._reach_sq
        inside = np.zeros(len(pts), dtype=bool)
        if near.any():
            inside[near] = self.base.distance_many(pts[near]) <= self.eps + PROJECTION_TOL
        return inside

    def project(self, points):
        pts = as_points(points, self.dim)
        onto_base = self.base.project(pts)
        rel = pts - onto_base
        norms = np.linalg.norm(rel, axis=1)
        step = np.minimum(norms, self.eps)
        safe = norms > 1e-300
        out = onto_base.copy()
        out[safe] += rel[safe] * (step[safe] / norms[safe])[:, None]
        return out

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
        pts = as_points(points, self.dim)
        best = self.parts[0].project(pts)
        best_d = np.linalg.norm(pts - best, axis=1)
        for p in self.parts[1:]:
            cand = p.project(pts)
            d = np.linalg.norm(pts - cand, axis=1)
            closer = d < best_d
            best[closer] = cand[closer]
            best_d[closer] = d[closer]
        return best

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


class CoverFamily:
    """The finite family g(thicken(base, eps)) for g in net, kept as the base
    body, eps and the net's arrays: no member is built as an object.

    Member i contains p iff thicken(base, eps) contains
    matrices[i]^T (p - translations[i]). When the thickened base is a
    BallBody (centre c, radius r), members are the balls of centres
    translations + matrices @ c, decided by in_balls, the rule of BallBody;
    balls that provably hold none or all of a group of points skip the
    pair-by-pair test (see _cull). Otherwise the points are mapped back
    by a block of members at once and the thickened base decides them in one
    batch; it projects only the mapped points near its bounding ball (see
    ThickenedBody.contains_many), so a member far from a point costs no
    Dykstra sweep.
    """

    def __init__(self, base: Body, eps: float, net: IsometryNet):
        if net.dim != base.dim:
            raise ValueError("net dimension does not match the base body")
        self.base = base
        self.eps = float(eps)
        self.net = net
        self.dim = base.dim
        self.body = thicken(base, self.eps)
        ball = self.body.ball if isinstance(self.body, BallBody) else None
        self.radius = None if ball is None else ball.radius
        self.centers = None if ball is None else (
            np.einsum("tij,j->ti", net.matrices, ball.center) + net.translations)
        self.centers_sq = None if ball is None else sq_norms(self.centers)

    def __len__(self) -> int:
        return len(self.net)

    def counts(self, points) -> np.ndarray:
        """How many of the points each member contains, shape (T,)."""
        counts = np.zeros(len(self), dtype=int)
        for rows, cols, inside in self._blocks(as_points(points, self.dim), np.arange(len(self))):
            counts[rows] += len(cols) if inside is None else np.count_nonzero(inside, axis=1)
        return counts

    def contains(self, points, members=None) -> np.ndarray:
        """Boolean (T, m) matrix: entry (i, j) says member i contains point j.
        `members` restricts the rows to those net indices, in that order."""
        pts = as_points(points, self.dim)
        idx = np.arange(len(self)) if members is None else np.asarray(members, dtype=int)
        out = np.zeros((len(idx), len(pts)), dtype=bool)
        for rows, cols, inside in self._blocks(pts, idx):
            out[np.ix_(rows, cols)] = True if inside is None else inside
        return out

    def _blocks(self, pts: np.ndarray, idx: np.ndarray):
        """(rows, cols, membership block) triples over the members idx; rows
        index idx and cols index pts. A block of None says that every pair
        is inside, and a pair no block names is outside. A block holds at
        most _FAMILY_CHUNK_ELEMS centre-point pairs of ball members, or
        _FAMILY_CHUNK_POINTS mapped points otherwise."""
        if len(pts) == 0 or len(idx) == 0:
            return
        if self.centers is not None:
            yield from self._ball_blocks(pts, idx)
            return
        m, n = pts.shape
        step = max(1, _FAMILY_CHUNK_POINTS // m)
        for start in range(0, len(idx), step):
            sel = idx[start:start + step]
            mats = self.net.matrices[sel]
            # inverse images A^T (p - v) = p A - v A, (m, members, n), in one product
            shift = np.einsum("tj,tji->ti", self.net.translations[sel], mats)
            back = (pts @ mats.transpose(1, 0, 2).reshape(n, -1)).reshape(m, len(sel), n) - shift
            inside = self.body.contains_many(back.reshape(-1, n)).reshape(m, len(sel))
            yield np.arange(start, start + len(sel)), np.arange(m), inside.T

    def _ball_blocks(self, pts: np.ndarray, idx: np.ndarray):
        """_blocks for ball members, output-sensitive: the points are split
        k-d style (at the median of the widest coordinate) down to groups of
        _FAMILY_LEAF_POINTS. Each node sorts the balls its parent left
        undecided by _cull: those that hold none of its points are dropped,
        those that hold all of them are one all-inside block, and in_balls
        decides the rest pair by pair at the leaves."""
        pts_sq = sq_norms(pts)
        center_norm = math.sqrt(float(self.centers_sq[idx].max()))
        stack = [(np.arange(len(pts)), np.arange(len(idx)))]
        while stack:
            cols, rows = stack.pop()
            group, group_sq = pts[cols], pts_sq[cols]
            near, full = _cull(self.centers[idx[rows]], center_norm, self.radius, group, group_sq)
            if full.any():
                yield rows[near[full]], cols, None
            rows = rows[near[~full]]
            if len(rows) == 0:
                continue
            if len(cols) > _FAMILY_LEAF_POINTS:
                half = len(cols) // 2
                order = np.argpartition(group[:, int(np.argmax(np.ptp(group, axis=0)))], half)
                stack += [(cols[order[half:]], rows), (cols[order[:half]], rows)]
                continue
            step = max(1, _FAMILY_CHUNK_ELEMS // len(cols))
            for start in range(0, len(rows), step):
                sel = idx[rows[start:start + step]]
                yield rows[start:start + step], cols, in_balls(
                    self.centers[sel], self.radius, group, self.centers_sq[sel], group_sq)


def _cull(centers: np.ndarray, center_norm: float, radius: float,
          pts: np.ndarray, pts_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(near, full): the indices of the balls (centers, radius) that may hold
    a point of pts under in_balls, and a mask over near of those that hold
    every point; the other balls hold none. center_norm is at least max |c|,
    and pts_sq is sq_norms(pts).

    Let h be the midpoint of the points' bounding box, rho their largest
    distance from h, q = sqrt(R^2 + tol) for the radius R and
    tol = PREDICATE_TOL, u = 2^-53 and g_k = k u / (1 - k u). With

        S = center_norm + max|p| + |h| + R + 1,   g = g_{n+3},
        delta = 2 sqrt(g) S,   eta = 2 g S^2 / q,

    a ball is near when |c - h| <= q + rho + delta, and full when also
    |c - h| <= q - rho - delta - eta.

    in_balls evaluates d^2 = |c - p|^2 as fl(fl(|c|^2 + |p|^2) - 2 fl(c.p))
    with n-term sums, so its error is at most g_{n+2} (|c| + |p|)^2 <= g S^2,
    and its threshold fl(fl(R R) + tol) is within g_2 q^2 <= g S^2 of q^2.
    The tests themselves (rho, the bounds, |c - h|, compared squared) are
    off by less than 15 g S < delta/2 in float. So, for every point p:
    - a ball that is not near has d >= |c - h| - rho > q + delta/2, so the
      evaluated d^2 exceeds d^2 - g S^2 > q^2 + q delta, above the
      threshold: p fails the rule;
    - a full ball has d <= |c - h| + rho <= q - eta < q, so the evaluated
      d^2 is at most d^2 + g S^2 <= q^2 - q eta + g S^2 = q^2 - g S^2, not
      above the threshold: p passes it.
    Inputs for which S^2 is not finite leave every ball near and none full.
    """
    n = pts.shape[1]
    h = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    rho = math.sqrt(float(sq_norms(pts - h).max()))
    scale = center_norm + math.sqrt(float(pts_sq.max())) + float(np.linalg.norm(h)) + radius + 1.0
    if not math.isfinite(scale * scale):
        return np.arange(len(centers)), np.zeros(len(centers), dtype=bool)
    gamma = rounding_gamma(n + 3)
    q = math.sqrt(radius * radius + PREDICATE_TOL)
    delta = 2.0 * math.sqrt(gamma) * scale
    offsets = centers - h
    offsets *= offsets
    dist_sq = offsets.sum(axis=1)
    near = np.flatnonzero(dist_sq <= (q + rho + delta) ** 2)
    inner = q - rho - delta - 2.0 * gamma * scale * scale / q
    full = dist_sq[near] <= inner * inner if inner > 0.0 else np.zeros(len(near), dtype=bool)
    return near, full


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
