"""Cover families: the copies g(thicken(base, eps)) of one base body for
every rigid motion g of an isometry net, counted against point sets and
tested pair by pair without building a member object.
"""

from __future__ import annotations

import math

import numpy as np

from . import geom_core
from .bodies import BallBody, Body, thicken
from .geom_core import PREDICATE_TOL, as_points, in_balls, rounding_gamma, sq_norms

_LEAF_POINTS = 128  # points per k-d leaf of the ball-family count


class CoverFamily:
    """The finite family g(thicken(base, eps)) for g in net (an
    isometry_nets.IsometryNet), kept as the base body, eps and the net's two
    factors: no member is built as an object, and no array holds a matrix
    per member.

    Member i, with A = rotations[i // T] and v = translations[i % T],
    contains p iff thicken(base, eps) contains A^T (p - v). When the
    thickened base is a BallBody (centre c, radius r), members are the balls
    of centres A c + v, one row per member, decided by in_balls, the rule of
    BallBody; balls that provably hold none or all of a group of points skip
    the pair-by-pair test (see _cull). Otherwise the points are mapped back
    by a block of members at once and the thickened base decides them in one
    batch; it projects only the mapped points near its bounding ball (see
    ThickenedBody.contains_many), so a member far from a point costs no
    Dykstra sweep. pair_blocks decides (probe set, member) pairs the same
    way, for callers with one probe set per member.

    Members are counted, never measured: each is a copy of thicken(base,
    eps), whose volume base.thickened_volume(eps) bounds.
    """

    def __init__(self, base: Body, eps: float, net):
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
            np.einsum("rij,j->ri", net.rotations, ball.center)[:, None, :]
            + net.translations).reshape(len(net), self.dim)
        self.centers_sq = None if ball is None else sq_norms(self.centers)

    def __len__(self) -> int:
        return len(self.net)

    def counts(self, points) -> np.ndarray:
        """How many of the points each member contains, shape (T,)."""
        counts = np.zeros(len(self), dtype=int)
        for rows, cols, inside in self._blocks(as_points(points, self.dim)):
            counts[rows] += len(cols) if inside is None else np.count_nonzero(inside, axis=1)
        return counts

    def contains(self, points) -> np.ndarray:
        """Boolean (T, m) matrix: entry (i, j) says member i contains point j."""
        pts = as_points(points, self.dim)
        out = np.zeros((len(self), len(pts)), dtype=bool)
        for rows, cols, inside in self._blocks(pts):
            out[np.ix_(rows, cols)] = True if inside is None else inside
        return out

    def _blocks(self, pts: np.ndarray):
        """(rows, cols, membership block) triples; rows index the members
        and cols index pts. A block of None says that every pair is inside,
        and a pair no block names is outside. A block holds
        geom_core.BLOCK_ELEMS // len(cols) ball members, or otherwise
        geom_core.BLOCK_ELEMS // (m n) members for m points in R^n, and one
        member at least."""
        if len(pts) == 0 or len(self) == 0:
            return
        if self.centers is not None:
            yield from self._ball_blocks(pts)
            return
        for start, inside in self.pair_blocks(pts[None], np.zeros(len(self), dtype=int),
                                              np.arange(len(self))):
            yield np.arange(start, start + len(inside)), np.arange(len(pts)), inside

    def pair_blocks(self, probes: np.ndarray, sets: np.ndarray, members: np.ndarray):
        """Membership of (probe set, member) pairs: probes is a stack
        (s, m, n) of m >= 1 points each, and pair k asks which points of
        probes[sets[k]] member members[k] holds. Yields (start, inside), in
        order, with inside the boolean (b, m) block of pairs start to
        start + b - 1; a block holds geom_core.BLOCK_ELEMS // (m n) pairs,
        and one at least.

        Ball members are decided by in_balls over the gathered centres, each
        entry a function of its own pair, so the booleans are those of
        _ball_blocks. Otherwise the points are mapped back (see
        _back_images) and the thickened base decides the block's mapped
        points in one contains_many call, point by point across its pairs."""
        m, n = probes.shape[1:]
        probes_sq = None if self.centers is None else sq_norms(probes)
        step = max(1, geom_core.BLOCK_ELEMS // (m * n))
        for start in range(0, len(members), step):
            sel, at = members[start:start + step], sets[start:start + step]
            if probes_sq is None:
                back = self._back_images(probes if len(probes) == 1 else probes[at], sel)
                yield start, self.body.contains_many(back.reshape(-1, n)).reshape(m, -1).T
            else:
                yield start, in_balls(self.centers[sel], self.radius, probes[at],
                                      self.centers_sq[sel], probes_sq[at])

    def _back_images(self, placed: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Point-major (m, b, n) back-images A^T (p - v) = p A - v A of the
        points of placed, a stack (b, m, n) with one probe set per member or
        (1, m, n) with one for all, under each member (A, v) of members. One
        stacked product computes each (probe set, member) pair on its own,
        so a back-image depends only on its point and its member, not on the
        other points or members of the block."""
        mats, trans = self.net.members(members)
        back = np.empty((placed.shape[1], len(members), self.dim))
        np.matmul(placed, mats, out=back.transpose(1, 0, 2))
        back -= np.einsum("tj,tji->ti", trans, mats)
        return back

    def _ball_blocks(self, pts: np.ndarray):
        """_blocks for ball members, output-sensitive: the points are split
        k-d style (at the median of the widest coordinate) down to groups of
        _LEAF_POINTS. Each node sorts the balls its parent left undecided by
        _cull: those that hold none of its points are dropped, those that
        hold all of them are one all-inside block, and in_balls decides the
        rest pair by pair at the leaves."""
        pts_sq = sq_norms(pts)
        center_norm = math.sqrt(float(self.centers_sq.max()))
        stack = [(np.arange(len(pts)), np.arange(len(self)))]
        while stack:
            cols, rows = stack.pop()
            group, group_sq = pts[cols], pts_sq[cols]
            near, full = _cull(self.centers[rows], center_norm, self.radius, group, group_sq)
            if full.any():
                yield rows[near[full]], cols, None
            rows = rows[near[~full]]
            if len(rows) == 0:
                continue
            if len(cols) > _LEAF_POINTS:
                half = len(cols) // 2
                order = np.argpartition(group[:, int(np.argmax(np.ptp(group, axis=0)))], half)
                stack += [(cols[order[half:]], rows), (cols[order[:half]], rows)]
                continue
            step = max(1, geom_core.BLOCK_ELEMS // len(cols))
            for start in range(0, len(rows), step):
                sel = rows[start:start + step]
                yield sel, cols, in_balls(
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
    h = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    rho = math.sqrt(float(sq_norms(pts, h).max()))
    scale = center_norm + math.sqrt(float(pts_sq.max())) + float(np.linalg.norm(h)) + radius + 1.0
    if not math.isfinite(scale * scale):
        return np.arange(len(centers)), np.zeros(len(centers), dtype=bool)
    gamma = rounding_gamma(pts.shape[1] + 3)
    q = math.sqrt(radius * radius + PREDICATE_TOL)
    delta = 2.0 * math.sqrt(gamma) * scale
    dist_sq = sq_norms(centers, h)
    near = np.flatnonzero(dist_sq <= (q + rho + delta) ** 2)
    inner = q - rho - delta - 2.0 * gamma * scale * scale / q
    full = dist_sq[near] <= inner * inner if inner > 0.0 else np.zeros(len(near), dtype=bool)
    return near, full
