"""Cover families: the copies g(thicken(base, eps)) of one base body for
every rigid motion g of an isometry net, counted against point sets and
tested pair by pair without building a member object.
"""

from __future__ import annotations

import math

import numpy as np

from . import geom_core
from .bodies import BallBody, Body, ThickenedBody, thicken
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
        # g plus the largest entry of |A^T A - I| over the rotations, as
        # evaluated: how far from orthogonal the net's matrices are
        rot = net.rotations
        self._tau = None if ball is not None else rounding_gamma(self.dim + 3) + float(
            np.abs(rot.transpose(0, 2, 1) @ rot - np.eye(self.dim)).max(initial=0.0))

    def __len__(self) -> int:
        return len(self.net)

    def counts(self, points) -> np.ndarray:
        """How many of the points each member contains, shape (T,)."""
        counts = np.zeros(len(self), dtype=int)
        for rows, cols, inside in self._blocks(as_points(points, self.dim)):
            counts[rows] += len(cols) if inside is None else np.count_nonzero(inside, axis=1)
        return counts

    def count_ceilings(self, points) -> np.ndarray:
        """Upper bounds on counts(points), one per member. For a
        ThickenedBody with bound centre c, cull slack s and reach
        R + eps + s, member i = (A, v) holds p only if in_balls puts p in
        the ball of centre A c + v and radius reach + s, and those balls are
        counted as a ball family. Any other thickened base, or points for
        which the conditions below fail, get the number of points instead.

        Let g = rounding_gamma(n + 3), tau = g plus the largest entry of
        |A^T A - I| over the net's rotations, as evaluated (an n-term sum,
        off by less than g), and S = max |p| + max |v| + |c| + reach + s;
        the ball counts are returned when
        (i) 8 n (g + tau) S <= s / 2 and (ii) 8 g S^2 <= s reach.
        - Member i holds p only if ThickenedBody.contains_many finds the
          mapped-back point b = fl(p A - v A) near, so its float |b - c|^2
          is at most fl(reach^2), and |b - c| <= reach + g S.
        - Each coordinate of b is two n-term dot products of p and v with a
          column of A, of norm at most 1 + tau, and one difference: b lies
          within 2 n g S of A^T (p - v).
        - The entries of A^T A are within tau of I, so |A^T A - I|_op is at
          most n tau. With x = p - v - A c, |A^T x| is at most
          |A^T (p - v) - c| + n tau |c|, and |x| <= (1 + n tau) |A^T x|; so
          |x| <= reach + 4 n g S + 2 n tau S.
        - The float centre c' = fl(A c + v) lies within n g S of A c + v, so
          |p - c'| <= reach + 5 n g S + 2 n tau S <= reach + s / 2 by (i).
        - in_balls evaluates |p - c'|^2 and its threshold
          (reach + s)^2 + PREDICATE_TOL each within 4 g S^2, as in _cull
          with |c'| + |p| + reach + s <= 2 S; and (reach + s)^2 -
          (reach + s / 2)^2 >= s reach >= 8 g S^2 by (ii): p is counted.
        """
        body, pts, n = self.body, as_points(points, self.dim), self.dim
        if isinstance(body, ThickenedBody):
            s, gamma = body.slack, rounding_gamma(n + 3)
            scale = (math.sqrt(float(sq_norms(pts).max(initial=0.0)))
                     + math.sqrt(float(sq_norms(self.net.translations).max(initial=0.0)))
                     + float(np.linalg.norm(body.bound.center)) + body.reach + s)
            if (8.0 * n * (gamma + self._tau) * scale <= 0.5 * s
                    and 8.0 * gamma * scale * scale <= s * body.reach):
                return CoverFamily(BallBody(body.bound.center, body.reach + s), 0.0,
                                   self.net).counts(pts)
        return np.full(len(self), len(pts))

    def max_count(self, points) -> int:
        """counts(points).max(), the largest number of the points that one
        member holds, for a non-empty family whose thickened base is a
        ThickenedBody and at least one point. Only the members that can hold the most are counted
        exactly.

        Members are taken in descending order of count_ceilings, which
        bounds every member's count (proved there), in blocks of
        geom_core.BLOCK_ELEMS // (m n) for m points in R^n. Each block
        first drops the members whose ceiling is at most the largest count
        so far, and the count stops at the first block left empty: every
        later ceiling is no larger. The block's back-images are tested by
        near once, the members with at most that largest count of passing
        points are dropped, and contains_many decides the rest.

        No dropped member could hold more: a point that contains_many holds
        passes its own evaluation of near, and a point that fails any float
        evaluation of near is rejected by the projection as well (see
        ThickenedBody.near), so no exact count exceeds the near-count it is
        pruned by. So the maximum is the one a count of every member
        gives."""
        body, pts, n = self.body, as_points(points, self.dim), self.dim
        ceilings = self.count_ceilings(pts)
        order = np.argsort(-ceilings, kind="stable")
        step, best = max(1, geom_core.BLOCK_ELEMS // pts.size), 0
        for start in range(0, len(order), step):
            block = order[start:start + step]
            block = block[ceilings[block] > best]
            if block.size == 0:
                break
            back = self._back_images(pts[None], block)
            keep = np.count_nonzero(body.near(back.reshape(-1, n)).reshape(back.shape[:2]),
                                    axis=0) > best
            if not keep.all():
                back = back[:, keep]
            if back.shape[1]:
                inside = body.contains_many(back.reshape(-1, n)).reshape(back.shape[:2])
                best = max(best, int(np.count_nonzero(inside, axis=0).max()))
        return best

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
