"""Body oracle tests: membership/projection consistency, closed-form areas
(circle lens, Steiner thickening, a union of disjoint discs) against Monte
Carlo hit rates, transform algebra, and JSON round trips."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covercert.bodies as bodies
import covercert.geom_core as geom_core
from covercert.bodies import (
    BOUND_SLACK,
    CULL_SLACK,
    PROJECTION_TOL,
    VERTEX_SUBSET_CAP,
    BallBody,
    Body,
    BallIntersectionBody,
    HalfspaceIntersectionBody,
    Isometry,
    ThickenedBody,
    TransformedBody,
    UnionBody,
    body_from_json_dict,
    probe_points,
    reduce_to_ball,
    thicken,
    transform,
)
from covercert.geom_core import (
    PREDICATE_TOL,
    Ball,
    RngStream,
    in_balls,
    sample_uniform_ball,
    sq_norms,
    uniform_ball_points,
)
from covercert.families import CoverFamily, _cull
from covercert.isometry_nets import IsometryNet, haar_orthogonal


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def unit_square() -> HalfspaceIntersectionBody:
    normals = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    offsets = [0.5, 0.5, 0.5, 0.5]
    return HalfspaceIntersectionBody(normals, offsets,
                                     Ball(np.zeros(2), math.sqrt(0.5)),
                                     exact_volume=1.0)


def lens_body() -> BallIntersectionBody:
    return BallIntersectionBody([Ball(np.zeros(2), 1.0),
                                 Ball(np.array([1.0, 0.0]), 1.0)])


LENS_AREA = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0  # two unit circles, d=1


def hit_area(body, samples: int, seed: int) -> tuple[float, float]:
    """Area of a planar body from the hit rate of uniform samples in its
    bounding disc, and the standard error of that estimate."""
    pts = sample_uniform_ball(2, body.bound.radius, samples, RngStream(seed, 0))
    rate = np.count_nonzero(body.contains_many(pts + body.bound.center)) / samples
    disc = math.pi * body.bound.radius ** 2
    return disc * rate, disc * math.sqrt(rate * (1.0 - rate) / samples)


# ---------------------------------------------------------------------------
# primitive bodies


def test_ball_body_membership_and_volume():
    b = BallBody(np.array([1.0, 0.0]), 2.0)
    assert b.contains([1.0, 1.9])
    assert not b.contains([1.0, 2.1])
    assert b.ball.radius == 2.0
    proj = b.project(np.array([[5.0, 0.0], [1.0, 0.5]]))
    assert np.allclose(proj, [[3.0, 0.0], [1.0, 0.5]], atol=1e-12)

    # one rule, |p - c|^2 <= r^2 + 1e-12, for every ball oracle: points at
    # r (1 + 1e-13), at squared distance r^2 + 5e-13 and at r^2 + 1e-11
    c, base, eps = np.array([0.3, -0.2]), 0.5, 0.02
    r = base + eps
    offsets = [r * (1.0 + 1e-13), math.sqrt(r * r + 5e-13), math.sqrt(r * r + 1e-11)]
    pts = c + np.array([[d, 0.0] for d in offsets])
    net = IsometryNet(2, 0.0, np.eye(2)[None], c[None], {})
    verdicts = [
        Ball(c, r).contains_points(pts),
        BallBody(c, r).contains_many(pts),
        BallIntersectionBody([Ball(c, r), Ball(c, 2.0 * r)]).contains_many(pts),
        thicken(BallBody(c, base), eps).contains_many(pts),
        thicken(ThickenedBody(BallBody(c, base), eps / 2.0), eps / 2.0).contains_many(pts),
        CoverFamily(BallBody(np.zeros(2), base), eps, net).contains(pts)[0],
    ]
    for inside in verdicts:
        assert inside.tolist() == [True, True, False]


def test_ball_body_dimension_mismatch():
    b = BallBody(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        b.contains([0.0, 0.0])


def test_square_membership_and_projection():
    sq = unit_square()
    assert sq.contains([0.5, 0.5])  # corners are closed
    assert not sq.contains([0.5001, 0.0])
    pts = np.array([[2.0, 0.3], [-1.0, -2.0], [0.1, 0.2]])
    proj = sq.project(pts)
    assert np.allclose(proj, np.clip(pts, -0.5, 0.5), atol=1e-8)
    dist = sq.distance_many(pts)
    assert dist[2] <= 1e-9
    assert dist[0] == pytest.approx(1.5, abs=1e-8)


def test_halfspace_validation():
    with pytest.raises(ValueError):
        HalfspaceIntersectionBody([(1.0, 0.0)], [0.5, 0.4], Ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        HalfspaceIntersectionBody([(0.0, 0.0)], [0.5], Ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        HalfspaceIntersectionBody([(1.0, 0.0)], [0.5], Ball(np.zeros(3), 1.0))


def _segment(half_length: float, radius: float, sides: int = 4) -> HalfspaceIntersectionBody:
    """[-half_length, half_length] x {0} as halfspaces; sides = 3 drops
    y >= 0, leaving a half-strip."""
    normals = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)][:sides]
    offsets = [half_length, half_length, 0.0, 0.0][:sides]
    return HalfspaceIntersectionBody(normals, offsets, Ball(np.zeros(2), radius))


def test_halfspace_bound_must_hold_the_body():
    # bounds that hold the body pass, up to the relative BOUND_SLACK: the
    # unit square at sqrt(0.5), a segment at its half-length, a regular
    # hexagon at its circumradius, whose vertices are rounded solutions
    unit_square()
    _segment(0.3, 0.3)
    angles = np.arange(6) * math.pi / 3.0
    hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    HalfspaceIntersectionBody(hexagon, np.full(6, 0.5 * math.sqrt(3.0)), Ball(np.zeros(2), 1.0))
    # half-length 0.3, declared bound radius 0.1: the check sees the segment
    # clipped to the cube of half-width 0.2 about the centre
    with pytest.raises(ValueError, match="reach at least 0.2 from the bound's centre"):
        _segment(0.3, 0.1)
    with pytest.raises(ValueError, match="the bound must hold the body"):
        _segment(0.5, 0.5, sides=3)  # unbounded half-strip
    with pytest.raises(ValueError, match="the bound must hold the body"):
        HalfspaceIntersectionBody([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
                                  [0.5] * 4, Ball(np.zeros(2), math.sqrt(0.5) * (1.0 - 1e-6)))
    with pytest.raises(ValueError, match="meet in no point of their bound ball"):
        HalfspaceIntersectionBody([(1.0, 0.0), (-1.0, 0.0)], [-1.0, -1.0],
                                  Ball(np.zeros(2), 5.0))  # empty: x <= -1 and x >= 1
    with pytest.raises(ValueError, match="meet in no point of their bound ball"):
        HalfspaceIntersectionBody([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
                                  [9.0, -8.0, 0.5, 0.5], Ball(np.zeros(2), 1.0))
    # the cull's margin covers a bound this loose and the projection's tolerance
    assert BOUND_SLACK + PROJECTION_TOL < CULL_SLACK


def test_halfspace_bound_check_is_capped():
    # 3-d, 40 halfspaces plus 6 cube faces: C(46, 3) = 15,180 subsets
    normals = np.random.default_rng(3).normal(size=(40, 3))
    assert math.comb(46, 3) > VERTEX_SUBSET_CAP
    with pytest.raises(ValueError, match=f"more than the {VERTEX_SUBSET_CAP} allowed"):
        HalfspaceIntersectionBody(normals, np.ones(40), Ball(np.zeros(3), 10.0))


def test_lens_membership_and_bound():
    lens = lens_body()
    assert lens.contains([0.5, 0.0])
    assert not lens.contains([-0.1, 0.0])
    assert not lens.contains([1.1, 0.0])
    assert lens.bound.radius == 1.0  # the smallest member ball
    proj = lens.project(np.array([[-1.0, 0.0], [0.5, 2.0], [0.5, 0.1]]))
    assert np.all(lens.contains_many(proj) | (lens.distance_many(proj) <= 1e-7))


def test_ball_intersection_validation():
    with pytest.raises(ValueError):
        BallIntersectionBody([])
    with pytest.raises(ValueError):
        BallIntersectionBody([Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)])


def test_ball_intersection_refuses_disjoint_balls():
    # two lenses 1 apart with radii 0.3 share no point: refused before any
    # projection could run Dykstra to its sweep cap
    with pytest.raises(ValueError, match="do not meet"):
        BallIntersectionBody([Ball((0.0, 0.0), 0.3), Ball((1.0, 0.0), 0.3)])
    # touching balls meet in one point
    body = BallIntersectionBody([Ball((0.0, 0.0), 0.5), Ball((1.0, 0.0), 0.5)])
    assert body.contains([0.5, 0.0])
    # the rule is pairwise: three pairwise meeting balls in R^2 with an
    # empty intersection are still accepted
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(0.75)]])
    BallIntersectionBody([Ball(c, 0.51) for c in corners])


# ---------------------------------------------------------------------------
# areas against closed forms


def test_mc_volume_lens_closed_form():
    area, sigma = hit_area(lens_body(), 60000, 2)
    assert abs(area - LENS_AREA) <= 4.0 * sigma


def test_mc_volume_steiner_thickened_square():
    fat = thicken(unit_square(), 0.1)
    exact = 1.0 + 4.0 * 0.1 + math.pi * 0.01  # area + perimeter eps + pi eps^2
    area, sigma = hit_area(fat, 60000, 3)
    assert abs(area - exact) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# thickening


def test_thicken_ball_scales_volume_exactly():
    base = BallBody(np.zeros(3), 1.0)
    fat = thicken(base, 0.25)
    assert isinstance(fat, BallBody)
    assert fat.ball.radius == 1.25


def test_thicken_stacks_additively():
    sq = unit_square()
    fat = thicken(thicken(sq, 0.1), 0.2)
    assert isinstance(fat, ThickenedBody)
    assert fat.eps == pytest.approx(0.3)
    assert fat.base is sq
    assert thicken(sq, 0.0) is sq
    with pytest.raises(ValueError):
        thicken(sq, -0.1)


def test_thickened_membership_near_corner():
    fat = thicken(unit_square(), 0.1)
    corner = np.array([0.5, 0.5])
    out_dir = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert fat.contains(corner + 0.099 * out_dir)
    assert not fat.contains(corner + 0.101 * out_dir)
    assert fat.bound.radius == pytest.approx(math.sqrt(0.5) + 0.1)


def test_thickened_projection_feasible():
    fat = thicken(unit_square(), 0.1)
    pts = np.array([[3.0, 0.0], [0.7, 0.7], [0.0, 0.0]])
    proj = fat.project(pts)
    assert np.all(fat.distance_many(proj) <= 1e-7)
    # interior points project to themselves
    assert np.allclose(proj[2], [0.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# transforms


def test_transform_membership_invariance():
    sq = unit_square()
    g = Isometry(_rot(0.7), np.array([2.0, -1.0]))
    moved = transform(sq, g)
    gen = np.random.default_rng(12)
    pts = gen.uniform(-1.0, 1.0, size=(200, 2))
    assert np.array_equal(moved.contains_many(g.apply(pts)), sq.contains_many(pts))


def test_transform_composes_instead_of_nesting():
    sq = unit_square()
    g = Isometry(_rot(0.3), np.array([1.0, 0.0]))
    h = Isometry(_rot(-1.1), np.array([0.0, 2.0]))
    twice = transform(transform(sq, g), h)
    assert isinstance(twice, TransformedBody)
    assert twice.base is sq  # composed, not wrapped twice
    combined = h.compose(g)
    pts = np.random.default_rng(1).uniform(-0.6, 0.6, size=(50, 2))
    assert np.array_equal(twice.contains_many(combined.apply(pts)),
                          sq.contains_many(pts))


def test_transform_ball_stays_ball():
    b = BallBody(np.array([1.0, 0.0]), 0.5)
    g = Isometry(_rot(math.pi / 2.0), np.zeros(2))
    moved = transform(b, g)
    assert isinstance(moved, BallBody)
    assert np.allclose(moved.ball.center, [0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        transform(b, Isometry(np.eye(3), np.zeros(3)))


def test_reduce_to_ball_chains():
    b = BallBody(np.zeros(2), 0.5)
    g = Isometry(_rot(1.0), np.array([3.0, 4.0]))
    chained = TransformedBody(ThickenedBody(b, 0.2), g)
    ball = reduce_to_ball(chained)
    assert ball is not None
    assert ball.radius == pytest.approx(0.7)
    assert np.allclose(ball.center, [3.0, 4.0], atol=1e-12)
    assert reduce_to_ball(unit_square()) is None
    assert reduce_to_ball(ThickenedBody(unit_square(), 0.1)) is None


def test_transformed_projection_consistency():
    lens = lens_body()
    g = Isometry(_rot(0.4), np.array([0.3, -0.2]))
    moved = TransformedBody(lens, g)
    pts = np.random.default_rng(3).normal(size=(40, 2))
    assert np.allclose(moved.project(pts), g.apply(lens.project(g.inverse().apply(pts))),
                       atol=1e-9)


# ---------------------------------------------------------------------------
# unions


def test_union_membership_volume_and_bound():
    parts = [BallBody(np.array([-1.0, 0.0]), 0.5),
             BallBody(np.array([1.0, 0.0]), 0.5)]
    u = UnionBody(parts)
    assert u.contains([-1.0, 0.4])
    assert u.contains([1.0, 0.4])
    assert not u.contains([0.0, 0.0])
    assert u.bound.radius == pytest.approx(1.5, abs=1e-9)
    area, sigma = hit_area(u, 60000, 6)
    assert abs(area - math.pi / 2.0) <= 4.0 * sigma


def test_union_projection_picks_nearest_part():
    parts = [BallBody(np.array([-1.0, 0.0]), 0.5),
             BallBody(np.array([1.0, 0.0]), 0.5)]
    u = UnionBody(parts)
    proj = u.project(np.array([[0.9, 0.0], [-2.0, 0.0]]))
    assert np.allclose(proj[0], [0.9, 0.0], atol=1e-12)
    assert np.allclose(proj[1], [-1.5, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        UnionBody([])


# ---------------------------------------------------------------------------
# the thickened body's bounding-ball cull against the projection it skips


def _reach(body: ThickenedBody) -> float:
    outer = body.bound.radius  # R + eps
    return outer + CULL_SLACK * (1.0 + float(np.linalg.norm(body.bound.center)) + outer)


@pytest.mark.parametrize("base", [
    unit_square(),
    _segment(0.3, 0.3),
    lens_body(),
    UnionBody([unit_square(), BallBody(np.array([1.0, 0.5]), 0.3)]),
    TransformedBody(lens_body(), Isometry(_rot(0.7), np.array([0.4, -1.2]))),
    TransformedBody(_segment(0.3, 0.3), Isometry(_rot(2.1), np.array([-0.5, 0.25]))),
], ids=["square", "segment", "lens", "union", "transformed-lens", "transformed-segment"])
@pytest.mark.parametrize("eps", [0.0, 0.15])
def test_thickened_cull_equals_projection(base, eps):
    fat = ThickenedBody(base, eps)
    c = base.bound.center
    rng = np.random.default_rng(2024)
    # seeded points out to twice the reach, and points a few ulps either
    # side of the reach sphere
    scatter = c + rng.normal(scale=_reach(fat), size=(400, 2))
    dirs = rng.normal(size=(40, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = _reach(fat) * (1.0 + np.arange(-4, 5) * 2.0 ** -52)
    shell = c + (dirs[:, None, :] * radii[None, :, None]).reshape(-1, 2)
    pts = np.vstack([scatter, shell])
    beyond = sq_norms(pts - c) > _reach(fat) ** 2
    inside = fat.contains_many(pts)
    assert beyond.sum() > 100 and (eps == 0.0 or inside.sum() > 20)
    assert np.array_equal(inside, base.distance_many(pts) <= eps + PROJECTION_TOL)
    assert not inside[beyond].any()


def test_cover_family_counts_segment_matches_per_member():
    # every member of a segment family decided on its own, by projecting
    # the points mapped back by that member alone
    from covercert.isometry_nets import build_cover_family

    base, eps = _segment(0.5, 0.5), 0.3
    net = build_cover_family(base, 1.0, Ball(np.zeros(2), 0.4), eps)
    family = CoverFamily(base, eps, net)
    pts = sample_uniform_ball(2, 1.2, 60, RngStream(5, 0))
    reference = np.array([
        np.count_nonzero(base.distance_many((pts - v) @ m) <= eps + PROJECTION_TOL)
        for m, v in zip(*net.members(np.arange(len(net))))])
    counts = family.counts(pts)
    assert len(net) > 200 and counts.min() < counts.max()
    assert counts.tolist() == reference.tolist()


# ---------------------------------------------------------------------------
# the slab test of a thickened polytope or lens against the projection it
# skips, and the slab ceilings of a family


def _slab_base(gen, n: int, kind: str) -> Body:
    """A base centred off the origin, with a bound that holds it: a box of
    random orientation and half-widths, a segment (one nonzero half-width),
    a triangle in a random plane (flat in R^3), or a lens of two balls
    overlapping by at least 0.4."""
    centre = gen.uniform(-0.5, 0.5, n)
    if kind == "lens":
        other = centre + gen.uniform(-0.4, 0.4, n) / math.sqrt(n)
        return BallIntersectionBody([Ball(centre, float(gen.uniform(0.4, 0.8))),
                                     Ball(other, float(gen.uniform(0.4, 0.8)))])
    q = haar_orthogonal(n, gen, 1)[0]
    if kind == "triangle":
        corners = gen.uniform(-0.5, 0.5, (3, 2))
        while abs(np.linalg.det(corners[1:] - corners[0])) < 0.05:
            corners = gen.uniform(-0.5, 0.5, (3, 2))
        normals, offsets = [], []
        for k in range(3):
            a, b, c = corners[k], corners[(k + 1) % 3], corners[(k + 2) % 3]
            u = np.array([b[1] - a[1], a[0] - b[0]])
            u = u if u @ (c - a) < 0.0 else -u
            normals.append(u @ q[:2])
            offsets.append(u @ a + normals[-1] @ centre)
        if n == 3:  # the plane of q[0] and q[1] through the centre
            normals += [q[2], -q[2]]
            offsets += [q[2] @ centre, -(q[2] @ centre)]
        vertices = centre + corners @ q[:2]
        hub = vertices.mean(axis=0)
        return HalfspaceIntersectionBody(
            normals, offsets, Ball(hub, float(np.linalg.norm(vertices - hub, axis=1).max()) + 1e-12))
    half = gen.uniform(0.05, 0.5, n)
    if kind == "segment":
        half[1:] = 0.0
    return HalfspaceIntersectionBody(np.vstack([q, -q]),
                                     np.concatenate([q @ centre + half, half - q @ centre]),
                                     Ball(centre, float(np.linalg.norm(half)) + 1e-12))


def _slab_points(gen, base: Body, fat: ThickenedBody) -> np.ndarray:
    """Points on both sides of each thickened set of the base, from deep
    inside to beyond it: at a_i . p = b_i + eps + t for a halfspace, or
    |p - c_j| = r_j + eps + t for a ball, above feet spread over the body,
    with t = 0, PROJECTION_TOL / 2, and on either side of the slack s."""
    feet = probe_points(base, 24, RngStream(int(gen.integers(1 << 30)), 0))
    s = fat.slack
    steps = [-0.05, -1e-7, 0.0, PROJECTION_TOL / 2.0, s / 2.0, s * (1.0 - 1e-9), s,
             s * (1.0 + 1e-9), 2.0 * s, 0.05]
    pts = []
    for t in steps:
        if isinstance(base, BallIntersectionBody):
            for ball in base.balls:
                d = feet - ball.center
                d /= np.linalg.norm(d, axis=1)[:, None]
                pts.append(ball.center + (ball.radius + fat.eps + t) * d)
        else:
            for a, b in zip(base.normals, base.offsets):
                pts.append(feet + (b + fat.eps + t - feet @ a)[:, None] * a)
    return np.vstack(pts)


KINDS = ["box", "segment", "triangle", "lens"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS),
       eps=st.floats(0.0, 0.5))
# triangles with a point whose Dykstra distance fell on either side of
# PROJECTION_TOL depending on the batch it was projected in
@example(seed=586311, n=3, kind="triangle", eps=0.0)
@example(seed=278772, n=2, kind="triangle", eps=0.0)
@example(seed=23759, n=2, kind="triangle", eps=0.5)
def test_slab_cull_equals_projection(seed, n, kind, eps):
    # the slab test decides outside only points the projection rejects too,
    # and it rejects some that the bound ball alone would project
    gen = np.random.default_rng(seed)
    base = _slab_base(gen, n, kind)
    fat = ThickenedBody(base, eps)
    assert fat.slabs
    pts = _slab_points(gen, base, fat)
    assert np.array_equal(fat.contains_many(pts),
                          base.distance_many(pts) <= eps + PROJECTION_TOL)
    in_bound = sq_norms(pts, fat.bound.center) <= fat.reach ** 2
    assert not (fat.near(pts) & ~in_bound).any()
    if kind != "lens":
        assert (in_bound & ~fat.near(pts)).any()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS),
       eps=st.floats(0.0, 0.5))
# a triangle whose decisions changed when split into batches of 7
@example(seed=2341729125, n=2, kind="triangle", eps=0.0)
def test_projection_decisions_do_not_depend_on_the_batch(seed, n, kind, eps):
    # each point stops Dykstra on its own moves: permuting the slab points,
    # splitting them into batches of 7, or deciding some one at a time
    # changes no decision of contains_many
    gen = np.random.default_rng(seed)
    base = _slab_base(gen, n, kind)
    fat = ThickenedBody(base, eps)
    pts = _slab_points(gen, base, fat)
    whole = fat.contains_many(pts)
    perm = gen.permutation(len(pts))
    assert np.array_equal(fat.contains_many(pts[perm]), whole[perm])
    sevens = [fat.contains_many(pts[i:i + 7]) for i in range(0, len(pts), 7)]
    assert np.array_equal(np.concatenate(sevens), whole)
    for i in perm[:40]:
        assert fat.contains_many(pts[i:i + 1])[0] == whole[i]


def test_slab_test_falls_back_to_the_bound_ball():
    # near skips the slabs when m sqrt(n) PROJECTION_TOL plus the rounding
    # bound exceeds s / 2: 600 halfspaces in R^1 (the first term), or a
    # square with a redundant halfspace 1e3 out (the rounding bound)
    many = HalfspaceIntersectionBody([[1.0], [-1.0]] * 300,
                                     0.05 + np.repeat(np.arange(300), 2) * 1e-3,
                                     Ball(np.zeros(1), 0.05))
    square = unit_square()
    far = HalfspaceIntersectionBody(np.vstack([square.normals, [[1.0, 1.0]]]),
                                    np.append(square.offsets, 1e3), square.bound)
    assert ThickenedBody(_segment(0.3, 0.3), 0.4).slabs
    assert ThickenedBody(square, 0.1).slabs
    for base in (many, far):
        fat = ThickenedBody(base, 0.1)
        assert not fat.slabs
        c, n = base.bound.center, base.dim
        pts = c + np.random.default_rng(7).uniform(-2.0, 2.0, (300, n)) * fat.reach
        assert np.array_equal(fat.near(pts), sq_norms(pts, c) <= fat.reach ** 2)
        inside = fat.contains_many(pts)
        assert 0 < inside.sum() < len(pts)
        assert np.array_equal(inside, base.distance_many(pts) <= 0.1 + PROJECTION_TOL)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS))
def test_max_count_decides_only_members_that_can_beat_the_floor(seed, n, kind):
    # max_count is the largest count for blocks of 1, 7 or every member, and
    # a member reaches contains_many exactly when its ceiling and its
    # near-count (how many of its back-images pass near) both exceed the
    # floor, the largest count found before its block
    gen = np.random.default_rng(seed)
    base = _slab_base(gen, n, kind)
    net = IsometryNet(n, 0.1, haar_orthogonal(n, gen, 3), gen.uniform(-1.0, 1.0, (5, n)), {})
    family = CoverFamily(base, float(gen.uniform(0.05, 0.5)), net)
    fat, probe = family.body, uniform_ball_points(gen, n, 1.0, 400)
    exact, ceilings = family.counts(probe), family.count_ceilings(probe)
    back = np.stack([probe @ a - v @ a for a, v in zip(*net.members(np.arange(len(net))))])
    near = np.array([np.count_nonzero(fat.near(b)) for b in back])
    order = np.argsort(-ceilings, kind="stable")
    decided, contains_many = [], fat.contains_many

    def spying(points):
        gaps = [np.abs(back - b).max(axis=(1, 2))
                for b in points.reshape(len(probe), -1, n).transpose(1, 0, 2)]
        assert all(gap.min() <= 1e-9 for gap in gaps)
        decided.append([int(np.argmin(gap)) for gap in gaps])
        return contains_many(points)

    for per_block in (1, 7, len(family)):
        decided.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geom_core, "BLOCK_ELEMS", per_block * n * len(probe))
            patch.setattr(fat, "contains_many", spying)
            assert family.max_count(probe) == exact.max()
        want, floor = [], 0
        for start in range(0, len(order), per_block):
            block = [i for i in order[start:start + per_block] if ceilings[i] > floor]
            if not block:
                break
            block = [int(i) for i in block if near[i] > floor]
            if block:
                want.append(block)
                floor = max(floor, int(exact[block].max()))
        assert decided == want


# ---------------------------------------------------------------------------
# probes and serialization


def test_dykstra_projects_only_the_points_still_moving(monkeypatch):
    # a point leaves Dykstra's batch after its first quiet sweep: the ball
    # steps of a lens receive, per ball, the sum over the points of their
    # own settling sweeps, and each result has the bits of its point
    # projected alone
    lens = BallIntersectionBody([Ball((-0.15, 0.0), 0.3), Ball((0.15, 0.0), 0.3)])
    pts = np.random.default_rng(11).uniform(-0.6, 0.6, (200, 2))
    step, rows = bodies._project_onto_ball, []

    def counting(x, *ball):
        rows.append(len(x))
        return step(x, *ball)

    monkeypatch.setattr(bodies, "_project_onto_ball", counting)
    alone, sweeps = [], []
    for p in pts:
        rows.clear()
        alone.append(lens.project(p[None]))
        sweeps.append(len(rows) // 2)
    rows.clear()
    batch = lens.project(pts)
    assert min(sweeps) == 1 and max(sweeps) > 2  # points settle in different sweeps
    assert sum(rows) == 2 * sum(sweeps) < 2 * len(pts) * max(sweeps)
    assert batch.tobytes() == np.vstack(alone).tobytes()

    # at a cap of one sweep every point returns its first iterate, and only
    # a batch with a point still moving warns
    monkeypatch.setattr(bodies, "PROJECTION_SWEEP_CAP", 1)
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        capped = lens.project(pts)
    (a, b) = lens.balls
    first = step(step(pts, a.center, a.radius), b.center, b.radius)
    assert capped.tobytes() == first.tobytes()
    settled = np.array(sweeps) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lens.project(pts[settled]).tobytes() == first[settled].tobytes()


def test_probe_points_land_in_body():
    sq = unit_square()
    probes = probe_points(sq, 64, RngStream(9, 0))
    assert probes.shape == (64, 2)
    assert np.all(sq.distance_many(probes) <= 1e-7)


def _assert_same_membership(a, b, dim):
    pts = np.random.default_rng(77).normal(scale=1.5, size=(300, dim))
    assert np.array_equal(a.contains_many(pts), b.contains_many(pts))


def test_json_round_trips_all_kinds():
    g = Isometry(_rot(0.9), np.array([0.2, 0.1]))
    bodies = [
        BallBody(np.array([0.5, -0.5]), 1.2),
        unit_square(),
        lens_body(),
        ThickenedBody(unit_square(), 0.15),
        TransformedBody(lens_body(), g),
        UnionBody([BallBody(np.zeros(2), 0.4), BallBody(np.ones(2), 0.3)]),
    ]
    for body in bodies:
        back = body_from_json_dict(body.to_json_dict())
        assert back.kind == body.kind
        _assert_same_membership(body, back, 2)


def test_json_unknown_kind():
    with pytest.raises(ValueError):
        body_from_json_dict({"kind": "torus"})


def test_square_exact_volume_survives_round_trip():
    back = body_from_json_dict(unit_square().to_json_dict())
    assert back.exact_volume == 1.0


# ---------------------------------------------------------------------------
# cover families: the culled ball path against the dense in_balls matrix


def _ball_family(base_center, base_radius, eps, rotations, translations) -> CoverFamily:
    """Balls of radius base_radius + eps: every rotation of the base centre
    with every translation."""
    net = IsometryNet(len(base_center), 0.0, np.asarray(rotations, dtype=float),
                      np.asarray(translations, dtype=float), {})
    return CoverFamily(BallBody(base_center, base_radius), eps, net)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       offset=st.floats(0.0, 1e3), radius=st.sampled_from(["zero", "tiny", "random"]),
       rotations=st.integers(1, 8), translations=st.integers(1, 12),
       points=st.integers(1, 600))
def test_cover_family_cull_equals_dense(n, seed, offset, radius, rotations, translations,
                                        points):
    rng = np.random.default_rng(seed)
    base = {"zero": 0.0, "tiny": 1e-7, "random": float(rng.uniform(0.01, 2.0))}[radius]
    eps = float(rng.uniform(0.0, 0.5)) if radius == "random" else 0.0
    # random rotations (QR of Gaussians) and translations around `offset`
    q = np.linalg.qr(rng.normal(size=(rotations, n, n)))[0]
    spread = float(rng.uniform(0.1, 5.0))
    shifts = offset + rng.uniform(-spread, spread, (translations, n))
    family = _ball_family(rng.uniform(-1.0, 1.0, n), base, eps, q, shifts)
    members = len(family)
    # points around the centres, some exactly on one
    pts = offset + rng.uniform(-spread, spread, (points, n))
    pts[: min(points, members) // 2] = family.centers[: min(points, members) // 2]

    dense = in_balls(family.centers, family.radius, pts)
    assert family.counts(pts).tolist() == np.count_nonzero(dense, axis=1).tolist()
    assert np.array_equal(family.contains(pts), dense)
    assert np.array_equal(family.contains(pts[:1]), dense[:, :1])


def test_cover_family_counts_boundary():
    # the [in, in, out] cases of the one ball rule, point by point and
    # together, through the culled count
    c, base, eps = np.array([0.3, -0.2]), 0.5, 0.02
    r = base + eps
    offsets = [r * (1.0 + 1e-13), math.sqrt(r * r + 5e-13), math.sqrt(r * r + 1e-11)]
    pts = c + np.array([[d, 0.0] for d in offsets])
    family = _ball_family(np.zeros(2), base, eps, np.eye(2)[None], c[None])
    assert [int(family.counts(p)[0]) for p in pts] == [1, 1, 0]
    assert family.counts(pts).tolist() == [2]


def test_cover_family_cull_bounds():
    # centres at and around the two bounds of _cull, whose formula this
    # restates: near |c - h| <= q + rho + delta, full |c - h| <= q - rho - delta - eta
    base = 0.5
    q = math.sqrt(base * base + PREDICATE_TOL)
    gamma = 5 * 2.0 ** -53 / (1.0 - 5 * 2.0 ** -53)

    # points (-1, 0) and (1, 0): h = 0, rho = 1 > q, so no ball holds both;
    # the farthest centre, (3, 0), fixes S = 3 + 1 + 0 + R + 1
    pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
    scale = 3.0 + 1.0 + 0.0 + base + 1.0
    bound = q + 1.0 + 2.0 * math.sqrt(gamma) * scale
    # in, on the rule's boundary, just beyond it, at the near bound from
    # both sides and beyond it
    xs = [1.0 + base, 1.0 + q, 1.0 + q + 1e-9, bound * (1.0 - 1e-12), bound,
          bound * (1.0 + 1e-12), 3.0]
    centers = np.array([[x, 0.0] for x in xs])
    near, full = _cull(centers, 3.0, base, pts, sq_norms(pts))
    assert near.tolist() == [0, 1, 2, 3, 4]
    assert not full.any()

    # points (-0.1, 0) and (0.1, 0): h = 0, rho = 0.1; centres inside the
    # full bound hold both points, and one just outside it goes pair by pair
    pts = np.array([[-0.1, 0.0], [0.1, 0.0]])
    scale = 1.0 + 0.1 + 0.0 + base + 1.0
    delta, eta = 2.0 * math.sqrt(gamma) * scale, 2.0 * gamma * scale * scale / q
    inner = q - 0.1 - delta - eta
    xs = [0.0, inner * (1.0 - 1e-12), inner, inner + eta / 2.0, q - 0.1, q + 0.1]
    centers = np.array([[x, 0.0] for x in xs])
    near, full = _cull(centers, 1.0, base, pts, sq_norms(pts))
    assert near.tolist() == list(range(6))
    assert full.tolist() == [True, True, True, False, False, False]

    for pts, centers in ((np.array([[-1.0, 0.0], [1.0, 0.0]]),
                          np.array([[x, 0.0] for x in (1.5, 1.0 + q, 2.5, 3.0)])),
                         (pts, centers)):
        family = _ball_family(np.zeros(2), base, 0.0, np.eye(2)[None], centers)
        dense = in_balls(centers, base, pts)
        assert family.counts(pts).tolist() == np.count_nonzero(dense, axis=1).tolist()
        assert np.array_equal(family.contains(pts), dense)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_family_centres_keep_their_bytes(n):
    # centres from the factors, one einsum per rotation, are the bytes of
    # the einsum over the once-materialised np.repeat / np.tile members
    rng = np.random.default_rng(40 + n)
    rotations = np.linalg.qr(rng.normal(size=(7, n, n)))[0]
    translations = rng.uniform(-2.0, 2.0, (11, n))
    center = rng.uniform(-1.0, 1.0, n)
    family = _ball_family(center, 0.4, 0.1, rotations, translations)
    old = (np.einsum("tij,j->ti", np.repeat(rotations, len(translations), axis=0), center)
           + np.tile(translations, (len(rotations), 1)))
    assert family.centers.tobytes() == old.tobytes()
    assert family.centers_sq.tobytes() == sq_norms(old).tobytes()
