"""Geometric substrate tests: seeded streams, enclosing balls against an
exact subset-enumeration oracle, sampler laws, and cap-measure identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covercert.geom_core as geom_core
from covercert.geom_core import (
    Ball,
    RngStream,
    as_points,
    ball_volume_log,
    cap_measure_bounds,
    cap_measure_exact,
    diameter,
    enclosing_radius_ceilings,
    gauss_legendre,
    jung_radius,
    lens_measure,
    min_enclosing_ball,
    regular_simplex,
    row_norms,
    sample_uniform_ball,
    sample_uniform_balls,
    sample_uniform_sphere,
    sq_norms,
    uniform_ball_points,
)


# ---------------------------------------------------------------------------
# RngStream


def test_rng_stream_reproducible():
    a = RngStream(123, 4).generator().random(16)
    b = RngStream(123, 4).generator().random(16)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_streams_differ():
    a = RngStream(123, 0).generator().random(16)
    b = RngStream(123, 1).generator().random(16)
    c = RngStream(124, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_child_injective_small_grid():
    seen = {}
    for sid in range(8):
        for idx in range(64):
            key = RngStream(7, sid).child(idx).stream_id
            assert key not in seen, f"collision: {seen[key]} vs {(sid, idx)}"
            seen[key] = (sid, idx)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 0).child(-1)


def test_rng_stream_child_limit():
    # child(131074) would be stream 131075, the same as child(1).child(0)
    assert RngStream(1, 0).child(1).child(0).stream_id == 131075
    with pytest.raises(ValueError):
        RngStream(1, 0).child(131074)
    with pytest.raises(ValueError):
        RngStream(1, 0).child(RngStream.CHILD_LIMIT)
    # inside the limit the ids, and so every seeded output, are unchanged
    assert RngStream(1, 3).child(RngStream.CHILD_LIMIT - 1).stream_id == 3 * 65537 + 65536


# ---------------------------------------------------------------------------
# radii, diameters, simplices


def test_jung_radius_known_values():
    assert jung_radius(1) == pytest.approx(0.5, abs=1e-15)
    assert jung_radius(2) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
    assert jung_radius(3) == pytest.approx(math.sqrt(0.375), abs=1e-15)


def test_jung_radius_monotone_below_limit():
    vals = [jung_radius(n) for n in range(1, 200)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 / math.sqrt(2.0) for v in vals)


def test_jung_radius_rejects_bad_dimension():
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        jung_radius(0)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        jung_radius(2.5)


def _brute_diameter(pts: np.ndarray) -> float:
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


def test_diameter_matches_brute_force():
    gen = np.random.default_rng(5)
    for m, n in [(2, 1), (7, 2), (23, 3), (40, 5)]:
        pts = gen.normal(size=(m, n))
        assert diameter(pts) == pytest.approx(_brute_diameter(pts), abs=1e-12)


def test_diameter_degenerate():
    assert diameter(np.zeros((1, 3))) == 0.0
    with pytest.raises(ValueError):
        diameter(np.empty((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        diameter(np.array([[0.0, 0.0], [np.nan, 1.0]]))


def test_regular_simplex_unit_edges_and_circumradius():
    for n in range(1, 11):
        pts = regular_simplex(n)
        assert pts.shape == (n + 1, n)
        for i, j in itertools.combinations(range(n + 1), 2):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pts.mean(axis=0)) < 1e-12
        radii = np.linalg.norm(pts, axis=1)
        assert radii.max() == pytest.approx(jung_radius(n), abs=1e-12)


# ---------------------------------------------------------------------------
# row norms


def _layouts(a: np.ndarray):
    """The values of a in C order, in Fortran order and as views with a
    negative row stride, a negative column stride and both."""
    return [np.ascontiguousarray(a), np.asfortranarray(a),
            a[::-1].copy()[::-1], a[:, ::-1].copy()[:, ::-1], a[::-1, ::-1].copy()[::-1, ::-1]]


def _norm_mismatches(norms, n: int, m: int) -> list:
    """The cases where norms(a, origin) differs in any bit from
    np.linalg.norm(a - origin, axis=1): every layout of a, no origin, one
    vector and one row per point, at scales 1, 1e-160 (squares subnormal)
    and 1e150 (squares near the float maximum)."""
    gen = np.random.default_rng(100 * n + m)
    bad = []
    for scale in (1.0, 1e-160, 1e150):
        base = scale * gen.standard_normal((m, n))
        origins = {"none": None, "vector": scale * gen.standard_normal(n),
                   "rows": scale * gen.standard_normal((m, n))}
        for layout, a in enumerate(_layouts(base)):
            for kind, origin in origins.items():
                want = np.linalg.norm(a if origin is None else a - origin, axis=1)
                if norms(a, origin).tobytes() != want.tobytes():
                    bad.append((scale, layout, kind))
    return bad


def _column_sum(a, origin):
    return np.sqrt(sq_norms(a, origin))


@pytest.mark.parametrize("m", [1, 2, 7, 16, 20000])
@pytest.mark.parametrize("n", range(1, 11))
def test_row_norms_match_numpy_bit_for_bit(n, m):
    assert _norm_mismatches(row_norms, n, m) == []
    if n < 8:  # row_norms' own column sum, also where it calls numpy
        assert _norm_mismatches(_column_sum, n, m) == []


@pytest.mark.parametrize("n", [8, 9, 10])
def test_a_pure_column_sum_from_8_columns_fails_the_bit_check(n):
    # the mutant row_norms = sqrt(sq_norms) at every width: numpy adds 8 or
    # more squares in blocks, so the check above would catch it
    assert _norm_mismatches(_column_sum, n, 20000) != []


def test_sq_norms_origin_is_the_difference_summed_by_columns():
    gen = np.random.default_rng(9)
    for n in (1, 3, 6, 10):
        a = gen.standard_normal((50, n))
        for origin in (gen.standard_normal(n), gen.standard_normal((50, n))):
            assert sq_norms(a, origin).tobytes() == sq_norms(a - origin).tobytes()
        # the origin is read, not written
        origin = gen.standard_normal(n)
        kept = origin.copy(), a.copy()
        sq_norms(a, origin)
        assert np.array_equal(origin, kept[0]) and np.array_equal(a, kept[1])


# ---------------------------------------------------------------------------
# minimum enclosing ball


def _circumball_of_support(pts: np.ndarray):
    """Ball through all of pts with center in their affine hull; None when
    the points are affinely dependent."""
    q0 = pts[0]
    basis = pts[1:] - q0
    if len(basis) == 0:
        return q0.copy(), 0.0
    gram = basis @ basis.T
    rhs = 0.5 * np.einsum("ij,ij->i", basis, basis)
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    center = q0 + coef @ basis
    return center, float(np.linalg.norm(pts[0] - center))


def _brute_meb(pts: np.ndarray) -> float:
    """Exact optimal radius: the smallest circumball of some support subset
    of size <= n + 1 that encloses everything."""
    m, n = pts.shape
    best = math.inf
    for size in range(1, min(m, n + 1) + 1):
        for subset in itertools.combinations(range(m), size):
            out = _circumball_of_support(pts[list(subset)])
            if out is None:
                continue
            center, radius = out
            if radius < best and np.all(
                np.linalg.norm(pts - center, axis=1) <= radius + 1e-9
            ):
                best = radius
    return best


def test_meb_matches_subset_enumeration_oracle():
    gen = np.random.default_rng(11)
    for m, n in [(4, 2), (6, 2), (8, 3), (7, 4)]:
        for _ in range(6):
            pts = gen.normal(size=(m, n))
            ball = min_enclosing_ball(pts, tol=1e-10)
            assert ball.radius == pytest.approx(_brute_meb(pts), abs=1e-7)


def test_meb_exact_small_configurations():
    # two points: midpoint ball
    ball = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]), tol=1e-10)
    assert ball.radius == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ball.center, [1.0, 0.0], atol=1e-9)
    # equilateral triangle, side 1: circumradius 1/sqrt(3)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    ball = min_enclosing_ball(tri, tol=1e-10)
    assert ball.radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    # obtuse triangle: the longest edge's midpoint ball already encloses
    obtuse = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 0.5]])
    ball = min_enclosing_ball(obtuse, tol=1e-10)
    assert ball.radius == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(ball.center, [2.0, 0.0], atol=1e-8)


def test_meb_simplex_certified_tight():
    for n in range(1, 11):
        ball = min_enclosing_ball(regular_simplex(n), tol=1e-8)
        assert abs(ball.radius - jung_radius(n)) <= 1e-7


def test_meb_containment_is_exact():
    gen = np.random.default_rng(3)
    pts = gen.normal(size=(50, 4))
    ball = min_enclosing_ball(pts, tol=1e-6)
    # the returned radius is the exact max distance, so no slack is needed
    assert np.all(ball.contains_points(pts))


def test_meb_certifies_without_cap_warning():
    import warnings

    gen = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(50):
            pts = gen.normal(size=(16, 6))
            min_enclosing_ball(pts, tol=1e-8)


def test_meb_isometry_invariance():
    gen = np.random.default_rng(9)
    pts = gen.normal(size=(12, 3))
    base = min_enclosing_ball(pts, tol=1e-10)
    q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
    shift = gen.normal(size=3)
    moved = min_enclosing_ball(pts @ q.T + shift, tol=1e-10)
    assert moved.radius == pytest.approx(base.radius, abs=1e-9)
    assert np.allclose(moved.center, base.center @ q.T + shift, atol=1e-7)


def test_meb_degenerate_inputs():
    assert min_enclosing_ball(np.array([[3.0, 4.0]])).radius == 0.0
    dup = min_enclosing_ball(np.tile([1.0, 2.0], (5, 1)))
    assert dup.radius <= 1e-12
    with pytest.raises(ValueError):
        min_enclosing_ball(np.empty((0, 2)))
    with pytest.raises(ValueError):
        min_enclosing_ball(np.array([[0.0], [1.0]]), tol=0.0)
    with pytest.raises(ValueError, match="finite"):
        min_enclosing_ball(np.array([[0.0], [np.inf]]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       on_grid=st.booleans())
def test_meb_matches_oracle_property(n, m, seed, on_grid):
    # m > n + 1 makes the support fill up, so the affine-dependency pivot
    # runs; grid points add ties, repeats and cospherical subsets
    import warnings

    pts = np.random.default_rng(seed).normal(size=(m, n))
    if on_grid:
        pts = np.round(2.0 * pts) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ball = min_enclosing_ball(pts, tol=1e-10)
    assert ball.radius == pytest.approx(_brute_meb(pts), abs=1e-9)
    assert np.all(ball.contains_points(pts))


def _cube(n: int) -> np.ndarray:
    return np.array(list(itertools.product([-0.5, 0.5], repeat=n)))


_SIMPLEX3 = regular_simplex(3)


@pytest.mark.parametrize("pts, radius", [
    (np.array([[math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0)]
               for k in range(8)]), 1.0),
    (_cube(3), math.sqrt(3.0) / 2.0),
    (np.vstack([np.eye(6), -np.eye(6)]), 1.0),
    (_cube(6), math.sqrt(6.0) / 2.0),
    (np.vstack([_SIMPLEX3, _SIMPLEX3, _SIMPLEX3.mean(axis=0)]), jung_radius(3)),
    (_cube(3) + 1e6, math.sqrt(3.0) / 2.0),
], ids=["octagon", "3-cube", "cross-polytope-6", "6-cube", "simplex-duplicated",
        "3-cube-offset-1e6"])
def test_meb_degenerate_cospherical(pts, radius):
    ball = min_enclosing_ball(pts, tol=1e-10)
    assert abs(ball.radius - radius) <= 1e-9
    assert np.allclose(ball.center, pts.mean(axis=0), rtol=0.0, atol=1e-9)


def _dual_lower_bound(pts: np.ndarray, ball) -> float:
    """sqrt(sum u_i |p_i|^2 - |sum u_i p_i|^2) for the barycentric weights
    u >= 0 of the ball's center in its farthest points, recomputed here
    from the returned ball alone."""
    dist = np.linalg.norm(pts - ball.center, axis=1)
    far = pts[dist >= ball.radius * (1.0 - 1e-9)]
    lhs = np.vstack([far.T, np.ones(len(far))])
    u = np.linalg.lstsq(lhs, np.append(ball.center, 1.0), rcond=None)[0]
    assert np.all(u >= -1e-12)
    u = np.maximum(u, 0.0) / np.maximum(u, 0.0).sum()
    c = u @ far
    return math.sqrt(float(u @ np.einsum("ij,ij->i", far, far) - c @ c))


def test_meb_certificate_on_jung_inputs():
    # the inputs of the solver-audits benchmark op with seed 1000
    import warnings

    tol = 1e-8
    rng = RngStream(1000, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(300):
            pts = sample_uniform_ball(6, 1.0, 16, rng.child(trial))
            pts = pts / diameter(pts)
            ball = min_enclosing_ball(pts, tol=tol)
            assert np.all(ball.contains_points(pts))
            assert ball.radius <= (1.0 + tol) * _dual_lower_bound(pts, ball)


@pytest.mark.parametrize("n", [6, 10])
def test_meb_repeated_point_is_certified_radius_zero(n):
    # the centroid of 16 copies of one point may round off the point; the
    # copies are caught before the centroid is taken
    import warnings

    rng = RngStream(90 + n, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(40):
            point = sample_uniform_ball(n, 1.0, 1, rng.child(trial))[0]
            ball = min_enclosing_ball(np.repeat(point[None], 16, axis=0))
            assert ball.radius == 0.0 and ball.center.tobytes() == point.tobytes()


@pytest.mark.parametrize("cloud_size", [2, 3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_enclosing_radius_ceilings_hold_every_cloud(n, cloud_size):
    # random clouds rescaled to diameter 1 as jung-check draws them, plus
    # one with repeated points and one on a line
    rng = RngStream(60 + n, 0)
    clouds = [sample_uniform_ball(n, 1.0, cloud_size, rng.child(t)) for t in range(40)]
    clouds[0][1:] = clouds[0][0]
    clouds[1] = clouds[1][:, :1] * clouds[1][-1]
    stack = np.stack([c / diameter(c) if diameter(c) > 0 else c for c in clouds])
    for tol in (1e-8, 1e-13):
        ceilings = enclosing_radius_ceilings(stack, tol)
        radii = np.array([min_enclosing_ball(c, tol=tol).radius for c in stack])
        assert np.all(ceilings >= radii)
        if cloud_size == 16 and n > 1:
            assert np.all(ceilings[2:] <= 1.1 * radii[2:])  # tight enough to prune


def test_enclosing_radius_ceilings_take_a_stack():
    assert enclosing_radius_ceilings(np.empty((0, 4, 3)), 1e-8).shape == (0,)
    for bad in (np.zeros((4, 3)), np.zeros((2, 0, 3))):
        with pytest.raises(ValueError, match=r"\(B, m, n\) stack"):
            enclosing_radius_ceilings(bad, 1e-8)


def test_meb_iteration_cap_warns_and_encloses(monkeypatch):
    # bench/worker.py counts this warning prefix as geom_core.meb_uncertified
    pts = np.random.default_rng(4).normal(size=(16, 6))
    monkeypatch.setattr(geom_core, "_MEB_PIVOT_CAP", 1)
    with pytest.warns(RuntimeWarning,
                      match=r"^min_enclosing_ball stopped at the iteration cap"):
        ball = min_enclosing_ball(pts, tol=1e-8)
    assert np.all(ball.contains_points(pts))


# ---------------------------------------------------------------------------
# samplers


def test_sphere_sampler_unit_norms_and_determinism():
    pts = sample_uniform_sphere(5, RngStream(42, 0), 500)
    norms = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    again = sample_uniform_sphere(5, RngStream(42, 0), 500)
    assert np.array_equal(pts, again)
    single = sample_uniform_sphere(5, RngStream(42, 0), 1)
    assert single.shape == (1, 5)
    assert np.array_equal(single, pts[:1])


def test_sphere_sampler_archimedes_law():
    # on S^2 the first coordinate is uniform on [-1, 1]
    x = sample_uniform_sphere(3, RngStream(7, 0), 40000)[:, 0]
    assert abs(x.mean()) < 4.0 / math.sqrt(3.0 * 40000)  # sd of U[-1,1] is 1/sqrt 3
    frac = np.count_nonzero(x <= 0.5) / 40000
    assert abs(frac - 0.75) < 4.0 * math.sqrt(0.75 * 0.25 / 40000)


def test_ball_sampler_radial_law():
    n, total = 3, 40000
    norms = np.linalg.norm(sample_uniform_ball(n, 2.0, total, RngStream(8, 0)), axis=1)
    assert norms.max() <= 2.0 + 1e-12
    # P(|x| <= t R) = t^n
    for t in (0.5, 0.8):
        expected = t**n
        frac = np.count_nonzero(norms <= t * 2.0) / total
        sigma = math.sqrt(expected * (1.0 - expected) / total)
        assert abs(frac - expected) < 4.0 * sigma


def test_ball_sampler_edge_cases():
    assert uniform_ball_points(np.random.default_rng(0), 3, 1.0, 0).shape == (0, 3)
    with pytest.raises(ValueError):
        sample_uniform_ball(3, 0.0, 5, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_uniform_ball(3, 1.0, -1, RngStream(0, 0))
    assert sample_uniform_balls(3, 1.0, 0, [RngStream(0, 0)] * 2).shape == (2, 0, 3)
    for n in (3, 9):  # either side of the 8-column norm switch
        assert sample_uniform_balls(n, 1.0, 4, []).shape == (0, 4, n)
    for radius, count in ((0.0, 5), (1.0, -1)):
        with pytest.raises(ValueError):
            sample_uniform_balls(3, radius, count, [RngStream(0, 0)])


@pytest.mark.parametrize("n, radius, count, message", [
    (0, 1.0, 3, "n must be an integer >= 1"),
    (2.5, 1.0, 3, "n must be an integer >= 1"),
    (2, 0.0, 3, "radius must be positive"),
    (2, -1.0, 3, "radius must be positive"),
    (2, 1.0, -1, "count must be nonnegative"),
])
def test_every_ball_sampler_checks_its_input(n, radius, count, message):
    # the one draw checks n, radius and count, so the generator-level entry
    # point refuses what the stream-level ones refuse, with their message
    draws = (lambda: uniform_ball_points(np.random.default_rng(0), n, radius, count),
             lambda: sample_uniform_ball(n, radius, count, RngStream(0, 0)),
             lambda: sample_uniform_balls(n, radius, count, [RngStream(0, 0)]))
    for draw in draws:
        with pytest.raises(ValueError, match=f"^{message}$"):
            draw()


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_ball_draws_are_the_separate_draws(n):
    # one sample_uniform_ball call per stream, bit for bit, at counts under
    # and over row_norms' 128-row switch and on both sides of 8 columns
    rng = RngStream(50 + n, 0)
    for count, streams in ((1, 200), (16, 9), (130, 3)):
        children = [rng.child(t) for t in range(streams)]
        got = sample_uniform_balls(n, 0.7, count, children)
        want = np.stack([sample_uniform_ball(n, 0.7, count, c) for c in children])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _reference_ball_draw(gen, n, radius, count):
    """The ball draw written out without geom_core: Gaussian rows, their
    np.linalg.norm, an exact zero row made e1, then the U^(1/n) radial law."""
    g = gen.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1)
    zero = norms < 1e-300
    g[zero], norms[zero] = 0.0, 1.0
    g[zero, 0] = 1.0
    return g * (radius * gen.random(count) ** (1.0 / n) / norms)[:, None]


class _ZeroRowGenerator:
    """A generator whose standard normal draws have every third row exactly
    zero, so that the zero-norm guard runs."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def standard_normal(self, size=None, out=None):
        g = self.gen.standard_normal(size, out=out)
        g[::3] = 0.0
        return g

    def random(self, size=None, out=None):
        return self.gen.random(size, out=out)


@pytest.mark.parametrize("count", [0, 1, 127, 128, 500])
@pytest.mark.parametrize("n", range(1, 11))
def test_ball_draws_equal_the_reference_formula(n, count):
    # both sides of the 8-column norm switch and of row_norms' 128 rows
    want = _reference_ball_draw(np.random.default_rng(n), n, 0.7, count)
    got = uniform_ball_points(np.random.default_rng(n), n, 0.7, count)
    assert got.shape == want.shape == (count, n) and got.tobytes() == want.tobytes()
    zero = _reference_ball_draw(_ZeroRowGenerator(n), n, 0.7, count)
    assert zero.tobytes() == uniform_ball_points(_ZeroRowGenerator(n), n, 0.7, count).tobytes()
    assert not zero[::3, 1:].any() and np.all(zero[::3, 0] > 0.0)  # guarded rows: e1
    rng = RngStream(60 + n, 0)
    streams = [rng.child(t) for t in range(3)]
    stacked = sample_uniform_balls(n, 0.7, count, streams)
    for stream, rows in zip(streams, stacked):
        want = _reference_ball_draw(stream.generator(), n, 0.7, count)
        assert rows.tobytes() == want.tobytes()
        assert sample_uniform_ball(n, 0.7, count, stream).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# volumes and caps


def test_ball_volume_log_known_values():
    assert math.exp(ball_volume_log(1)) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(ball_volume_log(2)) == pytest.approx(math.pi, rel=1e-12)
    assert math.exp(ball_volume_log(3)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    # radius scaling is an exact additive n log r in log space
    assert ball_volume_log(4, 2.0) == pytest.approx(
        ball_volume_log(4) + 4.0 * math.log(2.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        ball_volume_log(3, 0.0)
    with pytest.raises(ValueError):
        ball_volume_log(2.5)  # once truncated to log Vol(B_2)


def test_cap_measure_closed_forms():
    for alpha in (0.2, 0.7, 1.2, 1.5):
        assert cap_measure_exact(2, alpha) == pytest.approx(alpha / math.pi, abs=1e-12)
        assert cap_measure_exact(3, alpha) == pytest.approx(
            (1.0 - math.cos(alpha)) / 2.0, abs=1e-12
        )
    # the regularized beta is steep as alpha -> pi/2; allow for that
    near = math.pi / 2.0 - 1e-6
    assert cap_measure_exact(2, near) == pytest.approx(near / math.pi, abs=1e-9)
    assert cap_measure_exact(7, math.pi / 2.0) == pytest.approx(0.5, abs=1e-14)


_CAP_CLOSED_FORMS = {
    2: lambda a: a / math.pi,
    3: lambda a: math.sin(a / 2.0) ** 2,  # (1 - cos a)/2 without its cancellation at small a
    4: lambda a: (a - math.sin(a) * math.cos(a)) / math.pi,
}


@pytest.mark.parametrize("n", sorted(_CAP_CLOSED_FORMS))
def test_cap_measure_closed_forms_dense(n):
    # the whole angle range on both sides of pi/2; the absolute floor only
    # covers the n = 4 form's own cancellation as a -> 0, where m ~ 2a^3/3pi
    for alpha in np.linspace(1e-4, math.pi - 1e-4, 2001):
        alpha = float(alpha)
        assert cap_measure_exact(n, alpha) == pytest.approx(
            _CAP_CLOSED_FORMS[n](alpha), rel=1e-13, abs=1e-16), alpha


def test_cap_measure_matches_scipy_betainc():
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for n in range(2, 301):
        for alpha in np.linspace(1e-4, math.pi - 1e-4, 100):
            alpha = float(alpha)
            half = 0.5 * float(special.betainc((n - 1) / 2.0, 0.5, math.sin(alpha) ** 2))
            want = half if alpha <= math.pi / 2.0 else 1.0 - half
            if want > 0.0:
                worst = max(worst, abs(cap_measure_exact(n, alpha) - want) / want)
    assert worst <= 1e-11


def test_cap_measure_matches_scipy_betainc_at_large_n():
    # choose_alpha's angles, sin a = 1 - lam ln n / n, up to n = 10^9: there
    # x = sin^2 a is near 1 and a = (n-1)/2 is large, where a fraction in x
    # alone, or a difference of two large lgamma values, loses up to 1e-6
    special = pytest.importorskip("scipy.special")
    for n in (10**k for k in range(3, 10)):
        for lam in (0.5, 1.0, 3.0, 5.0):
            alpha = math.asin(1.0 - lam * math.log(n) / n)
            for a in (alpha, math.pi - alpha):
                half = 0.5 * float(special.betainc((n - 1) / 2.0, 0.5, math.sin(a) ** 2))
                want = half if a <= math.pi / 2.0 else 1.0 - half
                assert cap_measure_exact(n, a) == pytest.approx(want, rel=1e-12), (n, lam, a)


def test_ball_volume_log_matches_scipy_gammaln():
    special = pytest.importorskip("scipy.special")
    for n in range(1, 1001):
        for radius in (0.5, 1.0, 3.0):
            want = (0.5 * n * math.log(math.pi) - float(special.gammaln(0.5 * n + 1.0))
                    + n * math.log(radius))
            assert ball_volume_log(n, radius) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_incomplete_beta_refuses_to_return_unconverged(monkeypatch):
    # at n = 50, alpha = 1 the continued fraction needs more than one term
    monkeypatch.setattr(geom_core, "_BETA_CF_TERMS", 1)
    with pytest.raises(ArithmeticError, match="did not converge in 1 terms"):
        cap_measure_exact(50, 1.0)


def test_cap_measure_domain():
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        cap_measure_exact(1, 0.5)
    with pytest.raises(ValueError):
        cap_measure_exact(3, 0.0)
    with pytest.raises(ValueError):
        cap_measure_exact(3, math.pi)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=200),
       st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_cap_measure_symmetry_property(n, alpha):
    total = cap_measure_exact(n, alpha) + cap_measure_exact(n, math.pi - alpha)
    assert abs(total - 1.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=120),
       st.floats(min_value=0.05, max_value=math.pi / 2.0 - 0.05))
def test_cap_sandwich_property(n, alpha):
    lo, hi = cap_measure_bounds(n, alpha)
    m = cap_measure_exact(n, alpha)
    assert lo < m < hi


def test_cap_bounds_domain():
    with pytest.raises(ValueError):
        cap_measure_bounds(3, math.pi / 2.0)
    with pytest.raises(ValueError):
        cap_measure_bounds(1, 0.3)


# ---------------------------------------------------------------------------
# lens of two balls and the Gauss-Legendre rule


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_lens_boundary_cases(n):
    a = 0.6
    for b in (0.3, 0.6, 0.9):
        # disjoint or touching balls share no volume
        assert lens_measure(n, a + b, a, b) == 0.0
        assert lens_measure(n, 5.0, a, b) == 0.0
        # one ball inside the other, and d = 0
        nested = min(1.0, (b / a) ** n)
        for d in (0.0, abs(a - b)):
            assert lens_measure(n, d, a, b) == nested
        # the two-cap branch meets both limits continuously
        assert lens_measure(n, abs(a - b) + 1e-9, a, b) == pytest.approx(nested, abs=1e-6)
        assert lens_measure(n, a + b - 1e-9, a, b) == pytest.approx(0.0, abs=1e-6)


def _lens_2d(d, a, b):
    """Area of two intersecting discs over the area of the first."""
    kite = math.sqrt((-d + a + b) * (d + a - b) * (d - a + b) * (d + a + b))
    area = (a * a * math.acos((d * d + a * a - b * b) / (2.0 * d * a))
            + b * b * math.acos((d * d + b * b - a * a) / (2.0 * d * b)) - 0.5 * kite)
    return area / (math.pi * a * a)


def _lens_3d(d, a, b):
    """Volume of two intersecting balls of R^3 over the volume of the first."""
    volume = (math.pi * (a + b - d) ** 2
              * (d * d + 2.0 * d * b - 3.0 * b * b + 2.0 * d * a + 6.0 * a * b - 3.0 * a * a)
              / (12.0 * d))
    return volume / (4.0 / 3.0 * math.pi * a ** 3)


@pytest.mark.parametrize("n,closed", [(2, _lens_2d), (3, _lens_3d)], ids=["disc", "ball"])
def test_lens_matches_elementary_closed_forms(n, closed):
    for a, b in ((0.55, 0.52), (0.55, 1.0), (1.0, 0.3)):
        for d in np.linspace(abs(a - b), a + b, 41)[1:-1]:
            assert lens_measure(n, float(d), a, b) == pytest.approx(
                closed(float(d), a, b), rel=1e-11, abs=1e-14), (a, b, d)


def test_lens_decreases_with_distance():
    for n in (2, 4, 6):
        values = [lens_measure(n, float(d), 0.62, 0.6) for d in np.linspace(0.0, 1.3, 131)]
        assert all(x >= y for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("count", [1, 2, 5, 32])
def test_gauss_legendre_integrates_polynomials_exactly(count):
    nodes, weights = gauss_legendre(count)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert float(np.max(np.abs(nodes + nodes[::-1]))) <= 1e-14
    for degree in range(2 * count):
        want = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert float(np.dot(weights, nodes ** degree)) == pytest.approx(want, abs=1e-13)


def test_gauss_legendre_refuses_unconverged_roots(monkeypatch):
    monkeypatch.setattr(geom_core, "_LEGENDRE_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge in 1 Newton steps"):
        gauss_legendre(32)


# ---------------------------------------------------------------------------
# small containers


def test_ball_contains_points_and_json():
    ball = Ball([1.0, 0.0], 2.0)
    hits = ball.contains_points(np.array([[1.0, 1.9], [1.0, 2.1], [3.0, 0.0]]))
    assert hits.tolist() == [True, False, True]
    back = Ball.from_json_dict(ball.to_json_dict())
    assert back.radius == ball.radius and np.array_equal(back.center, ball.center)
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -1.0)


def test_as_points_validation():
    assert as_points([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_points(np.ones((2, 3)), dim=2)
    with pytest.raises(ValueError):
        as_points(np.array([[np.inf, 0.0]]))
