"""Shared geometric substrate: points, balls, seeded sampling, minimum
enclosing balls, and spherical-cap measures.

Conventions used throughout the package:

* points are numpy arrays of shape (n,), point sets are arrays of shape
  (m, n), and all distances are Euclidean;
* every randomized routine takes an RngStream so that results are a pure
  function of (seed, stream_id);
* the normalized measure of a spherical cap of angle ``a`` on the unit
  sphere in R^n is  m(a) = I(sin^2 a; (n-1)/2, 1/2) / 2  for a <= pi/2,
  where I is the regularized incomplete beta function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray

# default tolerances: geometric predicates 1e-12, solvers 1e-6
PREDICATE_TOL = 1e-12
SOLVER_TOL = 1e-6
_AFFINE_DEPENDENCE = 1e-10  # min_enclosing_ball's relative pivot for affine dependence
# Badoiu-Clarkson steps of enclosing_radius_ceilings: on random clouds of 16
# points in R^6 sixteen leave their bound within about 3 % of the optimum
BOUND_STEPS = 16
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0  # u = 2^-53
# _betainc's continued fraction has converged when a step moves it by at
# most one ulp of 1; cap measures (b = 1/2) took at most 61 terms for
# every n up to 10^14, so a fraction still moving after 1000 is an error
_BETA_CF_TOL = 2.3e-16
_BETA_CF_TERMS = 1000
# gauss_legendre's Newton iteration: from Tricomi's guesses it converges
# quadratically, and a step below the tolerance leaves the root within an
# ulp or two; 100 steps without that are an error
_LEGENDRE_ROOT_TOL = 1e-15
_LEGENDRE_NEWTON_STEPS = 100
_MEB_PIVOT_CAP = 100_000  # min_enclosing_ball's pivots; uncertified after them, it warns
# float64 elements (256 KB) per block of every blocked loop; each loop divides
# it by the elements in one unit of its work, and reads it here when it runs
BLOCK_ELEMS = 1 << 15


def as_vector(x) -> Vector:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    return v


def as_points(x, dim: int | None = None) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, -1)
    if p.ndim != 2:
        raise ValueError("point array must have shape (m, n)")
    if dim is not None and p.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {p.shape[1]}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def as_dim(n, least: int) -> int:
    """The dimension n as an int; n must be an integer >= least."""
    if int(n) != n or n < least:
        raise ValueError(f"n must be an integer >= {least}")
    return int(n)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        return in_balls(self.center[None, :], self.radius, as_points(points, self.dim))[0]

    def to_json_dict(self) -> dict:
        return {"center": self.center.tolist(), "radius": self.radius}

    @staticmethod
    def from_json_dict(d: dict) -> "Ball":
        return Ball(np.asarray(d["center"], dtype=float), float(d["radius"]))


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: identical (seed, stream_id) pairs
    reproduce identical sample sequences."""

    seed: int
    stream_id: int = 0
    CHILD_LIMIT = 65_536

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))

    def child(self, index: int) -> "RngStream":
        """Derived independent stream; injective because index is held
        below CHILD_LIMIT (larger indices would collide with grandchildren)."""
        if not 0 <= index < self.CHILD_LIMIT:
            raise ValueError(f"child index must lie in [0, {self.CHILD_LIMIT})")
        return RngStream(self.seed, self.stream_id * (self.CHILD_LIMIT + 1) + index + 1)


def rounding_gamma(k: int) -> float:
    """g_k = k u / (1 - k u), u = UNIT_ROUNDOFF. A product of k factors
    (1 + d_i)^(+-1) with |d_i| <= u lies within [1 - g_k, 1 + g_k] (Higham,
    "Accuracy and Stability of Numerical Algorithms", Lemma 3.1), so k
    roundings change a product, or a sum of nonnegative terms, by at most
    that factor."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def jung_radius(n: int) -> float:
    """Circumradius sqrt(n / (2n + 2)) of the smallest ball containing
    every set of diameter 1 in R^n; increases to 1/sqrt(2)."""
    n = as_dim(n, 1)
    return math.sqrt(n / (2.0 * n + 2.0))


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances |a_i - b_j|^2, shape (len(a), len(b)), in the
    expanded form |a_i|^2 + |b_j|^2 - 2 a_i . b_j (one matrix product)."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)


def sq_norms(a: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    """Row squared norms |a_i - origin|^2, summed coordinate by coordinate
    in index order, as in_balls sums them. origin is one vector, one row per
    point, or None for 0; the (m, n) difference a - origin is formed one
    column at a time, never whole. With no origin, a may also be a stack
    (..., m, n) of point sets."""
    if origin is None:
        out = a[..., 0] * a[..., 0]
        for j in range(1, a.shape[-1]):
            out += a[..., j] * a[..., j]
        return out
    origin = np.asarray(origin, dtype=float)
    d = a[:, 0] - origin[..., 0]
    out = d * d
    for j in range(1, a.shape[1]):
        np.subtract(a[:, j], origin[..., j], out=d)
        d *= d
        out += d
    return out


def row_norms(a: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    """Row norms |a_i - origin| (origin as in sq_norms), bit for bit
    np.linalg.norm(a - origin, axis=1), the one place that computes them.

    Below 8 columns numpy's reduction adds the squares one by one in index
    order, at every batch shape and memory layout, which is what sq_norms
    does; on 20,000 rows of 2 to 6 columns summing column by column is 3 to
    10 times faster than numpy's strided reduction. Under 128 rows numpy's
    one call costs less than a call per column, and it gives the same bits,
    so row_norms calls numpy there. From 8 columns up numpy adds in blocks
    whose order depends on the batch's shape and layout, which no column
    sum reproduces (it moves jung-check at n = 10 by an ulp), so there
    row_norms calls numpy as well."""
    if a.shape[1] >= 8 or len(a) < 128:
        return np.linalg.norm(a if origin is None else a - origin, axis=1)
    out = sq_norms(a, origin)
    return np.sqrt(out, out=out)


def in_balls(centers: np.ndarray, radius: float, points: np.ndarray,
             centers_sq: np.ndarray | None = None,
             points_sq: np.ndarray | None = None) -> np.ndarray:
    """The one ball-membership rule: entry (i, j) says points[j] lies in the
    closed ball (centers[i], radius), |p - c|^2 <= radius^2 + PREDICATE_TOL.
    points is one set (m, n) for every ball, or a stack (len(centers), m, n)
    of one set per ball; entry (i, j) then tests points[i, j].

    |p - c|^2 is evaluated as (|c|^2 + |p|^2) - 2 c.p, the norms and c.p
    summed coordinate by coordinate in index order, so that every entry is
    a function of its own pair: a BLAS product rounds one entry differently
    in blocks of different shapes. centers_sq and points_sq are
    sq_norms(centers) and sq_norms(points) when the caller has them."""
    centers_sq = sq_norms(centers) if centers_sq is None else centers_sq
    points_sq = sq_norms(points) if points_sq is None else points_sq
    dot = centers[:, :1] * points[..., 0]
    for j in range(1, centers.shape[1]):
        dot += centers[:, j:j + 1] * points[..., j]
    dot *= 2.0
    sq = centers_sq[:, None] + points_sq
    sq -= dot
    return sq <= radius * radius + PREDICATE_TOL


def diameter(points: np.ndarray) -> float:
    """Exact max pairwise distance of an (m, n) point array by an O(m^2)
    scan; 0 for a singleton."""
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("diameter of an empty point set is undefined")
    if len(pts) == 1:
        return 0.0
    return float(math.sqrt(max(0.0, float(sq_distances(pts, pts).max()))))


def _orthogonalize(e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, r) with x = r @ e + v, v orthogonal to the rows of e (Gram-Schmidt twice)."""
    r = e @ x
    v = x - r @ e
    r2 = e @ v
    return v - r2 @ e, r + r2


def _set_rows(e: np.ndarray, t: np.ndarray, h: np.ndarray, start: int) -> None:
    """Extend the orthonormal basis e[:start] = t[:start, :start] @ h[:start]
    of independent rows h to e[:len(h)] = t[:len(h), :len(h)] @ h."""
    for i in range(start, len(h)):
        v, r = _orthogonalize(e[:i], h[i])
        d = math.sqrt(float(v @ v))
        e[i] = v / d
        t[i] = 0.0
        t[i, :i] = -(r @ t[:i, :i]) / d
        t[i, i] = 1.0 / d


def min_enclosing_ball(points: np.ndarray, tol: float = SOLVER_TOL) -> Ball:
    """Smallest enclosing ball of an (m, n) point array up to a (1+tol)
    radius factor.

    Primal active-set ascent (after Fischer, Gaertner and Kutz, ESA 2003) on
    the dual

        maximize  f(u) = sum_i u_i |p_i|^2 - |sum_i u_i p_i|^2   over the simplex,

    whose value never exceeds the squared optimal radius, so sqrt f(u)
    certifies the ball centered at c(u) = sum_i u_i p_i once the farthest
    input point sits within (1+tol) of it. The weights live on a support S
    of at most n + 1 affinely independent points, whose lifted points
    h_i = (p_i, 1) are linearly independent. An orthonormal basis
    e = t @ h_S of their span gives the inverse t't of their Gram matrix G
    from matrix-vector products alone. Each pivot raises f or keeps it:

    * S is stepped toward its barycentric circumcentre lam, the maximizer
      of the concave f on the hyperplane sum_S u = 1. Where a weight of lam
      is negative, a ratio test stops at the first weight that reaches 0
      and drops that point; f is concave on the segment and rises toward
      its maximizer at lam.
    * At the circumcentre every support point has the same gradient
      grad_i = |p_i - c|^2 - |c|^2 = K, and the farthest point j has
      grad_j > K. If j lies outside aff(S), it joins S with weight 0: on
      the larger hyperplane f rises in j's direction, so j's weight in the
      new lam is positive.
    * If j lies in aff(S), that is, the squared part of h_j orthogonal to
      e (the Cholesky pivot of the grown G) is at most _AFFINE_DEPENDENCE
      of |h_j|^2, the affine dependency mu with mu_j = 1, sum mu = 0 and
      sum mu_i p_i = 0 leaves the centre fixed and raises f linearly, by
      mu . grad = grad_j - K > 0 per unit step. The step ends when a
      weight reaches 0; that point leaves S and j joins it.

    The inputs are centred and scaled to unit spread first, which leaves
    the weights unchanged. _MEB_PIVOT_CAP caps the pivots. The returned
    radius is the exact maximum distance from the final center, hence
    containment of the inputs is exact regardless of tol.
    """
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("minimum enclosing ball of an empty set is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if (pts == pts[0]).all():  # one point, repeated: its centroid may round off it
        return Ball(pts[0].copy(), 0.0)
    centroid = pts.mean(axis=0)
    q = pts - centroid
    sq = np.einsum("ij,ij->i", q, q)
    if not sq.any():  # a spread whose square underflows
        return Ball(pts[0].copy(), 0.0)

    # The weights are translation and scale invariant; centred, unit-spread
    # coordinates keep f from cancelling and the lifted points well scaled.
    spread = math.sqrt(float(sq.max()))
    x = q / spread
    sx = sq / (spread * spread)
    h = np.column_stack([x, np.ones(len(x))])
    support = [int(np.argmax(sx))]
    u = np.ones(1)
    e, t = np.zeros((2, pts.shape[1] + 1, pts.shape[1] + 1))  # e[:k] = t[:k, :k] @ h[support]
    _set_rows(e, t, h[support], 0)
    certified = False
    for _ in range(_MEB_PIVOT_CAP):
        k = len(support)
        tk = t[:k, :k]
        # lam = G^-1 (sx_S - kappa) / 2, G^-1 = tk' tk, kappa set by sum lam = 1
        a, b = tk.T @ (tk @ sx[support]), tk.T @ tk.sum(axis=1)
        lam = 0.5 * (a - (a.sum() - 2.0) / b.sum() * b)
        blocking = np.flatnonzero(lam < 0.0)
        if blocking.size:
            ratios = u[blocking] / (u[blocking] - lam[blocking])
            drop = int(blocking[np.argmin(ratios)])
            u = np.maximum(u + ratios.min() * (lam - u), 0.0)
        else:
            u = lam / lam.sum()  # on the simplex, so sqrt f(u) is a lower bound
            center = u @ x[support]
            cc = float(center @ center)
            grad = sx - 2.0 * (x @ center)
            j = int(np.argmax(grad))
            radius = math.sqrt(max(float(grad[j]) + cc, 0.0))
            lower = math.sqrt(max(float(u @ sx[support]) - cc, 0.0))
            certified = radius <= (1.0 + tol) * lower
            if certified or j in support:
                break  # j in support: stalled by rounding
            v, r = _orthogonalize(e[:k], h[j])
            if float(v @ v) > _AFFINE_DEPENDENCE * float(h[j] @ h[j]):
                support.append(j)
                u = np.append(u, 0.0)
                _set_rows(e, t, h[support], k)
                continue
            # h_j = w @ h_S: step along mu = (-w, 1) until a weight of S is 0
            w = tk.T @ r
            shrinking = np.flatnonzero(w > 0.0)
            ratios = u[shrinking] / w[shrinking]
            drop = int(shrinking[np.argmin(ratios)])
            u = np.append(np.maximum(u - ratios.min() * w, 0.0), ratios.min())
            support.append(j)
        # drop support[drop]; the basis rows before it stay valid
        u = np.delete(u, drop)
        del support[drop]
        _set_rows(e, t, h[support], drop)

    if not certified:
        warnings.warn("min_enclosing_ball stopped at the iteration cap without a "
                      "certified (1+tol) radius; returning the best enclosing ball "
                      "found", RuntimeWarning)
    center = centroid + spread * (u @ x[support])
    radius = float(row_norms(pts, center).max())
    return Ball(center, radius)


def enclosing_radius_ceilings(clouds: np.ndarray, tol: float) -> np.ndarray:
    """For each cloud of a (B, m, n) stack, a radius C that
    min_enclosing_ball(cloud, tol) does not exceed when it certifies; all
    clouds at once, without solving any.

    The core-set iteration of Badoiu and Clarkson ("Optimal core-sets for
    balls", 2003) moves a centre from the cloud's centroid by
    c_{i+1} = c_i + (f_i - c_i) / (i + 2), f_i the point farthest from c_i.
    Each c_i centres an enclosing ball of radius |f_i - c_i| >= r*, the
    optimum; b is the smallest such radius over BOUND_STEPS centres. With
    t = tol, u = UNIT_ROUNDOFF, g = rounding_gamma(n + 3) and S = max |p|,

        C = b (1 + t)(1 + 32 g) + 32 u S.

    b is summed from differences, fl(p - c) = (p - c)(1 + d) with |d| <= u,
    so the squares, their sum and the square root leave it at least
    (1 - g) r*. A certified solve returns R <= (1 + t)(1 + 23 g) r* + 17 u S:
    - it stops once its radius is within (1 + t) of its dual lower bound,
      both taken in the coordinates x = (p - c0) / s, c0 the centroid and s
      the largest |p - c0|. There |x| <= 1 + g, s <= 2 S (1 + g) and the
      optimum r*_x >= 1/2 (its ball holds the centroid and a point at
      distance 1 from it), so the expanded sums behind the two sides err by
      at most 5 g in squared units each, and the centre c_x is within
      (1 + t)(1 + 21 g) r*_x of every x;
    - rounding x moves each point by at most 2 u s (1 + 2 g), so c0 + s c_x
      is within (1 + t)(1 + 21 g) r* + 11 u S of every p;
    - forming that centre in floats moves it by at most
      u (2 s + |c0|)(1 + 2 g) <= 5 u S (1 + 3 g), and the returned radius, a
      rounded norm, is at most (1 + g) times the exact distance.
    With r* <= b / (1 - g), C exceeds R's bound by more than the 5 u C its
    own rounding may cost. An uncertified solve (it warns) has no bound."""
    x = np.asarray(clouds, dtype=float)
    if x.ndim != 3 or x.shape[1] == 0:
        raise ValueError("clouds must be a (B, m, n) stack with m >= 1")
    rows = np.arange(len(x))
    centre = x.mean(axis=1)
    best = np.full(len(x), np.inf)
    for step in range(BOUND_STEPS):
        diff = x - centre[:, None, :]
        sq = np.einsum("bmn,bmn->bm", diff, diff)
        far = sq.argmax(axis=1)
        np.minimum(best, sq[rows, far], out=best)
        centre += (x[rows, far] - centre) / (step + 2)
    extent = np.sqrt(np.einsum("bmn,bmn->bm", x, x).max(axis=1))
    g = rounding_gamma(x.shape[2] + 3)
    return np.sqrt(best) * ((1.0 + tol) * (1.0 + 32.0 * g)) + 32.0 * UNIT_ROUNDOFF * extent


def regular_simplex(n: int) -> np.ndarray:
    """Vertices of the unit-edge regular n-simplex, centered at the origin
    of R^n (circumradius jung_radius(n)), as an (n + 1, n) array."""
    n = as_dim(n, 1)
    # scaled standard basis of R^{n+1}: pairwise distances exactly 1
    v = np.eye(n + 1) / math.sqrt(2.0)
    v -= v.mean(axis=0)
    # Helmert rows: deterministic orthonormal basis of the centered hull
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -k
        h[k - 1] /= math.sqrt(k * (k + 1.0))
    return v @ h.T


def _guarded_norms(g: np.ndarray) -> np.ndarray:
    """The row norms of a stack (k, count, n) of Gaussian draws, flattened.
    Below 8 columns row_norms adds the squares in index order at any batch
    shape; from 8 columns up numpy's order depends on the shape, so there
    the norms are taken draw by draw, in the shape (count, n) of one draw.
    Zero-norm rows have probability zero; an exact float zero becomes e1
    with norm 1, in place."""
    flat = g.reshape(-1, g.shape[-1])
    norms = row_norms(flat) if flat.shape[1] < 8 else np.concatenate([row_norms(r) for r in g])
    bad = norms < 1e-300
    if np.any(bad):
        flat[bad] = 0.0
        flat[bad, 0] = 1.0
        norms[bad] = 1.0
    return norms


def sample_uniform_sphere(n: int, rng: RngStream, count: int) -> np.ndarray:
    """count uniform unit vectors on the sphere in R^n via normalized
    Gaussians, as a (count, n) array."""
    n = as_dim(n, 1)
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = rng.generator().standard_normal((int(count), n))
    return g / _guarded_norms(g[None])[:, None]


def _ball_draws(gens, size: int, n: int, radius: float, count: int) -> np.ndarray:
    """count uniform points of radius * B_n from each of the size generators
    that the iterable gens yields, stacked as (size, count, n): Gaussian
    directions g / |g| at the U^(1/n) radial law, the one implementation of
    the ball draw. Each generator fills its own slices of two preallocated
    arrays, standard normals and then uniforms, and is taken from gens only
    then, so that the generators (3 KB each) are not all alive at once. The
    norms (see _guarded_norms) and the radial law then run once over the
    whole stack, each row on its own. Every sampler of the ball checks its
    n, radius and count here."""
    n = as_dim(n, 1)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = np.empty((size, int(count), n))
    u = np.empty(g.shape[:2])
    if g.size == 0:
        return g
    for i, gen in enumerate(gens):
        gen.standard_normal(out=g[i])
        gen.random(out=u[i])
    norms = _guarded_norms(g)
    flat = g.reshape(-1, n)
    flat *= (radius * u.reshape(-1) ** (1.0 / n) / norms)[:, None]
    return g


def uniform_ball_points(gen: np.random.Generator, n: int, radius: float,
                        count: int) -> np.ndarray:
    """Generator-level form of sample_uniform_ball: count uniform points of
    radius * B_n drawn from gen, as a (count, n) array."""
    return _ball_draws([gen], 1, n, radius, count)[0]


def sample_uniform_ball(n: int, radius: float, count: int, rng: RngStream) -> np.ndarray:
    """count i.i.d. uniform points in radius * B_n, as a (count, n) array;
    deterministic given rng."""
    return sample_uniform_balls(n, radius, count, [rng])[0]


def sample_uniform_balls(n: int, radius: float, count: int, streams) -> np.ndarray:
    """sample_uniform_ball(n, radius, count, s) for each stream s, stacked
    as (len(streams), count, n); each row is its stream's draw alone (see
    _ball_draws)."""
    return _ball_draws(map(RngStream.generator, streams), len(streams), n, radius, count)


def ball_volume_log(n: int, radius: float = 1.0) -> float:
    """log Vol(radius * B_n) = (n/2) log pi - log Gamma(n/2 + 1) + n log radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = as_dim(n, 1)
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0) + n * math.log(radius)


def _lgamma_ratio(a: float, b: float) -> float:
    """log Gamma(a + b) - log Gamma(a) for a, b > 0. From a = 30 on it is
    taken from Stirling's series, whose first four terms leave an error
    below 1e-16 there, so that two large lgamma values do not cancel: the
    last bit of lgamma(5e8) = 9.5e9 alone is worth 2e-6."""
    if a < 30.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def series(z: float) -> float:  # lgamma(z) - (z - 1/2) log z + z - log sqrt(2 pi)
        w = 1.0 / (z * z)
        return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z

    return (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b + series(a + b) - series(a)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 <= x <= 1:
    x^a (1-x)^b / B(a, b) over DiDonato and Morris's continued fraction
    b0 + a1/(b1 + a2/(b2 + ...)), summed by the modified Lentz method, on
    the side of the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) where it
    converges fast (x < (a+1)/(a+b+2)). Its terms take 1 - x as given, so
    they do not cancel as x -> 1. Raises ArithmeticError when the fraction
    has not converged within _BETA_CF_TERMS terms."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, 1.0 - x
    y = 1.0 - x
    tiny = 1e-300
    frac = c = a * (a * y - b * x + 1.0) / (a + 1.0)  # b0 > 0 on this side
    d = 0.0
    for m in range(1, _BETA_CF_TERMS + 1):
        num = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (a + 2 * m - 1) ** 2
        den = (m + m * (b - m) * x / (a + 2 * m - 1)
               + (a + m) * (a * y - b * x + 1.0 + m * (2.0 - x)) / (a + 2 * m + 1))
        d = den + num * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = den + num / c
        c = c if abs(c) >= tiny else tiny
        frac *= c * d
        if abs(c * d - 1.0) <= _BETA_CF_TOL:
            log_front = (_lgamma_ratio(max(a, b), min(a, b)) - math.lgamma(min(a, b))
                         + a * math.log(x) + b * math.log1p(-x))
            value = math.exp(log_front) / frac
            return 1.0 - value if swap else value
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge "
                          f"in {_BETA_CF_TERMS} terms")


def cap_measure_exact(n: int, alpha: float) -> float:
    """Normalized measure of a spherical cap of angle alpha on the unit
    sphere of R^n.

    Uses the half regularized incomplete beta identity for alpha <= pi/2
    and the symmetry m(alpha) + m(pi - alpha) = 1 above.
    """
    n = as_dim(n, 2)
    if not 0.0 < alpha < math.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    s2 = math.sin(alpha) ** 2
    half = 0.5 * _betainc((n - 1) / 2.0, 0.5, s2)
    if alpha <= math.pi / 2.0:
        return half
    return 1.0 - half


def cap_measure_bounds(n: int, alpha: float) -> tuple[float, float]:
    """Strict sandwich for the cap measure, valid for alpha < pi/2:

        sin^(n-1) a / sqrt(2 pi n)  <  m(a)  <  sin^(n-1) a / (sqrt(2 pi (n-1)) cos a)
    """
    n = as_dim(n, 2)
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("sandwich bounds require alpha in (0, pi/2)")
    s = math.sin(alpha) ** (n - 1)
    lower = s / math.sqrt(2.0 * math.pi * n)
    upper = s / (math.sqrt(2.0 * math.pi * (n - 1)) * math.cos(alpha))
    return lower, upper


def _solid_cap(n: int, cos_angle: float) -> float:
    """Normalized volume of the solid cap {x in B_n : x_1 >= cos_angle}. The
    first n coordinates of a uniform point on the unit sphere of R^(n+2) are
    uniform on B_n (Archimedes' projection), so this is the spherical cap
    measure cap_measure_exact(n + 2, acos(cos_angle))."""
    if cos_angle >= 1.0:
        return 0.0
    if cos_angle <= -1.0:
        return 1.0
    return cap_measure_exact(n + 2, math.acos(cos_angle))


def lens_measure(n: int, d: float, a: float, b: float) -> float:
    """Vol(B(0, a) & B(d e_1, b)) / Vol(a B_n) for d >= 0 and a, b > 0.

    Disjoint balls (d >= a + b) give 0 and nested ones (d <= |a - b|)
    min(1, (b/a)^n). Otherwise the radical hyperplane x_1 = h cuts the lens
    into a solid cap of each ball, of half-angles acos(h/a) and
    acos((d - h)/b)."""
    n = as_dim(n, 1)
    if d >= a + b:
        return 0.0
    if d <= abs(a - b):
        return min(1.0, (b / a) ** n)
    h = (d * d + a * a - b * b) / (2.0 * d)
    return _solid_cap(n, h / a) + (b / a) ** n * _solid_cap(n, (d - h) / b)


def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the count-point Gauss-Legendre rule
    on [-1, 1]. Newton's method on the three-term Legendre recurrence
    refines Tricomi's guesses cos(pi (k - 1/4) / (count + 1/2)) to the
    roots of P_count, and w = 2 / ((1 - x^2) P'_count(x)^2). Plain array
    arithmetic: no LAPACK routine is paged in for the rule."""
    count = as_dim(count, 1)
    x = np.cos(np.pi * (np.arange(1, count + 1) - 0.25) / (count + 0.5))
    for _ in range(_LEGENDRE_NEWTON_STEPS):
        prev, cur = np.ones_like(x), x
        for j in range(2, count + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        slope = count * (x * cur - prev) / (x * x - 1.0)
        step = cur / slope
        x = x - step
        if float(np.max(np.abs(step))) <= _LEGENDRE_ROOT_TOL:
            return x[::-1], (2.0 / ((1.0 - x * x) * slope * slope))[::-1]
    raise ArithmeticError(f"Legendre roots of degree {count} did not converge "
                          f"in {_LEGENDRE_NEWTON_STEPS} Newton steps")
