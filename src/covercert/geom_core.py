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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, gammaln

Vector = np.ndarray

# default tolerances: geometric predicates 1e-12, solvers 1e-6
PREDICATE_TOL = 1e-12
SOLVER_TOL = 1e-6
_AFFINE_DEPENDENCE = 1e-10  # min_enclosing_ball's relative pivot for affine dependence


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

    def contains_points(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return in_balls(self.center[None, :], self.radius + tol, as_points(points, self.dim))[0]

    def to_json_dict(self) -> dict:
        return {"center": self.center.tolist(), "radius": self.radius}

    @staticmethod
    def from_json_dict(d: dict) -> "Ball":
        return Ball(np.asarray(d["center"], dtype=float), float(d["radius"]))


@dataclass(frozen=True)
class PointSet:
    """Finite configuration of points sharing one ambient dimension."""

    dim: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.dim)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_array(points) -> "PointSet":
        pts = as_points(points)
        return PointSet(pts.shape[1], pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "points": self.points.tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "PointSet":
        pts = np.asarray(d["points"], dtype=float).reshape(-1, int(d["dim"]))
        return PointSet(int(d["dim"]), pts)


@dataclass(frozen=True)
class SphericalCap:
    """Points of the unit sphere within angle `angle` of `axis`."""

    axis: Vector
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "axis", as_vector(self.axis))
        object.__setattr__(self, "angle", float(self.angle))
        if abs(np.linalg.norm(self.axis) - 1.0) > PREDICATE_TOL:
            raise ValueError("cap axis must be a unit vector (tol 1e-12)")
        if not 0.0 < self.angle < math.pi:
            raise ValueError("cap angle must lie in (0, pi)")

    def contains_directions(self, dirs: np.ndarray) -> np.ndarray:
        d = as_points(dirs, self.axis.size)
        return d @ self.axis >= math.cos(self.angle)


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


def jung_radius(n: int) -> float:
    """Circumradius sqrt(n / (2n + 2)) of the smallest ball containing
    every set of diameter 1 in R^n; increases to 1/sqrt(2)."""
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    return math.sqrt(n / (2.0 * n + 2.0))


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances |a_i - b_j|^2, shape (len(a), len(b)), in the
    expanded form |a_i|^2 + |b_j|^2 - 2 a_i . b_j (one matrix product)."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Row squared norms |a_i|^2, summed coordinate by coordinate in index
    order, as in_balls sums them."""
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * a[:, j]
    return out


def in_balls(centers: np.ndarray, radius: float, points: np.ndarray,
             centers_sq: np.ndarray | None = None,
             points_sq: np.ndarray | None = None) -> np.ndarray:
    """The one ball-membership rule: entry (i, j) says points[j] lies in the
    closed ball (centers[i], radius), |p - c|^2 <= radius^2 + PREDICATE_TOL.

    |p - c|^2 is evaluated as (|c|^2 + |p|^2) - 2 c.p, the norms and c.p
    summed coordinate by coordinate in index order, so that every entry is
    a function of its own pair: a BLAS product rounds one entry differently
    in blocks of different shapes. centers_sq and points_sq are
    sq_norms(centers) and sq_norms(points) when the caller has them."""
    centers_sq = sq_norms(centers) if centers_sq is None else centers_sq
    points_sq = sq_norms(points) if points_sq is None else points_sq
    dot = centers[:, :1] * points[:, 0]
    for j in range(1, centers.shape[1]):
        dot += centers[:, j:j + 1] * points[:, j]
    dot *= 2.0
    sq = centers_sq[:, None] + points_sq[None, :]
    sq -= dot
    return sq <= radius * radius + PREDICATE_TOL


def diameter(ps: PointSet) -> float:
    """Exact max pairwise distance by an O(m^2) scan; 0 for a singleton."""
    if len(ps) == 0:
        raise ValueError("diameter of an empty point set is undefined")
    if len(ps) == 1:
        return 0.0
    return float(math.sqrt(max(0.0, float(sq_distances(ps.points, ps.points).max()))))


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


def min_enclosing_ball(ps: PointSet, tol: float = SOLVER_TOL,
                       max_iterations: int = 100_000) -> Ball:
    """Smallest enclosing ball up to a (1+tol) radius factor.

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
    the weights unchanged. max_iterations caps the pivots. The returned
    radius is the exact maximum distance from the final center, hence
    containment of the inputs is exact regardless of tol.
    """
    if len(ps) == 0:
        raise ValueError("minimum enclosing ball of an empty set is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = ps.points
    centroid = pts.mean(axis=0)
    q = pts - centroid
    sq = np.einsum("ij,ij->i", q, q)
    if not sq.any():
        return Ball(pts[0].copy(), 0.0)

    # The weights are translation and scale invariant; centred, unit-spread
    # coordinates keep f from cancelling and the lifted points well scaled.
    spread = math.sqrt(float(sq.max()))
    x = q / spread
    sx = sq / (spread * spread)
    h = np.column_stack([x, np.ones(len(x))])
    support = [int(np.argmax(sx))]
    u = np.ones(1)
    e, t = np.zeros((2, ps.dim + 1, ps.dim + 1))  # e[:k] = t[:k, :k] @ h[support]
    _set_rows(e, t, h[support], 0)
    certified = False
    for _ in range(max_iterations):
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
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    return Ball(center, radius)


def regular_simplex(n: int) -> PointSet:
    """Vertices of the unit-edge regular n-simplex, centered at the origin
    of R^n (circumradius jung_radius(n))."""
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    # scaled standard basis of R^{n+1}: pairwise distances exactly 1
    v = np.eye(n + 1) / math.sqrt(2.0)
    v -= v.mean(axis=0)
    # Helmert rows: deterministic orthonormal basis of the centered hull
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -k
        h[k - 1] /= math.sqrt(k * (k + 1.0))
    return PointSet(n, v @ h.T)


def _gaussian_rows(gen: np.random.Generator, count: int, n: int):
    """count standard Gaussian rows in R^n and their norms. Zero-norm draws
    have probability zero; an exact float zero becomes e1 with norm 1."""
    g = gen.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1)
    bad = norms < 1e-300
    if np.any(bad):
        g[bad] = 0.0
        g[bad, 0] = 1.0
        norms[bad] = 1.0
    return g, norms


def sample_uniform_sphere(n: int, rng: RngStream, count: int | None = None):
    """Uniform unit vector(s) on the sphere in R^n via normalized Gaussians.

    Returns a single Vector when count is None, else a PointSet.
    """
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    gen = rng.generator()
    m = 1 if count is None else int(count)
    if m < 0:
        raise ValueError("count must be nonnegative")
    g, norms = _gaussian_rows(gen, m, int(n))
    u = g / norms[:, None]
    if count is None:
        return u[0]
    return PointSet(int(n), u)


def uniform_ball_points(gen: np.random.Generator, n: int, radius: float,
                        count: int) -> np.ndarray:
    """Generator-level core of sample_uniform_ball: Gaussian directions with
    the U^(1/n) radial law."""
    if count == 0:
        return np.empty((0, n))
    g, norms = _gaussian_rows(gen, count, n)
    radial = radius * gen.random(count) ** (1.0 / n)
    return g * (radial / norms)[:, None]


def sample_uniform_ball(n: int, radius: float, count: int, rng: RngStream) -> PointSet:
    """I.i.d. uniform points in radius * B_n; deterministic given rng."""
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return PointSet(int(n), uniform_ball_points(rng.generator(), int(n), radius, int(count)))


def ball_volume_log(n: int, radius: float = 1.0) -> float:
    """log Vol(radius * B_n) = (n/2) log pi - log Gamma(n/2 + 1) + n log radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = int(n)
    return 0.5 * n * math.log(math.pi) - float(gammaln(0.5 * n + 1.0)) + n * math.log(radius)


def cap_measure_exact(n: int, alpha: float) -> float:
    """Normalized measure of a spherical cap of angle alpha on the unit
    sphere of R^n.

    Uses the half regularized incomplete beta identity for alpha <= pi/2
    and the symmetry m(alpha) + m(pi - alpha) = 1 above.
    """
    if int(n) != n or n < 2:
        raise ValueError("sphere dimension parameter must satisfy n >= 2")
    if not 0.0 < alpha < math.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    n = int(n)
    s2 = math.sin(alpha) ** 2
    half = 0.5 * float(betainc((n - 1) / 2.0, 0.5, s2))
    if alpha <= math.pi / 2.0:
        return half
    return 1.0 - half


def cap_measure_bounds(n: int, alpha: float) -> tuple[float, float]:
    """Strict sandwich for the cap measure, valid for alpha < pi/2:

        sin^(n-1) a / sqrt(2 pi n)  <  m(a)  <  sin^(n-1) a / (sqrt(2 pi (n-1)) cos a)
    """
    if int(n) != n or n < 2:
        raise ValueError("sphere dimension parameter must satisfy n >= 2")
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("sandwich bounds require alpha in (0, pi/2)")
    n = int(n)
    s = math.sin(alpha) ** (n - 1)
    lower = s / math.sqrt(2.0 * math.pi * n)
    upper = s / (math.sqrt(2.0 * math.pi * (n - 1)) * math.cos(alpha))
    return lower, upper
