"""Finite nets over rigid motions: orthogonal-group nets (n <= 3) with
deterministic coverage certificates, translation grids, and product cover
families.

Distances: rotations are compared in the operator norm; full isometries in
the conservative surrogate  d(f, g) = |A - B|_op + |v - w|.  For n <= 3 the
operator distance between same-determinant orthogonal matrices reduces to
an exact trace formula; opposite determinant classes are always at operator
distance >= 2, so nets cover each class separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom_core import Ball, RngStream, as_points, ball_volume_log, sample_uniform_ball

ORTHOGONALITY_TOL = 1e-10
DET_TOL = 1e-8
COVER_SLACK = 1e-9  # float slack when comparing distances against delta
MAX_NET_DIM = 3  # nets are deterministic, certified grids up to here
AUDIT_PROBES = 16  # probe points of the body per audit_cover_family trial
AUDIT_SHORTLIST = 32  # nearest family members tested first in each trial
_NET_DISTANCE_CHUNK = 2048  # probe matrices per block in min_distance_to_net


def _check_isometries(matrices, translations=None, name: str = "isometry matrix"):
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
        m, v = _check_isometries(np.asarray(self.matrix, dtype=float)[None],
                                 np.asarray(self.translation, dtype=float)[None])
        object.__setattr__(self, "matrix", m[0])
        object.__setattr__(self, "translation", v[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def identity(n: int) -> "Isometry":
        return Isometry(np.eye(n), np.zeros(n))

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


def op_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest singular value of a - b for orthogonal a, b."""
    if np.shape(a) != np.shape(b):
        raise ValueError("matrix shape mismatch")
    pair, _ = _check_isometries([a, b], name="matrix")
    return float(np.linalg.svd(pair[0] - pair[1], compute_uv=False)[0])


def iso_distance_surrogate(f: Isometry, g: Isometry) -> float:
    """|A - B|_op + |v - w|; upper-bounds sup |f(x) - g(x)| over the unit ball."""
    if f.dim != g.dim:
        raise ValueError("isometry dimension mismatch")
    return op_norm_distance(f.matrix, g.matrix) + float(
        np.linalg.norm(f.translation - g.translation)
    )


@dataclass
class IsometryNet:
    """Rigid motions x -> matrices[i] @ x + translations[i]; (T, n, n), (T, n)."""

    dim: int
    delta: float
    matrices: np.ndarray
    translations: np.ndarray
    certificate: dict

    def __len__(self) -> int:
        return len(self.matrices)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "delta": self.delta,
            "elements": [{"matrix": m, "translation": v} for m, v in
                         zip(self.matrices.tolist(), self.translations.tolist())],
            "certificate": self.certificate,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "IsometryNet":
        dim, elements = int(d["dim"]), d["elements"]
        try:
            mats = np.asarray([e["matrix"] for e in elements] or np.zeros((0, dim, dim)))
            trans = np.asarray([e["translation"] for e in elements] or np.zeros((0, dim)))
        except ValueError:
            raise ValueError("net elements must share one shape: an n x n "
                             "matrix and an n-vector translation") from None
        mats, trans = _check_isometries(mats, trans, "net element matrix")
        if mats.shape[1] != dim:
            raise ValueError(f"net elements have dimension {mats.shape[1]}, not {dim}")
        return IsometryNet(dim=dim, delta=float(d["delta"]), matrices=mats,
                           translations=trans, certificate=dict(d["certificate"]))


def haar_orthogonal(n: int, gen: np.random.Generator, count: int | None = None):
    """Haar-distributed orthogonal matrices: QR of a Gaussian matrix with the
    R-diagonal sign correction; hits both determinant classes."""
    m = 1 if count is None else int(count)
    g = gen.standard_normal((m, n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    signs = np.where(diag >= 0, 1.0, -1.0)
    q = q * signs[:, None, :]
    if count is None:
        return q[0]
    return q


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def min_distance_to_net(mats: np.ndarray, net_mats: np.ndarray) -> np.ndarray:
    """Operator-norm distance from each matrix to the nearest net element,
    for n <= MAX_NET_DIM, by the exact trace formula.

    Same-determinant pairs only (opposite classes are at distance >= 2, so
    they contribute 2.0).
    """
    mats = np.asarray(mats, dtype=float)
    net_mats = np.asarray(net_mats, dtype=float)
    b, n, _ = mats.shape
    if n > MAX_NET_DIM:
        raise ValueError(f"net distances support dimensions 1..{MAX_NET_DIM}")
    det_p = np.linalg.det(mats) > 0
    det_e = np.linalg.det(net_mats) > 0
    out = np.full(b, 2.0)
    flat_e = net_mats.reshape(len(net_mats), n * n)
    for coset in (True, False):
        rows = np.flatnonzero(det_p == coset)
        cols = np.flatnonzero(det_e == coset)
        if rows.size == 0 or cols.size == 0:
            continue
        fe = flat_e[cols]
        for start in range(0, rows.size, _NET_DISTANCE_CHUNK):
            idx = rows[start:start + _NET_DISTANCE_CHUNK]
            # |A - E|_op = sqrt(n - <A, E>) for proper/improper pairs, with
            # <A, E> the Frobenius inner product (n = 1: equal, so 0)
            best = (mats[idx].reshape(len(idx), n * n) @ fe.T).max(axis=1)
            out[idx] = np.sqrt(np.maximum(0.0, n - best))
    return out


def audit_orthogonal_net(net: IsometryNet, probes: int, rng: RngStream) -> dict:
    """Probabilistic coverage certificate: random orthogonal probes must all
    lie within net.delta of some element."""
    gen = rng.generator()
    mats = haar_orthogonal(net.dim, gen, probes)
    dists = min_distance_to_net(mats, net.matrices)
    failures = int(np.count_nonzero(dists > net.delta + COVER_SLACK))
    return {
        "probes": int(probes),
        "failures": failures,
        "max_min_dist": float(dists.max()) if probes else 0.0,
        "delta": net.delta,
        "pass": failures == 0,
    }


def _grid_axes(n: int, delta: float) -> tuple[float, list[int]]:
    """Spacing and per-axis angle counts of the grid nets over O(2) and O(3).
    n = 2: one angle, spacing 2 arcsin(delta/2). n = 3: three ZYZ Euler
    factors; each contributes chord 2 sin(spacing/4), so spacing
    4 arcsin(delta/6) certifies total coverage <= delta."""
    if n == 2:
        theta = 2.0 * math.asin(min(delta, 2.0) / 2.0)
        return theta, [int(math.ceil(2.0 * math.pi / theta))]
    s = 4.0 * math.asin(min(delta, 6.0) / 6.0)
    around = int(math.ceil(2.0 * math.pi / s))
    return s, [around, int(math.ceil(math.pi / s)) + 1, around]


def build_orthogonal_net(n: int, delta: float) -> IsometryNet:
    """Net over O(n), n <= MAX_NET_DIM, with covering radius <= delta in the
    operator norm and a deterministic certificate.

    n = 1: exact two-element group. n = 2: angle grids on each determinant
    class (spacing 2 arcsin(delta/2)). n = 3: ZYZ Euler grid with a
    triangle-inequality certificate, mirrored onto the improper class.
    """
    if int(n) != n or not 1 <= n <= MAX_NET_DIM:
        raise ValueError(f"orthogonal nets support dimensions 1..{MAX_NET_DIM}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = int(n)

    def rotation_net(mats, cert) -> IsometryNet:
        mats = np.asarray(mats, dtype=float)
        return IsometryNet(n, float(delta), mats, np.zeros((len(mats), n)), cert)

    if n == 1:
        return rotation_net([[[1.0]], [[-1.0]]], {"kind": "exact", "covering_radius": 0.0})

    if n == 2:
        theta, (count,) = _grid_axes(2, delta)
        reflector = np.diag([1.0, -1.0])
        rotations = [_rotation_2d(2.0 * math.pi * j / count) for j in range(count)]
        cert = {
            "kind": "grid",
            "covering_radius": 2.0 * math.sin(math.pi / count),
            "spacing": theta,
            "per_class": count,
        }
        return rotation_net(rotations + [r @ reflector for r in rotations], cert)

    if n == 3:
        s, (n_phi, n_theta, n_psi) = _grid_axes(3, delta)
        reflector = np.diag([1.0, 1.0, -1.0])
        rotations = []
        for i in range(n_phi):
            rz1 = _rot_z(2.0 * math.pi * i / n_phi)
            for j in range(n_theta):
                ry = _rot_y(min(j * s, math.pi))
                left = rz1 @ ry
                for k in range(n_psi):
                    rotations.append(left @ _rot_z(2.0 * math.pi * k / n_psi))
        cert = {
            "kind": "grid",
            "covering_radius": 6.0 * math.sin(s / 4.0),
            "spacing": s,
            "per_class": len(rotations),
        }
        return rotation_net(rotations + [r @ reflector for r in rotations], cert)


def build_translation_cover(v_ball: Ball, rho: float) -> np.ndarray:
    """Centers of a cubic grid of pitch 2 rho / sqrt(n), clipped to the ball
    inflated by rho; every point of the ball is within rho of a center."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = v_ball.dim
    if v_ball.radius <= rho:
        return v_ball.center.reshape(1, n).copy()
    pitch = 2.0 * rho / math.sqrt(n)
    reach = v_ball.radius + rho
    k = int(math.ceil(reach / pitch))
    axis = pitch * np.arange(-k, k + 1)
    grid = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    grid = grid + v_ball.center
    keep = np.linalg.norm(grid - v_ball.center, axis=1) <= reach + 1e-12
    return grid[keep]


def translation_cover_size_floor_log(v_ball: Ball, rho: float) -> float:
    """Lower bound on log len(build_translation_cover(v_ball, rho)), found
    without building the grid. Each point of the ball lies in the pitch cube
    of its nearest grid center, which is within pitch sqrt(n) / 2 = rho of
    it and so is kept; the disjoint cubes of the kept centers thus cover
    the ball, and there are at least vol(v_ball) / pitch^n of them."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = v_ball.dim
    if v_ball.radius <= rho:
        return 0.0
    pitch = 2.0 * rho / math.sqrt(n)
    return max(0.0, ball_volume_log(n, v_ball.radius) - n * math.log(pitch))


def _size_bound_log(n: int, d_bound: float, eps: float, translation_count: int) -> float:
    """log of 2 * N_translations * (500 D / eps)^(n(n-1)/2)."""
    return (
        math.log(2.0)
        + math.log(translation_count)
        + 0.5 * n * (n - 1) * math.log(500.0 * d_bound / eps)
    )


def build_cover_family(k_body, d_bound: float, v_ball: Ball, eps: float,
                       max_size: float = math.inf) -> IsometryNet:
    """Finite family T of isometries such that any placement A K + v with
    v in the translation window lies inside g(thicken(K, eps)) for some
    g in T.

    Components: an (eps / 2D)-net over the orthogonal group and a
    translation grid of covering radius eps / (2 max(D, 1)) over the window.
    For any f = (A, v), its nearest g = (A', v') satisfies, for x in K
    (which lies in D B_n since K contains the origin and diam(K) <= D):
    |f(x) - g(x)| <= D |A - A'|_op + |v - v'| <= eps/2 + eps/2.
    Rotation-invariant bodies (balls centered at the origin) only need the
    identity rotation, in every n; any other body needs a rotation net, and
    those exist for n <= MAX_NET_DIM only. A family that must hold more than
    `max_size` members (grid rotation nets times the translation grid's
    floor) is refused before anything is built.
    """
    from . import bodies as _bodies

    if eps <= 0:
        raise ValueError("eps must be positive")
    if d_bound <= 0:
        raise ValueError("diameter bound must be positive")
    n = k_body.dim
    if v_ball.dim != n:
        raise ValueError("translation window dimension mismatch")
    if not k_body.contains(np.zeros(n)):
        raise ValueError("body must contain the origin")

    delta = eps / (2.0 * d_bound)
    rho = eps / (2.0 * max(d_bound, 1.0))
    ball_form = _bodies.reduce_to_ball(k_body)
    symmetric = ball_form is not None and float(np.linalg.norm(ball_form.center)) <= 1e-12
    # grid nets (n = 2, 3) have a known size and O(1)'s net at least one
    # element; build_orthogonal_net refuses n > MAX_NET_DIM before the
    # translation grid is built
    rotation_floor = 1 if symmetric or n not in (2, 3) else 2 * math.prod(_grid_axes(n, delta)[1])
    floor_log = math.log(rotation_floor) + translation_cover_size_floor_log(v_ball, rho)
    if floor_log > math.log(max(max_size, 1)) + 1e-9:
        raise ValueError(f"the family needs at least 10^{floor_log / math.log(10.0):.1f} "
                         f"members, more than the {max_size} allowed")
    if symmetric:
        rotations = np.eye(n)[None]
        rot_cert = {"kind": "symmetry", "covering_radius": 0.0,
                    "note": "origin-centered ball is rotation invariant"}
    else:
        rot_net = build_orthogonal_net(n, delta)
        rotations = rot_net.matrices
        rot_cert = rot_net.certificate

    translations = build_translation_cover(v_ball, rho)

    # product in rotation-major order: each rotation with every translation
    matrices = np.repeat(rotations, len(translations), axis=0)
    shifts = np.tile(translations, (len(rotations), 1))
    size = len(matrices)
    cert = {
        "kind": "product-grid",
        "rotation_certificate": rot_cert,
        "rotation_count": len(rotations),
        "translation_count": int(len(translations)),
        "translation_radius": rho,
        "orthogonal_delta": delta,
        "guarantee_eps": eps,
        "diameter_bound": d_bound,
        "window": v_ball.to_json_dict(),
        "size": size,
        "size_bound_log": _size_bound_log(n, d_bound, eps, len(translations)),
    }
    return IsometryNet(n, delta + rho, matrices, shifts, cert)


def audit_cover_family(t_net: IsometryNet, k_body, v_ball: Ball, eps: float,
                       trials: int, rng: RngStream) -> dict:
    """Randomized check of the covering guarantee: sample placements
    (A, v), probe points of A K + v, and require some g in T whose
    eps-thickening of K contains every probe.

    Candidates are ranked by a Frobenius-plus-translation proxy and the
    shortlist is tested in one batched membership call; a failed shortlist
    falls back to one batched call over the rest of the family, so
    reported failures are real, not search artifacts.
    """
    from . import bodies as _bodies

    if trials < 1:
        raise ValueError("at least one trial required")
    family = _bodies.CoverFamily(k_body, eps, t_net)
    gen = rng.generator()
    net_mats = t_net.matrices.reshape(len(t_net), -1)
    net_trans = t_net.translations
    failures = 0
    failure_examples = []
    base_probes = _bodies.probe_points(k_body, AUDIT_PROBES, rng.child(0))
    for trial in range(trials):
        a = haar_orthogonal(k_body.dim, gen)
        # uniform translation in the window
        sub = rng.child(trial + 1)
        if v_ball.radius > 0:
            v = sample_uniform_ball(k_body.dim, v_ball.radius, 1, sub).points[0] \
                + v_ball.center
        else:
            v = v_ball.center.copy()
        placed = base_probes @ a.T + v
        proxy = np.linalg.norm(net_mats - a.reshape(1, -1), axis=1) + \
            np.linalg.norm(net_trans - v, axis=1)
        order = np.argsort(proxy)
        found = any(family.contains(placed, part).all(axis=1).any()
                    for part in (order[:AUDIT_SHORTLIST], order[AUDIT_SHORTLIST:]) if part.size)
        if not found:
            failures += 1
            if len(failure_examples) < 5:
                failure_examples.append({
                    "trial": trial,
                    "matrix": a.tolist(),
                    "translation": v.tolist(),
                })
    return {
        "trials": int(trials),
        "failures": failures,
        "failure_examples": failure_examples,
        "pass": failures == 0,
    }
