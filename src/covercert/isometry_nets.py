"""Finite nets over rigid motions: orthogonal-group nets (n <= 3) with
deterministic coverage certificates, translation grids, and product cover
families.

Distances: rotations are compared in the operator norm. For n <= 3 the
operator distance between same-determinant orthogonal matrices reduces to
an exact trace formula; opposite determinant classes are always at operator
distance >= 2, so nets cover each class separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families, geom_core
from .bodies import check_isometries, probe_points, reduce_to_ball
from .geom_core import Ball, RngStream, ball_volume_log, row_norms, sample_uniform_balls, sq_norms

COVER_SLACK = 1e-9  # float slack when comparing distances against delta
MAX_NET_DIM = 3  # nets are deterministic, certified grids up to here
AUDIT_PROBES = 16  # probe points of the body per audit_cover_family trial


@dataclass
class IsometryNet:
    """Rigid motions x -> rotations[i // T] @ x + translations[i % T] for
    i < R T: each of the R rotations (R, n, n) with each of the T
    translations (T, n), in rotation-major order. No member array is held."""

    dim: int
    delta: float
    rotations: np.ndarray
    translations: np.ndarray
    certificate: dict

    def __len__(self) -> int:
        return len(self.rotations) * len(self.translations)

    def members(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The matrices and translations of the members idx."""
        t = len(self.translations)
        return self.rotations[idx // t], self.translations[idx % t]

    def lists(self, matrices: np.ndarray, translations: np.ndarray) -> bool:
        """Whether the members are exactly these matrices (T, n, n) and
        translations (T, n), in this order. Builds the whole product."""
        mats, trans = self.members(np.arange(len(self)))
        return np.array_equal(mats, matrices) and np.array_equal(trans, translations)

    def to_json_dict(self) -> dict:
        mats, trans = self.members(np.arange(len(self)))
        return {
            "dim": self.dim,
            "delta": self.delta,
            "elements": [{"matrix": m, "translation": v} for m, v in
                         zip(mats.tolist(), trans.tolist())],
            "certificate": self.certificate,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "IsometryNet":
        """The net of an element list, which must run through every rotation
        with every translation in rotation-major order; validated element by
        element first."""
        dim, elements = int(d["dim"]), d["elements"]
        try:
            mats = np.asarray([e["matrix"] for e in elements] or np.zeros((0, dim, dim)))
            trans = np.asarray([e["translation"] for e in elements] or np.zeros((0, dim)))
        except ValueError:
            raise ValueError("net elements must share one shape: an n x n "
                             "matrix and an n-vector translation") from None
        mats, trans = check_isometries(mats, trans, "net element matrix")
        if mats.shape[1] != dim:
            raise ValueError(f"net elements have dimension {mats.shape[1]}, not {dim}")
        # the translation count T divides the element count and is at most
        # the leading run of equal matrices; the least T that fits is taken
        run = int(np.argmin(np.append(np.all(mats == mats[:1], axis=(1, 2)), False)))
        for t in range(1, max(run, 1) + 1):
            if len(mats) % t == 0:
                net = IsometryNet(dim, float(d["delta"]), mats[::t], trans[:t],
                                  dict(d["certificate"]))
                if net.lists(mats, trans):
                    return net
        raise ValueError("net elements are not every rotation with every translation "
                         "in rotation-major order")


def haar_orthogonal(n: int, gen: np.random.Generator, count: int) -> np.ndarray:
    """count Haar-distributed orthogonal matrices, shape (count, n, n): QR
    of Gaussian matrices with the R-diagonal sign correction; hits both
    determinant classes."""
    g = gen.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    signs = np.where(diag >= 0, 1.0, -1.0)
    return q * signs[:, None, :]


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
        step = max(1, geom_core.BLOCK_ELEMS // cols.size)
        for start in range(0, rows.size, step):
            idx = rows[start:start + step]
            # |A - E|_op = sqrt(n - <A, E>) for proper/improper pairs, with
            # <A, E> the Frobenius inner product (n = 1: equal, so 0)
            best = (mats[idx].reshape(len(idx), n * n) @ fe.T).max(axis=1)
            out[idx] = np.sqrt(np.maximum(0.0, n - best))
    return out


def audit_orthogonal_net(net: IsometryNet, probes: int, rng: RngStream) -> dict:
    """Probabilistic coverage certificate: random orthogonal probes must all
    lie within net.delta of some rotation of the net."""
    gen = rng.generator()
    mats = haar_orthogonal(net.dim, gen, probes)
    dists = min_distance_to_net(mats, net.rotations)
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
        return IsometryNet(n, float(delta), mats, np.zeros((1, n)), cert)

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
    keep = row_norms(grid, v_ball.center) <= reach + 1e-12
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
    floor), or whose net radius eps / 2D is not a finite positive float, is
    refused before anything is built.

    The net is held as its two factors: the rotations (R, n, n) and the
    translation grid (T, n); member i is rotation i // T with translation
    i % T, and no member array is built.
    """
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
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"the orthogonal net radius eps / (2 D) = {delta} is not finite and "
                         f"positive (eps = {eps}, diameter bound D = {d_bound})")
    rho = eps / (2.0 * max(d_bound, 1.0))
    ball_form = reduce_to_ball(k_body)
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
        rotations = rot_net.rotations
        rot_cert = rot_net.certificate

    translations = build_translation_cover(v_ball, rho)
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
        "size": len(rotations) * len(translations),
        "size_bound_log": _size_bound_log(n, d_bound, eps, len(translations)),
    }
    return IsometryNet(n, delta + rho, rotations, translations, cert)


def _nearest(net: IsometryNet, mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """For each placement (A, v) = (mats[i], shifts[i]), the member
    g = (A_g, v_g) of a non-empty net of least |A_g - A|_F + |v_g - v|. A sum
    over the product is least at the least term of each factor: the
    rotation of largest <A_g, A>, since |A_g - A|_F^2 = 2n - 2 <A_g, A> for
    orthogonal matrices, with the translation of least |v_g|^2 - 2 v.v_g.
    This is the member the covering guarantee names when the net has
    delta < sqrt(2): for n <= 3, |A_g - A|_op = sqrt(n - <A_g, A>) within a
    determinant class (see min_distance_to_net), so a same-class rotation
    within delta has <A_g, A> > n - 2, more than the other class reaches.
    Blocks of placements form at most geom_core.BLOCK_ELEMS inner products
    with either factor."""
    n, r, t = net.dim, len(net.rotations), len(net.translations)
    rot_flat, trans = net.rotations.reshape(r, n * n).T, net.translations.T
    trans_sq = sq_norms(net.translations)
    step = max(1, geom_core.BLOCK_ELEMS // max(r, t))
    out = np.empty(len(mats), dtype=np.intp)
    for start in range(0, len(mats), step):
        block = slice(start, start + step)
        rot = np.argmax(mats[block].reshape(-1, n * n) @ rot_flat, axis=1)
        out[block] = rot * t + np.argmin(trans_sq - 2.0 * (shifts[block] @ trans), axis=1)
    return out


def _covered(family, placed: np.ndarray, mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Whether some member of the CoverFamily holds every point of placed[i],
    the probes placed by (mats[i], shifts[i]), in audit_cover_family's stages."""
    covered = np.zeros(len(placed), dtype=bool)
    if len(family) == 0:
        return covered

    def test(sets, members):
        for start, inside in family.pair_blocks(placed, sets, members):
            covered[sets[start:start + len(inside)][inside.all(axis=1)]] = True

    test(np.arange(len(placed)), _nearest(family.net, mats, shifts))
    start, size = 0, len(family)
    while start < size and not covered.all():
        left = np.flatnonzero(~covered)
        stop = min(size, start + max(1, geom_core.BLOCK_ELEMS // (placed[0].size * len(left))))
        test(np.repeat(left, stop - start), np.tile(np.arange(start, stop), len(left)))
        start = stop
    return covered


def audit_cover_family(t_net: IsometryNet, k_body, v_ball: Ball, eps: float,
                       trials: int, rng: RngStream) -> dict:
    """Randomized check of the covering guarantee: sample placements
    (A, v), probe points of A K + v, and require some g in T whose
    eps-thickening of K contains every probe.

    Trials run in chunks of at most geom_core.BLOCK_ELEMS placed probe
    coordinates, so memory stays flat for any trial count. A chunk draws
    its rotations in one haar_orthogonal call, the same bits as one call
    per trial, and trial t its translation from rng.child(t + 1), so at
    most RngStream.CHILD_LIMIT - 1 trials run. The members are tested in two
    stages, each for all of the chunk's trials in batched membership calls
    (CoverFamily.pair_blocks):
    1. every trial's nearest member (see _nearest): the net rotation nearest
       A times the grid translation nearest v, the member the covering
       guarantee names;
    2. the whole family, for the trials not yet covered, in member blocks
       of at most geom_core.BLOCK_ELEMS mapped coordinates; a trial leaves
       once covered.
    A trial is covered when some member holds all its probes, and stage 2
    tests every member, so the stage-1 choice cannot change which trials
    fail, only how much projection work is done. Nor can the Dykstra batch
    a mapped point shares: each point stops on its own moves (see
    bodies._dykstra). Reported failures are real, not search artifacts.
    """
    if not 1 <= trials < RngStream.CHILD_LIMIT:
        raise ValueError(f"a cover audit runs 1 to {RngStream.CHILD_LIMIT - 1:,} trials "
                         f"(trial t draws from substream t + 1), not {trials}")
    family = families.CoverFamily(k_body, eps, t_net)
    gen = rng.generator()
    n = k_body.dim
    base = probe_points(k_body, AUDIT_PROBES, rng.child(0))
    chunk = max(1, geom_core.BLOCK_ELEMS // base.size)
    failures = 0
    failure_examples = []
    for first in range(0, trials, chunk):
        ids = range(first, min(trials, first + chunk))
        mats = haar_orthogonal(n, gen, len(ids))
        # uniform translations in the window
        if v_ball.radius > 0:
            shifts = sample_uniform_balls(n, v_ball.radius, 1,
                                          [rng.child(t + 1) for t in ids])[:, 0] + v_ball.center
        else:
            shifts = np.repeat(v_ball.center[None], len(ids), axis=0)
        placed = base @ mats.transpose(0, 2, 1) + shifts[:, None]
        covered = _covered(family, placed, mats, shifts)
        for k in np.flatnonzero(~covered).tolist():
            failures += 1
            if len(failure_examples) < 5:
                failure_examples.append({
                    "trial": ids[k],
                    "matrix": mats[k].tolist(),
                    "translation": shifts[k].tolist(),
                })
    return {
        "trials": int(trials),
        "failures": failures,
        "failure_examples": failure_examples,
        "pass": failures == 0,
    }
