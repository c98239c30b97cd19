"""Numerical radius engine: angle sweep, random sampling, maximizer sets.

w(T) = max over theta of h(theta) = lambda_max(Re(e^{i theta} T)).  The sweep
walks a coarse theta grid, then refines every circular local maximum by a
safeguarded Newton iteration on h'(theta) = 0, with h' and h'' taken from the
eigenpairs of Re(e^{i theta} T) (Hellmann-Feynman; E. Mengi and M. L. Overton,
IMA J. Numer. Anal. 2005).  h is Lipschitz in theta with constant at most
||T||, so the coarse grid brackets the global maximum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Matrix,
    as_matrix,
    frobenius,
    hermitian_eigen,
    imag_part,
    operator_norm,
    real_part,
)
from .errors import DimensionMismatchError

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
# cap on refinement steps; bisection alone meets the bracket tolerance in
# about 35
MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class SweepConfig:
    """coarse_points: grid angles; refine_tol: the Newton step tolerance in
    angle (scaled by max(1, ||T||_F)); dedup_tol: how close two maximizing
    angles or vectors may be and still count as one."""

    coarse_points: int = 720
    refine_tol: float = 1e-12
    dedup_tol: float = 1e-8

    def __post_init__(self):
        if self.coarse_points < 4:
            raise ValueError("coarse_points must be >= 4")
        if self.refine_tol <= 0 or self.dedup_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class RadiusReport:
    value: float
    theta_stars: list[float] = field(default_factory=list)
    maximizers: list[np.ndarray] = field(default_factory=list)
    method: str = "sweep"


def _lmax_batch(re: Matrix, im: Matrix, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(cos(t) Re - sin(t) Im) for a vector of angles t."""
    n = re.shape[0]
    c = np.cos(thetas)
    s = np.sin(thetas)
    if n == 1:
        return c * re[0, 0].real - s * im[0, 0].real
    if n == 2:
        a = c * re[0, 0].real - s * im[0, 0].real
        b = c * re[1, 1].real - s * im[1, 1].real
        q = c * re[0, 1] - s * im[0, 1]
        return 0.5 * (a + b) + np.hypot(0.5 * (a - b), np.abs(q))
    hs = c[:, None, None] * re[None, :, :] - s[:, None, None] * im[None, :, :]
    return np.linalg.eigvalsh(hs)[:, -1]


def _support_derivatives(re: Matrix, im: Matrix, thetas: np.ndarray, noise: float):
    """h, h', h'' at a vector of angles, plus the eigenpairs for n >= 3.

    With H = cos(t) Re - sin(t) Im, D = H' = -sin(t) Re - cos(t) Im and
    H'' = -H, the top eigenpair (h, x) gives h' = x* D x and
    h'' = -h + 2 sum_j |v_j* D x|^2 / (h - lambda_j).  For n <= 2 these are
    closed forms; where the top eigenvalue is double they follow the mean
    branch.  Terms whose gap is at rounding level (noise) are dropped, so
    nothing divides 0 by 0.
    """
    n = re.shape[0]
    c = np.cos(thetas)
    s = np.sin(thetas)
    if n == 1:
        h = c * re[0, 0].real - s * im[0, 0].real
        return h, -s * re[0, 0].real - c * im[0, 0].real, -h, None
    if n == 2:
        a = c * re[0, 0].real - s * im[0, 0].real
        b = c * re[1, 1].real - s * im[1, 1].real
        q = c * re[0, 1] - s * im[0, 1]
        da = -s * re[0, 0].real - c * im[0, 0].real
        db = -s * re[1, 1].real - c * im[1, 1].real
        dq = -s * re[0, 1] - c * im[0, 1]
        d = 0.5 * (a - b)
        dd = 0.5 * (da - db)
        r = np.hypot(d, np.abs(q))
        h = 0.5 * (a + b) + r
        split = r > 0.0
        rs = np.where(split, r, 1.0)
        dr = np.where(split, (d * dd + (np.conj(q) * dq).real) / rs, 0.0)
        curv = np.where(split, (dd * dd + np.abs(dq) ** 2 - dr * dr) / rs, 0.0)
        return h, 0.5 * (da + db) + dr, curv - h, None
    hs = c[:, None, None] * re[None, :, :] - s[:, None, None] * im[None, :, :]
    ds = -s[:, None, None] * re[None, :, :] - c[:, None, None] * im[None, :, :]
    vals, vecs = np.linalg.eigh(hs)
    h = vals[:, -1]
    dx = ds @ vecs[:, :, -1:]
    coef = (np.conj(np.swapaxes(vecs, 1, 2)) @ dx)[:, :, 0]
    gap = h[:, None] - vals[:, :-1]
    far = gap > noise
    terms = np.where(far, np.abs(coef[:, :-1]) ** 2 / np.where(far, gap, 1.0), 0.0)
    return h, coef[:, -1].real, 2.0 * terms.sum(axis=1) - h, (vals, vecs)


# The golden-section name stays: perfbench/tracing.py wraps it by name.
def _refine_golden(re, im, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Vectorized safeguarded Newton maximization on a batch of brackets.

    Starts at each bracket's midpoint and narrows the bracket by the sign of
    h'.  A Newton step that leaves the bracket, or meets an h'' that is not
    negative beyond rounding, becomes a bisection.  A bracket stops when the
    step or the bracket is at most tol, or when |h' * step| is below the
    rounding level of h (flat supports and quartic peaks, where no method
    resolves the angle further).  A stopping bracket still takes its last
    Newton step, which needs no evaluation, but not its last bisection.
    Returns the angles, h there from the grid kernel (so a bracket that
    stops at its grid point keeps the grid value bit for bit), and for
    n >= 3 the eigenpairs (values ascending, vectors as columns) of the last
    evaluation, at most that last step away.
    """
    a = lo.copy()
    b = hi.copy()
    th = 0.5 * (a + b)
    noise = 8.0 * EPS * (frobenius(re) + frobenius(im))
    _, dh, d2h, pairs = _support_derivatives(re, im, th, noise)
    live = np.arange(th.size)
    for _ in range(MAX_NEWTON_STEPS):
        t, g, g2 = th[live], dh[live], d2h[live]
        rising = g > 0.0
        a[live] = np.where(rising, t, a[live])
        b[live] = np.where(rising, b[live], t)
        la, lb = a[live], b[live]
        curved = g2 < -noise
        step = np.where(curved, -g / np.where(curved, g2, -1.0), 0.0)
        nxt = t + step
        bisect = ~curved | (nxt <= la) | (nxt >= lb)
        step = np.where(bisect, 0.5 * (la + lb) - t, step)
        done = (np.abs(step) <= tol) | (lb - la <= tol) | (np.abs(g * step) <= noise)
        last = done & ~bisect
        th[live[last]] = nxt[last]
        live = live[~done]
        if live.size == 0:
            break
        th[live] = th[live] + step[~done]
        fresh = _support_derivatives(re, im, th[live], noise)
        dh[live], d2h[live] = fresh[1:3]
        if pairs is not None:
            pairs[0][live] = fresh[3][0]
            pairs[1][live] = fresh[3][1]
    return th, _lmax_batch(re, im, th), pairs


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    """Scale a unit vector so its largest-modulus component is positive real."""
    k = int(np.argmax(np.abs(x)))
    piv = x[k]
    if abs(piv) == 0.0:
        return x
    return x * (np.conj(piv) / abs(piv))


def _sweep(t: Matrix, cfg: SweepConfig, scale: float):
    """Coarse grid, circular peaks and their Newton refinement: the core
    that radius_value and radius_sweep share."""
    re = real_part(t)
    im = imag_part(t)
    thetas = np.linspace(0.0, TWO_PI, cfg.coarse_points, endpoint=False)
    vals = _lmax_batch(re, im, thetas)
    idx = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))[0]
    if idx.size == 0:
        idx = np.array([int(np.argmax(vals))])
    spacing = TWO_PI / cfg.coarse_points
    tol = cfg.refine_tol * max(1.0, scale)
    t_star, f_star, pairs = _refine_golden(
        re, im, thetas[idx] - spacing, thetas[idx] + spacing, tol
    )
    return re, im, t_star, f_star, pairs


def radius_value(t: Matrix, cfg: SweepConfig | None = None) -> float:
    """w(T) by sweep, values only (no maximizer extraction)."""
    t = as_matrix(t)
    cfg = cfg or SweepConfig()
    scale = frobenius(t)
    if scale == 0.0:
        return 0.0
    _, _, _, f_star, _ = _sweep(t, cfg, scale)
    return float(np.max(f_star))


def radius_sweep(t: Matrix, cfg: SweepConfig | None = None) -> RadiusReport:
    """w(T) with maximizing angles and phase-canonical maximizer vectors.

    For n >= 3 the maximizers are the top eigenvectors that refinement
    computed at each maximizing angle, the whole top eigenspace when it is
    degenerate; for n <= 2 they come from the closed-form eigenvector.
    """
    t = as_matrix(t)
    cfg = cfg or SweepConfig()
    scale = frobenius(t)
    if scale == 0.0:
        return RadiusReport(0.0, [], [], "sweep")
    re, im, t_star, f_star, pairs = _sweep(t, cfg, scale)
    w = float(np.max(f_star))
    stars: list[tuple[float, int]] = []
    for k in np.nonzero(f_star >= w - cfg.dedup_tol * max(1.0, scale))[0]:
        th = float(np.mod(t_star[k], TWO_PI))
        if all(_circ_dist(th, s) > cfg.dedup_tol for s, _ in stars):
            stars.append((th, int(k)))
    stars.sort()
    maximizers: list[np.ndarray] = []
    for th, k in stars:
        if pairs is None:
            es = hermitian_eigen(math.cos(th) * re - math.sin(th) * im, tol=1e-6)
            values, vectors = es.values, es.vectors
        else:
            # LAPACK order is ascending; walk down from the top eigenvalue
            values, vectors = pairs[0][k][::-1], pairs[1][k][:, ::-1]
        for i in range(len(values)):
            # keep the whole top eigenspace when it is degenerate
            if values[0] - values[i] > 1e-9 * max(1.0, scale):
                break
            x = _canonical_phase(vectors[:, i])
            if all(np.linalg.norm(x - m) > cfg.dedup_tol for m in maximizers):
                maximizers.append(x)
    return RadiusReport(w, [th for th, _ in stars], maximizers, "sweep")


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def radius_sample(t: Matrix, n_samples: int, seed: int = 42) -> float:
    """Lower bound on w(T): max |<Tx,x>| over random unit vectors."""
    t = as_matrix(t)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = t.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = 65536
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        q = np.einsum("bi,ij,bj->b", np.conj(z), t, z)
        best = max(best, float(np.max(np.abs(q))))
        done += m
    return best


def maximizer_contains_on_basis(report: RadiusReport, tol: float = 1e-7):
    """An orthogonal pair of maximizers of a 2x2 matrix, or None."""
    if report.maximizers and report.maximizers[0].size != 2:
        raise DimensionMismatchError("maximizer_contains_on_basis needs n = 2")
    ms = report.maximizers
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if abs(np.vdot(ms[i], ms[j])) <= tol:
                return ms[i], ms[j]
    return None


def is_normaloid(t: Matrix, tol: float = 1e-7) -> bool:
    """True iff w(T) = ||T|| within tol (relative)."""
    t = as_matrix(t)
    nrm = operator_norm(t)
    return abs(radius_value(t) - nrm) <= tol * max(1.0, nrm)


def range_boundary(t: Matrix, n_points: int) -> list[complex]:
    """Boundary of the numerical range via support angles."""
    t = as_matrix(t)
    if n_points < 3:
        raise ValueError("n_points must be >= 3")
    re = real_part(t)
    im = imag_part(t)
    pts: list[complex] = []
    for k in range(n_points):
        th = TWO_PI * k / n_points
        h_mat = math.cos(th) * re - math.sin(th) * im
        es = hermitian_eigen(h_mat, tol=1e-6)
        x = es.vectors[:, 0]
        pts.append(complex(np.vdot(x, t @ x)))
    return pts


def maximizer_condition_residual(t: Matrix, x: np.ndarray) -> float:
    """Residual of the maximizer eigenvector condition at w(T) = 1.

    A unit maximizer x of an operator with w(T) = 1 is an eigenvector of
    <Re(T)x,x> Re(T) + <Im(T)x,x> Im(T) with eigenvalue 1.
    """
    t = as_matrix(t)
    x = np.array(x, dtype=complex).reshape(-1)
    re = real_part(t)
    im = imag_part(t)
    cr = float(np.real(np.vdot(x, re @ x)))
    ci = float(np.real(np.vdot(x, im @ x)))
    return float(np.linalg.norm((cr * re + ci * im) @ x - x))
