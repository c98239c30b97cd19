"""Convex-decomposition witnesses: constructors and the numerical verifier.

A witness for "T is not an extreme point of the radius-one ball" is a
triple (t, A, B) with T = tA + (1-t)B, w(A) <= w(T), w(B) <= w(T), and
A != T != B.  Each constructor targets one structural situation; all of
them are checked by verify_witness before a verdict may cite them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closedforms import WtFamily, radius_collinear, radius_wt_family
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    IsIsometryError,
    IsUnitaryError,
    NoFeasibleBetaError,
    NotNormaloidError,
    RadiusOrderViolationError,
    WrongSpectrumError,
    ZeroParameterError,
)
from .linalg import Matrix, as_matrix, frobenius, is_isometry, operator_norm, svd
from .radius import RadiusReport, radius_sweep, radius_value


@dataclass(frozen=True)
class CanonicalForm2x2:
    """A 2x2 operator rewritten on an orthonormal maximizer basis.

    On the basis (x, y) and after dividing by phase, the matrix becomes
    [[1, alpha], [-conj(alpha), a_diag]] where alpha = <Ty,x>/phase and
    a_diag = <Ty,y>/phase.  The forced relation <Tx,y> = -conj(<Ty,x>)
    comes from the maximizer eigenvector condition.
    """

    x: np.ndarray
    y: np.ndarray
    alpha: complex
    a_diag: complex
    phase: complex

    def basis_matrix(self) -> Matrix:
        return np.column_stack([self.x, self.y])

    def canonical_matrix(self) -> Matrix:
        return np.array(
            [[1.0, self.alpha], [-np.conj(self.alpha), self.a_diag]], dtype=complex
        )

    def restore(self, canonical: Matrix) -> Matrix:
        """Map a matrix on the (x, y) basis back to the original frame."""
        w = self.basis_matrix()
        return self.phase * (w @ canonical @ np.conj(w.T))


@dataclass(frozen=True)
class Witness:
    t: float
    A: Matrix
    B: Matrix
    construction: str

    def midpoint(self) -> Matrix:
        return self.t * self.A + (1.0 - self.t) * self.B


@dataclass(frozen=True)
class VerificationReport:
    midpoint_residual: float
    radius_slack_A: float
    radius_slack_B: float
    distinctness: float
    lemma_gen_residual: float
    passed: bool


def canonical_form_2x2(t: Matrix, x: np.ndarray, tol: float = 1e-7) -> CanonicalForm2x2:
    """Build the canonical frame from a maximizer x of a 2x2 T with w = 1."""
    t = as_matrix(t)
    if t.shape[0] != 2:
        raise DimensionMismatchError("canonical_form_2x2 needs n = 2")
    x = np.array(x, dtype=complex).reshape(-1)
    x = x / np.linalg.norm(x)
    phase = complex(np.vdot(x, t @ x))
    mod = abs(phase)
    if abs(mod - 1.0) > tol:
        raise ValueError(f"|<Tx,x>| = {mod}, x is not a radius-1 maximizer")
    phase = phase / mod
    y = np.array([-np.conj(x[1]), np.conj(x[0])], dtype=complex)
    s = t / phase
    alpha = complex(np.vdot(x, s @ y))
    a_diag = complex(np.vdot(y, s @ y))
    forced = complex(np.vdot(y, s @ x))
    if abs(forced + np.conj(alpha)) > 10 * tol:
        raise InternalInconsistencyError(
            "maximizer condition violated: <Tx,y> != -conj(<Ty,x>)"
        )
    return CanonicalForm2x2(x, y, alpha, a_diag, phase)


def kadison_split(t: Matrix, tol: float = 1e-7) -> Witness:
    """Operator-norm midpoint split of a non-unitary normaloid contraction.

    Perturbs the smallest singular value sigma_k < 1 to sigma_k +/- delta
    with delta = 1 - sigma_k, so both parts keep norm (hence radius) <= 1.
    """
    t = as_matrix(t)
    nrm = operator_norm(t)
    if abs(nrm - radius_value(t)) > tol * max(1.0, nrm):
        raise NotNormaloidError("kadison_split needs w(T) = ||T||")
    if abs(nrm - 1.0) > tol:
        raise NotNormaloidError("kadison_split expects the input scaled to w = 1")
    sv = svd(t)
    k = int(np.argmin(sv.sigma))
    if sv.sigma[k] >= 1.0 - tol:
        raise IsUnitaryError("all singular values are 1; no room to split")
    delta = 1.0 - float(sv.sigma[k])
    bump = delta * np.outer(sv.U[:, k], np.conj(sv.V[:, k]))
    return Witness(0.5, t + bump, t - bump, "kadison")


def selfadjoint_split(d1: float, d2: float) -> Witness:
    """Split of diag(d1, d2) with spectrum {1, -1} into two rotations.

    For diag(1, -1): A = [[1, i], [i, -1]], B = A*, t = 1/2; both have
    radius 1 because their triangular form is [[0, 2i], [0, 0]].
    """
    vals = sorted((float(d1), float(d2)))
    if abs(vals[0] + 1.0) > 1e-9 or abs(vals[1] - 1.0) > 1e-9:
        raise WrongSpectrumError("selfadjoint_split needs spectrum {1, -1}")
    a = np.array([[1.0, 1j], [1j, -1.0]], dtype=complex)
    if d1 < 0:  # diag(-1, 1): swap the basis consistently
        p = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        a = p @ a @ p
    return Witness(0.5, a, np.conj(a.T), "selfadjoint")


def shear_split(beta: complex, zeta: complex) -> Witness:
    """Split of [[beta, zeta], [0, beta]] into a scalar and a nilpotent.

    With k = |zeta|/|beta| and t = 2/(k+2): A = (|beta|/t) e^{i arg(beta)} I
    and B carries the whole off-diagonal entry scaled by 1/(1-t).  Both
    parts have radius |beta| + |zeta|/2 = w(T).
    """
    beta, zeta = complex(beta), complex(zeta)
    if beta == 0 or zeta == 0:
        raise ZeroParameterError("shear_split needs beta != 0 and zeta != 0")
    theta = cmath.phase(beta)
    ph = cmath.exp(1j * theta)
    k = abs(zeta) / abs(beta)
    t = 2.0 / (k + 2.0)
    a = ph * (abs(beta) / t) * np.eye(2, dtype=complex)
    b = ph * np.array([[0.0, zeta / ph / (1.0 - t)], [0.0, 0.0]], dtype=complex)
    return Witness(t, a, b, "shear")


def _certify_radius_one(m: Matrix, construction: str) -> None:
    """Closed form where available plus sweep; both must say w(m) = 1."""
    closed: float | None = None
    if construction in ("offdiag-II", "offdiag-III"):
        alpha = complex(m[0, 1])
        a = float(m[1, 1].real)
        if alpha != 0:
            closed = radius_wt_family(WtFamily(a, alpha))
        else:
            closed = radius_collinear(1.0, a, 0.0)
    elif construction == "offdiag-basis":
        mod = abs(complex(m[0, 1]))
        lam = math.sqrt(max(0.0, 1.0 - mod * mod))
        closed = radius_collinear(lam, -lam, 2.0 * mod)
    swept = radius_value(m)
    if abs(swept - 1.0) > 1e-7:
        raise InternalInconsistencyError(
            f"{construction}: sweep radius {swept} of a witness part is not 1"
        )
    if closed is not None and abs(closed - swept) > 1e-6:
        raise InternalInconsistencyError(
            f"{construction}: closed form {closed} disagrees with sweep {swept}"
        )


def _beta_magnitude(alpha_mod: float, cap: float, avoid: float | None = None) -> float:
    """Half the room alpha_mod + s < cap leaves: s = (cap - alpha_mod) / 2.

    If avoid is given, nudge s so alpha_mod + s stays away from it (a
    measure-zero degenerate magnitude).
    """
    slack = cap - alpha_mod
    if slack <= 0:
        raise NoFeasibleBetaError("no room for a perturbation in this region")
    s = 0.5 * slack
    if s <= 0:
        raise NoFeasibleBetaError("feasible perturbation collapsed to zero")
    if avoid is not None:
        for cand in (s, 0.75 * s, 0.5 * s, 0.25 * s):
            if (
                abs(alpha_mod + cand - avoid) > 1e-6
                and abs(abs(alpha_mod - cand) - avoid) > 1e-6
            ):
                return cand
        raise NoFeasibleBetaError("could not avoid the degenerate magnitude")
    return s


def offdiag_perturb(canon: CanonicalForm2x2, case: str, tol: float = 1e-7) -> Witness:
    """Perturb the off-diagonal pair of the canonical form symmetrically.

    T_(1,2) = [[1, alpha +- beta], [-conj(alpha +- beta), a]] with beta
    aligned to alpha and sized so both parts stay inside a region where a
    closed form certifies radius 1:
    - case "II":          4|alpha +- beta|^2 < (1-a)^2
    - case "III":         2|alpha +- beta|^2 + a - 1 < 0 (either family region)
    - case "basis-a-minus-1": a = -1 and |alpha +- beta| < 1
    The parts are returned in the original basis and phase.
    """
    a = float(canon.a_diag.real)
    if abs(canon.a_diag.imag) > tol:
        raise ValueError("canonical diagonal entry must be real for this witness")
    alpha = canon.alpha
    am = abs(alpha)
    if case == "II":
        s = _beta_magnitude(am, 0.5 * (1.0 - a))
        tag = "offdiag-II"
    elif case == "III":
        cap = math.sqrt(max(0.0, 0.5 * (1.0 - a)))
        s = _beta_magnitude(am, cap, avoid=0.5 * abs(1.0 - a))
        tag = "offdiag-III"
    elif case == "basis-a-minus-1":
        if abs(a + 1.0) > tol:
            raise ValueError("basis case needs a = -1")
        s = _beta_magnitude(am, 1.0)
        tag = "offdiag-basis"
    else:
        raise ValueError(f"unknown case {case!r}")
    direction = alpha / am if am > 0 else 1.0
    beta = s * direction

    def fam(m: complex) -> Matrix:
        return np.array([[1.0, m], [-np.conj(m), a]], dtype=complex)

    c1 = fam(alpha + beta)
    c2 = fam(alpha - beta)
    _certify_radius_one(c1, tag)
    _certify_radius_one(c2, tag)
    return Witness(0.5, canon.restore(c1), canon.restore(c2), tag)


def block_upper_split(lambda1: complex, lambda2: complex, a_block: Matrix) -> Witness:
    """Split [[l1 I, A], [0, l2 I]] by splitting the corner block A.

    A has norm 1 and is not an isometry, so its smallest singular value
    can be bumped both ways without leaving norm <= 1; the block radius
    depends on A only through ||A||, so both parts keep the same radius.
    """
    a_block = as_matrix(a_block)
    nrm = operator_norm(a_block)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("corner block must have norm 1")
    if is_isometry(a_block, 1e-7):
        raise IsIsometryError("corner block is an isometry; the split has no room")
    sv = svd(a_block)
    k = int(np.argmin(sv.sigma))
    delta = 1.0 - float(sv.sigma[k])
    bump = delta * np.outer(sv.U[:, k], np.conj(sv.V[:, k]))
    m = a_block.shape[0]
    eye = np.eye(m, dtype=complex)
    zero = np.zeros((m, m), dtype=complex)

    def embed(corner: Matrix) -> Matrix:
        return np.block([[lambda1 * eye, corner], [zero, lambda2 * eye]])

    return Witness(0.5, embed(a_block + bump), embed(a_block - bump), "block-upper")


def blockdiag_lift(
    w_block: Witness, block: Matrix, other_block: Matrix, position: str = "first"
) -> Witness:
    """Embed a block witness beside an untouched companion block.

    Valid because w(diag(A, B)) = max(w(A), w(B)); the companion may not
    out-radius the split block.
    """
    block = as_matrix(block)
    if other_block.size == 0:
        return Witness(w_block.t, w_block.A, w_block.B, "block-lift")
    other_block = as_matrix(other_block)
    rep = verify_witness(block, w_block, 1e-7)
    if not rep.passed:
        raise RadiusOrderViolationError("block witness fails verification")
    if radius_value(other_block) > radius_value(block) + 1e-9:
        raise RadiusOrderViolationError("companion block has larger radius")

    def embed(part: Matrix) -> Matrix:
        if position == "first":
            return _direct_sum(part, other_block)
        return _direct_sum(other_block, part)

    return Witness(w_block.t, embed(w_block.A), embed(w_block.B), "block-lift")


def _direct_sum(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def verify_witness(t: Matrix, w: Witness, tol: float = 1e-7) -> VerificationReport:
    """Check a claimed decomposition T = t A + (1-t) B numerically.

    Passing requires: the midpoint reproduces T to 1e-9 (relative), both
    parts have radius at most w(T) within 1e-7, both parts differ from T
    by at least 1e-6, and whenever a part attains w(T) exactly, every
    maximizer of T gives the same quadratic-form value on that part
    (within 1e-5, the witness-consistency probe).
    """
    t = as_matrix(t)
    if w.A.shape != t.shape or w.B.shape != t.shape:
        raise DimensionMismatchError("witness parts must match T in shape")
    scale = max(1.0, frobenius(t))
    midpoint_residual = frobenius(t - w.midpoint())
    report = radius_sweep(t)
    wt = report.value
    wa = radius_value(w.A)
    wb = radius_value(w.B)
    slack_a = wt - wa
    slack_b = wt - wb
    distinctness = min(frobenius(w.A - t), frobenius(w.B - t))
    lemma_resid = 0.0
    for part, slack in ((w.A, slack_a), (w.B, slack_b)):
        if abs(slack) <= tol * max(1.0, wt):
            for x in report.maximizers:
                qt = complex(np.vdot(x, t @ x))
                qp = complex(np.vdot(x, part @ x))
                lemma_resid = max(lemma_resid, abs(qt - qp))
    passed = (
        midpoint_residual <= 1e-9 * scale
        and slack_a >= -1e-7
        and slack_b >= -1e-7
        and distinctness >= 1e-6
        and lemma_resid <= 1e-5
    )
    return VerificationReport(
        midpoint_residual, slack_a, slack_b, distinctness, lemma_resid, passed
    )
