"""Verdicts on extremality in the radius-one unit ball.

classify(T) decides whether T / w(T) is an extreme point of the set of
operators with numerical radius at most one.  Every NotExtreme verdict
carries a machine-verified convex decomposition; whenever no implemented
rule covers the input, the verdict is Unknown with a reason, never a
guess.  Rule identifiers are fixed registry strings so downstream tools
can dispatch on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedforms import WtFamily, radius_wt_family
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    IsUnitaryError,
    NoFeasibleBetaError,
    NotNormalError,
    NotNormaloidError,
    NotSelfAdjointError,
    RadiusOrderViolationError,
    ZeroOperatorError,
)
from .linalg import (
    Matrix,
    as_matrix,
    frobenius,
    hermitian_eigen,
    imag_part,
    is_normal,
    is_self_adjoint,
    normal_eigen,
    real_part,
    svd,
)
from .radius import (
    RadiusReport,
    is_normaloid,
    maximizer_condition_residual,
    maximizer_contains_on_basis,
    radius_sweep,
    radius_value,
)
from .witness import (
    CanonicalForm2x2,
    VerificationReport,
    Witness,
    blockdiag_lift,
    canonical_form_2x2,
    kadison_split,
    offdiag_perturb,
    selfadjoint_split,
    shear_split,
    verify_witness,
)

THEOREM_REGISTRY = frozenset(
    {
        "Thm2.1",
        "Cor2.2",
        "Thm2.3",
        "Lemma2.4",
        "Thm2.5",
        "Thm2.7",
        "Thm2.8",
        "Thm2.9",
        "Thm2.13",
        "Thm2.14",
        "Lemma2.15",
        "Thm2.18",
        "Thm2.18-gap",
        "Thm2.18-hypothesis",
        "no-theorem",
        "boundary",
        "verification-failed",
    }
)

# verdict-critical equality band: inside TIGHT we commit, between TIGHT and
# BAND we abstain with Unknown("boundary"), outside BAND we commit the other way
TIGHT = 1e-7
BAND = 1e-5


@dataclass(frozen=True)
class Verdict:
    kind: str  # Extreme | NotExtreme | Unknown
    theorem: str
    witness: Witness | None = None
    notes: str = ""
    scale: float = 1.0  # w(T); the witness decomposes T / scale
    verification: VerificationReport | None = None

    def __post_init__(self):
        if self.kind not in ("Extreme", "NotExtreme", "Unknown"):
            raise ValueError(f"bad verdict kind {self.kind!r}")
        if self.theorem not in THEOREM_REGISTRY:
            raise ValueError(f"unregistered rule id {self.theorem!r}")
        if self.kind == "NotExtreme" and self.witness is None:
            raise ValueError("NotExtreme requires a witness")


def _unknown(theorem: str, notes: str, scale: float) -> Verdict:
    return Verdict("Unknown", theorem, None, notes, scale)


def _anchor(s: Matrix, w: Witness) -> Witness:
    """Re-center a witness so its midpoint reproduces s exactly.

    The structured part A is kept; B absorbs the measurement error.  For
    t = 1/2 the error is shared symmetrically.
    """
    if abs(w.t - 0.5) < 1e-15:
        delta = 0.5 * (w.A - w.B)
        return Witness(0.5, s + delta, s - delta, w.construction)
    return Witness(w.t, w.A, (s - w.t * w.A) / (1.0 - w.t), w.construction)


def _not_extreme(
    s: Matrix, w: Witness, theorem: str, notes: str, scale: float, tol: float
) -> Verdict:
    """Gate every NotExtreme emission through the numerical verifier."""
    rep = verify_witness(s, w, tol)
    if not rep.passed:
        return Verdict(
            "Unknown",
            "verification-failed",
            None,
            f"{theorem} construction failed verification: {rep}",
            scale,
        )
    return Verdict("NotExtreme", theorem, w, notes, scale, rep)


def pair_extreme(d1: complex, d2: complex, tol: float = TIGHT) -> bool:
    """Extremality of diag(d1, d2) with max modulus 1.

    True when d1 = d2 or both have modulus 1 and do not lie on a common
    line through the origin; false when some modulus is below 1 or the
    pair is antipodal up to phase.
    """
    d1, d2 = complex(d1), complex(d2)
    if min(abs(d1), abs(d2)) < 1.0 - tol:
        return False
    if abs(d1 - d2) <= tol:
        return True
    return abs((d1 * np.conj(d2)).imag) > tol


def classify(t: Matrix, tol: float = TIGHT) -> Verdict:
    """Full dispatcher; normalizes to radius 1, then applies rules in order."""
    t = as_matrix(t)
    w = radius_value(t)
    if w <= 1e-12 * max(1.0, frobenius(t)) or frobenius(t) == 0.0:
        raise ZeroOperatorError("the zero operator has no extremality verdict")
    s = t / w
    v = _classify_unit(s, tol)
    notes = v.notes
    tag = f"normalization scale w(T) = {w!r}"
    notes = f"{notes}; {tag}" if notes else tag
    return Verdict(v.kind, v.theorem, v.witness, notes, w, v.verification)


def _classify_unit(s: Matrix, tol: float) -> Verdict:
    """Classify an operator already scaled to w(s) = 1."""
    n = s.shape[0]
    if n == 1:
        # scalars of modulus 1 are the extreme points of the disk
        return Verdict("Extreme", "Thm2.7", notes="unit scalar")
    v = classify_block_diag(s, tol)
    if v is not None:
        return v
    if is_self_adjoint(s, 1e-9):
        return classify_selfadjoint(s, tol)
    if is_normal(s, 1e-9):
        return classify_normal(s, tol)
    if is_normaloid(s, tol):
        return classify_normaloid(s, tol)
    v = classify_block_upper(s, tol)
    if v is not None:
        return v
    if n == 2:
        return classify_2x2(s, tol)
    return _unknown("no-theorem", "no implemented rule covers this operator", 1.0)


def _components(s: Matrix, tol_abs: float) -> list[list[int]]:
    """Connected components of the symmetrized nonzero pattern."""
    n = s.shape[0]
    adj = (np.abs(s) > tol_abs) | (np.abs(s.T) > tol_abs)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and adj[i, j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def classify_block_diag(s: Matrix, tol: float = TIGHT) -> Verdict | None:
    """Reduction over a zero-pattern block-diagonal split.

    If some block attaining the radius is NotExtreme, so is the whole
    operator, with the block witness lifted beside the untouched rest.
    This is only a necessary condition, so when every attaining block is
    extreme the verdict is left to later rules (returns None).
    """
    n = s.shape[0]
    tol_abs = 1e-9 * max(1.0, frobenius(s))
    comps = _components(s, tol_abs)
    if len(comps) <= 1:
        return None
    for comp in comps:
        idx = np.array(comp)
        block = s[np.ix_(idx, idx)]
        wb = radius_value(block)
        if wb < 1.0 - tol:
            continue  # this block does not attain the radius
        inner = _classify_unit(block / wb, tol)
        if inner.kind != "NotExtreme":
            continue
        rest_idx = np.array([i for i in range(n) if i not in comp])
        rest = s[np.ix_(rest_idx, rest_idx)] if rest_idx.size else np.zeros((0, 0))
        scaled = Witness(
            inner.witness.t, wb * inner.witness.A, wb * inner.witness.B,
            inner.witness.construction,
        )
        try:
            lifted = blockdiag_lift(scaled, block, rest, "first")
        except RadiusOrderViolationError:
            continue
        order = np.concatenate([idx, rest_idx]).astype(int)
        inv = np.empty(n, dtype=int)
        inv[order] = np.arange(n)
        a_full = lifted.A[np.ix_(inv, inv)]
        b_full = lifted.B[np.ix_(inv, inv)]
        w_full = _anchor(s, Witness(lifted.t, a_full, b_full, "block-lift"))
        notes = f"block {comp} is not extreme ({inner.theorem})"
        return _not_extreme(s, w_full, "Thm2.3", notes, 1.0, tol)
    return None


def classify_selfadjoint(s: Matrix, tol: float = TIGHT) -> Verdict:
    """Self-adjoint rule: only +I and -I are extreme."""
    s = as_matrix(s)
    if not is_self_adjoint(s, 1e-9):
        raise NotSelfAdjointError("classify_selfadjoint needs a self-adjoint input")
    n = s.shape[0]
    eye = np.eye(n)
    for sign in (1.0, -1.0):
        if frobenius(s - sign * eye) <= 1e-9 * max(1.0, math.sqrt(n)):
            tag = "Thm2.7" if n <= 2 else "Thm2.9"
            return Verdict("Extreme", tag, notes=f"{'+' if sign > 0 else '-'}I")
    es = hermitian_eigen(s, tol=1e-8)
    vals = es.values
    dmin = float(np.min(np.abs(vals)))
    if dmin < 1.0 - BAND:
        # not unitary: split a singular value
        positive = bool(vals[-1] >= -1e-9)
        try:
            w = kadison_split(s, tol)
        except IsUnitaryError:
            return _unknown("boundary", "near-unitary self-adjoint", 1.0)
        w = _anchor(s, w)
        tag = "Cor2.2" if positive else "Thm2.5"
        return _not_extreme(s, w, tag, "self-adjoint, not unitary", 1.0, tol)
    if dmin < 1.0 - tol:
        return _unknown("boundary", "eigenvalue too close to the unit circle", 1.0)
    # unitary self-adjoint, spectrum in {1, -1}, not +-I: an antipodal pair exists
    i_pos = int(np.argmax(vals))
    i_neg = int(np.argmin(vals))
    if vals[i_pos] < 0 or vals[i_neg] > 0:
        return _unknown("boundary", "indefinite sign pattern not resolved", 1.0)
    q = es.vectors
    bump = 1j * (
        np.outer(q[:, i_pos], np.conj(q[:, i_neg]))
        + np.outer(q[:, i_neg], np.conj(q[:, i_pos]))
    )
    w = Witness(0.5, s + bump, s - bump, "selfadjoint")
    tag = "Lemma2.4" if n == 2 else "Thm2.5"
    return _not_extreme(s, w, tag, "antipodal self-adjoint eigenvalue pair", 1.0, tol)


def classify_normal(s: Matrix, tol: float = TIGHT) -> Verdict:
    """Normal rule: extreme iff unitary with no antipodal eigenvalue pair."""
    s = as_matrix(s)
    if not is_normal(s, 1e-8):
        raise NotNormalError("classify_normal needs a normal input")
    n = s.shape[0]
    d, q = normal_eigen(s, tol=1e-8)
    dmin = float(np.min(np.abs(d)))
    if dmin < 1.0 - BAND:
        try:
            w = kadison_split(s, tol)
        except IsUnitaryError:
            return _unknown("boundary", "near-unitary normal operator", 1.0)
        w = _anchor(s, w)
        return _not_extreme(s, w, "Thm2.1", "normal, not unitary", 1.0, tol)
    if dmin < 1.0 - tol:
        return _unknown("boundary", "eigenvalue modulus too close to 1", 1.0)
    best = None  # most antipodal pair
    for i in range(n):
        for j in range(i + 1, n):
            m = abs(d[i] + d[j])
            if best is None or m < best[0]:
                best = (m, i, j)
    if best is not None and best[0] <= 1e-9:
        _, i, j = best
        mu = 0.5 * (d[i] - d[j])
        bump = 1j * mu * (
            np.outer(q[:, i], np.conj(q[:, j])) + np.outer(q[:, j], np.conj(q[:, i]))
        )
        w = Witness(0.5, s + bump, s - bump, "selfadjoint")
        tag = "Thm2.7" if n == 2 else "Thm2.9"
        return _not_extreme(
            s, w, tag, f"antipodal eigenvalue pair ({d[i]}, {d[j]})", 1.0, tol
        )
    if best is not None and best[0] <= BAND:
        return _unknown("boundary", "eigenvalue pair too close to antipodal", 1.0)
    if all(
        pair_extreme(d[i], d[j], tol) for i in range(n) for j in range(i + 1, n)
    ):
        tag = "Thm2.7" if n <= 2 else "Thm2.9"
        return Verdict("Extreme", tag, notes="unitary, no antipodal eigenvalue pair")
    return _unknown("boundary", "pair criterion inconclusive at tolerance", 1.0)


def classify_normaloid(s: Matrix, tol: float = TIGHT) -> Verdict:
    """Normaloid rule: non-unitary normaloids are never extreme."""
    s = as_matrix(s)
    if not is_normaloid(s, max(tol, 1e-7)):
        raise NotNormaloidError("classify_normaloid needs w(T) = ||T||")
    sv = svd(s)
    smin = float(np.min(sv.sigma))
    if smin >= 1.0 - tol:
        # unitary, hence normal
        return classify_normal(s, tol)
    if smin >= 1.0 - BAND:
        return _unknown("boundary", "smallest singular value too close to 1", 1.0)
    w = _anchor(s, kadison_split(s, tol))
    return _not_extreme(s, w, "Thm2.1", "normaloid but not unitary", 1.0, tol)


def _block_upper_pattern(s: Matrix, tol_abs: float):
    """Detect [[l1 I, A], [0, l2 I]] with equal square blocks; None if absent."""
    n = s.shape[0]
    if n < 4 or n % 2 != 0:
        return None
    m = n // 2
    eye = np.eye(m)
    lam1 = complex(np.trace(s[:m, :m]) / m)
    lam2 = complex(np.trace(s[m:, m:]) / m)
    if frobenius(s[m:, :m]) > tol_abs:
        return None
    if frobenius(s[:m, :m] - lam1 * eye) > tol_abs:
        return None
    if frobenius(s[m:, m:] - lam2 * eye) > tol_abs:
        return None
    return lam1, lam2, s[:m, m:].copy()


def classify_block_upper(s: Matrix, tol: float = TIGHT) -> Verdict | None:
    """Scalar-diagonal upper-triangular block pattern.

    The radius of [[l1 I, A], [0, l2 I]] depends on A only through ||A||,
    so perturbing a singular value of A below the top one in both
    directions gives a decomposition with unchanged radius.  Needs A to
    not be a scalar multiple of an isometry; silent otherwise.
    """
    s = as_matrix(s)
    pat = _block_upper_pattern(s, 1e-9 * max(1.0, frobenius(s)))
    if pat is None:
        return None
    lam1, lam2, a_block = pat
    sv = svd(a_block)
    c = float(sv.sigma[0])
    if c <= 1e-9:
        return None  # effectively diagonal, earlier rules own this
    smin = float(np.min(sv.sigma))
    if smin >= c - BAND * max(1.0, c):
        if smin >= c - tol * max(1.0, c):
            return None  # all singular values equal: isometry-like, rule is silent
        return _unknown("boundary", "corner block nearly isometric", 1.0)
    delta = c - smin
    k = int(np.argmin(sv.sigma))
    bump_small = delta * np.outer(sv.U[:, k], np.conj(sv.V[:, k]))
    m = a_block.shape[0]
    n = s.shape[0]
    bump = np.zeros((n, n), dtype=complex)
    bump[:m, m:] = bump_small
    w = Witness(0.5, s + bump, s - bump, "block-upper")
    return _not_extreme(
        s, w, "Thm2.13", "scalar-diagonal block pattern, corner not isometric",
        1.0, tol,
    )


def _pick_maximizer(s: Matrix, report: RadiusReport) -> list[np.ndarray]:
    """Maximizers ordered by how well they satisfy the stationarity condition."""
    scored = [
        (maximizer_condition_residual(s, x), i, x)
        for i, x in enumerate(report.maximizers)
    ]
    scored.sort(key=lambda e: (e[0], e[1]))
    return [x for _, _, x in scored]


def _case1_shear(
    s: Matrix, phase: complex, a: float, alpha_mod: float, tol: float
) -> Verdict:
    """Double-eigenvalue canonical form: scalar + nilpotent decomposition.

    The scalar part is exactly (mean eigenvalue)/t times the identity, so
    it is frame-independent; the other part absorbs all measurement error
    and stays radius-1 to first order.
    """
    beta = 0.5 * (1.0 + a)  # mean eigenvalue of the canonical form, real > 0
    zeta_mod = 2.0 * alpha_mod
    if beta <= 1e-9 or zeta_mod <= 1e-9:
        return _unknown("boundary", "degenerate double-eigenvalue geometry", 1.0)
    ideal = shear_split(beta, zeta_mod)
    a_part = phase * ideal.A[0, 0] * np.eye(2, dtype=complex)
    # keep the scalar part exact; the nilpotent part absorbs measurement error
    b_part = (s - ideal.t * a_part) / (1.0 - ideal.t)
    w = Witness(ideal.t, a_part, b_part, "shear")
    return _not_extreme(s, w, "Lemma2.15", "double-eigenvalue canonical form", 1.0, tol)


def classify_2x2(s: Matrix, tol: float = TIGHT) -> Verdict:
    """Two-dimensional rules for operators scaled to radius 1."""
    s = as_matrix(s)
    if s.shape[0] != 2:
        raise DimensionMismatchError("classify_2x2 needs n = 2")
    if is_normaloid(s, tol):
        if is_normal(s, 1e-7):
            v = classify_normal(s, tol)
            if v.kind == "Extreme":
                return Verdict("Extreme", "Thm2.8", v.witness, v.notes)
            return v
        return _unknown("boundary", "normaloid but not measurably normal", 1.0)
    report = radius_sweep(s)
    pair = maximizer_contains_on_basis(report, tol)
    if pair is not None:
        x, _ = pair
        canon = canonical_form_2x2(s, x, tol)
        corner = abs(canon.alpha)
        if corner >= 1.0 - tol:
            return Verdict(
                "Extreme", "Thm2.14", notes="maximizer basis with unimodular coupling"
            )
        if corner > 1.0 - BAND:
            return _unknown("boundary", "coupling too close to modulus 1", 1.0)
        if abs(canon.a_diag + 1.0) > BAND:
            return _unknown(
                "boundary", "second basis maximizer value not resolved to -1", 1.0
            )
        try:
            w = offdiag_perturb(canon, "basis-a-minus-1", tol)
        except NoFeasibleBetaError:
            return _unknown("boundary", "no perturbation room in the basis case", 1.0)
        w = _anchor(s, w)
        return _not_extreme(
            s, w, "Thm2.14", "maximizer basis with sub-unimodular coupling", 1.0, tol
        )
    # No orthonormal basis of maximizers.  On any maximizer basis the matrix
    # is phase * [[1, alpha], [-conj(alpha), a + ib]]; the hypothesis needs
    # b = 0 for some maximizer.  Near the open boundary case the maximizing
    # angle is degenerate and maximizer vectors lose accuracy, so recover
    # (phase, a, |alpha|) from unitary invariants instead: |tr| = 1 + a,
    # ||S||_F^2 = 1 + a^2 + 2 |alpha|^2, and det / phase^2 = a + |alpha|^2
    # exactly when b = 0.  The determinant residual therefore tests the
    # hypothesis at machine accuracy.
    trace = complex(s[0, 0] + s[1, 1])
    if abs(trace) <= 1e-9:
        return _unknown("boundary", "trace too small to fix the phase", 1.0)
    a = abs(trace) - 1.0
    phase = trace / abs(trace)
    if abs(a) >= 1.0 - 1e-9:
        return _unknown("boundary", "complementary diagonal value at modulus 1", 1.0)
    alpha_sq = 0.5 * (frobenius(s) ** 2 - 1.0 - a * a)
    if alpha_sq <= 1e-12:
        return _unknown("boundary", "vanishing coupling, effectively normal", 1.0)
    det = complex(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0])
    resid = abs(det / (phase * phase) - (a + alpha_sq))
    if resid > 1e-6:
        return _unknown(
            "Thm2.18-hypothesis",
            "no maximizer gives a real complementary diagonal value",
            1.0,
        )
    if resid > 1e-9:
        return _unknown("boundary", "diagonal value almost real", 1.0)
    am = math.sqrt(alpha_sq)
    disc = 4.0 * alpha_sq - (1.0 - a) ** 2
    gap = 2.0 * alpha_sq + a - 1.0
    if gap > BAND:
        raise InternalInconsistencyError(
            f"derived bound violated: 2|alpha|^2 + a - 1 = {gap} > 0 at radius 1"
        )
    if abs(gap) <= tol:
        return _unknown(
            "Thm2.18-gap",
            "boundary of the derived inequality; extremality is an open case",
            1.0,
        )
    if abs(disc) <= 1e-8 * max(1.0, 1.0 - a):
        return _case1_shear(s, phase, a, am, tol)
    canon = None
    for x in _pick_maximizer(s, report):
        cand = canonical_form_2x2(s, x, tol)
        if abs(cand.a_diag.imag) <= BAND:
            canon = cand
            break
    if canon is None:
        return _unknown("boundary", "maximizer frame too inaccurate", 1.0)
    # use the invariant-derived magnitudes with the measured frame/direction
    direction = canon.alpha / abs(canon.alpha) if abs(canon.alpha) > 0 else 1.0
    canon = CanonicalForm2x2(canon.x, canon.y, am * direction, complex(a), canon.phase)
    if disc < 0:
        case, notes = "II", "real-eigenvalue region split"
    else:
        if gap > -BAND:
            return _unknown("boundary", "too close to the open boundary case", 1.0)
        case, notes = "III", "complex-eigenvalue region split"
    try:
        w = offdiag_perturb(canon, case, tol)
    except NoFeasibleBetaError:
        return _unknown("boundary", "no perturbation room in this region", 1.0)
    w = _anchor(s, w)
    if frobenius(w.A - s) < 1e-6:
        return _unknown("boundary", "perturbation too small to certify", 1.0)
    return _not_extreme(s, w, "Thm2.18", notes, 1.0, tol)
