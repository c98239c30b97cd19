"""Independent correctness checks for benchmark outputs, in plain numpy.

Nothing here imports nuext.  The radius reference is a fine-grid enclosure
of the numerical radius: with h(theta) = lambda_max(Re(e^{i theta} T)) and
N equally spaced angles,

    max_k h(theta_k)  <=  w(T)  <=  max_k h(theta_k) / cos(pi / N).

The lower bound holds because every h(theta) is attained in W(T).  The upper
bound is the circumscribed-polygon bound (C. R. Johnson, SIAM J. Numer.
Anal. 1978): a point of W(T) of modulus w lies within pi/N of some grid
direction, so its projection on that direction is at least w cos(pi/N).
With N = 1024 the enclosure is 4.7e-6 wide (relative), so a radius off by
1e-4 falls outside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 1024
# rounding allowance on either side of the enclosure (relative)
ROUND = 1e-12
# a returned maximizer x must give |<Tx,x>| = w within this (relative to
# max(1, ||T||_F)); ten times the sweep's own acceptance of a peak
MAXIMIZER_TOL = 1e-7
# witness acceptance: the midpoint identity and distinctness use the same
# thresholds as the package's own verifier
MIDPOINT_TOL = 1e-9
DISTINCT_MIN = 1e-6


@dataclass(frozen=True)
class Enclosure:
    lo: float
    hi: float

    def contains(self, value: float) -> bool:
        return self.lo * (1.0 - ROUND) - ROUND <= value <= self.hi * (1.0 + ROUND) + ROUND

    def scaled(self, factor: float) -> "Enclosure":
        return Enclosure(self.lo * factor, self.hi * factor)


def _angles(points: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(points) / points


def radius_enclosure(t: np.ndarray, points: int = GRID_POINTS) -> Enclosure:
    """[max_k h(theta_k), max_k h(theta_k) / cos(pi/N)] for the matrix t."""
    t = np.asarray(t, dtype=complex)
    re = 0.5 * (t + t.conj().T)
    im = (t - t.conj().T) / 2j
    th = _angles(points)
    hs = np.cos(th)[:, None, None] * re - np.sin(th)[:, None, None] * im
    lo = float(np.max(np.linalg.eigvalsh(hs)[:, -1]))
    return Enclosure(lo, lo / math.cos(math.pi / points))


def check_radius(value: float, enc: Enclosure) -> list[str]:
    if not math.isfinite(value) or not enc.contains(value):
        return [f"radius {value!r} outside reference [{enc.lo!r}, {enc.hi!r}]"]
    return []


def check_maximizers(t: np.ndarray, w: float, maximizers) -> list[str]:
    """Every returned maximizer is a unit vector with |<Tx,x>| = w."""
    t = np.asarray(t, dtype=complex)
    if len(maximizers) == 0:
        return ["no maximizer returned"]
    xs = np.array([np.asarray(x, dtype=complex).reshape(-1) for x in maximizers])
    norms = np.linalg.norm(xs, axis=1)
    q = np.abs(np.einsum("ki,ij,kj->k", xs.conj(), t, xs))
    tol = MAXIMIZER_TOL * max(1.0, float(np.linalg.norm(t)))
    problems = []
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        problems.append(f"maximizer norm off by {np.max(np.abs(norms - 1.0))!r}")
    err = float(np.max(np.abs(q - w)))
    if err > tol:
        problems.append(f"|<Tx,x>| differs from w by {err!r} (tolerance {tol!r})")
    return problems


def check_witness(s: np.ndarray, enc_s: Enclosure, t: float, a, b) -> list[str]:
    """Re-check S = tA + (1-t)B with A != S != B and w(A), w(B) <= w(S).

    The radius order is refuted only when the reference lower bound of a
    part exceeds the reference upper bound of S.
    """
    s = np.asarray(s, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != s.shape or b.shape != s.shape:
        return [f"witness shapes {a.shape}, {b.shape} do not match {s.shape}"]
    problems = []
    if not 0.0 < t < 1.0:
        problems.append(f"weight t = {t!r} not in (0, 1)")
    resid = float(np.linalg.norm(s - (t * a + (1.0 - t) * b)))
    if resid > MIDPOINT_TOL * max(1.0, float(np.linalg.norm(s))):
        problems.append(f"midpoint residual {resid!r}")
    dist = min(float(np.linalg.norm(a - s)), float(np.linalg.norm(b - s)))
    if dist < DISTINCT_MIN:
        problems.append(f"a witness part equals S (distance {dist!r})")
    cap = enc_s.hi * (1.0 + ROUND) + ROUND
    for name, part in (("A", a), ("B", b)):
        lo = radius_enclosure(part).lo
        if lo > cap:
            problems.append(f"w({name}) >= {lo!r} exceeds w(S) <= {enc_s.hi!r}")
    return problems


def check_verdict(t, enc: Enclosure, label, kind: str, scale: float, parts) -> list[str]:
    """A verdict on T: w(T) inside the enclosure, a kind that does not
    contradict the label (Unknown never does), and for NotExtreme a witness
    (t, A, B) of T / w(T) that passes check_witness."""
    problems = check_radius(scale, enc)
    if kind not in ("Extreme", "NotExtreme", "Unknown"):
        return problems + [f"unknown verdict kind {kind!r}"]
    if kind != "Unknown" and kind not in label:
        problems.append(f"verdict {kind} contradicts label {sorted(label)}")
    if kind == "NotExtreme":
        if parts is None:
            problems.append("NotExtreme without a witness")
        elif scale > 0 and not problems:
            s = np.asarray(t, dtype=complex) / scale
            problems += check_witness(s, enc.scaled(1.0 / scale), *parts)
    return problems
