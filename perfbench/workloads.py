"""Seeded input streams for the benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds one
operation per generator in a fixed order, so any run made of whole rounds
has the same mix of routes and sizes whatever the seed; the seed draws only
the continuous parameters (scale, phase, unitary similarity, entries).
Every input is distinct, so no operation can reuse another's result.

Each operation carries a label: the verdict kinds a correct classifier may
return for it.  Unknown is always allowed and counts as an abstention;
where the mathematics does not settle the kind, every kind is allowed and
only the witness and radius checks apply.  Nothing here imports nuext.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from reference import radius_enclosure

EXTREME = frozenset({"Extreme"})
NOT_EXTREME = frozenset({"NotExtreme"})
ANY_KIND = frozenset({"Extreme", "NotExtreme"})


@dataclass(frozen=True)
class Op:
    kind: str  # classify | cli_classify | radius_value | radius_sweep
    family: str
    t: np.ndarray
    label: frozenset = ANY_KIND


# ---------------------------------------------------------------- helpers


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with the diagonal phases of R
    moved into Q (Mezzadri 2007)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def _scale(rng) -> float:
    return float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _orbit(m: np.ndarray, rng, phase: bool = True) -> np.ndarray:
    """c e^{i phi} U M U* with a Haar U; the phase is skipped when a
    self-adjoint input must stay self-adjoint."""
    u = haar_unitary(m.shape[0], rng)
    factor = _scale(rng) * (_phase(rng) if phase else 1.0)
    return factor * (u @ m @ u.conj().T)


def _family(a: float, alpha: complex) -> np.ndarray:
    """Canonical radius-one form [[1, alpha], [-conj(alpha), a]]."""
    return np.array([[1.0, alpha], [-np.conj(alpha), a]], dtype=complex)


# ---------------------------------------------------------- 2x2 routes


def antipodal_selfadjoint(rng) -> np.ndarray:
    return _orbit(np.diag([1.0, -1.0]).astype(complex), rng)


def unitary_2x2(rng) -> np.ndarray:
    delta = rng.uniform(0.3, math.pi - 0.3) * rng.choice([-1.0, 1.0])
    return _orbit(np.diag([1.0, np.exp(1j * delta)]), rng)


def normal_nonunitary_2x2(rng) -> np.ndarray:
    r = rng.uniform(0.2, 0.9)
    return _orbit(np.diag([1.0, r * _phase(rng)]), rng)


def sub_unimodular_basis(rng) -> np.ndarray:
    """[[1, alpha], [-conj(alpha), -1]], |alpha| < 1: Thm2.14 NotExtreme."""
    return _orbit(_family(-1.0, rng.uniform(0.2, 0.9) * _phase(rng)), rng)


def thm218_case_ii(rng) -> np.ndarray:
    """4|alpha|^2 < (1-a)^2: real eigenvalues, radius one."""
    a = rng.uniform(-0.8, 0.8)
    mod = rng.uniform(0.2, 0.9) * 0.5 * (1.0 - a)
    return _orbit(_family(a, mod * _phase(rng)), rng)


def thm218_case_iii(rng) -> np.ndarray:
    """(1-a)^2 < 4|alpha|^2 < 2(1-a): complex eigenvalues, radius one."""
    a = rng.uniform(-0.5, 0.8)
    q = rng.uniform(1.05 * (1.0 - a) ** 2, 0.95 * 2.0 * (1.0 - a))
    return _orbit(_family(a, 0.5 * math.sqrt(q) * _phase(rng)), rng)


def shear_2x2(rng) -> np.ndarray:
    """[[beta, zeta], [0, beta]]: the Lemma2.15 double eigenvalue."""
    zeta = rng.uniform(0.3, 3.0) * _phase(rng)
    return _orbit(np.array([[1.0, zeta], [0.0, 1.0]], dtype=complex), rng)


def thm218_gap(rng) -> np.ndarray:
    """2|alpha|^2 + a - 1 = 0, the open boundary case of Thm2.18."""
    a = rng.uniform(-0.8, 0.8)
    return _orbit(_family(a, math.sqrt(0.5 * (1.0 - a)) * _phase(rng)), rng)


def generic_2x2(rng) -> np.ndarray:
    return _scale(rng) * gaussian(2, rng)


# ---------------------------------------------------------- n x n families


def selfadjoint_nonunitary(n: int, rng) -> np.ndarray:
    vals = rng.uniform(-0.9, 0.9, n)
    vals[int(rng.integers(n))] = rng.choice([-1.0, 1.0])
    return _orbit(np.diag(vals).astype(complex), rng, phase=False)


def selfadjoint_pm1(n: int, rng) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], n)
    signs[0], signs[1] = 1.0, -1.0
    t = _orbit(np.diag(signs).astype(complex), rng, phase=False)
    return 0.5 * (t + t.conj().T)


def normal_nonunitary(n: int, rng) -> np.ndarray:
    d = rng.uniform(0.2, 0.9, n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    d[0] = d[0] / abs(d[0])
    return _orbit(np.diag(d), rng)


def unitary_nxn(n: int, rng) -> np.ndarray:
    """Eigenvalue angles at least pi/(2n) apart modulo pi: no antipodal
    or coincident pair, so every pair is extreme (Thm2.9)."""
    ang = (np.arange(n) + rng.uniform(0.25, 0.75, n)) * math.pi / n
    ang = ang + math.pi * rng.integers(0, 2, n)
    return _orbit(np.diag(np.exp(1j * ang)), rng)


def blockdiag_lift(n: int, rng) -> np.ndarray:
    """Permuted diag(B, C): B a NotExtreme radius-one 2x2 (Thm2.18 case
    II), C dense with radius at most 0.7."""
    a = rng.uniform(-0.8, 0.8)
    mod = rng.uniform(0.2, 0.9) * 0.5 * (1.0 - a)
    u = haar_unitary(2, rng)
    b = u @ _family(a, mod * _phase(rng)) @ u.conj().T
    c = gaussian(n - 2, rng)
    c = c * (rng.uniform(0.3, 0.7) / radius_enclosure(c).hi)
    t = np.zeros((n, n), dtype=complex)
    t[:2, :2] = b
    t[2:, 2:] = c
    p = rng.permutation(n)
    return _scale(rng) * _phase(rng) * t[np.ix_(p, p)]


def block_upper(n: int, rng) -> np.ndarray:
    """[[l1 I, A], [0, l2 I]] with a corner A that is far from isometric."""
    m = max(2, (n + 1) // 2)
    while True:
        a = gaussian(m, rng)
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] < 0.9 * sv[0]:
            break
    l1 = complex(rng.standard_normal(), rng.standard_normal())
    l2 = complex(rng.standard_normal(), rng.standard_normal())
    eye = np.eye(m)
    t = np.block([[l1 * eye, a], [np.zeros((m, m)), l2 * eye]])
    return _scale(rng) * _phase(rng) * t


def dense_nxn(n: int, rng) -> np.ndarray:
    return _scale(rng) * gaussian(n, rng)


# ---------------------------------------------------------- flat support

NIL_2X2 = np.array([[1.0, 1j], [1j, -1.0]], dtype=complex)
JORDAN_3X3 = np.diag([1.0, 1.0], 1).astype(complex)


def nil_orbit(rng) -> np.ndarray:
    return _orbit(NIL_2X2, rng)


def jordan_orbit(rng) -> np.ndarray:
    return _orbit(JORDAN_3X3, rng)


# ---------------------------------------------------------- workloads

# (family, generator, label) in round order
ROUTES_2X2: list[tuple[str, Callable, frozenset]] = [
    ("antipodal-selfadjoint", antipodal_selfadjoint, NOT_EXTREME),
    ("unitary", unitary_2x2, EXTREME),
    ("normal-nonunitary", normal_nonunitary_2x2, NOT_EXTREME),
    ("thm2.14-sub-unimodular", sub_unimodular_basis, NOT_EXTREME),
    ("thm2.18-case-ii", thm218_case_ii, NOT_EXTREME),
    ("thm2.18-case-iii", thm218_case_iii, NOT_EXTREME),
    ("lemma2.15-shear", shear_2x2, NOT_EXTREME),
    # the gap point is an open case: Extreme cannot be backed by a theorem
    ("thm2.18-gap", thm218_gap, NOT_EXTREME),
    ("generic-dense", generic_2x2, ANY_KIND),
]

FAMILIES_NXN: list[tuple[str, Callable, frozenset]] = [
    ("selfadjoint-nonunitary", selfadjoint_nonunitary, NOT_EXTREME),
    ("selfadjoint-pm1", selfadjoint_pm1, NOT_EXTREME),
    ("normal-nonunitary", normal_nonunitary, NOT_EXTREME),
    ("unitary", unitary_nxn, EXTREME),
    ("blockdiag-lift", blockdiag_lift, NOT_EXTREME),
    ("block-upper", block_upper, NOT_EXTREME),
    ("dense", dense_nxn, ANY_KIND),
]
SIZES_NXN = (3, 8)
SIZES_DENSE = (8, 16)


def _round_2x2(rng) -> list[Op]:
    return [Op("classify", fam, gen(rng), label) for fam, gen, label in ROUTES_2X2]


def _round_nxn(rng) -> list[Op]:
    ops = []
    for n in SIZES_NXN:
        for fam, gen, label in FAMILIES_NXN:
            t = gen(n, rng)  # block-upper rounds odd n up to even
            ops.append(Op("cli_classify", f"{fam}-n{t.shape[0]}", t, label))
    return ops


def _round_dense(rng) -> list[Op]:
    ops = []
    for n in SIZES_DENSE:
        ops.append(Op("radius_value", f"gaussian-n{n}", gaussian(n, rng)))
        ops.append(Op("radius_sweep", f"gaussian-n{n}", gaussian(n, rng)))
    return ops


def _round_flat(rng) -> list[Op]:
    # the [[1,i],[i,-1]] orbit is Extreme by Thm2.14, but most draws come
    # back Unknown("boundary"): its numerical range is a disk about 0, and
    # the basis test depends on which sampled maximizers happen to be
    # orthogonal.  That known defect shows as abstentions, not failures.
    # The Jordan block's kind is not settled by any theorem the package
    # implements.  The cheapest operation comes first, as it is the one
    # setup_s includes.
    return [
        Op("classify", "jordan3-orbit", jordan_orbit(rng), ANY_KIND),
        Op("radius_sweep", "jordan3-orbit", jordan_orbit(rng)),
        Op("radius_sweep", "nil2-orbit", nil_orbit(rng)),
        Op("classify", "nil2-orbit", nil_orbit(rng), EXTREME),
    ]


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Op]]] = {
    "classify-2x2": _round_2x2,
    "classify-nxn": _round_nxn,
    "radius-dense": _round_dense,
    "flat-support": _round_flat,
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless round stream of a workload; one seed, one stream."""
    make = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    while True:
        yield make(rng)
