"""Independent oracles for the benchmark's correctness checks.

Nothing here imports hawkdove.  Classifications come from the closed-form
eigenvalue lists at the seven equilibria (the same formulas as the test
suite's ``closed_form_eigs``), with an eigenvalue counted as zero when
|lambda| <= 1e-12 * max(|v|, |c|).  A relative threshold keeps the oracle
scale-free; an exact ``== 0`` test would misjudge grid nodes that
``linspace`` rounding moves a few ulps off the c = 2v line.
"""

from __future__ import annotations

import numpy as np

IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")
STRUCTURAL_ZEROS = {"P3": 1, "P6": 2}
CLASSES = ("StableNode", "UnstableNode", "Saddle", "NormallyHyperbolicStable",
           "NormallyHyperbolicUnstable", "NormallyHyperbolicSaddle", "NonHyperbolic",
           "Degenerate", "Undefined")
CODE = {name: k for k, name in enumerate(CLASSES)}
ZERO_REL = 1e-12
SIMPLEX_TOL = 1e-9
# Fill colour of each class in the region SVG (part of the output format).
REGION_COLORS = {
    "#2166ac": "StableNode", "#b2182b": "UnstableNode", "#fddbc7": "Saddle",
    "#67a9cf": "NormallyHyperbolicStable", "#ef8a62": "NormallyHyperbolicUnstable",
    "#fee0b6": "NormallyHyperbolicSaddle", "#999999": "NonHyperbolic",
    "#40004b": "Degenerate", "#f0f0f0": "Undefined",
}


def closed_form_eigs(eq: str, v, c) -> np.ndarray:
    """Eigenvalues at ``eq`` as an array of shape broadcast(v, c) + (3,)."""
    v, c = np.broadcast_arrays(np.asarray(v, float), np.asarray(c, float))
    zero = np.zeros_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        if eq in ("P1", "P4"):
            cols = (-v / 4, -c / 4, (v - c) / 4)
        elif eq == "P2":
            cols = (c / 8, (c - 2 * v) / 8, (2 * v - c) / 8)
        elif eq == "P3":
            cols = (v / 4, -v * (c - 2 * v) / (4 * c), zero)
        elif eq == "P5":
            cols = ((c - v) / 2, (c - v) / 4, (c - v) / 4)
        elif eq == "P6":
            cols = (zero, zero, v * (v - c) / (2 * c))
        elif eq == "P7":
            cols = (v / 2, v / 4, v / 4)
        else:
            raise ValueError(eq)
    return np.stack(cols, axis=-1)


def coords(eq: str, v: float, c: float):
    """Reduced coordinates (x, y, z) of ``eq``; None where undefined."""
    fixed = {"P1": (0.0, 0.0, 1.0), "P2": (0.0, 0.5, 0.5), "P4": (0.0, 1.0, 0.0),
             "P5": (1.0, 0.0, 0.0), "P7": (0.0, 0.0, 0.0)}
    if eq in fixed:
        return fixed[eq]
    if c == 0:
        return None
    q = v / c
    return (0.0, q, q) if eq == "P3" else (q, 0.0, 0.0)


def in_simplex(xyz) -> bool:
    x, y, z = xyz
    return min(x, y, z, 1.0 - x - y - z) >= -SIMPLEX_TOL


def classify(eq: str, v, c) -> np.ndarray:
    """Class codes (indices into CLASSES) of ``eq`` over arrays v, c."""
    v, c = np.broadcast_arrays(np.asarray(v, float), np.asarray(c, float))
    lam = closed_form_eigs(eq, v, c)
    tol = ZERO_REL * np.maximum(np.abs(v), np.abs(c))[..., None]
    zero = np.abs(lam) <= tol
    zeros = zero.sum(axis=-1)
    neg = ((lam < 0) & ~zero).sum(axis=-1)
    pos = ((lam > 0) & ~zero).sum(axis=-1)
    out = np.full(v.shape, CODE["Saddle"])
    out[(zeros == 0) & (neg == 3)] = CODE["StableNode"]
    out[(zeros == 0) & (pos == 3)] = CODE["UnstableNode"]
    out[(zeros == 1) & (neg == 2)] = CODE["NormallyHyperbolicStable"]
    out[(zeros == 1) & (pos == 2)] = CODE["NormallyHyperbolicUnstable"]
    out[(zeros == 1) & (neg == 1) & (pos == 1)] = CODE["NormallyHyperbolicSaddle"]
    out[zeros >= 2] = CODE["NonHyperbolic"]
    out[zeros > STRUCTURAL_ZEROS.get(eq, 0)] = CODE["Degenerate"]
    if eq in ("P3", "P6"):
        out[c == 0] = CODE["Undefined"]
    return out


def classify_point(v: float, c: float) -> dict[str, str]:
    return {eq: CLASSES[int(classify(eq, v, c))] for eq in IDS}


def stable_points(v: float, c: float) -> dict[str, tuple]:
    """Coordinates of every equilibrium the oracle tags StableNode."""
    tags = classify_point(v, c)
    return {eq: coords(eq, v, c) for eq in IDS if tags[eq] == "StableNode"}


# -- game-level oracles -------------------------------------------------------

def payoff_matrix(v: float, c: float) -> np.ndarray:
    """Row-player payoffs in strategy order (HH, HD, DH, DD)."""
    return np.array([
        [(v - c) / 2, (3 * v - c) / 4, (3 * v - c) / 4, v],
        [(v - c) / 4, v / 2, (2 * v - c) / 4, 3 * v / 4],
        [(v - c) / 4, (2 * v - c) / 4, v / 2, 3 * v / 4],
        [0.0, v / 4, v / 4, v / 2],
    ])


def best_response_margin(v: float, c: float, sigma) -> float:
    """Payoff of sigma against itself minus the best pure reply to sigma."""
    s = np.asarray(sigma, float)
    u = payoff_matrix(v, c) @ s
    return float(s @ u - u.max())


def lift(xyz) -> tuple[float, float, float, float]:
    x, y, z = xyz
    return (x, y, z, 1.0 - x - y - z)


def f_prime_1d(v: float, c: float) -> list[tuple[float, float]]:
    """(z, f'(z)) at the 1D equilibria 0, 1 and v/c, from closed forms."""
    out = [(0.0, v / 2), (1.0, (c - v) / 2)]
    if c != 0:
        out.append((v / c, v * (v - c) / (2 * c)))
    return out


def tag_1d(v: float, c: float, slope: float) -> str:
    if abs(slope) <= ZERO_REL * max(abs(v), abs(c)):
        return "degenerate"
    return "stable" if slope < 0 else "unstable"


def rate_1d(v: float, c: float, z: float) -> float:
    return 0.5 * z * (1.0 - z) * (v - c * z)
