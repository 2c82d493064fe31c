"""Shared test helpers: samplers and closed-form eigenvalue oracles."""

from __future__ import annotations

import numpy as np

from hawkdove import Params


def rand_params(rng, lo=-1.0, hi=1.0, c_min=0.0, line_margin=0.0) -> Params:
    """Uniform (v, c) with optional |c| floor and distance floor from the
    four bifurcation lines v=c, c=0, v=0, c=2v."""
    while True:
        v, c = rng.uniform(lo, hi, 2)
        if abs(c) < c_min:
            continue
        if line_margin and min(abs(v - c), abs(c), abs(v), abs(c - 2 * v)) < line_margin:
            continue
        return Params(float(v), float(c))


def rand_simplex4(rng) -> tuple[float, float, float, float]:
    """Uniform point on the closed 3-simplex via sorted-uniform spacings."""
    u = np.sort(rng.random(3))
    return (float(u[0]), float(u[1] - u[0]), float(u[2] - u[1]), float(1.0 - u[2]))


def rand_reduced(rng) -> tuple[float, float, float]:
    return rand_simplex4(rng)[:3]


# Closed-form eigenvalue lists at the seven equilibria (test oracle,
# evaluated independently of the production Jacobian/eigenvalue path).
def closed_form_eigs(eq: str, v: float, c: float) -> list[float]:
    if eq in ("P1", "P4"):
        return [-v / 4, -c / 4, (v - c) / 4]
    if eq == "P2":
        return [c / 8, (c - 2 * v) / 8, (2 * v - c) / 8]
    if eq == "P3":
        return [v / 4, -v * (c - 2 * v) / (4 * c), 0.0]
    if eq == "P5":
        return [(c - v) / 2, (c - v) / 4, (c - v) / 4]
    if eq == "P6":
        return [0.0, 0.0, v * (v - c) / (2 * c)]
    if eq == "P7":
        return [v / 2, v / 4, v / 4]
    raise ValueError(eq)


def multiset_close(got, expected, tol: float) -> bool:
    """Compare eigenvalue multisets: sorted real parts within tol, imaginary
    parts below tol."""
    got = [complex(g) for g in got]
    if max(abs(g.imag) for g in got) > tol:
        return False
    gs = sorted(g.real for g in got)
    es = sorted(float(e) for e in expected)
    return max(abs(a - b) for a, b in zip(gs, es)) <= tol
