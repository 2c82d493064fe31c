"""Jacobian, eigenvalues and stability classification for the reduced field.

``jacobian`` is the closed-form 3x3 Jacobian of the reduced replicator
field at any state, and ``eigenvalues`` solves an arbitrary 3x3 matrix
with LAPACK (``numpy.linalg.eigvals``).  Together they are the reference
path: the tests hold the equilibrium catalog's closed-form eigenvalues to
a LAPACK solve of the Jacobian.
Roots of the characteristic cubic are not used: they are ill conditioned
at the double eigenvalue P5 and P7 always carry.

Classification reads only real-part signs against one zero threshold,
``zero_tol(v, c) = ZERO_REL * max(|v|, |c|)``.  A relative threshold
makes every tag invariant under (v, c) -> k (v, c), which scales every
eigenvalue by k.  Counts of zero, negative and positive real parts map
to a class through one code table, ``stability_codes``, the only
classification rule.  The catalog applies it once, at import, to the
eigenvalues of one representative (v, c) of each direction; the catalog
and the grid scan then read each node's tags from that table by the
direction of (v, c), found with the same threshold.  ``stability_codes``
takes the real parts as three columns, one eigenvalue of every triple
each, so each count is one comparison summed over the three columns and
the table is read with one flat index.
"""

from __future__ import annotations

import enum

import numpy as np

from .game_core import Params
from .replicator_field import Reduced

__all__ = [
    "Classification",
    "CLASS_BY_CODE",
    "CODE_BY_CLASS",
    "ZERO_REL",
    "jacobian",
    "eigenvalues",
    "stability_codes",
    "zero_tol",
    "char_coefficients",
]

#: A real part counts as zero when |Re l| <= ZERO_REL * scale.
ZERO_REL = 1e-9
# Imaginary parts this small relative to the scale are rounding noise.
_IMAG_REL = 1e-13


class Classification(enum.Enum):
    """Local stability tag, decided by eigenvalue real-part signs."""

    STABLE_NODE = "StableNode"
    UNSTABLE_NODE = "UnstableNode"
    SADDLE = "Saddle"
    NORMALLY_HYPERBOLIC_STABLE = "NormallyHyperbolicStable"
    NORMALLY_HYPERBOLIC_UNSTABLE = "NormallyHyperbolicUnstable"
    NORMALLY_HYPERBOLIC_SADDLE = "NormallyHyperbolicSaddle"
    NON_HYPERBOLIC = "NonHyperbolic"
    DEGENERATE = "Degenerate"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:  # CSV/CLI tag
        return self.value


CLASS_BY_CODE = list(Classification)
CODE_BY_CLASS = {cls: i for i, cls in enumerate(CLASS_BY_CODE)}


def _code_table() -> np.ndarray:
    C = Classification
    table = np.full((4, 4), CODE_BY_CLASS[C.NON_HYPERBOLIC], dtype=np.int8)
    # [zero count, negative count]; the rest of the real parts are positive
    table[0] = [CODE_BY_CLASS[t] for t in (
        C.UNSTABLE_NODE, C.SADDLE, C.SADDLE, C.STABLE_NODE)]
    table[1, :3] = [CODE_BY_CLASS[t] for t in (
        C.NORMALLY_HYPERBOLIC_UNSTABLE, C.NORMALLY_HYPERBOLIC_SADDLE,
        C.NORMALLY_HYPERBOLIC_STABLE)]
    return table


_CODE_TABLE = _code_table()


def jacobian(p: Params, s: Reduced) -> np.ndarray:
    """Closed-form 3x3 Jacobian of the reduced field at (p, s)."""
    v, c = p
    x, y, z = (float(t) for t in s)
    return 0.25 * np.array([
        [c * (6.0 * x * x + 4.0 * x * (y + z - 1.0) + 2.0 * y * z - y - z)
         - v * (4.0 * x + y + z - 2.0),
         x * (c * (2.0 * x + 2.0 * z - 1.0) - v),
         x * (c * (2.0 * x + 2.0 * y - 1.0) - v)],
        [y * (c * (4.0 * x + 2.0 * y + 2.0 * z - 1.0) - 2.0 * v),
         c * (2.0 * x + 4.0 * y - 1.0) * (x + z) - v * (2.0 * x + 2.0 * y + z - 1.0),
         y * (c * (2.0 * x + 2.0 * y - 1.0) - v)],
        [z * (c * (4.0 * x + 2.0 * y + 2.0 * z - 1.0) - 2.0 * v),
         z * (c * (2.0 * x + 2.0 * z - 1.0) - v),
         c * (x + y) * (2.0 * x + 4.0 * z - 1.0) - v * (2.0 * x + y + 2.0 * z - 1.0)],
    ])


def char_coefficients(j: np.ndarray):
    """Monic characteristic coefficients (a2, a1, a0): l^3 + a2 l^2 + a1 l + a0.

    Works elementwise over stacked matrices (..., 3, 3).  Classification
    does not use it; it states the residual contract of ``eigenvalues``.
    """
    j = np.asarray(j, dtype=float)
    J = [[j[..., r, k] for k in range(3)] for r in range(3)]
    tr = J[0][0] + J[1][1] + J[2][2]
    minors = (J[0][0] * J[1][1] - J[0][1] * J[1][0]
              + J[0][0] * J[2][2] - J[0][2] * J[2][0]
              + J[1][1] * J[2][2] - J[1][2] * J[2][1])
    det = (J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
           - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
           + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]))
    return -tr, minors, -det


def eigenvalues(j: np.ndarray) -> np.ndarray:
    """Eigenvalues of one 3x3 matrix as a complex array of shape (3,).

    Sorted by descending real part, ties by descending imaginary part;
    imaginary parts at most 1e-13 times the max-abs entry are set to zero.

    Residual contract: |charpoly(l)| < 1e-10 * (1 + ||J||^3) for every
    returned eigenvalue, with ||J|| the max-abs entry.  A matrix with a
    non-finite entry raises ``numpy.linalg.LinAlgError``.
    """
    j = np.asarray(j, dtype=float)
    if j.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {j.shape}")
    roots = np.linalg.eigvals(j).astype(complex)
    tol = _IMAG_REL * np.abs(j).max()
    roots = roots.real + 1j * np.where(np.abs(roots.imag) <= tol, 0.0, roots.imag)
    return roots[np.lexsort((-roots.imag, -roots.real))]


def zero_tol(v, c):
    """Zero threshold of the real parts at parameters (v, c): ZERO_REL * max(|v|, |c|).

    Every Jacobian entry is a sum of v and c times polynomials in the
    coordinates, so max(|v|, |c|) is the scale of its eigenvalues.
    """
    return ZERO_REL * np.maximum(np.abs(v), np.abs(c))


def stability_codes(re, tol):
    """Class codes and zero counts from three real-part columns, through one code table.

    ``re`` is a (3,) + shape array whose rows each hold one real part of
    every triple (three arrays of one shape are stacked into one), and
    ``tol`` broadcasts over that shape.  A real part counts as zero when
    |re| <= tol (so a zero threshold still counts exact zeros).  Returns
    int8 codes indexing CLASS_BY_CODE and the int8 zero count per triple:
    no zero real part gives a node or saddle, exactly one the normally
    hyperbolic variants (decided by the other two), two or more
    NonHyperbolic.  DEGENERATE and UNDEFINED are never produced here; the
    equilibrium catalog adds them.
    """
    re = np.asarray(re, dtype=float)
    tol = np.asarray(tol, dtype=float)
    # |re| <= tol is re <= tol and not re < -tol, so zeros are the real
    # parts at most tol less the negative ones.  Each count is one
    # comparison over all three columns, its int8 view summed over the
    # column axis, and one flat index, 4 * zeros + negatives, reads the
    # table in a single take.
    at_most = (re <= tol).view(np.int8).sum(axis=0, dtype=np.int8)
    negs = (re < -tol).view(np.int8).sum(axis=0, dtype=np.int8)
    zeros = at_most - negs
    return _CODE_TABLE.ravel().take(4 * zeros + negs), zeros
