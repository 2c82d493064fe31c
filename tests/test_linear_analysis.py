import numpy as np
import pytest

from hawkdove import Params, eigenvalues, field_3d, jacobian
from hawkdove.linear_analysis import (
    CLASS_BY_CODE,
    Classification,
    char_coefficients,
    stability_codes,
    zero_tol,
)

from util import closed_form_eigs, multiset_close, rand_params, rand_reduced

EQ_POINTS = {
    "P1": lambda v, c: (0.0, 0.0, 1.0),
    "P2": lambda v, c: (0.0, 0.5, 0.5),
    "P3": lambda v, c: (0.0, v / c, v / c),
    "P4": lambda v, c: (0.0, 1.0, 0.0),
    "P5": lambda v, c: (1.0, 0.0, 0.0),
    "P6": lambda v, c: (v / c, 0.0, 0.0),
    "P7": lambda v, c: (0.0, 0.0, 0.0),
}


def test_jacobian_at_origin_is_diagonal():
    v, c = 0.1, 0.2
    j = jacobian(Params(v, c), (0.0, 0.0, 0.0))
    expected = np.diag([v / 2, v / 4, v / 4])
    assert np.array_equal(j, expected)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        p = rand_params(rng, c_min=0.02)
        s = np.array(rand_reduced(rng))
        j = jacobian(p, s)
        h = 1e-6 * max(1.0, float(np.linalg.norm(s)))
        jfd = np.empty((3, 3))
        for col in range(3):
            e = np.zeros(3)
            e[col] = h
            jfd[:, col] = (np.array(field_3d(p, s + e)) - np.array(field_3d(p, s - e))) / (2 * h)
        rel = np.abs(j - jfd).max() / max(np.abs(j).max(), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-5


def test_eigenvalues_of_diagonal_matrix_sorted():
    e = eigenvalues(np.diag([-3.0, 2.0, -1.0]))
    assert tuple(e) == (2.0 + 0j, -1.0 + 0j, -3.0 + 0j)


def test_eigenvalues_at_hawk_vertex():
    # exact double root: {(c-v)/2, (c-v)/4, (c-v)/4}
    e = eigenvalues(jacobian(Params(0.1, 0.2), (1.0, 0.0, 0.0)))
    assert multiset_close(e, [0.05, 0.025, 0.025], 1e-12)


def test_eigenvalues_at_dh_vertex():
    e = eigenvalues(jacobian(Params(0.1, 0.2), (0.0, 0.0, 1.0)))
    assert multiset_close(e, [-0.025, -0.025, -0.05], 1e-12)


def test_eigenvalues_interior_mixed_point_has_structural_zero():
    # P3 at v=-0.1, c=-0.3: closed form {v/4, -v(c-2v)/(4c), 0} = {-0.025, 1/120, 0}
    v, c = -0.1, -0.3
    e = eigenvalues(jacobian(Params(v, c), (0.0, v / c, v / c)))
    tol = zero_tol(v, c)
    assert sum(1 for l in e if abs(l.real) <= tol and abs(l.imag) <= tol) == 1
    nonzero = sorted(l.real for l in e if abs(l.real) > tol)
    assert nonzero == pytest.approx([-0.025, 1.0 / 120.0], abs=1e-12)


def test_eigenvalue_sum_and_product_conservation():
    rng = np.random.default_rng(19)
    for _ in range(300):
        j = rng.normal(size=(3, 3)) * 10 ** rng.uniform(-2, 2)
        e = np.array(eigenvalues(j))
        scale = max(1.0, np.abs(e).max())
        assert abs(e.sum() - np.trace(j)) < 1e-9 * scale
        assert abs(np.prod(e) - np.linalg.det(j)) < 1e-9 * scale ** 3


def test_characteristic_residual_contract():
    rng = np.random.default_rng(43)
    for _ in range(500):
        j = rng.normal(size=(3, 3)) * 10 ** rng.uniform(-3, 3)
        a2, a1, a0 = char_coefficients(j)
        roots = np.array(eigenvalues(j))
        res = np.abs(((roots + a2) * roots + a1) * roots + a0).max()
        assert res < 1e-10 * (1.0 + np.abs(j).max() ** 3)


def test_agrees_with_lapack_oracle():
    rng = np.random.default_rng(47)
    for _ in range(500):
        j = rng.normal(size=(3, 3))
        mine = np.array(eigenvalues(j))
        ref = sorted(np.linalg.eigvals(j), key=lambda l: (-l.real, -l.imag))
        err = max(abs(a - b) for a, b in zip(mine, ref))
        assert err < 1e-10 * (1.0 + np.abs(mine).max())


def test_eigenvalues_reject_a_non_finite_entry():
    with pytest.raises(np.linalg.LinAlgError):
        eigenvalues(np.diag([np.inf, 1.0, 2.0]))


def tags(re, tol):
    """Stability tags of real-part triples (..., 3) with zero threshold tol."""
    codes, _ = stability_codes(np.moveaxis(np.asarray(re, dtype=float), -1, 0), tol)
    return [CLASS_BY_CODE[k] for k in np.ravel(codes)]


def test_classify_nodes_and_saddles():
    C = Classification
    cases = {
        (-1, -2, -3): C.STABLE_NODE,
        (1, 2, 3): C.UNSTABLE_NODE,
        (1, -2, 3): C.SADDLE,
        (0.0, -1, -2): C.NORMALLY_HYPERBOLIC_STABLE,
        (0.0, 1, 2): C.NORMALLY_HYPERBOLIC_UNSTABLE,
        (0.0, -1, 2): C.NORMALLY_HYPERBOLIC_SADDLE,
        (0.0, 0.0, 2): C.NON_HYPERBOLIC,
        (0.0, 0.0, 0.0): C.NON_HYPERBOLIC,
    }
    assert tags(list(cases), 0.0) == list(cases.values())
    # the threshold is inclusive: |re| <= tol counts as zero
    assert tags([(1e-9, -1, -2), (-1e-9, 1, 2), (2e-9, -1, -2)], 1e-9) == [
        C.NORMALLY_HYPERBOLIC_STABLE, C.NORMALLY_HYPERBOLIC_UNSTABLE, C.SADDLE]


def test_classify_on_mixed_interior_point_inside_stable_region():
    # v<0 with 2v < c < 0: both nonzero eigenvalues negative
    v, c = -0.2, -0.3
    e = eigenvalues(jacobian(Params(v, c), (0.0, v / c, v / c)))
    assert tags(np.real(e), zero_tol(v, c)) == [Classification.NORMALLY_HYPERBOLIC_STABLE]


def test_classify_scale_invariance():
    # the closed-form eigenvalues at k (v, c) against zero_tol(k v, k c), for
    # arbitrary k > 0, on and off the four lines v = c, c = 0, v = 0, c = 2v
    rng = np.random.default_rng(53)
    points = [rand_params(rng, c_min=1e-3, line_margin=1e-3) for _ in range(100)]
    for t in (0.3, -0.17, 1.0 / 3.0):
        points += [Params(t, t), Params(t, 0.0), Params(0.0, t), Params(t, 2 * t)]

    def all_tags(v, c):
        names = ("P1", "P2", "P5", "P7") + (("P3", "P6") if c != 0 else ())
        return tags([closed_form_eigs(n, v, c) for n in names], zero_tol(v, c))

    for p in points:
        base = all_tags(*p)
        for k in 10.0 ** rng.uniform(-6, 6, 5):
            assert all_tags(k * p.v, k * p.c) == base, (p, k)


def test_paper_closed_form_agreement_all_points():
    rng = np.random.default_rng(59)
    for _ in range(50):
        p = rand_params(rng, c_min=1e-3)
        for name, point in EQ_POINTS.items():
            e = eigenvalues(jacobian(p, point(*p)))
            assert multiset_close(e, closed_form_eigs(name, *p), 1e-9), (name, p, tuple(e))
