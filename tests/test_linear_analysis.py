import numpy as np
import pytest

from hawkdove import Params, classify, eigenvalues, field_3d, jacobian
from hawkdove.linear_analysis import (
    Classification,
    char_coefficients,
    eig_zero_tol,
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
    tol = eig_zero_tol(e)
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


def test_classify_nodes_and_saddles():
    C = Classification
    assert classify([-1, -2, -3]) is C.STABLE_NODE
    assert classify([1, 2, 3]) is C.UNSTABLE_NODE
    assert classify([1, -2, 3]) is C.SADDLE
    assert classify([0.0, -1, -2]) is C.NORMALLY_HYPERBOLIC_STABLE
    assert classify([0.0, 1, 2]) is C.NORMALLY_HYPERBOLIC_UNSTABLE
    assert classify([0.0, -1, 2]) is C.NORMALLY_HYPERBOLIC_SADDLE
    assert classify([0.0, 0.0, 2]) is C.NON_HYPERBOLIC
    assert classify([0.0, 0.0, 0.0]) is C.NON_HYPERBOLIC


def test_classify_uses_real_parts_of_complex_pairs():
    assert classify([-0.5 + 2j, -0.5 - 2j, -1]) is Classification.STABLE_NODE
    assert classify([0.5 + 2j, 0.5 - 2j, -1]) is Classification.SADDLE
    assert classify([complex(0.0, 3.0), complex(0.0, -3.0), 1.0]) is Classification.NON_HYPERBOLIC


def test_classify_on_mixed_interior_point_inside_stable_region():
    # v<0 with 2v < c < 0: both nonzero eigenvalues negative
    v, c = -0.2, -0.3
    e = eigenvalues(jacobian(Params(v, c), (0.0, v / c, v / c)))
    assert classify(e) is Classification.NORMALLY_HYPERBOLIC_STABLE


def test_classify_scale_invariance():
    rng = np.random.default_rng(53)
    for _ in range(200):
        triple = [rng.choice([0.0, rng.uniform(0.01, 1), -rng.uniform(0.01, 1)])
                  for _ in range(3)]
        base = classify(triple)
        for k in (10.0, 0.01, float(rng.uniform(0.5, 200))):
            assert classify([k * l for l in triple]) is base


def test_paper_closed_form_agreement_all_points():
    rng = np.random.default_rng(59)
    for _ in range(50):
        p = rand_params(rng, c_min=1e-3)
        for name, point in EQ_POINTS.items():
            e = eigenvalues(jacobian(p, point(*p)))
            assert multiset_close(e, closed_form_eigs(name, *p), 1e-9), (name, p, tuple(e))
