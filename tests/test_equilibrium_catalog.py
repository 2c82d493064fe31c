import math
import struct

import numpy as np
import pytest

from hawkdove import Params, catalog, field_3d, jacobian
from hawkdove.bifurcation import GridSpec, scan
from hawkdove.equilibrium_catalog import (
    CLASS_BY_CODE,
    CODE_BY_CLASS,
    EquilibriumId,
    _DIRECTION_TABLE,
    _DIRECTIONS,
    _classify,
    classification_codes,
    region_predicate,
)
from hawkdove.linear_analysis import Classification

from util import (
    closed_form_codes,
    closed_form_eigs,
    multiset_close,
    rand_params,
    reference_direction,
)

C = Classification
EQS = list(EquilibriumId)


def by_id(records):
    return {rec.id: rec for rec in records}


def test_catalog_dove_heavy_regime():
    recs = by_id(catalog(Params(0.1, 0.2)))
    assert recs[EquilibriumId.P1].classification is C.STABLE_NODE
    assert recs[EquilibriumId.P4].classification is C.STABLE_NODE
    assert recs[EquilibriumId.P5].classification is C.UNSTABLE_NODE
    assert recs[EquilibriumId.P7].classification is C.UNSTABLE_NODE


def test_catalog_hawk_favoured_regime():
    recs = by_id(catalog(Params(0.2, 0.1)))
    assert recs[EquilibriumId.P5].classification is C.STABLE_NODE
    assert recs[EquilibriumId.P1].classification is C.SADDLE
    assert recs[EquilibriumId.P7].classification is C.UNSTABLE_NODE


def test_catalog_negative_value_regime():
    recs = by_id(catalog(Params(-0.1, 0.2)))
    assert recs[EquilibriumId.P7].classification is C.STABLE_NODE
    assert recs[EquilibriumId.P1].classification is C.SADDLE
    assert recs[EquilibriumId.P5].classification is C.UNSTABLE_NODE


def test_catalog_undefined_at_zero_cost():
    recs = by_id(catalog(Params(0.4, 0.0)))
    for eq in (EquilibriumId.P3, EquilibriumId.P6):
        assert not recs[eq].defined
        assert recs[eq].classification is C.UNDEFINED
        assert recs[eq].eigenvalues is None
    # the rest are still live records
    assert recs[EquilibriumId.P5].defined


def test_every_defined_point_annihilates_the_field():
    # |c| floor keeps v/c (and with it the cancellation magnitude) bounded
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = rand_params(rng, c_min=0.02)
        tol = 1e-12 * (1.0 + abs(p.v) + abs(p.c))
        for rec in catalog(p):
            if rec.defined:
                assert max(abs(t) for t in field_3d(p, rec.coords)) < tol, (rec.id, p)


def test_numeric_classification_matches_region_predicates():
    rng = np.random.default_rng(67)
    for _ in range(200):
        p = rand_params(rng, line_margin=1e-3)
        for rec in catalog(p):
            if not rec.defined:
                continue
            claimed = region_predicate(rec.id, p)
            if claimed is not None:
                assert rec.classification is claimed, (rec.id, p, rec.classification)


def test_p5_and_p7_are_never_saddles():
    rng = np.random.default_rng(71)
    for _ in range(300):
        p = rand_params(rng)
        recs = by_id(catalog(p))
        assert recs[EquilibriumId.P5].classification is not C.SADDLE
        assert recs[EquilibriumId.P7].classification is not C.SADDLE


def test_simplex_membership_of_parameter_dependent_points():
    rng = np.random.default_rng(73)
    for _ in range(300):
        p = rand_params(rng, c_min=1e-2)
        q = p.v / p.c
        if min(abs(q), abs(q - 0.5), abs(q - 1.0)) < 1e-6:
            continue  # stay off the membership boundaries
        recs = by_id(catalog(p))
        assert recs[EquilibriumId.P3].in_simplex == (0.0 <= q <= 0.5)
        assert recs[EquilibriumId.P6].in_simplex == (0.0 <= q <= 1.0)


def test_coincidence_annotations():
    # v = 0: P3 and P6 collapse onto P7
    recs = by_id(catalog(Params(0.0, 0.3)))
    assert EquilibriumId.P7 in recs[EquilibriumId.P3].coincides_with
    assert EquilibriumId.P7 in recs[EquilibriumId.P6].coincides_with
    assert EquilibriumId.P3 in recs[EquilibriumId.P7].coincides_with
    # v = c: P6 collapses onto P5
    recs = by_id(catalog(Params(0.2, 0.2)))
    assert recs[EquilibriumId.P6].coincides_with == (EquilibriumId.P5,)
    assert recs[EquilibriumId.P5].coincides_with == (EquilibriumId.P6,)
    # c = 2v: P3 collapses onto P2
    recs = by_id(catalog(Params(0.1, 0.2)))
    assert recs[EquilibriumId.P3].coincides_with == (EquilibriumId.P2,)
    # off all coincidence lines: no annotations
    recs = by_id(catalog(Params(0.1, 0.25)))
    assert all(rec.coincides_with == () for rec in recs.values())


def test_coincidence_tolerance_is_scale_free():
    # P3 sits 5e-8 from P2 in share units at every scale: no coincidence
    base = [rec.coincides_with for rec in catalog(Params(1.0, 2.0 * (1 + 1e-7)))]
    assert base == [()] * 7
    for e in range(-9, 10):
        k = 10.0 ** e
        recs = catalog(Params(k, 2.0 * k * (1 + 1e-7)))
        assert [rec.coincides_with for rec in recs] == base, k


def test_catalog_coords_keep_signed_zero_and_overflow():
    P2, P3, P5, P6 = (EquilibriumId.P2, EquilibriumId.P3, EquilibriumId.P5, EquilibriumId.P6)
    for v in (-0.0, 0.3, 1e300):
        for c in (0.2, 0.0, 1e-300):
            recs = by_id(catalog(Params(v, c)))
            if (v, c) == (-0.0, 0.2):    # v/c = -0.0
                assert math.copysign(1.0, recs[P3].coords.y) == -1.0
                assert math.copysign(1.0, recs[P6].coords.x) == -1.0
            if (v, c) == (1e300, 1e-300):    # v/c overflows
                assert recs[P6].coords.x == math.inf and recs[P3].coords.y == math.inf
                # the other points keep their exact coordinates beside it
                assert recs[P5].coords.x == 1.0 and recs[P2].coords.y == 0.5
            for eq, rec in recs.items():
                if eq in (P3, P6):
                    assert rec.defined == (c != 0), (eq, v, c)
                else:
                    assert rec.defined and all(map(math.isfinite, rec.coords)), (eq, v, c)


# Coordinates of P1..P7 (columns) as rows x, y, z: a fixed value, or v/c
# where the second table is set.
_FIXED = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0],
                   [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]])
_IS_Q = np.array([[False, False, False, False, False, True, False],
                  [False, False, True, False, False, False, False],
                  [False, False, True, False, False, False, False]])


def _broadcast_coords(v, c):
    """(x, y, z, defined) of P1..P7 over 1-D (v, c), shape (7, n): the
    vectorised closed form, v/c divided where c != 0 into zeros."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    nonzero = c != 0
    with np.errstate(over="ignore"):
        q = np.divide(v, c, out=np.zeros(c.shape), where=nonzero)
    x, y, z = np.where(_IS_Q[:, :, None], q, _FIXED[:, :, None])
    return x, y, z, nonzero | ~_IS_Q.any(axis=0)[:, None]


def _coord_bit_cases():
    edges = [s * m for s in (1.0, -1.0) for m in
             (0.0, 5e-324, 1e-308, 1e-300, 0.1, 1.0, 1e300, 1.7976931348623157e308)]
    yield from ((v, c) for v in edges for c in edges)
    yield from ((math.ldexp(0.1, k), math.ldexp(0.2, k)) for k in range(-1074, 1024))
    rng = np.random.default_rng(89)
    mags = 10.0 ** rng.uniform(-300, 300, (400, 2))
    signs = rng.choice((-1.0, 1.0), (400, 2))
    yield from map(tuple, (mags * signs).tolist())
    yield 1, 2
    yield 3, 0


def test_catalog_coords_are_bit_identical_to_the_broadcast_closed_form():
    cases = list(_coord_bit_cases())
    x, y, z, defined = _broadcast_coords(*zip(*cases))
    for k, (v, c) in enumerate(cases):
        recs = catalog(Params(v, c))
        got = struct.pack("21d", *(t for rec in recs for t in rec.coords))
        want = struct.pack("21d", *(t for xyz in zip(x[:, k], y[:, k], z[:, k]) for t in xyz))
        assert got == want, (v, c)
        assert [rec.defined for rec in recs] == defined[:, k].tolist(), (v, c)


def test_degenerate_tags_on_bifurcation_lines():
    recs = by_id(catalog(Params(0.2, 0.2)))   # v = c
    assert recs[EquilibriumId.P1].classification is C.DEGENERATE
    assert recs[EquilibriumId.P5].classification is C.DEGENERATE
    recs = by_id(catalog(Params(0.1, 0.2)))   # c = 2v
    assert recs[EquilibriumId.P2].classification is C.DEGENERATE
    assert recs[EquilibriumId.P3].classification is C.DEGENERATE
    recs = by_id(catalog(Params(0.0, 0.3)))   # v = 0
    assert recs[EquilibriumId.P7].classification is C.DEGENERATE


def tags(p):
    return tuple(rec.classification for rec in catalog(p))


# Factors 10^e are not powers of two, so k * v rounds: the tags must not
# depend on where that rounding lands.
SCALES = [10.0 ** e for e in range(-12, 10)]


def test_catalog_tags_are_scale_invariant_and_match_the_scan():
    rng = np.random.default_rng(211)
    points = [rand_params(rng) for _ in range(40)]
    # on the four lines and at their crossing: k * (t, 2t) stays exactly on c = 2v
    for t in (0.3, -0.17, 1.0 / 3.0):
        points += [Params(t, t), Params(t, 2 * t), Params(0.0, t), Params(t, 0.0)]
    points.append(Params(0.0, 0.0))
    for p in points:
        base = tags(p)
        for k in SCALES:
            q = Params(k * p.v, k * p.c)
            scaled = tags(q)
            assert scaled == base, (p, k, scaled, base)
            # one classification path: the scan's codes at the same point
            codes = classification_codes(q.v, q.c)
            assert [CODE_BY_CLASS[t] for t in scaled] == [int(c) for c in codes]


@pytest.mark.parametrize("box", [(-0.3, 0.3), (-1e308, 1e308), (-5e-323, 5e-323)],
                         ids=["0.3", "1e308", "5e-323"])
def test_catalog_eigenvalues_are_the_scan_columns_at_every_node(box):
    # one classification path: at each node of a scanned box, catalog's
    # descending triples are the grid's _classify columns at that node, with
    # the triple of an UNDEFINED code as NaN, sorted and -0.0 turned to 0.0
    # the same way.  The codes are the scan's, which equal _classify's
    # wherever no eigenvalue overflows; where P3's or P6's does (the +-1e308
    # box), the scan keeps the direction's tag and catalog the overflowed value
    lo, hi = box
    m = scan(GridSpec(lo, hi, lo, hi, 21, 21))
    vv, cc = np.meshgrid(m.v_values, m.c_values, indexing="ij")
    columns, ref = _classify(vv, cc)
    codes = m.codes
    overflow = ~np.isfinite(columns).all(axis=0) & (cc != 0.0)
    assert np.array_equal(codes[~overflow], ref[~overflow])
    assert overflow.any() == (box[1] == 1e308)
    triples = np.stack(columns, axis=-1)
    triples[codes == CODE_BY_CLASS[C.UNDEFINED]] = np.nan
    triples = np.sort(triples, axis=-1)[..., ::-1] + 0.0
    for i, v in enumerate(m.v_values.tolist()):
        for j, c in enumerate(m.c_values.tolist()):
            for k, rec in enumerate(catalog(Params(v, c))):
                assert CODE_BY_CLASS[rec.classification] == codes[k, i, j], (v, c, rec.id)
                if rec.defined:
                    got = np.array(rec.eigenvalues).tobytes()
                    assert got == triples[k, i, j].tobytes(), (v, c, rec.id)


def test_classification_codes_shape_contract():
    # codes are (7,) + the broadcast shape of (v, c), whatever the shape
    # and however it is chunked
    assert classification_codes(0.1, 0.2).shape == (7,)
    assert np.array_equal(classification_codes(0.1, 0.2),
                          [CODE_BY_CLASS[rec.classification] for rec in catalog(Params(0.1, 0.2))])
    assert classification_codes([], []).shape == (7, 0)
    assert classification_codes(np.zeros((0, 3)), 0.2).shape == (7, 0, 3)
    v, c = np.linspace(-0.3, 0.3, 31), np.linspace(-0.3, 0.3, 29)
    vv, cc = np.meshgrid(v, c, indexing="ij")
    assert np.array_equal(classification_codes(v[:, None], c), classification_codes(vv, cc))
    # rows of 9000 nodes, wider than a block, are split into blocks of
    # their own, the last short, under two levels of whole slices; one
    # unblocked _classify call is the reference
    rng = np.random.default_rng(233)
    v, c = rng.uniform(-1.0, 1.0, (2, 2, 3, 9000))
    codes = classification_codes(v, c)
    assert codes.shape == (7, 2, 3, 9000)
    assert np.array_equal(codes, _classify(v, c)[1])


def test_non_finite_parameters_are_undefined_for_all_seven_points():
    # P7's eigenvalues do not involve c, and the zero threshold
    # 1e-9 max(|v|, |c|) is then NaN or inf: without a mask of its own a
    # non-finite c left P7 tagged UnstableNode or Degenerate
    undefined = CODE_BY_CLASS[C.UNDEFINED]
    for v, c in ((np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1), (0.1, -np.inf),
                 (-np.inf, np.inf)):
        with np.errstate(all="raise"):
            codes = classification_codes(v, c)
        assert (codes == undefined).all(), (v, c, codes)
    # a grid with one NaN column: that column is all UNDEFINED, the rest
    # as on the grid without it
    v = np.linspace(-0.3, 0.3, 7)[:, None]
    c = np.linspace(-0.3, 0.3, 9)
    c_nan = c.copy()
    c_nan[4] = np.nan
    codes = classification_codes(v, c_nan)
    assert (codes[:, :, 4] == undefined).all()
    rest = np.arange(9) != 4
    assert np.array_equal(codes[:, :, rest], classification_codes(v, c)[:, :, rest])


def test_small_scale_catalog_matches_closed_form():
    # (1e-7, 2e-7) sits on c = 2v, where P2 and P3 pick up an extra zero
    # eigenvalue; P6 keeps its two structural zeros
    p = Params(1e-7, 2e-7)
    recs = by_id(catalog(p))
    assert recs[EquilibriumId.P2].classification is C.DEGENERATE
    assert recs[EquilibriumId.P3].classification is C.DEGENERATE
    assert recs[EquilibriumId.P6].classification is C.NON_HYPERBOLIC
    for eq, rec in recs.items():
        assert multiset_close(rec.eigenvalues, closed_form_eigs(eq.value, *p), 1e-15 * p.c)
    assert tags(p) == tags(Params(0.1, 0.2))


def test_p1_and_p4_get_bit_identical_eigenvalues_and_tags():
    # swapping y and z maps P1's Jacobian onto P4's
    rng = np.random.default_rng(223)
    points = [rand_params(rng) for _ in range(1500)]
    points += [Params(float(v), float(c))
               for v, c in 10.0 ** rng.uniform(-12, 9, (500, 2)) * rng.choice([-1, 1], (500, 2))]
    points += [Params(0.2, 0.2), Params(0.1, 0.2), Params(0.0, 0.3), Params(0.3, 0.0),
               Params(0.0, 0.0), Params(-0.0, 0.1)]
    for p in points:
        recs = by_id(catalog(p))
        p1, p4 = recs[EquilibriumId.P1], recs[EquilibriumId.P4]
        assert np.array(p1.eigenvalues).tobytes() == np.array(p4.eigenvalues).tobytes(), p
        assert p1.classification is p4.classification, p


def test_overflowing_jacobian_is_not_an_error_and_matches_predicate():
    # v/c = 1e300 overflows P3's and P6's Jacobian entries, but not the
    # point's coordinates.  c = 1e-300 is within the zero threshold
    # 1e-9 max(|v|, |c|) of c = 0, so all seven tags are the ray (1, 0)'s,
    # P3 and P6 Undefined, as at (1e300, 1e-300)
    p = Params(1.0, 1e-300)
    recs = by_id(catalog(p))
    codes = classification_codes([1.0, 0.1], [1e-300, 0.3])
    ray = _DIRECTION_TABLE[:, _DIRECTIONS.index((1.0, 0.0))]
    assert [CODE_BY_CLASS[rec.classification] for rec in recs.values()] == ray.tolist()
    assert codes[:, 0].tolist() == ray.tolist() == classification_codes(1e300, 1e-300).tolist()
    for eq in (EquilibriumId.P3, EquilibriumId.P6):
        assert recs[eq].defined and recs[eq].classification is C.UNDEFINED
    assert recs[EquilibriumId.P5].classification is C.STABLE_NODE
    assert codes[EQS.index(EquilibriumId.P3), 1] == CODE_BY_CLASS[C.NORMALLY_HYPERBOLIC_SADDLE]
    # v v / (4c) overflows at (1e300, 1e292), while c clears the threshold
    # and the eigenvalues, about 5e307, are finite: the predicate's tags
    p = Params(1e300, 1e292)
    recs = by_id(catalog(p))
    assert recs[EquilibriumId.P3].classification is C.NORMALLY_HYPERBOLIC_UNSTABLE
    assert recs[EquilibriumId.P6].classification is C.NON_HYPERBOLIC
    for eq in (EquilibriumId.P3, EquilibriumId.P6):
        assert recs[eq].classification is region_predicate(eq, p)
        assert all(math.isfinite(l) for l in recs[eq].eigenvalues)


def closed_form_tag(eq, p):
    return CLASS_BY_CODE[int(closed_form_codes(eq, *p))]


def test_block_eigenvalues_match_lapack_and_closed_form_tags():
    # the closed-form table against a full LAPACK solve of the Jacobian
    rng = np.random.default_rng(227)
    points = [Params(k * p.v, k * p.c)
              for p, k in ((rand_params(rng), 10.0 ** rng.uniform(-6, 6)) for _ in range(500))]
    for t in (0.3, -0.17, 1.0 / 3.0, 7e-5, -2.5e4):
        points += [Params(t, t), Params(t, 0.0), Params(0.0, t), Params(t, 2 * t)]
        points += [Params(t, t * (1 + 2.0 ** -40)), Params(t, 2 * t * (1 + 2.0 ** -40))]
    for p in points:
        tol = 1e-10 * max(abs(p.v), abs(p.c))
        for rec in catalog(p):
            if not rec.defined:
                continue
            assert all(type(l) is float for l in rec.eigenvalues), (rec.id, p)
            lapack = np.linalg.eigvals(jacobian(p, rec.coords))
            assert multiset_close(lapack, rec.eigenvalues, tol), (rec.id, p)
            assert rec.classification is closed_form_tag(rec.id, p), (rec.id, p)


def test_structural_zeros_are_exact_at_any_v_over_c():
    # independent magnitudes put |v/c| anywhere in 1e-23..1e23, where a
    # rounded structural zero would exceed the zero threshold
    rng = np.random.default_rng(229)
    v, c = 10.0 ** rng.uniform(-12, 11, (2, 20000)) * rng.choice([-1.0, 1.0], (2, 20000))
    assert (np.abs(v / c) >= 1e7).sum() > 4000
    columns, codes = _classify(v, c)
    eigs = np.stack(columns, axis=-1)       # (7, 20000, 3)
    p3, p6 = EQS.index(EquilibriumId.P3), EQS.index(EquilibriumId.P6)
    assert ((eigs[p3] == 0.0).sum(axis=-1) >= 1).all()
    assert ((eigs[p6] == 0.0).sum(axis=-1) >= 2).all()
    assert not np.isin(codes[p3], [CODE_BY_CLASS[t] for t in (
        C.STABLE_NODE, C.UNSTABLE_NODE, C.SADDLE)]).any()
    for k, eq in enumerate(EQS):
        assert (codes[k] == closed_form_codes(eq, v, c)).all(), eq


def test_power_of_two_scaling_is_exact():
    points = [(0.1, 0.2), (0.3, 0.3), (0.0, 0.25), (0.25, 0.0), (-0.17, 0.4),
              (0.6, -0.35), (-0.2, -0.3), (0.45, 0.1), (-0.7, -0.2), (0.05, 0.9)]
    v, c = np.array(points).T
    base = classification_codes(v, c)
    for m in range(-1000, 1001, 25):
        assert classification_codes(np.ldexp(v, m), np.ldexp(c, m)).tobytes() == base.tobytes(), m
    # 2^1024 puts max(|v|, |c|) at or above 2^1023, where 2^frexp(...) is not
    # a float; the codes are still the base codes, P3 at (-0.7, -0.2) too,
    # whose eigenvalue -1.05 overflows as -1.05 * 2^1024
    assert classification_codes(np.ldexp(v, 1024), np.ldexp(c, 1024)).tobytes() == base.tobytes()
    # at 2^996 an unscaled a * d of the block overflows; an eigenvalue past
    # the float range is -inf, as ldexp gives it
    for m in (996, 1024):
        for p in points:
            scaled = catalog(Params(np.ldexp(p[0], m), np.ldexp(p[1], m)))
            for rec, big in zip(catalog(Params(*p)), scaled):
                if big.classification is not C.UNDEFINED:
                    with np.errstate(over="ignore"):
                        want = tuple(np.ldexp(l, m) for l in rec.eigenvalues)
                    assert tuple(big.eigenvalues) == want, p


def test_overflowing_eigenvalue_is_undefined():
    # P3's block eigenvalue is about v q / 2 with q = v / c = 1e10: 5e309 overflows
    recs = by_id(catalog(Params(1e300, 1e290)))
    assert recs[EquilibriumId.P3].classification is Classification.UNDEFINED
    assert all(np.isnan(l) for l in recs[EquilibriumId.P3].eigenvalues)
    assert recs[EquilibriumId.P7].classification is Classification.UNSTABLE_NODE


def test_predicate_made_no_claim_on_lines():
    assert region_predicate(EquilibriumId.P1, Params(0.2, 0.2)) is None
    assert region_predicate(EquilibriumId.P5, Params(0.3, 0.3)) is None
    assert region_predicate(EquilibriumId.P7, Params(0.0, 0.4)) is None
    # the P2 regions the printed union omits
    assert region_predicate(EquilibriumId.P2, Params(0.1, 0.5)) is None
    assert region_predicate(EquilibriumId.P2, Params(-0.2, 0.3)) is None


def _float_range_pairs(rng):
    """About 20k seeded (v, c) pairs over the float range: log-uniform
    magnitudes at all angles; pairs exactly on each of v = c, c = 0, v = 0
    and c = 2v, and at relative distances log-uniform in 1e-12..1e-6 from
    each; and +-0.0, subnormals and max(|v|, |c|) at or above 2^1000, up
    to the largest float."""
    def signed_magnitudes(n, lo=-1074.0, hi=1023.0):
        return np.exp2(rng.uniform(lo, hi, n)) * rng.choice([-1.0, 1.0], n)

    n = 5000
    r, theta = np.exp2(rng.uniform(-1074.0, 1023.0, n)), rng.uniform(0.0, 2 * np.pi, n)
    vs, cs = [r * np.cos(theta)], [r * np.sin(theta)]
    t = signed_magnitudes(4 * 250, hi=1022.0).reshape(4, -1)
    vs += [t[0], t[1], 0.0 * t[2], t[3]]
    cs += [t[0], 0.0 * t[1], t[2], 2.0 * t[3]]
    m = 3000
    t = signed_magnitudes(4 * m, hi=1021.0).reshape(4, -1)
    delta = 10.0 ** rng.uniform(-12.0, -6.0, (4, m)) * rng.choice([-1.0, 1.0], (4, m))
    vs += [t[0], t[1], delta[2] * t[2], t[3]]
    cs += [t[0] * (1.0 + delta[0]), delta[1] * t[1], t[2], 2.0 * t[3] * (1.0 + delta[3])]
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.0 ** -1022,
                        0.3, -0.7, 2.0 ** 1000, -2.0 ** 1000, 1.7e308, -1.7e308,
                        1.7976931348623157e308, -1.7976931348623157e308])
    sv, sc = np.meshgrid(special, special, indexing="ij")
    vs += [sv.ravel()]
    cs += [sc.ravel()]
    huge = signed_magnitudes(2 * 1000, lo=999.0, hi=1023.0).reshape(2, -1)
    vs += [huge[0], 0.3 * huge[1]]
    cs += [huge[1] * rng.uniform(-1.0, 1.0, 1000), huge[0]]
    return np.concatenate(vs), np.concatenate(cs)


def test_every_node_takes_the_tags_of_its_exact_direction():
    # A node's seven tags are the column of _DIRECTION_TABLE of its
    # direction, which reference_direction finds from the exact signs of
    # the four line forms.  Classified by its eigenvalues against one zero
    # threshold, a node 1e-9..8e-9 from v = c, c = 0 or v = 0 got seven
    # tags of no direction, and near the top of the float range P3 and P6
    # were Undefined where an eigenvalue overflowed.
    v, c = _float_range_pairs(np.random.default_rng(241))
    assert v.size > 20000
    codes = classification_codes(v, c)
    want = _DIRECTION_TABLE[:, [reference_direction(a, b) for a, b in zip(v.tolist(), c.tolist())]]
    bad = np.flatnonzero((codes != want).any(axis=0))
    assert bad.size == 0, [(v[i], c[i]) for i in bad[:5]]
    # the point path gives the grid's codes
    for i in range(0, v.size, 7):
        assert np.array_equal(classification_codes(v[i], c[i]), codes[:, i]), (v[i], c[i])
    # every one of the 17 directions occurs
    directions = {tuple(col) for col in codes.T.tolist()}
    assert directions == {tuple(col) for col in _DIRECTION_TABLE.T.tolist()}


def test_tags_are_exact_under_every_power_of_two_scaling():
    # the codes at 2^k (v, c) are the codes at (v, c) for each k at which
    # both stay exact: no rounding of v or c, no overflow
    v, c = _float_range_pairs(np.random.default_rng(243))
    base = classification_codes(v, c)
    checked = 0
    for k in [*range(-2150, 2151, 43), -1, 1]:
        with np.errstate(over="ignore"):
            sv, sc = np.ldexp(v, k), np.ldexp(c, k)
            exact = (np.ldexp(sv, -k) == v) & (np.ldexp(sc, -k) == c)
        exact &= np.isfinite(sv) & np.isfinite(sc)
        scaled = classification_codes(sv[exact], sc[exact])
        bad = np.flatnonzero((scaled != base[:, exact]).any(axis=0))
        assert bad.size == 0, (k, [(v[exact][i], c[exact][i]) for i in bad[:5]])
        checked += exact.sum()
    assert checked > 40 * v.size


def test_a_non_finite_pair_has_no_direction():
    # all seven tags are Undefined wherever v or c is NaN or +-inf, with no
    # warning, on the grid path and the point path alike
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -0.5, 1e308, -1e308, 5e-324]
    pairs = [(a, b) for a in values for b in values
             if not (math.isfinite(a) and math.isfinite(b))]
    v, c = np.array(pairs).T
    undefined = CODE_BY_CLASS[C.UNDEFINED]
    with np.errstate(all="raise"):
        assert (classification_codes(v, c) == undefined).all()
        for a, b in pairs:
            assert (classification_codes(a, b) == undefined).all(), (a, b)


def test_sector_columns_of_the_direction_table_agree_with_the_region_predicate():
    # each sector's column of _DIRECTION_TABLE, found by reference_direction,
    # is the transcribed region wherever the predicate makes a claim; every
    # sector is visited
    rng = np.random.default_rng(251)
    seen = set()
    for _ in range(400):
        v, c = rand_params(rng, line_margin=1e-3)
        index = reference_direction(v, c)
        seen.add(index)
        for k, eq in enumerate(EQS):
            claim = region_predicate(eq, Params(v, c))
            if claim is not None:
                assert CLASS_BY_CODE[_DIRECTION_TABLE[k, index]] is claim, (eq, v, c)
    assert seen == set(range(1, 16, 2))
