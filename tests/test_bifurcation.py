import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from hawkdove import Params, detect_transitions, jacobian, linearized_field, scan
from hawkdove.bifurcation import (
    BifurcationLine,
    DEFAULT_GRID,
    GridSpec,
    LineId,
    _distinct,
    write_region_csv,
)
from hawkdove.cli import _REGION_COLORS, _region_svg
from hawkdove.equilibrium_catalog import (
    CLASS_BY_CODE,
    CODE_BY_CLASS,
    _CHUNK_NODES,
    EquilibriumId,
    _classify,
    classification_codes,
)
from hawkdove.linear_analysis import Classification
from hawkdove.svg import Canvas

from util import closed_form_codes, run_fresh, traced_peak

C = Classification
EQS = list(EquilibriumId)


def tag_at(m, i, j, eq):
    return CLASS_BY_CODE[m.codes[EQS.index(eq), i, j]]


def tags_at(m, i, j):
    return tuple(CLASS_BY_CODE[k] for k in m.codes[:, i, j])


def test_scan_shape_2x2():
    m = scan(GridSpec(0.05, 0.06, 0.2, 0.21, 2, 2))
    assert m.codes.shape == (7, 2, 2)
    assert m.codes.size == 28


def test_scan_classifies_named_nodes():
    m = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 7, 7))
    # nodes: -0.3, -0.2, ..., 0.3
    i01, i02 = 4, 5   # v = 0.1, v = 0.2
    assert tag_at(m, i01, 5, EquilibriumId.P1) is C.STABLE_NODE     # (0.1, 0.2)
    assert tag_at(m, i02, 4, EquilibriumId.P1) is C.SADDLE          # (0.2, 0.1)


def test_scan_uniform_region_unstable_p1():
    # v < 0 and c < v everywhere
    m = scan(GridSpec(-0.3, -0.2, -0.6, -0.5, 4, 4))
    k = EQS.index(EquilibriumId.P1)
    assert np.all(m.codes[k] == CODE_BY_CLASS[C.UNSTABLE_NODE])


def test_scan_is_deterministic():
    spec = GridSpec(-0.25, 0.25, -0.25, 0.25, 31, 17)
    assert np.array_equal(scan(spec).codes, scan(spec).codes)


def test_scan_chunks_match_one_whole_grid_classification():
    spec = GridSpec(-0.3, 0.3, -0.3, 0.3, 201, 101)
    assert spec.n_v * spec.n_c > 2 * _CHUNK_NODES      # more than two chunks, the last short
    m = scan(spec)
    # one unchunked _classify call: classification_codes chunks too
    vv, cc = np.meshgrid(m.v_values, m.c_values, indexing="ij")
    assert np.array_equal(m.codes, _classify(vv, cc)[1])


def test_scan_of_rows_wider_than_a_chunk_matches_one_whole_grid_classification():
    # each row split into chunks of its own, the last short
    spec = GridSpec(-0.3, 0.3, -0.3, 0.3, 3, 5000)
    assert spec.n_c > _CHUNK_NODES
    m = scan(spec)
    vv, cc = np.meshgrid(m.v_values, m.c_values, indexing="ij")
    assert np.array_equal(m.codes, _classify(vv, cc)[1])


@pytest.mark.parametrize("n_v, n_c", [(400, 401), (2, 100000), (100000, 2)])
def test_a_scan_holds_little_beyond_its_codes_whatever_the_grid_shape(n_v, n_c):
    # the classification works in chunks of at most _CHUNK_NODES nodes, in
    # one scratch array of 42 floats per chunk node, whatever the shape: a
    # (2, 100000) grid in rows cut into chunks, a (100000, 2) one in runs
    # of rows.  Chunked by whole rows only, the (2, 100000) scan peaked at
    # 50.7 MB beyond its codes and axes.
    scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 3, 3))   # one-time allocations fall outside
    peak, m = traced_peak(scan, GridSpec(-0.3, 0.3, -0.3, 0.3, n_v, n_c))
    held = m.codes.nbytes + m.v_values.nbytes + m.c_values.nbytes
    assert peak - held < 2 * 2**20, peak - held


def test_classification_codes_holds_little_beyond_its_codes():
    # a broadcast (v, c) pair is classified chunk by chunk, without a
    # meshgrid or an eigenvalue table of the whole grid (77.9 MB here)
    v, c = np.linspace(-0.3, 0.3, 400), np.linspace(-0.3, 0.3, 401)
    classification_codes(v[:3, None], c[:3])
    peak, codes = traced_peak(classification_codes, v[:, None], c)
    assert codes.shape == (7, 400, 401)
    assert peak - codes.nbytes < 2 * 2**20, peak - codes.nbytes


def test_classification_codes_on_a_line_holds_little_beyond_its_codes():
    # every node on v = c is near a line, so none takes the sector table:
    # each block's nodes go through _classify at most _CHUNK_NODES at a
    # time, in the one scratch array.  Classified in one _classify call per
    # 8192-node block, they would take a 2.75 MB table.
    v = np.linspace(-0.3, 0.3, 100000)
    classification_codes(v[:3], v[:3])
    peak, codes = traced_peak(classification_codes, v, v)
    assert (codes[EQS.index(EquilibriumId.P5)] == CODE_BY_CLASS[C.DEGENERATE]).all()
    assert peak - codes.nbytes < 2 * 2**20, peak - codes.nbytes


def test_a_scan_on_the_line_c_eq_0_holds_little_beyond_its_codes():
    # a 2 x 100000 grid on c = 0: every node falls back to _classify
    scan(GridSpec(-0.3, 0.3, 0.0, 0.0, 3, 3))
    peak, m = traced_peak(scan, GridSpec(-0.3, 0.3, 0.0, 0.0, 2, 100000))
    assert (m.codes[EQS.index(EquilibriumId.P3)] == CODE_BY_CLASS[C.UNDEFINED]).all()
    held = m.codes.nbytes + m.v_values.nbytes + m.c_values.nbytes
    assert peak - held < 2 * 2**20, peak - held


def test_a_fresh_scan_faults_in_few_pages_beyond_its_codes(tmp_path):
    # The scan's eigenvalue table and columns live in one scratch array for
    # the whole scan, and each of its other temporaries stays under glibc's
    # default mmap threshold.  Allocated afresh for each chunk, the table
    # went back to the OS and was faulted in again every time: 48k-66k minor
    # faults for the 801x801 scan, against 600-830 now.  Rows wider than a
    # chunk once made chunks of one whole row, whose temporaries passed the
    # threshold: 44.9k faults for the 201x5000 scan, against about 1k now.
    # The bound allows each page of the codes two faults, and 500 more.
    # glibc's thresholds for returning freed memory depend on what the
    # process did before: compiling the modules from source raises them and
    # hid a churn of 26k-31k faults (4096-node chunks) that loading them
    # from cached bytecode showed.  So each grid is scanned twice, each time
    # in a fresh interpreter whose bytecode cache is a new directory: first
    # compiled from source, then from the cache.
    pytest.importorskip("resource")
    for n_v, n_c in ((801, 801), (201, 5000)):
        cache_dir = tmp_path / f"{n_v}x{n_c}"
        cache = {"PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": str(cache_dir)}
        for _ in range(2):
            faults, nbytes = map(int, run_fresh("-c", f"""if True:
                import resource
                from hawkdove.bifurcation import GridSpec, scan
                spec = GridSpec(-0.3, 0.3, -0.3, 0.3, {n_v}, {n_c})
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                codes = scan(spec).codes
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, codes.nbytes)
                """, env=cache).split())
            assert faults < 2 * (nbytes // 4096) + 500, (n_v, n_c, faults)
        assert list(cache_dir.rglob("bifurcation*.pyc"))


def test_distinct_is_np_unique_in_value_and_dtype():
    rng = np.random.default_rng(29)
    for dtype in (np.int32, np.int64):
        info = np.iinfo(dtype)
        cases = [np.empty(0, dtype), np.array([7], dtype), np.full(40, -3, dtype),
                 rng.integers(-4, 4, 1000).astype(dtype),
                 rng.integers(info.min, info.max, 1000, endpoint=True).astype(dtype),
                 rng.integers(0, 9, (30, 17)).astype(dtype)]
        for a in cases:
            got, want = _distinct(a), np.unique(a)
            assert got.dtype == want.dtype and np.array_equal(got, want), (dtype, a)


def test_scan_homogeneity_power_of_two():
    # doubling the bounds scales every node's (v, c) exactly, and all
    # predicates are homogeneous, so the tag pattern is identical
    a = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 21, 21))
    b = scan(GridSpec(-0.6, 0.6, -0.6, 0.6, 21, 21))
    assert np.array_equal(a.codes, b.codes)


def test_scan_codes_are_scale_invariant():
    # Symmetric boxes with 2^m + 1 nodes put a node exactly on v = 0 and on
    # c = 0 at every scale (linspace's step is then exact); nodes on v = c
    # and c = 2v land within rounding of the line.  Factors 10^e are not
    # powers of two, so every other node moves by rounding too.
    spec = GridSpec(-0.3, 0.3, -0.5, 0.5, 33, 65)
    base = scan(spec)
    assert {bl.id for bl in detect_transitions(base)} == {
        LineId.VEQC, LineId.CEQ0, LineId.VEQ0, LineId.CEQ2V}
    for e in range(-12, 10):
        k = 10.0 ** e
        scaled = scan(GridSpec(k * spec.v_min, k * spec.v_max, k * spec.c_min, k * spec.c_max,
                               spec.n_v, spec.n_c))
        assert np.array_equal(scaled.codes, base.codes), k


def test_scaled_boxes_keep_nodes_on_the_zero_lines():
    # linspace alone puts the middle c node of the +-3e-6 box at 4.2e-22,
    # where P3 and P6 come out defined with v/c ~ 1e16
    spec = GridSpec(-0.3, 0.3, -0.3, 0.3, 201, 201)
    base = scan(spec)
    for k in (1e-5, 1e-3, 10.0, 1e7):
        scaled = scan(GridSpec(k * spec.v_min, k * spec.v_max, k * spec.c_min, k * spec.c_max,
                               spec.n_v, spec.n_c))
        assert np.array_equal(scaled.codes, base.codes), k


def test_box_whose_width_overflows_has_finite_nodes():
    # linspace computes hi - lo, which overflows here: every node came out
    # NaN and every tag Undefined
    spec = GridSpec(-1e308, 1e308, -1e308, 1e308, 41, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = scan(spec)
        for axis in (m.v_values, m.c_values):
            assert np.all(np.isfinite(axis))
            assert axis[0] == -1e308 and axis[-1] == 1e308 and axis[20] == 0.0
            assert np.all(np.diff(axis) > 0)
        from hawkdove import catalog
        rng = np.random.default_rng(5)
        nodes = [(0, 0), (40, 40), (0, 40), (20, 20)] + [
            tuple(int(t) for t in rng.integers(41, size=2)) for _ in range(12)]
        for i, j in nodes:
            recs = {rec.id: rec.classification
                    for rec in catalog(Params(float(m.v_values[i]), float(m.c_values[j])))}
            assert tags_at(m, i, j) == tuple(recs[eq] for eq in EQS), (i, j)


def test_box_near_the_top_of_the_float_range_keeps_the_unit_box_tags():
    # from about +-8e307 some P3 and P6 tags are Undefined, because an
    # eigenvalue overflows; below that the tags are scale invariant
    base = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 41, 41))
    wide = scan(GridSpec(-1e307, 1e307, -1e307, 1e307, 41, 41))
    assert np.array_equal(wide.codes, base.codes)


def test_transition_lines_are_scale_invariant():
    # the on-line tolerance is relative to the edge's nodes; an absolute
    # floor put every changed edge of the +-3e-14 box on all four lines
    def lines(b):
        return detect_transitions(scan(GridSpec(-b, b, -b, b, 41, 41)))
    base = lines(0.3)
    assert [len(bl.affected) for bl in base] == [15, 11, 15, 15]
    for b in (3e-14, 3e-6, 3e11):
        assert lines(b) == base, b


def test_transition_lines_keep_the_unit_box_lines_at_the_top_of_the_float_range():
    # a midpoint summed before halving overflowed to inf, its distance to
    # v = c came out NaN, and changes at nodes exactly on v = c fell to
    # UNEXPLAINED; the only changes left there are tags that overflow
    def lines(b):
        return {bl.id: bl.affected
                for bl in detect_transitions(scan(GridSpec(-b, b, -b, b, 41, 41)))}
    base, huge = lines(0.3), lines(1e308)
    unexplained = huge.pop(LineId.UNEXPLAINED, ())
    assert huge == base and LineId.UNEXPLAINED not in base
    assert all("Undefined" in desc.split("<->") for _, desc in unexplained)


@pytest.mark.parametrize("half_width", [5e-323, 1e-310])
def test_subnormal_boxes_keep_the_integer_box_codes_and_lines(half_width):
    # The nodes of the +-5e-323 box are the integers -10..10 times the
    # smallest subnormal: the +-10 box's codes, and its lines once each edge
    # is attributed at a normal scale (an unscaled on-line tolerance
    # underflowed to 0 and reported 16/14/17/19 entries).  On the +-1e-310
    # box the zero threshold of the axis underflowed too: the middle node
    # sat 9 subnormal steps off zero, and 41 nodes took other codes.
    base = scan(GridSpec(-10, 10, -10, 10, 21, 21))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = scan(GridSpec(-half_width, half_width, -half_width, half_width, 21, 21))
        lines = detect_transitions(m)
    assert m.v_values[10] == 0.0 and m.c_values[10] == 0.0
    assert np.array_equal(m.codes, base.codes)
    assert lines == detect_transitions(base)
    assert [len(bl.affected) for bl in lines] == [15, 11, 15, 15]


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
def test_scan_codes_match_closed_form_and_catalog_over_chunks(exponent):
    # more than two chunks, the last short, at 2^m times the +-0.3 box:
    # scaling by a power of two is exact, so the nodes are 2^m times the
    # unit box's and every code is the closed-form code at the unit node
    unit = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 121, 101))
    assert unit.codes.shape[1] * unit.codes.shape[2] > 2 * _CHUNK_NODES
    spec = GridSpec(*(math.ldexp(b, exponent) for b in unit.spec[:4]), *unit.spec[4:])
    m = scan(spec)
    assert np.array_equal(np.ldexp(m.v_values, -exponent), unit.v_values)
    assert np.array_equal(np.ldexp(m.c_values, -exponent), unit.c_values)
    v, c = np.meshgrid(unit.v_values, unit.c_values, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, eq in enumerate(EQS):
            expected = closed_form_codes(eq, v, c)
            if eq in (EquilibriumId.P3, EquilibriumId.P6):
                expected = np.where(c == 0.0, CODE_BY_CLASS[C.UNDEFINED], expected)
            assert np.array_equal(m.codes[k], expected), eq
    from hawkdove import catalog
    rng = np.random.default_rng(131)
    for i, j in zip(rng.integers(spec.n_v, size=20), rng.integers(spec.n_c, size=20)):
        recs = catalog(Params(float(m.v_values[i]), float(m.c_values[j])))
        assert tags_at(m, i, j) == tuple(rec.classification for rec in recs), (i, j)


def test_transitions_across_diagonal_attributed_to_veqc():
    # rectangular grid straddling v = c and no other line (c < 2v throughout)
    m = scan(GridSpec(0.3, 0.4, 0.25, 0.45, 2, 3))
    lines = detect_transitions(m)
    ids = {bl.id for bl in lines}
    assert ids == {LineId.VEQC}
    p1 = {desc for eq, desc in lines[0].affected if eq is EquilibriumId.P1}
    assert "Saddle<->StableNode" in p1


def test_transitions_empty_inside_one_region():
    m = scan(GridSpec(0.05, 0.08, 0.3, 0.31, 3, 3))
    assert detect_transitions(m) == []


def test_transitions_across_c_equals_2v():
    m = scan(GridSpec(0.1, 0.1, 0.15, 0.25, 1, 2))
    lines = detect_transitions(m)
    assert {bl.id for bl in lines} == {LineId.CEQ2V}
    affected = lines[0].affected
    assert all(eq is EquilibriumId.P3 for eq, _ in affected)
    assert any("NormallyHyperbolicUnstable" in desc for _, desc in affected)


def test_on_line_nodes_split_transitions_but_stay_attributed():
    # 5x5 square grid has nodes exactly on the diagonal: Degenerate there
    m = scan(GridSpec(0.05, 0.25, 0.05, 0.25, 5, 5))
    k = EQS.index(EquilibriumId.P1)
    diag = [m.codes[k, i, i] for i in range(5)]
    assert all(d == CODE_BY_CLASS[C.DEGENERATE] for d in diag)
    assert LineId.UNEXPLAINED not in {bl.id for bl in detect_transitions(m)}


def test_region_csv_round_trip(tmp_path):
    spec = GridSpec(-0.2, 0.2, -0.1, 0.3, 5, 4)
    m = scan(spec)
    path = tmp_path / "map.csv"
    write_region_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,c,P1,P2,P3,P4,P5,P6,P7"
    assert len(lines) == 1 + spec.n_v * spec.n_c
    # row-major in v then c, floats round-trip exactly
    row = 1
    for i in range(spec.n_v):
        for j in range(spec.n_c):
            parts = lines[row].split(",")
            assert float(parts[0]) == m.v_values[i]
            assert float(parts[1]) == m.c_values[j]
            tags = tuple(CLASS_BY_CODE[k].value for k in m.codes[:, i, j])
            assert tuple(parts[2:]) == tags
            row += 1


def test_scan_matches_scalar_catalog_path():
    from hawkdove import catalog
    spec = GridSpec(-0.29, 0.31, -0.17, 0.23, 5, 5)
    m = scan(spec)
    rng = np.random.default_rng(127)
    for _ in range(10):
        i = int(rng.integers(spec.n_v))
        j = int(rng.integers(spec.n_c))
        p = Params(float(m.v_values[i]), float(m.c_values[j]))
        recs = {rec.id: rec.classification for rec in catalog(p)}
        assert tags_at(m, i, j) == tuple(recs[eq] for eq in EQS)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 0, 5).validate()
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0, 1, 5, 5).validate()
    with pytest.raises(ValueError):
        GridSpec(0, float("inf"), 0, 1, 5, 5).validate()
    # a 1xN sweep is legal
    m = scan(GridSpec(0.1, 0.1, -0.3, 0.3, 1, 7))
    assert m.codes.shape == (7, 1, 7)


def test_linearized_origin_system_is_uncoupled_diagonal():
    mat, aff = linearized_field(Params(0.1, 0.5), EquilibriumId.P7)
    assert np.array_equal(mat, np.diag([0.05, 0.025, 0.025]))
    assert np.all(aff == 0.0)
    # destabilized exactly when v = 0
    mat, _ = linearized_field(Params(0.0, 0.5), EquilibriumId.P7)
    assert np.all(mat == 0.0)


def test_linearized_hawk_vertex_vanishes_on_diagonal():
    mat, aff = linearized_field(Params(0.2, 0.2), EquilibriumId.P5)
    assert np.all(mat == 0.0)
    assert np.all(aff == 0.0)


def test_linearized_mixed_point_first_row_zero():
    mat, _ = linearized_field(Params(0.4, -0.7), EquilibriumId.P3)
    assert np.all(mat[0] == 0.0)


def test_linearized_p6_carries_dangling_affine_term():
    v, c = 0.1, 0.4
    mat, aff = linearized_field(Params(v, c), EquilibriumId.P6)
    expect = v * (v - c) / (4 * c)
    assert aff[0] == pytest.approx(expect, rel=1e-15)
    assert mat[0, 2] == 0.0
    assert np.all(mat[1:] == 0.0)


def test_linearized_systems_match_jacobian_in_deviation_coordinates():
    # every printed block except P6's typo is the Jacobian at the point
    p = Params(0.13, -0.29)
    points = {
        EquilibriumId.P1: (0.0, 0.0, 1.0),
        EquilibriumId.P2: (0.0, 0.5, 0.5),
        EquilibriumId.P3: (0.0, p.v / p.c, p.v / p.c),
        EquilibriumId.P4: (0.0, 1.0, 0.0),
        EquilibriumId.P5: (1.0, 0.0, 0.0),
        EquilibriumId.P7: (0.0, 0.0, 0.0),
    }
    for eq, pt in points.items():
        mat, aff = linearized_field(p, eq)
        np.testing.assert_allclose(mat, jacobian(p, pt), rtol=0, atol=1e-14)
        assert np.all(aff == 0.0)


def test_linearized_undefined_at_zero_cost():
    for eq in (EquilibriumId.P3, EquilibriumId.P6):
        with pytest.raises(ValueError, match=f"{eq.value} is undefined at c = 0"):
            linearized_field(Params(0.2, 0.0), eq)


# -- the per-cell writers the array versions replaced, kept as references ----

_LINE_FUNCS = {
    LineId.VEQC: (lambda v, c: v - c, math.sqrt(2.0)),
    LineId.CEQ0: (lambda v, c: c, 1.0),
    LineId.VEQ0: (lambda v, c: v, 1.0),
    LineId.CEQ2V: (lambda v, c: c - 2.0 * v, math.sqrt(5.0)),
}


def _crossed_lines(a, b):
    # at the edge's nodes divided by a power of two, which is exact, so a box
    # scaled by k gives the same lines, and neither the tolerance nor a
    # midpoint rounds or overflows at either end of the float range
    e = math.frexp(max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1])))[1]
    a, b = ([math.ldexp(t, -e) for t in node] for node in (a, b))
    on_tol = 1e-12 * max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    crossed = []
    for line, (func, norm) in _LINE_FUNCS.items():
        fa, fb = func(*a), func(*b)
        if fa * fb <= 0.0 or min(abs(fa), abs(fb)) <= on_tol:
            crossed.append((abs(func(0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))) / norm, line))
    if not crossed:
        return ()
    dmin = min(d for d, _ in crossed)
    # Tie near the origin: report every line at the minimal distance.
    return tuple(line for d, line in crossed if d <= dmin + on_tol)


class TransitionPair(NamedTuple):
    """One adjacent-node classification change, before aggregation."""

    eq: EquilibriumId
    tags: tuple[Classification, Classification]
    lines: tuple[LineId, ...]     # empty = unexplained


def reference_transition_pairs(m):
    n_v, n_c = m.spec.n_v, m.spec.n_c
    for i in range(n_v):
        for j in range(n_c):
            a = (float(m.v_values[i]), float(m.c_values[j]))
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 >= n_v or j2 >= n_c:
                    continue
                b = (float(m.v_values[i2]), float(m.c_values[j2]))
                ca = m.codes[:, i, j]
                cb = m.codes[:, i2, j2]
                if np.array_equal(ca, cb):
                    continue
                lines = _crossed_lines(a, b)
                for k, eq in enumerate(EQS):
                    if ca[k] != cb[k]:
                        yield TransitionPair(
                            eq=eq,
                            tags=(CLASS_BY_CODE[ca[k]], CLASS_BY_CODE[cb[k]]),
                            lines=lines)


def reference_detect_transitions(pairs):
    """``detect_transitions``'s aggregation rule, one pair at a time."""
    buckets = {}
    for pair in pairs:
        desc = "<->".join(sorted(t.value for t in pair.tags))
        for line in (pair.lines or (LineId.UNEXPLAINED,)):
            buckets.setdefault(line, set()).add((pair.eq, desc))
    return [BifurcationLine(id=line,
                            affected=tuple(sorted(buckets[line], key=lambda t: (t[0].value, t[1]))))
            for line in LineId if line in buckets]


def reference_region_csv(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v,c," + ",".join(eq.value for eq in EQS) + "\n")
        for i in range(m.spec.n_v):
            v = m.v_values[i]
            for j in range(m.spec.n_c):
                tags = ",".join(CLASS_BY_CODE[k].value for k in m.codes[:, i, j])
                fh.write(f"{v:.17g},{m.c_values[j]:.17g},{tags}\n")


def reference_line_segments(spec):
    """Each line's crossings with the four box edges that lie in the box,
    joined from the lowest to the highest (v, c)."""
    v_lo, v_hi, c_lo, c_hi = spec.v_min, spec.v_max, spec.c_min, spec.c_max
    crossings = (
        [(v_lo, v_lo), (v_hi, v_hi), (c_lo, c_lo), (c_hi, c_hi)],                  # v = c
        [(v_lo, 0.0), (v_hi, 0.0)],                                                 # c = 0
        [(0.0, c_lo), (0.0, c_hi)],                                                 # v = 0
        [(v_lo, 2 * v_lo), (v_hi, 2 * v_hi), (c_lo / 2, c_lo), (c_hi / 2, c_hi)],  # c = 2v
    )
    for points in crossings:
        inside = [(v, c) for v, c in points if v_lo <= v <= v_hi and c_lo <= c <= c_hi]
        if inside:
            yield min(inside), max(inside)


def reference_region_svg(m, eq, path):
    """One Canvas.rect per cell; a 1-D sweep stops after the cells, since
    this writer divided by the zero axis width when drawing the lines."""
    size, margin = 420, 40
    cv = Canvas(size + 2 * margin, size + 2 * margin)
    spec = m.spec
    dv = size / spec.n_v
    dc = size / spec.n_c
    k = EQS.index(eq)
    for i in range(spec.n_v):
        for j in range(spec.n_c):
            tag = CLASS_BY_CODE[m.codes[k, i, j]]
            x = margin + i * dv
            y = margin + size - (j + 1) * dc
            cv.rect(x, y, dv + 0.5, dc + 0.5, fill=_REGION_COLORS[tag])
    if spec.v_min < spec.v_max and spec.c_min < spec.c_max:
        def frac(t, lo, hi):
            # the exact ratio, rounded once, so no width overflows
            return float((Fraction(t) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)))

        def to_canvas(v, c):
            fx = frac(v, spec.v_min, spec.v_max)
            fy = frac(c, spec.c_min, spec.c_max)
            return margin + fx * size, margin + size - fy * size

        for (v1, c1), (v2, c2) in reference_line_segments(spec):
            cv.line(*to_canvas(v1, c1), *to_canvas(v2, c2), stroke="black", width=1.2)
        cv.text(margin, margin - 8, f"{eq.value} classification over (v, c)", size=12)
    cv.write(path)


REFERENCE_GRIDS = {
    "5x5-on-diagonal": (GridSpec(0.05, 0.25, 0.05, 0.25, 5, 5), EquilibriumId.P1),
    "13x7": (GridSpec(-0.3, 0.3, -0.3, 0.3, 13, 7), EquilibriumId.P3),
    "1x9": (GridSpec(0.1, 0.1, -0.3, 0.3, 1, 9), EquilibriumId.P6),
    "9x1": (GridSpec(-0.3, 0.3, 0.2, 0.2, 9, 1), EquilibriumId.P5),
    "37x23-origin": (GridSpec(-0.018, 0.018, -0.011, 0.011, 37, 23), EquilibriumId.P7),
    "default": (DEFAULT_GRID, EquilibriumId.P2),
}


def assert_same_lines(new: bytes, ref: bytes):
    # names the first differing line; a plain == on megabytes of text makes
    # pytest's failure diff run for minutes
    new_lines, ref_lines = new.splitlines(keepends=True), ref.splitlines(keepends=True)
    for k, (a, b) in enumerate(zip(new_lines, ref_lines)):
        assert a == b, f"line {k} differs"
    assert len(new_lines) == len(ref_lines)


@pytest.fixture(scope="module", params=list(REFERENCE_GRIDS), ids=list(REFERENCE_GRIDS))
def reference_case(request):
    spec, eq = REFERENCE_GRIDS[request.param]
    return scan(spec), eq


def test_detect_transitions_matches_reference_aggregation(reference_case):
    m, _ = reference_case
    assert detect_transitions(m) == reference_detect_transitions(reference_transition_pairs(m))


@pytest.mark.parametrize("spec", [
    GridSpec(-3e-14, 3e-14, -3e-14, 3e-14, 41, 41),
    GridSpec(-3e11, 3e11, -3e11, 3e11, 41, 41),
    # near the corners the unscaled line values and midpoint sums overflow
    GridSpec(-1e308, 1e308, -1e308, 1e308, 41, 41),
    # every node a multiple of the smallest subnormal, where an unscaled
    # tolerance underflows to 0 and half of the midpoints round
    GridSpec(-5e-323, 5e-323, -5e-323, 5e-323, 21, 21),
    GridSpec(0.1, 0.1, 0.2, 0.2, 1, 1),
    GridSpec(0.15, 0.25, 0.2, 0.2, 2, 1),
], ids=["3e-14", "3e11", "1e308", "5e-323", "1x1", "2x1"])
def test_transitions_match_reference_loop_on_scaled_and_tiny_grids(spec):
    m = scan(spec)
    assert detect_transitions(m) == reference_detect_transitions(reference_transition_pairs(m))


# The reference grids plus the ends of the float range, where a writer's
# per-axis text tables hold the widest and the most finely rounded values.
WRITER_GRIDS = {
    **REFERENCE_GRIDS,
    "1e308-41x41": (GridSpec(-1e308, 1e308, -1e308, 1e308, 41, 41), EquilibriumId.P3),
    "5e-323-21x21": (GridSpec(-5e-323, 5e-323, -5e-323, 5e-323, 21, 21), EquilibriumId.P6),
    "3e-14-41x41": (GridSpec(-3e-14, 3e-14, -3e-14, 3e-14, 41, 41), EquilibriumId.P1),
}


@pytest.fixture(scope="module", params=list(WRITER_GRIDS), ids=list(WRITER_GRIDS))
def writer_case(request):
    spec, eq = WRITER_GRIDS[request.param]
    return scan(spec), eq


def test_region_csv_matches_reference_writer(writer_case, tmp_path):
    m, _ = writer_case
    write_region_csv(m, tmp_path / "new.csv")
    reference_region_csv(m, tmp_path / "ref.csv")
    assert_same_lines((tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes())


def test_region_svg_matches_reference_writer(writer_case, tmp_path):
    m, eq = writer_case
    _region_svg(m, eq, tmp_path / "new.svg")
    reference_region_svg(m, eq, tmp_path / "ref.svg")
    new = (tmp_path / "new.svg").read_bytes()
    ref = (tmp_path / "ref.svg").read_bytes()
    if m.spec.v_min < m.spec.v_max and m.spec.c_min < m.spec.c_max:
        assert_same_lines(new, ref)
    else:
        rects = [line for line in new.splitlines() if line.startswith(b"<rect ")]
        assert rects == [line for line in ref.splitlines() if line.startswith(b"<rect ")]
        assert len(rects) == m.spec.n_v * m.spec.n_c


def _region_svg_p1(m, path):
    _region_svg(m, EquilibriumId.P1, path)


@pytest.fixture(scope="module")
def rows_50_and_400():
    """The default box at 201 c columns with 50 and with 400 v rows."""
    return [scan(GridSpec(-0.3, 0.3, -0.3, 0.3, n_v, 201)) for n_v in (50, 400)]


@pytest.mark.parametrize("write, growth", [(_region_svg_p1, 1.5), (write_region_csv, 1.25)],
                         ids=["svg", "csv"])
def test_region_writer_peak_memory_does_not_grow_with_the_v_rows(
        rows_50_and_400, tmp_path, write, growth):
    # one warm-up call, so one-time allocations (lazy imports, caches) fall
    # in neither measured peak
    write(scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 3, 3)), tmp_path / "warm-up")
    peaks = [traced_peak(write, m, tmp_path / "out")[0] for m in rows_50_and_400]
    assert peaks[1] <= growth * peaks[0], peaks
    # far below the file written: no whole document is held in memory
    assert peaks[1] < (tmp_path / "out").stat().st_size / 8, peaks
