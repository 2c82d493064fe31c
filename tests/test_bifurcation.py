import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hawkdove import Params, detect_transitions, jacobian, linearized_field, scan
from hawkdove.bifurcation import (
    DEFAULT_GRID,
    GridSpec,
    LineId,
    RegionMap,
    _line_segments,
    write_region_csv,
)
from hawkdove.bifurcation import _REGION_COLORS, write_region_svg as _region_svg
from hawkdove.equilibrium_catalog import (
    CLASS_BY_CODE,
    CODE_BY_CLASS,
    _BLOCK_NODES,
    _DIRECTION_TABLE,
    _DIRECTIONS,
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
    assert spec.n_v * spec.n_c > 2 * _BLOCK_NODES      # more than two blocks, the last short
    m = scan(spec)
    # one unchunked _classify call: classification_codes chunks too
    vv, cc = np.meshgrid(m.v_values, m.c_values, indexing="ij")
    assert np.array_equal(m.codes, _classify(vv, cc)[1])


def test_scan_of_rows_wider_than_a_chunk_matches_one_whole_grid_classification():
    # each row split into blocks of its own, the last short
    spec = GridSpec(-0.3, 0.3, -0.3, 0.3, 3, 9000)
    assert spec.n_c > _BLOCK_NODES
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


# The default grid's transition lines, read from the direction table: per
# line, the sector-to-sector changes across its rays, then the sector-to-ray
# ones, as "point tagA<->tagB".
DEFAULT_TRANSITION_LINES = {
    LineId.VEQC: (
        ["P1 Saddle<->StableNode", "P1 Saddle<->UnstableNode", "P4 Saddle<->StableNode",
         "P4 Saddle<->UnstableNode", "P5 StableNode<->UnstableNode"],
        ["P1 Degenerate<->Saddle", "P1 Degenerate<->StableNode", "P1 Degenerate<->UnstableNode",
         "P4 Degenerate<->Saddle", "P4 Degenerate<->StableNode", "P4 Degenerate<->UnstableNode",
         "P5 Degenerate<->StableNode", "P5 Degenerate<->UnstableNode",
         "P6 Degenerate<->NonHyperbolic"]),
    LineId.CEQ0: (
        ["P3 NormallyHyperbolicSaddle<->NormallyHyperbolicStable",
         "P3 NormallyHyperbolicSaddle<->NormallyHyperbolicUnstable"],
        ["P1 Degenerate<->Saddle", "P2 Degenerate<->Saddle",
         "P3 NormallyHyperbolicSaddle<->Undefined", "P3 NormallyHyperbolicStable<->Undefined",
         "P3 NormallyHyperbolicUnstable<->Undefined", "P4 Degenerate<->Saddle",
         "P6 NonHyperbolic<->Undefined"]),
    LineId.VEQ0: (
        ["P1 Saddle<->StableNode", "P1 Saddle<->UnstableNode", "P4 Saddle<->StableNode",
         "P4 Saddle<->UnstableNode", "P7 StableNode<->UnstableNode"],
        ["P1 Degenerate<->Saddle", "P1 Degenerate<->StableNode", "P1 Degenerate<->UnstableNode",
         "P3 Degenerate<->NormallyHyperbolicSaddle", "P4 Degenerate<->Saddle",
         "P4 Degenerate<->StableNode", "P4 Degenerate<->UnstableNode",
         "P6 Degenerate<->NonHyperbolic", "P7 Degenerate<->StableNode",
         "P7 Degenerate<->UnstableNode"]),
    LineId.CEQ2V: (
        ["P3 NormallyHyperbolicSaddle<->NormallyHyperbolicStable",
         "P3 NormallyHyperbolicSaddle<->NormallyHyperbolicUnstable"],
        ["P2 Degenerate<->Saddle", "P3 Degenerate<->NormallyHyperbolicSaddle",
         "P3 Degenerate<->NormallyHyperbolicStable",
         "P3 Degenerate<->NormallyHyperbolicUnstable"]),
}
DEFAULT_COUNTS = [(len(a), len(o)) for a, o in DEFAULT_TRANSITION_LINES.values()]


def as_text(lines):
    """``detect_transitions``'s result in the form of DEFAULT_TRANSITION_LINES."""
    return {bl.id: tuple([f"{eq.value} {desc}" for eq, desc in pairs]
                         for pairs in (bl.affected, bl.on_line)) for bl in lines}


def test_default_grid_transition_lines():
    lines = detect_transitions(scan(DEFAULT_GRID))
    assert [bl.id for bl in lines] == list(LineId)
    assert as_text(lines) == DEFAULT_TRANSITION_LINES
    assert DEFAULT_COUNTS == [(5, 9), (2, 7), (5, 10), (2, 4)]


def test_transition_lines_are_scale_invariant():
    # the report depends on which rays the box meets, and a box scaled by
    # k > 0 meets the same rays
    def lines(b):
        return detect_transitions(scan(GridSpec(-b, b, -b, b, 41, 41)))
    base = lines(0.3)
    assert [(len(bl.affected), len(bl.on_line)) for bl in base] == DEFAULT_COUNTS
    for b in (3e-14, 3e-6, 3e11):
        assert lines(b) == base, b


def test_transition_lines_keep_the_unit_box_lines_at_the_top_of_the_float_range():
    # some P3 and P6 tags of the +-1e308 box overflow to Undefined; the
    # report comes from the table, not the grid, so it is the unit box's
    def lines(b):
        return detect_transitions(scan(GridSpec(-b, b, -b, b, 41, 41)))
    assert lines(1e308) == lines(0.3)


@pytest.mark.parametrize("half_width", [5e-323, 1e-310])
def test_subnormal_boxes_keep_the_integer_box_codes_and_lines(half_width):
    # The nodes of the +-5e-323 box are the integers -10..10 times the
    # smallest subnormal: the +-10 box's codes, and its lines (when they
    # were read from the grid's edges, an unscaled on-line tolerance
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
    assert [(len(bl.affected), len(bl.on_line)) for bl in lines] == DEFAULT_COUNTS


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
def test_scan_codes_match_closed_form_and_catalog_over_chunks(exponent):
    # more than two blocks, the last short, at 2^m times the +-0.3 box:
    # scaling by a power of two is exact, so the nodes are 2^m times the
    # unit box's and every code is the closed-form code at the unit node
    unit = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 161, 121))
    assert unit.codes.shape[1] * unit.codes.shape[2] > 2 * _BLOCK_NODES
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
    # 5x5 square grid has nodes exactly on the diagonal: Degenerate there,
    # so the grid shows P1's change across v = c as two changes to the ray,
    # which the report lists under VeqC's on_line.  The box meets the rays
    # v = c and c = 2v with v > 0, and no other.
    m = scan(GridSpec(0.05, 0.25, 0.05, 0.25, 5, 5))
    k = EQS.index(EquilibriumId.P1)
    diag = [m.codes[k, i, i] for i in range(5)]
    assert all(d == CODE_BY_CLASS[C.DEGENERATE] for d in diag)
    lines = detect_transitions(m)
    assert [bl.id for bl in lines] == [LineId.VEQC, LineId.CEQ2V]
    p1 = {desc for eq, desc in lines[0].on_line if eq is EquilibriumId.P1}
    assert p1 == {"Degenerate<->Saddle", "Degenerate<->StableNode"}
    assert (EquilibriumId.P1, "Saddle<->StableNode") in lines[0].affected


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


def hand_built_map(codes):
    """A RegionMap with the (7, n_v, n_c) ``codes`` on the +-0.3 box, not
    the codes a scan of that box gives."""
    _, n_v, n_c = codes.shape
    return RegionMap(spec=GridSpec(-0.3, 0.3, -0.3, 0.3, n_v, n_c),
                     v_values=np.linspace(-0.3, 0.3, n_v), c_values=np.linspace(-0.3, 0.3, n_c),
                     codes=codes.astype(np.int8))


def _hand_built_codes():
    rng = np.random.default_rng(33)
    # each code steps by 1..8 mod 9 from its c neighbour, so on every plane
    # every node differs from the next one: every node is a run of its own
    steps = rng.integers(1, 9, (7, 60, 70))
    steps[:, :, 0] = rng.integers(0, 9, (7, 60))
    return {
        "every-node-a-run": (np.cumsum(steps, axis=2) % 9, EquilibriumId.P4),
        "constant": (np.full((7, 40, 50), 5), EquilibriumId.P2),
        "one-column": (rng.integers(0, 9, (7, 3000, 1)), EquilibriumId.P6),   # rows of one node
        "one-row": (rng.integers(0, 9, (7, 1, 5000)), EquilibriumId.P7),     # wider than a chunk
    }


HAND_BUILT = _hand_built_codes()


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_writers_match_the_references_on_hand_built_maps(name, tmp_path):
    # scanned grids have few distinct tag rows and long runs of equal codes;
    # these maps have thousands of distinct tag rows, runs of one node,
    # rows of one run, one column and one row
    codes, eq = HAND_BUILT[name]
    m = hand_built_map(codes)
    if name == "every-node-a-run":
        assert (m.codes[:, :, 1:] != m.codes[:, :, :-1]).all()
        assert len(set(map(tuple, m.codes.reshape(7, -1).T.tolist()))) > 4000
    write_region_csv(m, tmp_path / "new.csv")
    reference_region_csv(m, tmp_path / "ref.csv")
    assert_same_lines((tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes())
    _region_svg(m, eq, tmp_path / "new.svg")
    reference_region_svg(m, eq, tmp_path / "ref.svg")
    assert_same_lines((tmp_path / "new.svg").read_bytes(), (tmp_path / "ref.svg").read_bytes())


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


@pytest.mark.parametrize("write", [_region_svg_p1, write_region_csv], ids=["svg", "csv"])
def test_region_writer_on_a_wide_grid_holds_little_beyond_the_bytes_it_writes(write, tmp_path):
    # on one row of 100,000 columns a writer holds its per-column texts and
    # the row's text.  Built from a table of text pieces per (distinct tag
    # row or fill, column), the CSV writer peaked at 84.2 MB for a 12.6 MB
    # file and the SVG writer at 150.0 MB for a 10.3 MB file.
    m = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 1, 100000))
    write(m, tmp_path / "warm-up")
    peak = traced_peak(write, m, tmp_path / "out")[0]
    assert peak <= 4 * (tmp_path / "out").stat().st_size, peak



@pytest.fixture(scope="module")
def rows_10k_and_100k():
    """The default box at 2 c columns with 10,000 and with 100,000 v rows."""
    return [scan(GridSpec(-0.3, 0.3, -0.3, 0.3, n_v, 2)) for n_v in (10000, 100000)]


@pytest.mark.parametrize("write", [_region_svg_p1, write_region_csv], ids=["svg", "csv"])
def test_region_writer_on_a_tall_grid_holds_no_per_row_list(rows_10k_and_100k, tmp_path, write):
    # the rows' heads come one at a time.  With a list of every row's x,
    # the SVG writer peaked at 0.94 MB at 10,000 rows and 3.83 MB at
    # 100,000; both writers now peak at 0.2-0.4 MB from 10,000 rows to
    # 300,000.  The bound leaves room for allocator noise.
    write(scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 3, 3)), tmp_path / "warm-up")
    peaks = [traced_peak(write, m, tmp_path / "out")[0] for m in rows_10k_and_100k]
    assert peaks[1] <= 2 * peaks[0], peaks
    assert peaks[1] < (tmp_path / "out").stat().st_size / 8, peaks

# -- transition lines from the direction table --------------------------------

def ray_lines():
    """{column of _DIRECTION_TABLE: line} for the eight rays, each from the
    one line form that vanishes at its representative."""
    forms = {LineId.VEQC: lambda v, c: v - c, LineId.CEQ0: lambda v, c: c,
             LineId.VEQ0: lambda v, c: v, LineId.CEQ2V: lambda v, c: c - 2 * v}
    out = {}
    for k, (v, c) in enumerate(_DIRECTIONS):
        on = [line for line, form in forms.items() if form(v, c) == 0]
        if len(on) == 1:
            out[k] = on[0]
    return out


def test_direction_table_goes_once_round_the_circle():
    # rays at the even columns, sectors between them, the origin last; the
    # 17 columns are distinct, so a node's codes name its direction
    angles = [math.atan2(c, v) % (2 * math.pi) for v, c in _DIRECTIONS[:16]]
    assert angles == sorted(angles) and angles[0] == 0.0
    assert sorted(ray_lines()) == list(range(0, 16, 2))
    assert _DIRECTIONS[16] == (0.0, 0.0)
    assert len({tuple(col) for col in _DIRECTION_TABLE.T.tolist()}) == 17


def direction_columns(m):
    """(n_v, n_c): each node's column of _DIRECTION_TABLE, the one whose
    seven codes are the node's."""
    weights = 9 ** np.arange(7)
    table = weights @ _DIRECTION_TABLE.astype(np.int64)
    keys = np.tensordot(weights, m.codes.astype(np.int64), axes=1)
    order = np.argsort(table)
    pos = np.minimum(np.searchsorted(table[order], keys), 16)
    assert (table[order][pos] == keys).all(), "a node's codes are no column of the table"
    return order[pos]


def arc_rays(a, b):
    """The ray columns on the shorter arc from column a to b, both ends
    included; both arcs when they are equal."""
    d = (b - a) % 16
    arcs = ([range(a, a + d + 1)] if d <= 8 else []) + ([range(b, b + 17 - d)] if d >= 8 else [])
    return {k % 16 for arc in arcs for k in arc if k % 2 == 0}


# Grids whose every node is classified as some column of the table: no tag
# overflows.  The ids of the old grid-reading tests' boxes are kept.
TABLE_GRIDS = {
    **{name: spec for name, (spec, _) in REFERENCE_GRIDS.items()},
    "3e-14": GridSpec(-3e-14, 3e-14, -3e-14, 3e-14, 41, 41),
    "3e11": GridSpec(-3e11, 3e11, -3e11, 3e11, 41, 41),
    "5e-323": GridSpec(-5e-323, 5e-323, -5e-323, 5e-323, 21, 21),
    "1x1": GridSpec(0.1, 0.1, 0.2, 0.2, 1, 1),
    "2x1": GridSpec(0.15, 0.25, 0.2, 0.2, 2, 1),
    "200x200": GridSpec(-0.3, 0.3, -0.3, 0.3, 200, 200),
    "333x555-off-centre": GridSpec(-0.13, 0.41, -0.27, 0.35, 333, 555),
    "5e-320": GridSpec(-5e-320, 5e-320, -5e-320, 5e-320, 201, 201),
    "1e300": GridSpec(-1e300, 1e300, -1e300, 1e300, 101, 101),
    # off the origin: it meets the rays v = c, c = 2v and v = 0 with c > 0 only
    "no-origin": GridSpec(-0.3, 0.1, 0.05, 0.4, 150, 170),
}


@pytest.mark.parametrize("spec", TABLE_GRIDS.values(), ids=TABLE_GRIDS)
def test_transition_lines_account_for_every_changed_edge(spec):
    # Every node's codes are a column of the table.  An edge whose codes
    # change, and that does not touch the origin node, crosses the rays
    # between its two columns, and the report lists each of their lines.
    # The two columns need not be neighbours: within a few grid steps of
    # the origin an edge can pass a whole sector.
    m = scan(spec)
    reported = {bl.id for bl in detect_transitions(m)}
    col = direction_columns(m)
    ray_line = ray_lines()
    for a, b in ((col[:-1], col[1:]), (col[:, :-1], col[:, 1:])):
        changed = (a != b) & (a != 16) & (b != 16)
        for pair in set(zip(a[changed].tolist(), b[changed].tolist())):
            crossed = {ray_line[r] for r in arc_rays(*pair)}
            assert crossed <= reported, (pair, crossed - reported)


ALL_RAY_BOXES = {
    "0.3-200": GridSpec(-0.3, 0.3, -0.3, 0.3, 200, 200),
    "0.3-201": DEFAULT_GRID,
    "0.3-801": GridSpec(-0.3, 0.3, -0.3, 0.3, 801, 801),
    "3e-14-41": GridSpec(-3e-14, 3e-14, -3e-14, 3e-14, 41, 41),
    "1e308-41": GridSpec(-1e308, 1e308, -1e308, 1e308, 41, 41),
    "5e-323-21": GridSpec(-5e-323, 5e-323, -5e-323, 5e-323, 21, 21),
}


@pytest.mark.parametrize("spec", ALL_RAY_BOXES.values(), ids=ALL_RAY_BOXES)
def test_every_box_that_meets_all_eight_rays_reports_the_default_lines(spec):
    # the report does not depend on the grid: 200x200 has no node on
    # either axis, where the grid-read report listed 9/7/12/9 pairs
    assert {ray for _, rays, _ in _line_segments(spec) for ray in rays} == set(range(0, 16, 2))
    assert as_text(detect_transitions(scan(spec))) == DEFAULT_TRANSITION_LINES


def test_a_subnormal_box_lists_the_ray_c_eq_2v_that_it_meets():
    # c / 2 rounds here: the segment drawn for c = 2v runs from (-0, -5e-324)
    # to (0, 5e-324), but the line meets the box at (+-2.5e-324, +-5e-324),
    # and the edge from (-1e-323, -5e-324) to (0, -5e-324) crosses its ray
    # with v < 0.  Read from the grid's edges, the report left out Ceq2V.
    spec = GridSpec(-1e-323, 1e-323, -5e-324, 5e-324, 3, 3)
    lines = detect_transitions(scan(spec))
    assert [bl.id for bl in lines] == list(LineId)
    assert [rays for _, rays, _ in _line_segments(spec)] == [(2, 10), (0, 8), (6, 14), (4, 12)]


def test_a_box_on_a_ray_lists_its_line():
    # one node on v = c: no edge changes, but the box meets the ray
    lines = detect_transitions(scan(GridSpec(0.1, 0.1, 0.1, 0.1, 1, 1)))
    assert [bl.id for bl in lines] == [LineId.VEQC]
    assert detect_transitions(scan(GridSpec(0.0, 0.0, 0.0, 0.0, 1, 1))) == []


def reference_rays(spec):
    """{line: its ray columns that the box meets}, with exact rationals:
    the ray t (dv, dc), t > 0, meets the box where the t of the box's
    points on the line through it form an interval reaching above 0."""
    lo, hi = (Fraction(spec.v_min), Fraction(spec.c_min)), (Fraction(spec.v_max), Fraction(spec.c_max))
    out = {}
    for k, line in ray_lines().items():
        t_lo, t_hi, meets = Fraction(-10**400), Fraction(10**400), True
        for d, a, b in zip(_DIRECTIONS[k], lo, hi):
            if d:
                ends = sorted((a / Fraction(d), b / Fraction(d)))
                t_lo, t_hi = max(t_lo, ends[0]), min(t_hi, ends[1])
            else:
                meets &= a <= 0 <= b
        if meets and t_lo <= t_hi and t_hi > 0:
            out.setdefault(line, []).append(k)
    return out


def test_rays_met_match_exact_rationals():
    # bounds from the smallest subnormal to the largest float, many of them
    # where 2v overflows or c / 2 rounds
    rng = np.random.default_rng(32)
    magnitudes = [0.0, 5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 1e-300, 0.1, 0.3,
                  1.0, 8.98846567431158e307, 1e308, 1.7976931348623157e308]
    values = sorted({s * x for x in magnitudes for s in (1.0, -1.0)})
    for _ in range(3000):
        v = sorted(float(x) for x in rng.choice(values, 2))
        c = sorted(float(x) for x in rng.choice(values, 2))
        if rng.random() < 0.5:      # a random box, scaled into every range
            e = int(rng.integers(-1074, 1020))
            v, c = (sorted(math.ldexp(x, e) for x in rng.uniform(-4, 4, 2)) for _ in "vc")
        spec = GridSpec(v[0], v[1], c[0], c[1], 2, 2)
        got = {line: sorted(rays) for line, rays, _ in _line_segments(spec) if rays}
        assert got == {line: sorted(rays) for line, rays in reference_rays(spec).items()}, spec


# every box of this module's tests
ALL_BOXES = {
    **{name: spec for name, (spec, _) in WRITER_GRIDS.items()}, **TABLE_GRIDS, **ALL_RAY_BOXES,
    "subnormal-3x3": GridSpec(-1e-323, 1e-323, -5e-324, 5e-324, 3, 3),
    "diagonal-2x3": GridSpec(0.3, 0.4, 0.25, 0.45, 2, 3),
    "c=2v-1x2": GridSpec(0.1, 0.1, 0.15, 0.25, 1, 2),
    "one-region-3x3": GridSpec(0.05, 0.08, 0.3, 0.31, 3, 3),
    "10-21x21": GridSpec(-10, 10, -10, 10, 21, 21),
    "33x65": GridSpec(-0.3, 0.3, -0.5, 0.5, 33, 65),
}


@pytest.mark.parametrize("spec", ALL_BOXES.values(), ids=ALL_BOXES)
def test_transition_lines_change_p1_and_p4_alike(spec):
    # swapping y and z swaps P1 and P4, so every line changes them alike
    for bl in detect_transitions(scan(spec)):
        for pairs in (bl.affected, bl.on_line):
            p1 = [desc for eq, desc in pairs if eq is EquilibriumId.P1]
            assert p1 == [desc for eq, desc in pairs if eq is EquilibriumId.P4], bl.id
