"""Tests for the CSV/JSON artifact writers."""

import csv
import json
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import build_working_point, per_cell_heatmap, random_unitary, reference_csv
from twinbeams.io import export_matrix_heatmap, export_spectrum, exports, write_csv
from twinbeams.twinbeam import SqueezingSpectrum, pair_eigenvalues

np.random.seed(42)

#: Exact ties at the 17th digit: 18 significant digits, the last a 5.
#: Python rounds them half-even; the numpy path would round them up.
TIES = [2091755748717130.75, 2091755748717130.25, 562949953421312.125, 562949953421312.375]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def symmetric(mat):
    """``mat + mat.T``, which is symmetric bit for bit."""
    return mat + mat.T


def assert_bytes_match_per_cell(tmp_path, mat, rg=None, cg=None):
    rg = np.linspace(-0.5, 0.5, mat.shape[0]) if rg is None else rg
    cg = rg if cg is None else cg
    got = export_matrix_heatmap(mat, rg, cg, tmp_path / "fast.csv").read_bytes()
    want = per_cell_heatmap(mat, rg, cg, tmp_path / "ref.csv").read_bytes()
    assert got == want


def spectrum_with_gap():
    """Two clean duos, then a duo whose gap fails the default tolerance."""
    values = np.array([1.0, 1.0, 0.5, 0.499, 0.2, 0.15])
    return SqueezingSpectrum(values=values, modes=np.eye(6, dtype=complex))


class TestWriteCsv:
    """Generic table writer."""

    def test_header_and_cell_types(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["name", "count", "flag", "x"],
            [("alpha", 3, True, 0.1), ("beta", -1, False, 2.0)],
        )
        header, rows = read_csv(path)
        assert header == ["name", "count", "flag", "x"]
        assert rows[0] == ["alpha", "3", "True", "0.10000000000000001"]
        assert rows[1] == ["beta", "-1", "False", "2"]

    def test_floats_round_trip_bitwise(self, tmp_path):
        values = np.random.randn(50)
        path = write_csv(tmp_path / "f.csv", ["x"], [(v,) for v in values])
        _, rows = read_csv(path)
        back = np.array([float(r[0]) for r in rows])
        assert np.array_equal(back, values)

    def test_unix_line_endings(self, tmp_path):
        path = write_csv(tmp_path / "n.csv", ["a"], [(1,)])
        data = path.read_bytes()
        assert b"\r" not in data

    @pytest.mark.parametrize(
        "rows",
        [
            [
                (0.1, np.float64(-2.5), np.float32(0.1), 1e16, 1e-5),
                (0.0, -0.0, math.nan, math.inf, -math.inf),
                (5e-324, -5e-324, np.float64(-0.0), np.float32(-math.inf), 1.7976931348623157e308),
                tuple(TIES) + (-TIES[0],),
                (True, np.bool_(False), 7, np.int64(-3), np.uint8(200)),
                ("", 'a "quoted", cell', "plain", 'x"', " "),
            ],
            [("only", 1, True), ("text", np.int64(2), np.bool_(True))],
            [],
        ],
        ids=["every-cell-kind", "no-float-cells", "header-only"],
    )
    def test_bytes_match_reference_writer(self, tmp_path, rows):
        header = [f"c{k}" for k in range(max(map(len, rows), default=3))]
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows)

    def test_bytes_match_reference_writer_across_batches(self, tmp_path):
        """A generator of rows longer than two batches, so batch edges fall
        mid-table; each row mixes floats of every scale with other cells."""
        rng = np.random.default_rng(5)
        n = 2 * exports._CSV_BATCH_ROWS + 37
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)

        def rows():
            for k, v in enumerate(values):
                yield (k, "ab"[k % 2], v, float(-v), np.float32(v), k % 3 == 0, "" if k % 5 else v / 3)

        header = ["k", "s", "v", "w", "f32", "flag", "maybe"]
        path = write_csv(tmp_path / "long.csv", header, rows())
        assert path.read_bytes() == reference_csv(header, list(rows()))


class TestExportSpectrum:
    """Spectrum tables with pairing annotations."""

    def test_csv_header_exact(self, tmp_path):
        paths = export_spectrum(spectrum_with_gap(), tmp_path / "spec")
        header, rows = read_csv(paths[0])
        assert header == ["index", "r", "pair_id", "pair_gap"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5"]

    def test_pair_columns(self, tmp_path):
        spec = spectrum_with_gap()
        pairing = pair_eigenvalues(spec, rel_tol=1e-2)
        assert pairing.n_pairs == 2
        paths = export_spectrum(spec, tmp_path / "spec", pairing=pairing)
        _, rows = read_csv(paths[0])
        assert [r[2] for r in rows] == ["1", "1", "2", "2", "0", "0"]
        # gap column reports the positional duo gap even for rejected duos
        assert float(rows[4][3]) == spec.pairs[2][2]
        assert float(rows[0][3]) == 0.0

    def test_without_pairing_ids_are_zero(self, tmp_path):
        paths = export_spectrum(spectrum_with_gap(), tmp_path / "spec")
        _, rows = read_csv(paths[0])
        assert {r[2] for r in rows} == {"0"}

    def test_json_mirror(self, tmp_path):
        spec = spectrum_with_gap()
        pairing = pair_eigenvalues(spec, rel_tol=1e-2)
        detunings = np.linspace(-1.0, 1.0, 6)
        paths = export_spectrum(
            spec, tmp_path / "spec", fmt="json", detunings=detunings, pairing=pairing
        )
        assert paths[0].suffix == ".json"
        payload = json.loads(paths[0].read_text())
        assert payload["source"] == "direct_takagi"
        assert payload["values"] == list(spec.values)
        assert payload["pair_id"] == [1, 1, 2, 2, 0, 0]
        assert payload["detunings"] == list(detunings)
        modes_re = np.array(payload["modes_re"])
        modes_im = np.array(payload["modes_im"])
        assert modes_re.shape == (6, 6)
        # entry k of the JSON list is mode k, i.e. column k of the matrix
        assert np.array_equal(modes_re + 1j * modes_im, spec.modes.T)

    def test_both_writes_two_files(self, tmp_path):
        paths = export_spectrum(spectrum_with_gap(), tmp_path / "spec", fmt="both")
        assert [p.suffix for p in paths] == [".csv", ".json"]
        for p in paths:
            assert p.exists()

    def test_bad_format_raises(self, tmp_path):
        with pytest.raises(ValueError, match="format must be csv, json or both"):
            export_spectrum(spectrum_with_gap(), tmp_path / "spec", fmt="xml")

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("with_detunings", [False, True])
    @pytest.mark.parametrize("real_modes", [False, True])
    def test_json_bytes_equal_one_dumps(self, tmp_path, n, with_detunings, real_modes):
        """The mode arrays are streamed to the bytes of one json.dumps."""
        rng = np.random.default_rng(n)
        values = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        modes = np.eye(n)[rng.permutation(n)] if real_modes else random_unitary(n)
        spec = SqueezingSpectrum(values=values, modes=modes, source="jsa_svd")
        pairing = pair_eigenvalues(spec, rel_tol=0.5) if n > 1 else None
        detunings = np.linspace(-0.3, 0.3, n) if with_detunings else None
        (path,) = export_spectrum(
            spec, tmp_path / "spec", fmt="json", detunings=detunings, pairing=pairing
        )
        ids, gaps = exports._pair_columns(spec, pairing)
        payload = {
            "source": spec.source,
            "values": [float(r) for r in spec.values],
            "pair_id": ids,
            "pair_gap": [float(g) for g in gaps],
            "modes_re": spec.modes.real.T.tolist(),
            "modes_im": spec.modes.imag.T.tolist(),
        }
        if detunings is not None:
            payload["detunings"] = detunings.tolist()
        assert path.read_bytes() == (json.dumps(payload) + "\n").encode()

    def test_json_peak_memory_at_m256(self, tmp_path):
        """A 512-mode spectrum (m = 256) is written within one real Gamma's
        bytes; the whole-payload json.dumps peaked at 17.6 of them, against
        7.4 for the rest of a run."""
        n = 512
        modes = np.eye(n)[np.random.default_rng(5).permutation(n)]
        spec = SqueezingSpectrum(values=np.linspace(2.0, 0.1, n), modes=modes)
        gamma_bytes = n * n * 8
        tracemalloc.start()
        try:
            export_spectrum(spec, tmp_path / "spec", fmt="json", detunings=np.zeros(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= gamma_bytes


class TestMatrixHeatmap:
    """Long-format complex matrix dump."""

    def test_header_and_row_major_order(self, tmp_path):
        mat = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
        rg = np.array([-0.3, 0.3])
        cg = np.array([-0.1, 0.1])
        path = export_matrix_heatmap(mat, rg, cg, tmp_path / "m.csv")
        header, rows = read_csv(path)
        assert header == ["omega", "omega_prime", "re", "im", "abs"]
        assert len(rows) == 4
        assert [float(r[0]) for r in rows] == [-0.3, -0.3, 0.3, 0.3]
        assert [float(r[1]) for r in rows] == [-0.1, 0.1, -0.1, 0.1]
        first = rows[0]
        assert float(first[2]) == 1.0 and float(first[3]) == 2.0
        assert np.allclose(float(first[4]), abs(1 + 2j), atol=1e-15, rtol=0)

    def test_real_matrix(self, tmp_path):
        mat = np.eye(3)
        g = np.array([1.0, 2.0, 3.0])
        path = export_matrix_heatmap(mat, g, g, tmp_path / "m.csv")
        _, rows = read_csv(path)
        assert len(rows) == 9
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_bytes_match_per_cell_writer_random(self, tmp_path):
        mat = np.random.randn(7, 7) + 1j * np.random.randn(7, 7)
        g = np.linspace(-0.55, 0.55, 7)
        assert_bytes_match_per_cell(tmp_path, mat, g, g)

    def test_bytes_match_per_cell_writer_edge_values(self, tmp_path):
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 0.1])
        # Every (re, im) pair; set by part, since 1j * inf would put a nan in re.
        mat = np.empty((8, 8), dtype=complex)
        mat.real, mat.imag = np.meshgrid(edge, edge, indexing="ij")
        mat = mat.reshape(16, 4)
        rg = np.concatenate([edge, -edge])
        cg = np.array([-0.0, 5e-324, 1e300, np.nan])
        assert_bytes_match_per_cell(tmp_path, mat, rg, cg)

    def test_bytes_match_per_cell_writer_real_input(self, tmp_path):
        mat = np.array([[-0.0, np.nan, 1e300], [np.inf, 5e-324, -2.5]])
        assert_bytes_match_per_cell(tmp_path, mat, [0.1, 0.2], [-1.0, 0.0, 1.0])

    def test_float64_gives_the_bytes_of_complex128(self, tmp_path):
        """A float64 matrix is written without a complex copy, to the same bytes."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        a[0, 1] = -0.0
        for i, mat in enumerate((a, a + a.T, a[:, :3])):
            rg, cg = np.arange(mat.shape[0]) * 0.1, np.arange(mat.shape[1]) * 0.2
            real = export_matrix_heatmap(mat, rg, cg, tmp_path / f"real{i}.csv")
            cplx = export_matrix_heatmap(mat.astype(complex), rg, cg, tmp_path / f"c{i}.csv")
            assert real.read_bytes() == cplx.read_bytes()

    def test_bytes_match_per_cell_writer_non_square(self, tmp_path):
        mat = np.random.randn(2, 3) + 1j * np.random.randn(2, 3)
        assert_bytes_match_per_cell(tmp_path, mat, [-0.3, 0.3], [-0.1, 0.0, 0.1])

    def test_shape_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not match grids"):
            export_matrix_heatmap(np.eye(3), np.zeros(2), np.zeros(3), tmp_path / "m.csv")


class TestSymmetricHeatmap:
    """A bitwise-symmetric matrix formats each upper-triangle cell once."""

    def test_real_symmetric(self, tmp_path):
        assert_bytes_match_per_cell(tmp_path, symmetric(np.random.randn(9, 9)))

    def test_complex_symmetric(self, tmp_path):
        a = np.random.randn(9, 9) + 1j * np.random.randn(9, 9)
        assert_bytes_match_per_cell(tmp_path, symmetric(a))

    def test_mixed_zero_and_nonzero_imaginary_rows(self, tmp_path):
        a = symmetric(np.random.randn(8, 8) + 1j * np.random.randn(8, 8))
        # Rows/columns 0, 3 and 4 purely real; row 6 real except one mirror pair.
        for k in (0, 3, 4, 6):
            a.imag[k, :] = a.imag[:, k] = 0.0
        a[6, 2] = a[2, 6] = 0.25 - 3.5j
        a.imag[1, 5] = a.imag[5, 1] = -0.0
        assert_bytes_match_per_cell(tmp_path, a)

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_signed_zero_mirror_pair(self, tmp_path, part):
        # -0.0 == +0.0, but the two print differently: not a symmetric matrix.
        a = symmetric(np.random.randn(4, 4) + 1j * np.random.randn(4, 4))
        getattr(a, part)[1, 3] = -0.0
        getattr(a, part)[3, 1] = 0.0
        assert_bytes_match_per_cell(tmp_path, a)
        getattr(a, part)[3, 1] = -0.0
        assert_bytes_match_per_cell(tmp_path, a)

    @pytest.mark.parametrize("imag", [False, True])
    def test_edge_values(self, tmp_path, imag):
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 0.1])
        n = len(edge)
        a = np.zeros((n, n), dtype=complex)
        iu = np.triu_indices(n)
        a.real[iu] = np.resize(edge, len(iu[0]))
        if imag:
            a.imag[iu] = np.resize(edge[::-1], len(iu[0]))
        a.real.T[iu] = a.real[iu]
        a.imag.T[iu] = a.imag[iu]
        assert_bytes_match_per_cell(tmp_path, a)

    @pytest.mark.parametrize(
        "mat",
        [
            np.array([[-2.5]]),
            np.array([[1.0 - 2.0j]]),
            np.array([[-0.0 + 0.0j]]),
            np.array([[1.0, -0.5], [-0.5, 2.0]]),
            np.array([[1.0 + 1.0j, -0.5], [-0.5, -0.0j]]),
        ],
    )
    def test_small(self, tmp_path, mat):
        assert_bytes_match_per_cell(tmp_path, mat)

    def test_each_upper_cell_formatted_once(self, tmp_path, monkeypatch):
        counted = []
        original = exports._format_all

        def counting(values):
            counted.append(len(values))
            return original(values)

        monkeypatch.setattr(exports, "_format_all", counting)
        g = np.linspace(-1.0, 1.0, 6)
        real = symmetric(np.random.randn(6, 6))
        export_matrix_heatmap(real, g, g, tmp_path / "r.csv")
        assert sum(counted) == 6 * 7 // 2
        counted.clear()
        cplx = symmetric(np.random.randn(6, 6) + 1j * np.random.randn(6, 6))
        export_matrix_heatmap(cplx, g, g, tmp_path / "c.csv")
        assert sum(counted) == 3 * 6 * 7 // 2
        counted.clear()
        cplx[0, 1] += 1.0
        export_matrix_heatmap(cplx, g, g, tmp_path / "n.csv")
        assert sum(counted) == 3 * 6 * 6

    @pytest.mark.parametrize("m", [128, 256])
    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["float64", "complex128"])
    def test_peak_memory_within_four_gammas(self, tmp_path, m, z0_fraction):
        """The writer holds one tile and the packed strings of the upper
        triangle: its traced peak stays within 4 Gammas."""
        wp = build_working_point(m=m, z0_fraction=z0_fraction)
        gamma = wp.sq.gamma
        assert gamma.dtype == (np.float64 if z0_fraction == 0.5 else np.complex128)
        grid = wp.grid.detunings
        tracemalloc.start()
        try:
            export_matrix_heatmap(gamma, grid, grid, tmp_path / "m.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * gamma.nbytes


@st.composite
def symmetric_matrices(draw):
    """``a + a.T`` of a random complex matrix, imaginary part zeroed on a
    random subset of mirror pairs."""
    n = draw(st.integers(1, 7))
    parts = hnp.arrays(np.float64, (2, n, n), elements=st.floats(width=64))
    a = np.empty((n, n), dtype=complex)
    # Set by part: re + 1j * im would turn an infinite im into a nan re.
    a.real, a.imag = draw(parts)
    mask = draw(hnp.arrays(np.bool_, (n, n)))
    a = symmetric(a)
    a.imag[mask | mask.T] = 0.0
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_symmetric_heatmap_property(tmp_path_factory, mat):
    assert_bytes_match_per_cell(tmp_path_factory.mktemp("heat"), mat)


def python_g17(values):
    """Python's ``%.17g`` of each value: the oracle of ``_format_all``."""
    return [b"%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()]


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    got = exports._format_all(values)
    assert got.dtype == np.dtype("S24")
    assert got.tolist() == python_g17(values)


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def layout_class(text):
    """``(negative, notation, kept)`` of a finite ``%.17g`` text: notation is
    the decimal exponent (-4 ... 16) in fixed notation, else ``"e2"`` or
    ``"e3"`` by the exponent's digit count; kept counts the significant
    digits up to the last nonzero one (1 for a zero)."""
    body = text.lstrip(b"-")
    mantissa, _, exponent = body.partition(b"e")
    whole, _, frac = mantissa.partition(b".")
    if exponent:
        notation = f"e{len(exponent) - 1}"
    elif whole == b"0" and frac:
        notation = -1 - (len(frac) - len(frac.lstrip(b"0")))
    else:
        notation = len(whole) - 1
    kept = len((whole + frac).lstrip(b"0").rstrip(b"0")) or 1
    return body != text, notation, kept


class TestFormatAll:
    """The vectorized ``%.17g`` against Python's, value by value."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_property_any_double(self, values):
        assert_formats_like_python(values)

    def test_random_bit_patterns(self):
        """Over 10**6 seeded uint64 patterns: every exponent, subnormals,
        nan and inf included."""
        rng = np.random.default_rng(2024)
        for _ in range(16):
            bits = rng.integers(0, np.iinfo(np.uint64).max, 2**16, dtype=np.uint64, endpoint=True)
            assert_formats_like_python(bits.view(np.float64))

    def test_random_decimal_ranges(self):
        """Fixed and exponential notation, and short decimals whose trailing
        zeros are trimmed."""
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-8, 20, 2**16)
        assert_formats_like_python(rng.standard_normal(2**16) * scale)
        assert_formats_like_python(np.round(rng.standard_normal(2**16) * 1e4) / scale)

    def test_every_layout_class(self):
        """Seeded candidates, sorted by Python's own text, hit every sign x
        notation x digits-kept class of the layout, and one value of each
        formats like Python."""
        rng = np.random.default_rng(28)
        ints = rng.integers(1, 2**53, 2**12) >> rng.integers(0, 53, 2**12)
        dyadic = rng.integers(1, 2**20, 2**12) / 2.0 ** rng.integers(1, 64, 2**12)
        # Short decimals of k digits at decimal exponent x, 64 per k and
        # notation: x is -4 ... 16, or any normal 2- or 3-digit exponent.
        # A leading 1 (k > 1) keeps all k digits in about half of them.
        k = np.repeat(np.arange(1, 18), 23 * 64)
        kind = np.tile(np.arange(23), 17 * 64)
        x = np.select(
            [kind < 21, kind == 21],
            [kind - 4, rng.choice(np.r_[-99:-4, 17:100], len(kind))],
            rng.choice(np.r_[-307:-99, 100:309], len(kind)),
        )
        lo = 10 ** (k - 1)
        mantissas = rng.integers(lo, np.where(k > 1, 2 * lo, 10))
        short = [float(f"{d}e{e}") for d, e in zip(mantissas.tolist(), (x - k + 1).tolist())]
        candidates = [*ints.astype(float).tolist(), *dyadic.tolist(), *short]
        first = {}
        for v in candidates + [-v for v in candidates]:
            if math.isfinite(v):
                first.setdefault(layout_class(b"%.17g" % v), v)
        notations = [*range(-4, 17), "e2", "e3"]
        assert set(first) == {
            (neg, notation, kept)
            for neg in (False, True) for notation in notations for kept in range(1, 18)
        }
        values = list(first.values())
        assert exports._format_all(np.array(values)).tolist() == [b"%.17g" % v for v in values]

    def test_edges(self):
        edges = [
            *neighbours(1e-5),  # the exponential/fixed switch below 1
            *neighbours(1e-4),
            *neighbours(1e16),  # the fixed/exponential switch above 1
            *neighbours(1e17),
            5e-324,  # the least subnormal
            2.2250738585072014e-308,  # the least normal
            1.7976931348623157e308,  # the largest double
            1e-305,  # 17 digits of 9.99...e-306 carry to the next power of ten
            1e-14,
            0.0,
            -0.0,
            1.0,
            0.5,
            100.0,
            123.456,
            *TIES,
        ]
        assert_formats_like_python(edges + [-x for x in edges])
        assert exports._format_all(np.array([1e-305]))[0] == b"1e-305"

    def test_empty(self):
        assert exports._format_all(np.array([])).shape == (0,)

    def test_ties_nan_and_inf_go_to_python(self, monkeypatch):
        for tie in TIES:
            digits = Decimal(tie).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        handed = []
        original = exports._format_python

        def counting(values):
            handed.extend(values.tolist())
            return original(values)

        monkeypatch.setattr(exports, "_format_python", counting)
        slow = [*TIES, math.nan, math.inf, -math.inf]
        values = np.array([0.1, -2.5, 1e-300, *slow, 0.0, 7.0])
        assert_formats_like_python(values)
        assert np.array_equal(np.array(handed), np.array(slow), equal_nan=True)
