"""Tests for the CSV and npz artifact writers."""

import csv
import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import build_working_point, per_cell_heatmap, reference_csv
from twinbeams.io import (
    export_matrix_heatmap,
    export_spectrum,
    export_squeezing_matrix,
    exports,
    load_spectrum,
    load_squeezing_matrix,
    write_csv,
)
from twinbeams.takagi import TakagiFactors, takagi_general
from twinbeams.twinbeam import (
    SchmidtDecomposition,
    SqueezingSpectrum,
    pair_eigenvalues,
    schmidt_from_jsa,
    signal_first,
    spectrum_from_takagi,
)

np.random.seed(42)

#: Exact ties at the 17th digit: 18 significant digits, the last a 5, which
#: ``%.17g`` rounds half-even.
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

    def test_bytes_match_reference_writer_long_generator(self, tmp_path):
        """A generator of 549 rows, each mixing floats of every scale with
        other cells."""
        rng = np.random.default_rng(5)
        n = 549
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)

        def rows():
            for k, v in enumerate(values):
                yield (k, "ab"[k % 2], v, float(-v), np.float32(v), k % 3 == 0, "" if k % 5 else v / 3)

        header = ["k", "s", "v", "w", "f32", "flag", "maybe"]
        path = write_csv(tmp_path / "long.csv", header, rows())
        assert path.read_bytes() == reference_csv(header, list(rows()))


def export_table(spec, stem, pairing=None):
    """``spectrum.csv`` of ``spec``, stored with its own modes as the factors."""
    n = len(spec.values)
    v = np.eye(n, dtype=complex) if spec.modes is None else spec.modes
    table, _ = export_spectrum(spec, TakagiFactors(v, spec.values), np.zeros(n), stem, pairing)
    return table


class TestExportSpectrum:
    """Spectrum tables with pairing annotations."""

    def test_csv_header_exact(self, tmp_path):
        header, rows = read_csv(export_table(spectrum_with_gap(), tmp_path / "spec"))
        assert header == ["index", "r", "pair_id", "pair_gap"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5"]

    def test_pair_columns(self, tmp_path):
        spec = spectrum_with_gap()
        pairing = pair_eigenvalues(spec, rel_tol=1e-2)
        assert pairing.n_pairs == 2
        _, rows = read_csv(export_table(spec, tmp_path / "spec", pairing))
        assert [r[2] for r in rows] == ["1", "1", "2", "2", "0", "0"]
        # gap column reports the positional duo gap even for rejected duos
        assert float(rows[4][3]) == spec.pairs[2][2]
        assert float(rows[0][3]) == 0.0

    def test_without_pairing_ids_are_zero(self, tmp_path):
        _, rows = read_csv(export_table(spectrum_with_gap(), tmp_path / "spec"))
        assert {r[2] for r in rows} == {"0"}

    def test_csv_bytes_match_the_per_cell_writer(self, tmp_path):
        """One format per row spells what the per-cell CSV writer spells,
        a negative zero and a tiny negative value included."""
        values = np.array([3.0, 1 / 3, 1e-300, 5e-324, -0.0, -1e-16])
        spec = SqueezingSpectrum(values=values, modes=None)
        pairing = pair_eigenvalues(spec, rel_tol=0.9)
        path = export_table(spec, tmp_path / "spec", pairing)
        ids, gaps = exports._pair_columns(spec, pairing)
        rows = [(i, values[i], ids[i], gaps[i]) for i in range(len(values))]
        assert path.read_bytes() == reference_csv(["index", "r", "pair_id", "pair_gap"], rows)

    def test_values_only_csv_equals_full_spectrum_csv(self, tmp_path):
        full = spectrum_with_gap()
        pairing = pair_eigenvalues(full, rel_tol=1e-2)
        values_only = SqueezingSpectrum(values=full.values, modes=None)
        a = export_table(full, tmp_path / "full", pairing)
        b = export_table(values_only, tmp_path / "values", pairing)
        assert a.read_bytes() == b.read_bytes()

    def test_writes_table_and_factors(self, tmp_path):
        paths = export_spectrum(
            spectrum_with_gap(), TakagiFactors(np.eye(6), np.ones(6)), np.zeros(6), tmp_path / "spec"
        )
        assert paths == [tmp_path / "spec.csv", tmp_path / "spec.npz"]
        for p in paths:
            assert p.exists()


def schmidt_factors(z0_fraction):
    """(detunings signal band first, Schmidt factors) of a small working point."""
    wp = build_working_point(m=8, z0_fraction=z0_fraction)
    omega = np.roll(wp.grid.detunings, wp.grid.m)
    return omega, schmidt_from_jsa(wp.ext.jsa)


def takagi_factors(z0_fraction):
    """(detunings signal band first, full-matrix Takagi factors) of a small working point."""
    wp = build_working_point(m=8, z0_fraction=z0_fraction)
    spec = spectrum_from_takagi(takagi_general(signal_first(wp.sq.gamma)))
    return np.roll(wp.grid.detunings, wp.grid.m), TakagiFactors(spec.modes, spec.values)


def store(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def assert_bitwise(a, b):
    """Equal dtype, shape and bits (a factor may be stored in Fortran order)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (a, b)]
    assert np.array_equal(*bits)


class TestSpectrumFile:
    """``spectrum.npz`` stores a run's factors exactly, and ``load_spectrum``
    gives them back or raises a ValueError."""

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["float64", "complex128"])
    def test_schmidt_round_trip_is_bitwise(self, tmp_path, z0_fraction):
        omega, sd = schmidt_factors(z0_fraction)
        spec = SqueezingSpectrum(np.repeat(sd.values, 2), None)
        _, path = export_spectrum(spec, sd, omega, tmp_path / "spectrum")
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == ["omega.npy", "r.npy", "c.npy", "d.npy"]
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        back_omega, back = load_spectrum(path)
        assert isinstance(back, SchmidtDecomposition)
        assert sd.c.dtype == (np.float64 if z0_fraction == 0.5 else np.complex128)
        for got, want in ((back_omega, omega), (back.values, sd.values), (back.c, sd.c), (back.d, sd.d)):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["float64", "complex128"])
    def test_takagi_round_trip_is_bitwise(self, tmp_path, z0_fraction):
        omega, factors = takagi_factors(z0_fraction)
        spec = SqueezingSpectrum(factors.r, factors.v)
        _, path = export_spectrum(spec, factors, omega, tmp_path / "spectrum")
        with np.load(path) as data:
            assert data.files == ["omega", "r", "v"]
        back_omega, back = load_spectrum(path)
        assert isinstance(back, TakagiFactors)
        for got, want in ((back_omega, omega), (back.r, factors.r), (back.v, factors.v)):
            assert_bitwise(got, want)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing-key", "bad.npz: keys .* are neither"),
            ("c-and-v", "bad.npz: keys .* are neither"),
            ("pickled-object", "bad.npz: Object arrays cannot be loaded when allow_pickle=False"),
            ("short-omega", "bad.npz: omega has shape"),
            ("c-shape", "bad.npz: c, d must be m x m"),
            ("v-shape", "bad.npz: modes must be n x n"),
            ("non-unitary-c", "bad.npz: c is not unitary"),
            ("non-unitary-v", "bad.npz: modes are not unitary"),
            ("ascending-r", "bad.npz: values must be finite, nonnegative and descending"),
            ("nan-omega", "bad.npz: omega has a NaN or infinite entry"),
            ("complex-omega", "bad.npz: omega has dtype complex128, not float64"),
            ("string-omega", "bad.npz: omega has dtype <U1, not float64"),
            ("string-r", "bad.npz: r has dtype <U.*, not float64"),
            ("integer-c", "bad.npz: c has dtype int64, not float64 or complex128"),
            ("nan-c", "bad.npz: c has a NaN or infinite entry"),
        ],
    )
    def test_malformed_file_raises(self, tmp_path, case, message):
        omega, sd = schmidt_factors(0.5)
        _, tf = takagi_factors(0.5)
        schmidt = dict(omega=omega, r=sd.values, c=sd.c, d=sd.d)
        takagi = dict(omega=omega, r=tf.r, v=tf.v)
        arrays = {
            "missing-key": {k: v for k, v in schmidt.items() if k != "d"},
            "c-and-v": {**schmidt, "v": tf.v},
            "pickled-object": {**schmidt, "extra": np.array([None], dtype=object)},
            "short-omega": {**schmidt, "omega": omega[:-1]},
            "c-shape": {**schmidt, "c": sd.c[:, :-1]},
            "v-shape": {**takagi, "v": tf.v[:-1]},
            "non-unitary-c": {**schmidt, "c": 2.0 * sd.c},
            "non-unitary-v": {**takagi, "v": 2.0 * tf.v},
            "ascending-r": {**schmidt, "r": sd.values[::-1]},
            "nan-omega": {**schmidt, "omega": np.full_like(omega, np.nan)},
            "complex-omega": {**schmidt, "omega": omega.astype(complex)},
            "string-omega": {**schmidt, "omega": np.full(omega.shape, "1")},
            "string-r": {**schmidt, "r": sd.values.astype(str)},
            "integer-c": {**schmidt, "c": np.eye(len(sd.values), dtype=np.int64)},
            "nan-c": {**schmidt, "c": np.where(sd.c == sd.c[0, 0], np.nan, sd.c)},
        }[case]
        with pytest.raises(ValueError, match=message):
            load_spectrum(store(tmp_path / "bad.npz", **arrays))


class TestSqueezingMatrixFile:
    """Gamma and its grid stored exactly in one uncompressed npz."""

    @pytest.mark.parametrize("z0_fraction", [0.5, 0.25], ids=["float64", "complex128"])
    def test_round_trip_is_bitwise(self, tmp_path, z0_fraction):
        wp = build_working_point(m=16, z0_fraction=z0_fraction)
        gamma, omega = wp.sq.gamma, wp.grid.detunings
        path = export_squeezing_matrix(gamma, omega, tmp_path / "squeezing_matrix.npz")
        assert path == tmp_path / "squeezing_matrix.npz"
        with np.load(path) as data:
            assert sorted(data.files) == ["gamma", "omega"]
        back_omega, back = load_squeezing_matrix(path)
        assert back.dtype == gamma.dtype == (np.float64 if z0_fraction == 0.5 else np.complex128)
        assert np.array_equal(back.view(np.uint64), gamma.view(np.uint64))
        assert np.array_equal(back_omega.view(np.uint64), omega.view(np.uint64))

    def test_uncompressed_and_deterministic(self, tmp_path):
        gamma = symmetric(np.random.randn(6, 6) + 1j * np.random.randn(6, 6))
        gamma[0, 1] = gamma[1, 0] = complex(-0.0, -0.0)
        omega = np.linspace(-0.5, 0.5, 6)
        first = export_squeezing_matrix(gamma, omega, tmp_path / "a.npz").read_bytes()
        second = export_squeezing_matrix(gamma, omega, tmp_path / "b.npz").read_bytes()
        assert first == second
        with zipfile.ZipFile(tmp_path / "a.npz") as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == ["omega.npy", "gamma.npy"]
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-gamma", r"bad.npz: keys \['omega'\] are not gamma, omega"),
            ("extra-key", r"bad.npz: keys \['extra', 'gamma', 'omega'\] are not gamma, omega"),
            ("pickled-object", "bad.npz: Object arrays cannot be loaded when allow_pickle=False"),
            ("empty-file", "bad.npz: No data left in file"),
            ("not-a-zip", r"bad.npz: This file contains pickled \(object\) data"),
            ("truncated", "bad.npz: File is not a zip file"),
            ("nan-gamma", "bad.npz: gamma has a NaN or infinite entry"),
            ("inf-omega", "bad.npz: omega has a NaN or infinite entry"),
            ("integer-gamma", "bad.npz: gamma has dtype int64, not float64 or complex128"),
            ("complex64-gamma", "bad.npz: gamma has dtype complex64, not float64 or complex128"),
            ("string-omega", "bad.npz: omega has dtype <U1, not float64"),
            ("npy-file", r"bad.npz: one .npy array, not an npz archive"),
            ("2d-omega", r"bad.npz: shapes omega \(1, 4\) and gamma \(4, 4\) are not"),
            ("non-square-gamma", r"bad.npz: shapes omega \(4,\) and gamma \(4, 3\) are not"),
        ],
    )
    def test_malformed_file_raises(self, tmp_path, case, message):
        """Only what ``export_squeezing_matrix`` writes loads; the dtype and
        finiteness rule is ``load_spectrum``'s."""
        omega = np.linspace(-0.5, 0.5, 4)
        gamma = symmetric(np.random.randn(4, 4))
        arrays = {
            "no-gamma": dict(omega=omega),
            "extra-key": dict(omega=omega, gamma=gamma, extra=omega),
            "pickled-object": dict(omega=omega, gamma=np.array([None], dtype=object)),
            "nan-gamma": dict(omega=omega, gamma=np.full_like(gamma, np.nan)),
            "inf-omega": dict(omega=np.full_like(omega, np.inf), gamma=gamma),
            "integer-gamma": dict(omega=omega, gamma=np.eye(4, dtype=np.int64)),
            "complex64-gamma": dict(omega=omega, gamma=gamma.astype(np.complex64)),
            "string-omega": dict(omega=np.full(omega.shape, "1"), gamma=gamma),
            "npy-file": None,
            "empty-file": b"",
            "not-a-zip": b"not an archive",
            "truncated": b"PK\x03\x04",
            "2d-omega": dict(omega=omega[None, :], gamma=gamma),
            "non-square-gamma": dict(omega=omega, gamma=gamma[:, :-1]),
        }[case]
        path = tmp_path / "bad.npz"
        if arrays is None:
            with open(path, "wb") as fh:
                np.save(fh, gamma)
        elif isinstance(arrays, bytes):
            path.write_bytes(arrays)
        else:
            store(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_squeezing_matrix(path)


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
    """Symmetric matrices, as Gamma is: signed-zero mirror pairs, rows with
    and without an imaginary part, and edge values."""

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
