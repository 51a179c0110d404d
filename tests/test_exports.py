"""Tests for the CSV/JSON artifact writers."""

import csv
import json

import numpy as np
import pytest

from twinbeams.io import export_matrix_heatmap, export_spectrum, write_csv
from twinbeams.twinbeam import SqueezingSpectrum, pair_eigenvalues

np.random.seed(42)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def per_cell_heatmap(matrix, row_grid, col_grid, path):
    """Reference: the element-by-element heatmap writer built on write_csv."""
    mat = np.asarray(matrix)
    rows_w = np.asarray(row_grid, dtype=float)
    cols_w = np.asarray(col_grid, dtype=float)

    def rows():
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                v = complex(mat[i, j])
                yield (rows_w[i], cols_w[j], v.real, v.imag, abs(v))

    return write_csv(path, ["omega", "omega_prime", "re", "im", "abs"], rows())


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

    @staticmethod
    def assert_bytes_match_per_cell(tmp_path, mat, rg, cg):
        got = export_matrix_heatmap(mat, rg, cg, tmp_path / "fast.csv").read_bytes()
        want = per_cell_heatmap(mat, rg, cg, tmp_path / "ref.csv").read_bytes()
        assert got == want

    def test_bytes_match_per_cell_writer_random(self, tmp_path):
        mat = np.random.randn(7, 7) + 1j * np.random.randn(7, 7)
        g = np.linspace(-0.55, 0.55, 7)
        self.assert_bytes_match_per_cell(tmp_path, mat, g, g)

    def test_bytes_match_per_cell_writer_edge_values(self, tmp_path):
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 0.1])
        # Every (re, im) pair; set by part, since 1j * inf would put a nan in re.
        mat = np.empty((8, 8), dtype=complex)
        mat.real, mat.imag = np.meshgrid(edge, edge, indexing="ij")
        mat = mat.reshape(16, 4)
        rg = np.concatenate([edge, -edge])
        cg = np.array([-0.0, 5e-324, 1e300, np.nan])
        self.assert_bytes_match_per_cell(tmp_path, mat, rg, cg)

    def test_bytes_match_per_cell_writer_real_input(self, tmp_path):
        mat = np.array([[-0.0, np.nan, 1e300], [np.inf, 5e-324, -2.5]])
        self.assert_bytes_match_per_cell(tmp_path, mat, [0.1, 0.2], [-1.0, 0.0, 1.0])

    def test_bytes_match_per_cell_writer_non_square(self, tmp_path):
        mat = np.random.randn(2, 3) + 1j * np.random.randn(2, 3)
        self.assert_bytes_match_per_cell(tmp_path, mat, [-0.3, 0.3], [-0.1, 0.0, 0.1])

    def test_shape_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not match grids"):
            export_matrix_heatmap(np.eye(3), np.zeros(2), np.zeros(3), tmp_path / "m.csv")
