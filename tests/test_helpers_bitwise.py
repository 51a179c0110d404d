"""The private Takagi and twin-beam helpers against their plain numpy formulas.

Each reference below is the straightforward expression of a helper that is
written for numpy's fast paths (no fancy column gather, no axis-0 argmax on
floats, one pass over a complex matrix).  Outputs are compared as bytes, so
a signed zero or a NaN in a different place fails.
"""

import numpy as np
import pytest

import twinbeams.takagi as takagi
from twinbeams.takagi import (
    _factors_from_signed,
    _largest_entry_phase,
    _real_basis,
    _unitarity_defect,
)
from twinbeams.twinbeam import (
    SchmidtDecomposition,
    _duo_gaps,
    eigenmodes_from_schmidt,
)

RNG_SEED = 20260


def ref_largest_entry_phase(u):
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    if not np.iscomplexobj(u):
        return np.where(pivot == 0, 1.0, np.sign(pivot))
    mag = np.hypot(pivot.real, pivot.imag)
    return np.divide(pivot, mag, out=np.ones_like(pivot), where=mag != 0)


def ref_factors_from_signed(lam, vectors):
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    v = vectors[:, order].astype(complex, copy=False)
    v[:, lam < 0] *= 1j
    return v, np.abs(lam)


def ref_real_basis(v):
    if np.isrealobj(v):
        return v, np.zeros(v.shape[1], dtype=bool)
    re, im = v.real, v.imag
    imag = np.any(im, axis=0)
    if np.any(imag & np.any(re, axis=0)):
        return v, np.zeros_like(imag)
    return re + im, imag


def ref_duo_gaps(values):
    r1 = values[0] if len(values) else 0.0
    pairs = []
    for k in range(len(values) // 2):
        i0, i1 = 2 * k, 2 * k + 1
        gap = 0.0 if r1 == 0.0 else abs(values[i0] - values[i1]) / r1
        pairs.append((i0, i1, float(gap)))
    return tuple(pairs)


def ref_duo_modes(c, d):
    """The duos (C_j; D_j*)/sqrt(2) and (i C_j; -i D_j*)/sqrt(2), out of place."""
    m = c.shape[0]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    modes = np.empty((2 * m, 2 * m), dtype=complex)
    modes[:m, 0::2] = c * inv_sqrt2
    modes[:m, 1::2] = (1j * c) * inv_sqrt2
    modes[m:, 0::2] = d.conj() * inv_sqrt2
    modes[m:, 1::2] = (-1j * d.conj()) * inv_sqrt2
    return modes


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def layouts(u):
    """The C, F and strided (every other row and a reversed column order) copies of ``u``."""
    big = np.zeros((2 * u.shape[0], u.shape[1]), dtype=u.dtype)
    big[::2] = u[:, ::-1]
    return {
        "C": np.ascontiguousarray(u),
        "F": np.asfortranarray(u),
        "strided": big[::2, ::-1],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


class TestLargestEntryPhase:
    @staticmethod
    def awkward(rng, complex_):
        """Random columns, then: a tie of +-3 (and 3i), a signed-zero column, a
        NaN column, a NaN after an inf, and an all-inf column."""
        u = rng.standard_normal((9, 8))
        if complex_:
            u = u + 1j * rng.standard_normal((9, 8))
        u[:, 0] = 0.5
        u[[2, 5], 0] = [-3.0, 3.0]
        if complex_:
            u[7, 0] = 3j
        u[:, 1] = np.where(np.arange(9) % 2, -0.0, 0.0)
        u[[3, 6], 2] = np.nan
        u[[1, 4], 3] = [np.inf, np.nan]
        u[:, 4] = -np.inf
        return u

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_argmax_pivot(self, rng, complex_, layout):
        u = layouts(self.awkward(rng, complex_))[layout]
        with np.errstate(invalid="ignore"):
            expected = ref_largest_entry_phase(u)
            got = _largest_entry_phase(u)
        assert same_bytes(got, expected)

    def test_tie_takes_the_first_row(self):
        u = np.array([[1.0, 0.0], [-4.0, -0.0], [4.0, 0.0]])
        assert _largest_entry_phase(u).tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_random_unitary(self, rng, layout):
        q = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))[0]
        u = layouts(q)[layout]
        assert same_bytes(_largest_entry_phase(u), ref_largest_entry_phase(u))


class TestFactorsFromSigned:
    @staticmethod
    def signed(rng, n):
        """Eigenvalues with ties in |lam|, both signs of zero and negatives."""
        lam = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5, -0.5], size=n)
        lam[:3] = [1.5, -1.5, 1.5]
        return lam

    @staticmethod
    def vectors(rng, n, complex_):
        """Random entries with signed zeros sprinkled in (both parts when complex)."""
        pick = [-0.0, 0.0, 1.25, -0.75]
        v = rng.standard_normal((n, n))
        v[rng.random((n, n)) < 0.3] = rng.choice(pick, size=1)
        if complex_:
            im = rng.standard_normal((n, n))
            im[rng.random((n, n)) < 0.3] = -0.0
            im[rng.random((n, n)) < 0.1] = 0.0
            v = v + 1j * im
            v[rng.random((n, n)) < 0.1] = complex(-0.0, -0.0)
        return v

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_matches_gather_and_scale(self, rng, complex_, layout):
        n = 24
        lam = self.signed(rng, n)
        vectors = layouts(self.vectors(rng, n, complex_))[layout]
        expected_v, expected_r = ref_factors_from_signed(lam, vectors.copy(order="K"))
        got = _factors_from_signed(lam, vectors)
        assert same_bytes(got.v, expected_v)
        assert same_bytes(got.r, expected_r)

    def test_input_left_alone(self, rng):
        lam = self.signed(rng, 12)
        vectors = self.vectors(rng, 12, True)
        before = vectors.tobytes()
        _factors_from_signed(lam, vectors)
        assert vectors.tobytes() == before


class TestRealBasis:
    @staticmethod
    def structured(rng, n=10):
        """V = O diag(1 or i) with +-0 in the unused parts and a signed-zero column."""
        o = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = o.astype(complex)
        v[:, 1::3] *= 1j
        v[:, 2::3] = v[:, 2::3].conj()
        v[:, 4] = complex(-0.0, 0.0)
        return v

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_real_or_imaginary_columns(self, rng, layout):
        v = layouts(self.structured(rng))[layout]
        w, imag = _real_basis(v)
        ref_w, ref_imag = ref_real_basis(v)
        assert same_bytes(w, ref_w)
        assert imag.tolist() == ref_imag.tolist()
        assert not imag[4]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_a_mixed_column_keeps_v(self, rng, layout):
        v = self.structured(rng)
        v[3, 6] += 1e-300j if v[3, 6].imag == 0 else 1e-300
        v = layouts(v)[layout]
        w, imag = _real_basis(v)
        assert w is v
        assert not imag.any() and len(imag) == v.shape[1]

    @pytest.mark.parametrize("columns", [slice(2, 7), slice(None, None, 2), slice(None, None, -3)])
    def test_column_slice(self, rng, columns):
        v = self.structured(rng)[:, columns]
        w, imag = _real_basis(v)
        ref_w, ref_imag = ref_real_basis(v)
        assert same_bytes(w, ref_w)
        assert imag.tolist() == ref_imag.tolist()

    def test_nan_part_counts_as_nonzero(self, rng):
        v = self.structured(rng)
        v[0, 0] = complex(v[0, 0].real, np.nan)
        w, imag = _real_basis(v)
        assert w is v and not imag.any()


class TestDuoGaps:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.7],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1e-16, -1e-16],
            [3.0, 2.9, 1.0, 0.99, 0.5],
            [1.0, 1.0, 0.25, 0.125, 0.0, 0.0],
        ],
        ids=["empty", "one", "r1-zero-odd", "r1-zero-negative", "odd", "even"],
    )
    def test_matches_loop(self, values):
        values = np.asarray(values, dtype=float)
        got, expected = _duo_gaps(values), ref_duo_gaps(values)
        assert repr(got) == repr(expected)
        assert all(type(i0) is int and type(i1) is int and type(g) is float for i0, i1, g in got)

    def test_random_spectrum(self, rng):
        values = np.sort(rng.uniform(0.0, 2.0, 301))[::-1]
        assert repr(_duo_gaps(values)) == repr(ref_duo_gaps(values))


def schmidt_factors(rng, m, complex_, eps=0.0, d_shift=None):
    """Unitary C and D (real or complex) times I + eps H_c and I + eps H_d, for
    Hermitian H with |H| <= 1/2, so their Gram defects are about eps.

    H_c is random; H_d is an independent one, or +-conj(H_c) for ``d_shift``
    +1 or -1, which makes conj(E_d) = +-E_c to first order and so leaves the
    duo defect to the E_c + conj(E_d) or the E_c - conj(E_d) term alone.
    """

    def unitary():
        z = rng.standard_normal((m, m))
        if complex_:
            z = z + 1j * rng.standard_normal((m, m))
        return np.linalg.qr(z)[0]

    def hermitian():
        h = rng.uniform(-0.5, 0.5, (m, m))
        if complex_:
            h = h + 1j * rng.uniform(-0.5, 0.5, (m, m))
        return 0.5 * (h + h.conj().T)

    h_c = hermitian()
    h_d = hermitian() if d_shift is None else d_shift * h_c.conj()
    c = unitary() @ (np.eye(m) + eps * h_c)
    d = unitary() @ (np.eye(m) + eps * h_d)
    values = np.sort(rng.uniform(0.0, 1.0, m))[::-1]
    return c, d, values


class TestDuoGram:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "eps, d_shift",
        [(0.0, None), (5e-11, None), (5e-11, 1), (5e-11, -1)],
        ids=["unperturbed", "independent", "sum-term", "difference-term"],
    )
    def test_spectrum_bound_brackets_the_modes_defect(self, rng, complex_, eps, d_shift):
        """The spectrum's bound, the larger defect of C and D, lies between the
        modes' 2m x 2m Gram defect and twice it."""
        c, d, values = schmidt_factors(rng, 48, complex_, eps, d_shift)
        modes = eigenmodes_from_schmidt(SchmidtDecomposition(c, d, values)).modes
        bound, full = max(_unitarity_defect(c), _unitarity_defect(d)), _unitarity_defect(modes)
        if eps:
            assert 1e-11 < full < 1e-10
        assert full <= bound + 64 * np.finfo(float).eps
        assert bound <= 2 * full + 64 * np.finfo(float).eps

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_only_m_by_m_gram_matrices(self, monkeypatch, rng, complex_):
        """The check forms the Gram matrices of C and D, never the 2m x 2m one."""
        c, d, values = schmidt_factors(rng, 20, complex_, 5e-11)
        sd = SchmidtDecomposition(c, d, values)
        shapes = []
        kernel = takagi._identity_defect

        def recording(g):
            shapes.append(g.shape)
            return kernel(g)

        monkeypatch.setattr(takagi, "_identity_defect", recording)
        eigenmodes_from_schmidt(sd)
        assert shapes == [(20, 20), (20, 20)]

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_spectrum_is_the_out_of_place_duos(self, rng, complex_):
        c, d, values = schmidt_factors(rng, 33, complex_, 5e-11)
        sd = SchmidtDecomposition(c, d, values)
        spectrum = eigenmodes_from_schmidt(sd)
        expected_values = np.repeat(sd.values, 2)
        assert same_bytes(spectrum.values, expected_values)
        assert same_bytes(spectrum.modes, ref_duo_modes(sd.c, sd.d))
        assert repr(spectrum.pairs) == repr(ref_duo_gaps(expected_values))

    def test_non_unitary_factors_still_fail(self, rng):
        """The m x m check is live: C spoiled after validation fails as the 2m x 2m one did."""
        c, d, values = schmidt_factors(rng, 16, False)
        sd = SchmidtDecomposition(c, d, values)
        sd.c[0, 0] += 1e-9
        with pytest.raises(ValueError, match="modes are not unitary"):
            eigenmodes_from_schmidt(sd)

    @pytest.mark.parametrize("factor", ["c", "d"])
    def test_nan_in_either_factor_fails(self, rng, factor):
        """A NaN put into C or D after validation fails the check."""
        c, d, values = schmidt_factors(rng, 16, True)
        sd = SchmidtDecomposition(c, d, values)
        getattr(sd, factor)[3, 5] = np.nan
        with pytest.raises(ValueError, match="modes are not unitary"):
            eigenmodes_from_schmidt(sd)
