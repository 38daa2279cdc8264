"""CSV matrices: ``save_matrix`` writes savetxt's bytes, and what it writes reads back."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab.io import MAX_ABS, load_matrix, save_matrix

SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300,
                     1e100, np.nextafter(1e100, np.inf), 0.1, 1 / 3])


def _matrix(kind, n, m, rng):
    if kind == "binary":
        return rng.integers(0, 2, (n, m)).astype(np.float64)
    if kind == "counts":
        return rng.poisson(1.5, (n, m)).astype(np.float64)
    if kind == "blocks":
        values = rng.random((3, 4))
        return values[rng.integers(0, 3, n)][:, rng.integers(0, 4, m)]
    if kind == "distinct":
        return rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 99, (n, m))
    if kind == "specials":
        return rng.choice(SPECIALS, (n, m))
    # "mixed": distinct rows and constant rows, so that some blocks of rows
    # are formatted value by value and others entry by entry
    M = rng.random((n, m))
    M[rng.random(n) < 0.5] = -0.0
    return M


def _savetxt_bytes(path, M):
    np.savetxt(path, np.atleast_2d(M), fmt="%.17g", delimiter=",")
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["binary", "counts", "blocks", "distinct", "specials", "mixed"]),
    n=st.one_of(st.just(1), st.integers(1, 300)),
    m=st.one_of(st.just(1), st.integers(1, 80)),
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_matrix_writes_savetxt_bytes_and_reads_back(tmp_path_factory, kind, n, m,
                                                          transposed, seed):
    M = _matrix(kind, n, m, np.random.default_rng(seed))
    if transposed:
        M = M.T  # a non-contiguous input
    d = tmp_path_factory.mktemp("csv")
    save_matrix(d / "got.csv", M)
    assert (d / "got.csv").read_bytes() == _savetxt_bytes(d / "want.csv", M)
    if np.all(np.abs(M) <= MAX_ABS):
        back = load_matrix(d / "got.csv")
        assert back.tobytes() == np.atleast_2d(M).tobytes()  # -0.0 and 5e-324 too
    else:
        with pytest.raises(ValueError, match="not numbers in"):
            load_matrix(d / "got.csv")
        back = np.loadtxt(d / "got.csv", delimiter=",", ndmin=2)
        assert np.array_equal(back, M, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(M) & ~np.isnan(M))


@pytest.mark.parametrize("M", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(0), np.arange(5.0),
                               np.array([[0.0, -0.0]])], ids=str)
def test_save_matrix_edge_shapes_write_savetxt_bytes(tmp_path, M):
    save_matrix(tmp_path / "got.csv", M)
    assert (tmp_path / "got.csv").read_bytes() == _savetxt_bytes(tmp_path / "want.csv", M)


def test_load_matrix_names_the_count_and_first_entry_beyond_the_bound(tmp_path):
    M = np.zeros((3, 4))
    M[1, 2], M[2, 0] = 2e100, np.nan
    save_matrix(tmp_path / "big.csv", M)
    with pytest.raises(ValueError, match=r"big.csv: 2 entries not numbers in \[-1e100, 1e100\], "
                                         r"first 2e\+100 at row 1, column 2"):
        load_matrix(tmp_path / "big.csv")
    M[1, 2], M[2, 0] = -MAX_ABS, MAX_ABS
    save_matrix(tmp_path / "edge.csv", M)
    assert load_matrix(tmp_path / "edge.csv").tobytes() == M.tobytes()
