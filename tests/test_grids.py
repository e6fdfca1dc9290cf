import numpy as np
import pytest

from arplace.grids import (MAX_GRID_CELLS, ARPlaceGrid, CostGrid, GridSizeError, GridSpec,
                           load_grid_text, save_grid_text, save_pgm)


def _grid(nx=5, ny=4, seed=0):
    spec = GridSpec(origin_x=0.1, origin_y=-0.3, cell_size=0.05, nx=nx, ny=ny)
    probs = np.random.default_rng(seed).uniform(0, 1, (nx, ny))
    return ARPlaceGrid(spec=spec, probs=probs, frame="gsm")


def test_covering_spans_requested_rectangle():
    spec = GridSpec.covering(0.15, 1.05, -0.78, 0.78, 0.025)
    xs, ys = spec.centers()
    assert xs[0] <= 0.15 + 1e-9 + spec.cell_size
    assert xs[-1] >= 1.05 - spec.cell_size - 1e-9
    assert xs[-1] - xs[0] == pytest.approx((spec.nx - 1) * 0.025)
    assert len(xs) == spec.nx and len(ys) == spec.ny


def test_center_points_layout_rows_then_cols():
    spec = GridSpec(0.0, 0.0, 0.1, 3, 2)
    pts = spec.center_points()
    assert pts.shape == (6, 2)
    # flattening matches probs.reshape(nx, ny): j varies fastest
    xs, ys = spec.centers()
    k = 0
    for i in range(3):
        for j in range(2):
            assert pts[k, 0] == pytest.approx(xs[i])
            assert pts[k, 1] == pytest.approx(ys[j])
            k += 1


def test_grid_shape_validation():
    spec = GridSpec(0.0, 0.0, 0.1, 3, 2)
    with pytest.raises(ValueError):
        ARPlaceGrid(spec=spec, probs=np.zeros((2, 3)), frame="gsm")
    with pytest.raises(ValueError):
        ARPlaceGrid(spec=spec, probs=np.full((3, 2), 1.5), frame="gsm")
    with pytest.raises(ValueError):
        ARPlaceGrid(spec=spec, probs=np.full((3, 2), np.nan), frame="gsm")
    for origin_x, cell_size in ((np.nan, 0.1), (np.inf, 0.1), (0.0, np.nan), (0.0, np.inf)):
        with pytest.raises(ValueError):
            GridSpec(origin_x, 0.0, cell_size, 3, 2)


def test_grid_size_is_bounded():
    """Every grid, however built, has at most MAX_GRID_CELLS cells; a cell
    size so fine that the cell count overflows a float is refused the same
    way, not with OverflowError."""
    assert MAX_GRID_CELLS == 1000 * 1000
    GridSpec(0.0, 0.0, 0.1, 1000, 1000)
    with pytest.raises(GridSizeError, match="1001 x 1000 = 1001000 cells"):
        GridSpec(0.0, 0.0, 0.1, 1001, 1000)
    with pytest.raises(GridSizeError, match=f"limit of {MAX_GRID_CELLS}"):
        GridSpec.covering(0.15, 1.05, -0.78, 0.78, 5e-324)


def test_grid_cell_centers_are_finite():
    GridSpec(0.0, 0.0, 1e308, 2, 1)
    for origin_x, cell_size, nx in ((0.0, 1e308, 3), (1e308, 1e308, 2), (-1e308, 1e308, 4)):
        with pytest.raises(ValueError, match="float range"):
            GridSpec(origin_x, 0.0, cell_size, nx, 1)


# (header line of a good 3 x 4 file that replaces its namesake, line the
# error names, error type); line 1 is a comment, lines 2-5 the header
BAD_SPECS = {
    "too_many_cells": ("nx_ny 1001 1000", "line 5:", GridSizeError),
    "no_rows": ("nx_ny 0 4", "line 5:", ValueError),
    "no_columns": ("nx_ny 3 -1", "line 5:", ValueError),
    "centers_beyond_the_float_range": ("cell_size 1e308", "line 5:", ValueError),
    "zero_cell": ("cell_size 0", "line 4:", ValueError),
    "negative_cell": ("cell_size -0.1", "line 4:", ValueError),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_load_grid_text_names_the_line_of_a_spec_it_refuses(tmp_path, name):
    """A header that GridSpec refuses names the nx_ny line, or the
    cell_size line for a cell size that is not positive; a cell count over
    the limit stays a GridSizeError."""
    line, where, error = BAD_SPECS[name]
    good = tmp_path / "good.txt"
    save_grid_text(ARPlaceGrid(GridSpec(0.0, 0.0, 0.1, 3, 4), np.full((3, 4), 0.5)), good,
                   header_lines=["test grid"])
    key = line.split()[0]
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(line + "\n" if ln.startswith(key + " ") else ln
                           for ln in good.read_text().splitlines(keepends=True)))
    with pytest.raises(error, match=f"^{where}"):
        load_grid_text(bad)


def test_text_round_trip_is_exact(tmp_path):
    grid = _grid()
    path = tmp_path / "g.txt"
    save_grid_text(grid, path, header_lines=["made for the round-trip test"])
    back = load_grid_text(path)
    assert back.spec == grid.spec
    assert back.frame == grid.frame
    np.testing.assert_array_equal(back.probs, grid.probs)


def test_text_save_is_deterministic(tmp_path):
    grid = _grid()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_grid_text(grid, a)
    save_grid_text(grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_pgm_is_valid_and_scaled(tmp_path):
    spec = GridSpec(0.0, 0.0, 0.1, 2, 2)
    probs = np.array([[0.0, 1.0], [0.5, 0.25]])
    grid = ARPlaceGrid(spec=spec, probs=probs, frame="gsm")
    path = tmp_path / "g.pgm"
    save_pgm(grid, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P2") or raw.startswith(b"P5")
    text = raw.decode("latin-1")
    assert "255" in text


def test_cost_grid_rejects_negative_costs():
    spec = GridSpec(0.0, 0.0, 0.1, 2, 2)
    with pytest.raises(ValueError):
        CostGrid(spec=spec, costs=np.full((2, 2), -1.0), frame="gsm")
