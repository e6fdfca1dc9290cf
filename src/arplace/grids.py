"""Discrete probability / cost grids over candidate base positions, with the
text and graymap serialization formats.

Cell (i, j) has center (origin_x + i*cell_size, origin_y + j*cell_size);
i runs along x, j along y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# most cells of any grid, 8 MB per float map; GridSpec refuses more
MAX_GRID_CELLS = 1_000_000


class GridSizeError(ValueError):
    """A grid of more than MAX_GRID_CELLS cells."""


@dataclass(frozen=True)
class GridSpec:
    origin_x: float
    origin_y: float
    cell_size: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError("origin must be finite")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be finite and positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell")
        if self.nx * self.ny > MAX_GRID_CELLS:
            raise GridSizeError(f"a grid of {self.nx} x {self.ny} = {self.nx * self.ny} cells "
                                f"is above the limit of {MAX_GRID_CELLS}")
        if not all(map(math.isfinite, self.cell_center(self.nx - 1, self.ny - 1))):
            raise ValueError("the last cell center lies beyond the float range")

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (self.origin_x + i * self.cell_size,
                self.origin_y + j * self.cell_size)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.origin_x + self.cell_size * np.arange(self.nx)
        ys = self.origin_y + self.cell_size * np.arange(self.ny)
        return xs, ys

    def center_points(self) -> np.ndarray:
        """All cell centers as an (nx*ny, 2) array, i-major."""
        xs, ys = self.centers()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    @classmethod
    def covering(cls, x_min, x_max, y_min, y_max, cell_size) -> "GridSpec":
        """Grid from (x_min, y_min) whose cells reach x_max and y_max. A span
        of more cells than a float holds raises GridSizeError too."""
        spans = ((x_max - x_min) / cell_size, (y_max - y_min) / cell_size)
        if any(map(math.isinf, spans)):
            raise GridSizeError(f"cell size {cell_size!r} gives more cells than a float "
                                f"counts, above the limit of {MAX_GRID_CELLS}")
        nx, ny = (int(np.ceil(span)) + 1 for span in spans)
        return cls(x_min, y_min, cell_size, nx, ny)


@dataclass
class ARPlaceGrid:
    """Per-cell probability that the manipulation action succeeds."""

    spec: GridSpec
    probs: np.ndarray
    frame: str = "gsm"  # "gsm" (object-relative) or "world"

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (self.spec.nx, self.spec.ny):
            raise ValueError("probs shape must be (nx, ny)")
        if not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")

    def same_geometry(self, other: "ARPlaceGrid") -> bool:
        return self.spec == other.spec and self.frame == other.frame


@dataclass
class CostGrid:
    """Expected task time per candidate cell, in seconds."""

    spec: GridSpec
    costs: np.ndarray
    frame: str = "gsm"

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=float)
        if self.costs.shape != (self.spec.nx, self.spec.ny):
            raise ValueError("costs shape must be (nx, ny)")
        if np.any(~np.isfinite(self.costs)) or np.any(self.costs < 0.0):
            raise ValueError("costs must be finite and non-negative")


def save_grid_text(grid, path, header_lines: list[str] | None = None):
    """Text format: optional '#' comment lines, a 5-line header (origin_x,
    origin_y, cell_size, nx ny, then the frame: gsm or world), then nx rows
    of ny values."""
    values = grid.probs if isinstance(grid, ARPlaceGrid) else grid.costs
    s = grid.spec
    with open(path, "w") as f:
        for line in header_lines or []:
            f.write(f"# {line}\n")
        f.write(f"origin_x {s.origin_x:.17g}\n")
        f.write(f"origin_y {s.origin_y:.17g}\n")
        f.write(f"cell_size {s.cell_size:.17g}\n")
        f.write(f"nx_ny {s.nx} {s.ny}\n")
        f.write(f"frame {grid.frame}\n")
        for i in range(s.nx):
            f.write(" ".join(f"{v:.17g}" for v in values[i]) + "\n")


_GRID_HEADER = ("origin_x", "origin_y", "cell_size", "nx_ny")


def _parse_line(no: int, text: str, count: int, kind=float) -> list:
    try:
        values = [kind(t) for t in text.split()]
    except ValueError:
        raise ValueError(f"line {no}: not a number in {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"line {no}: not a finite number in {text!r}")
    if len(values) != count:
        raise ValueError(f"line {no}: expected {count} values, found {len(values)}")
    return values


def load_grid_text(path) -> ARPlaceGrid:
    """Read the save_grid_text format as a map of the frame its header
    names; a file without the frame line, as written before the format
    stored it, reads as a "gsm" map. A file whose header keys, row count
    (nx) or row lengths (ny) do not match, whose frame is neither gsm nor
    world, with a value that is not a finite number, or whose header
    GridSpec refuses, raises ValueError naming the line."""
    with open(path) as f:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(f, 1)
                 if not ln.startswith("#")]
    if len(lines) < len(_GRID_HEADER):
        raise ValueError(f"line {lines[-1][0] if lines else 1}: file ends inside "
                         f"the {len(_GRID_HEADER)}-line header")
    header = {}
    for (no, ln), want in zip(lines, _GRID_HEADER):
        key, _, rest = ln.partition(" ")
        if key != want:
            raise ValueError(f"line {no}: expected header key {want!r}, found {key!r}")
        header[key] = (no, rest)
    origin_x, origin_y, cell_size = (_parse_line(*header[k], 1)[0] for k in _GRID_HEADER[:3])
    nx, ny = _parse_line(*header["nx_ny"], 2, int)
    try:
        spec = GridSpec(origin_x, origin_y, cell_size, nx, ny)
    except ValueError as e:  # GridSizeError stays one
        raise type(e)(f"line {header['cell_size' if cell_size <= 0 else 'nx_ny'][0]}: {e}")
    rows = lines[len(_GRID_HEADER):]
    last, frame = header["nx_ny"][0], "gsm"
    if rows and rows[0][1].partition(" ")[0] == "frame":
        (last, text), rows = rows[0], rows[1:]
        frame = text.partition(" ")[2]
        if frame not in ("gsm", "world"):
            raise ValueError(f"line {last}: expected frame gsm or world, found {frame!r}")
    if len(rows) < nx:
        raise ValueError(f"line {rows[-1][0] if rows else last}: file ends after "
                         f"{len(rows)} of {nx} rows")
    if len(rows) > nx:
        raise ValueError(f"line {rows[nx][0]}: row beyond the {nx} rows of the header")
    values = np.array([_parse_line(no, ln, ny) for no, ln in rows])
    return ARPlaceGrid(spec=spec, probs=values, frame=frame)


def save_pgm(grid: ARPlaceGrid, path, header_lines: list[str] | None = None):
    """8-bit ASCII portable graymap; pixel value = round(255 * P).
    Image rows are y indices ascending, columns x indices ascending."""
    s = grid.spec
    pix = np.rint(255.0 * grid.probs).astype(int)
    with open(path, "w") as f:
        f.write("P2\n")
        for line in header_lines or []:
            f.write(f"# {line}\n")
        f.write(f"{s.nx} {s.ny}\n255\n")
        for j in range(s.ny):
            f.write(" ".join(str(int(pix[i, j])) for i in range(s.nx)) + "\n")
