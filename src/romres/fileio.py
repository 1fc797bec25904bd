"""Deterministic file output: CSV tables, PGM heatmaps, JSON files.

The only module that turns values into artifact text.  All writers use
repr() of Python floats (shortest round-trip form), '.' decimals and
'\\n' line endings so that reruns with identical inputs produce
bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .errors import RomresError
from .grids import Grid2D

__all__ = ["write_csv", "render_heatmap", "write_pgm", "write_json",
           "write_manifest", "config_hash"]


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write a CSV table; cells are formatted with repr for floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(repr(float(x)))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def render_heatmap(values: np.ndarray, grid: Grid2D) -> bytes:
    """Linear grayscale PGM (P5, maxval 255) of a cell field.

    Minimum maps to 0 and maximum to 255; a constant field renders as all
    zeros.  Image rows run from the top of the domain (largest y) down, so
    the picture matches the physical layout with the accessible boundary
    at the bottom.
    """
    v = np.asarray(values, dtype=float)
    if v.size != grid.n_cells:
        raise RomresError("field length does not match the grid")
    img = v.reshape(grid.ny, grid.nx)[::-1, :]
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8).tobytes()
    header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode()
    return header + data


def write_pgm(path: str | Path, values: np.ndarray, grid: Grid2D) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(render_heatmap(values, grid))
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    """Write ``payload`` as JSON: indent 2, sorted keys, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def write_manifest(path: str | Path, config: dict, outputs: list[str],
                   wall_time: float) -> Path:
    from . import __version__

    return write_json(path, {
        "config": config,
        "config_hash": config_hash(config),
        "outputs": sorted(outputs),
        "version": __version__,
        "wall_time_s": wall_time,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
