import json

import numpy as np
import pytest

from romres.errors import RomresError
from romres.fileio import config_hash, render_heatmap, write_csv, write_manifest, write_pgm
from romres.grids import Grid2D


def test_csv_bitwise_stable(tmp_path):
    rows = [(1, 0.1 + 0.2), (2, 1.0 / 3.0)]
    p1 = write_csv(tmp_path / "a.csv", ["i", "v"], rows)
    p2 = write_csv(tmp_path / "b.csv", ["i", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "i,v"
    # repr round-trips floats exactly
    v = float(p1.read_text().splitlines()[1].split(",")[1])
    assert v == 0.1 + 0.2


def test_pgm_structure():
    g = Grid2D(nx=90, ny=30)
    vals = np.linspace(0.0, 1.0, g.n_cells)
    img = render_heatmap(vals, g)
    assert img.startswith(b"P5\n90 30\n255\n")
    body = img.split(b"255\n", 1)[1]
    assert len(body) == 90 * 30
    assert 0 in body and 255 in body  # min and max pixels present


def test_pgm_constant_field_uniform():
    g = Grid2D(nx=10, ny=4)
    img = render_heatmap(np.full(g.n_cells, 3.3), g)
    body = img.split(b"255\n", 1)[1]
    assert set(body) == {0}


def test_pgm_refuses_a_field_that_is_not_real():
    # a string field raised numpy's ValueError from the float conversion
    g = Grid2D(nx=3, ny=2)
    for bad in (np.array(list("abcdef")), np.ones(g.n_cells) + 1j):
        with pytest.raises(RomresError, match="field"):
            render_heatmap(bad, g)


def test_pgm_deterministic(tmp_path):
    g = Grid2D(nx=12, ny=5)
    vals = np.sin(np.arange(g.n_cells) * 0.1) + 2.0
    p1 = write_pgm(tmp_path / "a.pgm", vals, g)
    p2 = write_pgm(tmp_path / "b.pgm", vals, g)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest(tmp_path):
    conf = {"scenario": "x", "m0": 5}
    p = write_manifest(tmp_path / "manifest.json", conf, ["a.csv"], 1.25)
    d = json.loads(p.read_text())
    assert d["config_hash"] == config_hash(conf)
    assert d["outputs"] == ["a.csv"]
    assert "version" in d and "wall_time_s" in d
