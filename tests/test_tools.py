"""The scripts under tools/: ab_pairs' verdicts and output_hashes."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from romres.inversion import InversionHistory

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load("ab_pairs")
output_hashes = _load("output_hashes")


@pytest.mark.parametrize("change, sign, bound, expected", [
    # 5 of 5 pairs won and a gap of 0.18 beyond the parent's quartiles (0.1)
    ([0.8, 0.85, 0.9, 0.82, 0.83], -1.0, 0.24, (5, "met", "within")),
    # every pair won, but by less than the quartile distance
    ([0.99, 1.09, 1.19, 0.99, 1.04], -1.0, 0.24, (5, "not met", "within")),
    # 4 of 5 won with a large gap: below nine tenths
    ([0.8, 0.85, 1.3, 0.82, 0.83], -1.0, 0.24, (4, "not met", "within")),
    # the median is 30% worse, beyond the 24% bound
    ([1.3, 1.4, 1.35, 1.32, 1.31], -1.0, 0.24, (0, "not met", "worse")),
    # 5% worse, within a 6% bound, but the parent's quartiles span more than
    # 6% of its median and the change lost pairs
    ([1.1, 1.1, 1.2, 1.0, 1.1], -1.0, 0.06, (0, "not met", "unresolved")),
    # ... which a change that wins every pair resolves
    ([0.99, 1.09, 1.19, 0.99, 1.04], -1.0, 0.06, (5, "not met", "within")),
    # higher is better; no bound
    ([1.3, 1.4, 1.35, 1.32, 1.31], 1.0, None, (5, "met", "-")),
])
def test_ab_pairs_verdicts(change, sign, bound, expected):
    parent = [1.0, 1.1, 1.2, 1.0, 1.05]
    assert ab_pairs.verdicts(parent, change, sign, bound) == expected


def test_output_hashes_see_one_ulp():
    r = np.linspace(1.0, 2.0, 7)
    hist = InversionHistory(residual=[1.0, 0.5], m=3, notes=["stagnated at iteration 2"])
    base = output_hashes.hash_outputs("invert1d", [[("rQ", r, hist)]])
    assert set(base) == {"reconstructions", "residuals", "notes"}
    r2 = r.copy()
    r2[3] = np.nextafter(r2[3], 3.0)
    moved = output_hashes.hash_outputs("invert1d", [[("rQ", r2, hist)]])
    assert moved["reconstructions"] != base["reconstructions"]
    assert moved["residuals"] == base["residuals"] and moved["notes"] == base["notes"]


def test_output_hashes_tiny_run(capsys, monkeypatch):
    # the whole script at the smoke-test sizes: one line per output part,
    # the same digests on a rerun, other digests at another seed
    for var in output_hashes.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_hashes.main(["--tiny", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    parts = [re.fullmatch(r"(\w+) seed 0 tiny \(\d+ ops\) ([\w ]+): ([0-9a-f]{64})", line)
             for line in lines]
    assert all(parts)
    assert [p.group(1, 2) for p in parts] == [
        ("invert1d", "reconstructions"), ("invert1d", "residuals"), ("invert1d", "notes"),
        ("invert2d", "identity reconstructions"), ("invert2d", "identity notes"),
        ("invert2d", "adaptive reconstructions"), ("invert2d", "adaptive notes"),
        ("jacsweep", "rows")]
    for seed, same in ((0, True), (1, False)):
        output_hashes.main(["--tiny", "--workload", "jacsweep", "--seed", str(seed)])
        digest = capsys.readouterr().out.split()[-1]
        assert (digest == parts[-1].group(3)) == same
