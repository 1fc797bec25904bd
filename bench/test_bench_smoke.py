"""Smoke test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, the output checks run and reject bad
outputs, the traced run leaves the library as it found it, and a checkout
without the sources fails without printing a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_spec_matches_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    end_to_end, per_layer = _spec()
    assert end_to_end == run.END_TO_END
    assert per_layer == {k: u for k, (u, _) in tracer.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_run_emits_every_metric(name, trace, capsys):
    from romres import inversion

    original = inversion.invert_1d
    argv = ["--workload", name, "--tiny", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert inversion.invert_1d is original


def test_traced_run_counts_layers(capsys, tmp_path):
    spans = tmp_path / "spans.jsonl"
    run.main(["--workload", "invert1d", "--tiny", "--seconds", "0.2", "--trace", "1",
              "--spans", str(spans)])
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    for name in ("laplace.quad_calls", "ratfit.fit_calls", "krylov.chain_calls",
                 "jacobian.fast_calls", "inversion.gn_steps", "forward.simulate_s"):
        assert m[name]["value"] > 0, name
    assert m["grids.build_difference_2d_calls"]["value"] == 0

    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["phase"] for r in records} >= {"setup", 0}
    for r in records:
        assert r["start"] <= r["end"] and -1e-9 <= r["self_s"] <= r["end"] - r["start"] + 1e-9
        if r["parent"] >= 0:
            parent = records[r["parent"]]
            assert parent["start"] <= r["start"] and r["end"] <= parent["end"]


def test_checks_reject_bad_outputs():
    wl = workloads.Invert1D(tiny=True)
    wl.generate(0)
    case = wl.prepare(0)
    out = wl.run(case)
    assert wl.check(case, out) == []
    assert wl.check(case, [(n, -r, h) for n, r, h in out])

    wl = workloads.Invert2D(tiny=True)
    wl.generate(0)
    case = wl.prepare(0)
    out = wl.run(case)
    assert wl.check(case, out) == []
    assert wl.check(case, [(n, np.full_like(r, np.nan), h) for n, r, h in out])
    out[1][2].m -= 1
    assert wl.check(case, out)

    wl = workloads.JacSweep(tiny=True)
    wl.generate(0)
    case = wl.prepare(0)
    rows = wl.run(case)
    assert wl.check(case, rows) == []
    assert wl.check(case, [row[:4] + (1.0,) for row in rows])
    assert wl.check(case, [row[:3] + (np.inf,) + row[4:] for row in rows])


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "invert1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
