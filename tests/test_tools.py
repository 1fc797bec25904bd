"""The scripts under tools/: ab_pairs' verdicts, output_hashes and reach."""

import importlib.util
import json
import re
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import romres.scenarios as scenarios
from romres.inversion import InversionHistory
from romres.scenarios import ExperimentConfig

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load("ab_pairs")
output_hashes = _load("output_hashes")
reach = _load("reach")


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


def test_reach_marks_input_checks(tmp_path):
    # a branch that ends in raise or warnings.warn is a check, and so is a
    # raise that ends a function; other branches are not
    path = tmp_path / "example.py"
    path.write_text(textwrap.dedent("""\
        import warnings

        def f(x):
            if x < 0:
                message = "negative"
                raise ValueError(message)
            elif x > 100:
                warnings.warn("large")
            try:
                y = 1 / x
            except ZeroDivisionError:
                raise ValueError("zero") from None
            if x > 10:
                y = 10
            return y

        def g(kind):
            if kind == "a":
                return 1
            raise ValueError(kind)
        """))
    src = reach.Source(path)
    checks = sorted(src.text[line - 1].strip() for line in src.executable
                    if src.statements[line].check)
    assert checks == ['except ZeroDivisionError:', 'message = "negative"',
                      'raise ValueError("zero") from None', 'raise ValueError(kind)',
                      'raise ValueError(message)', 'warnings.warn("large")']
    assert {src.statements[line].function for line in src.executable} == {"f", "g"}


def test_reach_allowlist_resolves():
    # every entry names a function, and an anchor, that the tree still has
    sources = reach.load_sources()
    for module, function, anchor, reason in reach.ALLOWLIST:
        assert sources[module].anchored(function, anchor), (module, function, anchor)
        assert reason and "\n" not in reason


def test_reach_collects_one_scenario(tmp_path, capsys):
    # the collector on one small synthesize run: the lines it ran are
    # reached, so simulate_response leaves only its input checks unreached,
    # and no statement of invert_1d is reached
    from romres import cli

    sources = reach.load_sources()
    hit = reach.collect(lambda: cli.main(["synthesize", "--n-fine", "9", "--n-coarse", "7",
                                          "--T", "1", "--h-T", "0.01", "--outdir",
                                          str(tmp_path)]))
    assert (tmp_path / "synthesize" / "manifest.json").is_file()
    rows, _ = reach.classify(sources, hit)
    marks = {}
    for module, st, mark, _ in rows:
        marks.setdefault((module, st.function), []).append(mark)
    assert set(marks[("forward", "simulate_response")]) == {"check"}
    inversion = sources["inversion"]
    body = [line for line in inversion.executable
            if inversion.statements[line].function == "invert_1d"]
    assert len(marks[("inversion", "invert_1d")]) == len(body) > 0
    assert "NEW" in marks[("inversion", "invert_1d")]


def test_reach_variants_manifests_rebuild_their_configs(tmp_path, monkeypatch):
    # under every config variant, flags and config files alike, the manifest's
    # config builds the config that wrote it (the scenario bodies stubbed out)
    ran = []
    for name in scenarios.SCENARIOS:
        monkeypatch.setitem(scenarios.SCENARIOS, name, lambda cfg, outdir: ran.append(cfg) or [])
    reach.run_scenarios(tmp_path)
    assert len(ran) == sum(len(names) for names, _, _ in reach.VARIANTS)
    for cfg in ran:
        manifest = Path(cfg.outdir) / cfg.scenario / "manifest.json"
        assert ExperimentConfig(**json.loads(manifest.read_text())["config"]) == cfg
