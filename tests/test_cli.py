import json
from dataclasses import replace

import numpy as np
import pytest

import romres.scenarios as scenarios
from romres.cli import main
from romres.errors import DataUnusableError, RomresError
from romres.forward import simulate_response
from romres.grids import Grid1D
from romres.inversion import invert_1d
from romres.scenarios import ExperimentConfig, run_scenario, synthesize_1d


def test_grids_verb(tmp_path, capsys):
    assert main(["grids", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any("grid_zolotarev_m5.csv" in line for line in out)
    assert (tmp_path / "fig-grids" / "manifest.json").exists()


def test_invert1d_verb_quick(tmp_path):
    rc = main(["invert1d", "--outdir", str(tmp_path), "--n-fine", "149",
               "--n-coarse", "99", "--m0", "3", "--n-gn", "1",
               "--h-T", "1e-4", "--T", "50"])
    assert rc == 0
    assert (tmp_path / "invert1d" / "reconstruction.csv").exists()
    assert (tmp_path / "invert1d" / "history.csv").exists()


def test_config_file_overrides_flags(tmp_path):
    conf = {"n_fine": 149, "n_coarse": 99, "m0": 3, "n_gn": 1,
            "h_T": 1e-4, "T": 50.0, "phantom": "rL"}
    cpath = tmp_path / "conf.json"
    cpath.write_text(json.dumps(conf))
    rc = main(["invert1d", "--outdir", str(tmp_path), "--phantom", "rQ",
               "--config", str(cpath)])
    assert rc == 0
    manifest = json.loads((tmp_path / "invert1d" / "manifest.json").read_text())
    assert manifest["config"]["phantom"] == "rL"  # file wins over the flag


def test_unknown_config_key(tmp_path):
    cpath = tmp_path / "conf.json"
    cpath.write_text(json.dumps({"bogus": 1}))
    rc = main(["invert1d", "--outdir", str(tmp_path), "--config", str(cpath)])
    assert rc == 2


@pytest.mark.parametrize("text, match", [("{bad", "cannot read"), ("[1]", "JSON object"),
                                         (None, "cannot read")])
def test_unreadable_config_file(tmp_path, capsys, text, match):
    # invalid JSON, a JSON list and a missing file ended in a traceback
    cpath = tmp_path / "conf.json"
    if text is not None:
        cpath.write_text(text)
    assert main(["grids", "--outdir", str(tmp_path / "out"), "--config", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not (tmp_path / "out").exists()


def test_inverse_crime_guard():
    with pytest.raises(RomresError):
        ExperimentConfig(scenario="invert1d", n_fine=199, n_coarse=199)


def test_unknown_scenario():
    with pytest.raises(RomresError):
        run_scenario(ExperimentConfig(scenario="nope"))


def test_synthesize_scenario(tmp_path):
    cfg = ExperimentConfig(scenario="synthesize", n_fine=99, n_coarse=79,
                           T=10.0, h_T=1e-3, epsilon=1e-3, seed=4,
                           outdir=str(tmp_path))
    outputs = run_scenario(cfg)
    names = {p.name for p in outputs}
    assert {"timeseries.csv", "timeseries.json", "manifest.json"} <= names
    meta = json.loads((tmp_path / "synthesize" / "timeseries.json").read_text())
    assert meta["epsilon"] == 1e-3 and meta["seed"] == 4


def test_rerun_bitwise_identical(tmp_path):
    cfg = ExperimentConfig(scenario="synthesize", n_fine=99, n_coarse=79,
                           T=10.0, h_T=1e-3, epsilon=1e-3, seed=4,
                           outdir=str(tmp_path))
    run_scenario(cfg)
    first = (tmp_path / "synthesize" / "timeseries.csv").read_bytes()
    run_scenario(cfg)
    assert (tmp_path / "synthesize" / "timeseries.csv").read_bytes() == first


@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-3"])
def test_bad_epsilon_rejected(tmp_path, eps):
    # a nonfinite level used to skip the noise and write noiseless data
    assert main(["synthesize", f"--epsilon={eps}", "--outdir", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_negative_epsilon_as_separate_token(tmp_path, capsys):
    # argparse alone reads "-1e-3" as an option and exits with a usage error
    assert main(["synthesize", "--epsilon=-1e-3", "--outdir", str(tmp_path)]) == 2
    joined = capsys.readouterr().err
    assert "nonnegative" in joined
    assert main(["synthesize", "--epsilon", "-1e-3", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == joined
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, match", [
    (["synthesize", "--epsilon", "1e-3", "--seed", "-1"], "seed must be nonnegative"),
    (["grids", "--family", "bogus"], "unknown node family"),
    (["grids", "--m0", "0"], "m0 must be at least 1"),
])
def test_bad_setting_refused_before_any_work(tmp_path, capsys, argv, match):
    # a negative seed used to exit with numpy's traceback, and the grids verb
    # used to write an unknown family and m0 = 0 into its manifest
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fields", [{"seed": 1.5}, {"epsilon": 1e-3, "seed": -2},
                                    {"epsilon": "a"}, {"s_hat": "a"},
                                    {"family": "bogus"}, {"m0": 0}, {"n_gn": -1},
                                    {"weights": "bogus"}, {"parametrization": "bogus"}])
def test_config_checks_noise_and_inversion_settings(fields):
    with pytest.raises(RomresError):
        ExperimentConfig(scenario="fig-grids", **fields)


_SMALL_2D = ["--fine-shape", "24", "8", "--coarse-shape", "18", "6", "--n-sources", "4",
             "--m0", "3", "--n-gn", "1"]


def test_2d_manifest_records_the_phantom_that_ran(tmp_path, capsys):
    # the manifest used to record the default "rQ" for the tilted run, and a
    # --phantom naming another 2D phantom exited 0 and ran tilted all the same
    assert main(["invert2d", *_SMALL_2D, "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "2d-tilted" / "manifest.json").read_text())
    assert manifest["config"]["phantom"] == "tilted"
    capsys.readouterr()
    for other in ("rQ", "two-rect-side"):
        assert main(["invert2d", *_SMALL_2D, "--phantom", other,
                     "--outdir", str(tmp_path / other)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "'tilted'" in err
        assert not (tmp_path / other).exists()
    for name, own in (("2d-rect-corner", "two-rect-corner"), ("2d-rect-side", "two-rect-side")):
        assert ExperimentConfig(scenario=name).phantom == own
        assert ExperimentConfig(scenario=name, phantom=own).phantom == own
    assert ExperimentConfig().phantom == "rQ"
    assert ExperimentConfig(scenario="fig-grids", phantom="tilted").phantom == "tilted"


@pytest.mark.parametrize("conf, match", [
    ({"fine_shape": [3]}, "fine_shape must be a pair"),
    ({"coarse_shape": 3}, "coarse_shape must be a pair"),
    ({"fine_shape": ["a", 8]}, "integer nx, ny"),
    ({"outdir": 3}, "outdir must be a path"),
    ({"n_fine": "a"}, "integer n_points"),
    ({"n_coarse": 1.5}, "integer n_points"),
    ({"T": "a"}, "T must be a positive and finite"),
    ({"h_T": 0.0}, "h_T must be a positive and finite"),
    ({"phantom": 3}, "unknown phantom"),
    ({"phantom": "bogus"}, "unknown phantom"),
    ({"save_models": "no"}, "save_models must be true or false"),
    ({"nullspace_correction": 1}, "nullspace_correction must be true or false"),
    ({"scenario": "nope"}, "unknown scenario"),
])
def test_config_file_values_checked_whole(tmp_path, capsys, conf, match):
    # each of these exited 1 with a bare IndexError or TypeError, or exited 0
    # and recorded the bad value in the manifest, whatever the scenario
    cpath = tmp_path / "conf.json"
    cpath.write_text(json.dumps(conf))
    assert main(["grids", "--outdir", str(tmp_path / "out"), "--config", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and match in err
    assert not (tmp_path / "out").exists()


def test_scenario_artifacts(tmp_path):
    small = dict(n_fine=149, n_coarse=99, T=50.0, h_T=1e-4, m0=3, n_gn=1,
                 fine_shape=(24, 8), coarse_shape=(18, 6), n_sources=2,
                 save_models=True, outdir=str(tmp_path))
    headers = {
        "fig-grids/grid_zolotarev_m5.csv": "node_primary,node_dual,kappa0,kappa_hat0",
        "precond-action/ratios_rQ.csv": "node_primary,node_dual,zeta,zeta_hat,zeta_tilde",
        "invert1d/history.csv": "iteration,residual,error",
        "2d-tilted/history.csv": "iteration,residual,error",
    }
    outputs = []
    for name in ("fig-grids", "precond-action", "invert1d", "2d-tilted"):
        outputs += run_scenario(ExperimentConfig(scenario=name, **small))
    for rel, header in headers.items():
        assert (tmp_path / rel).read_text().splitlines()[0] == header
    csvs = [p for p in outputs if p.suffix == ".csv"]
    assert len(csvs) == 6 + 4 + 2 + 2
    for p in csvs:
        for line in p.read_text().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)  # a bare number, never np.float64(...)
    for scenario in ("invert1d", "2d-tilted"):
        n_hist = len((tmp_path / scenario / "history.csv").read_text().splitlines()) - 1
        iterates = sorted((tmp_path / scenario).glob("iterate_*.json"))
        assert [p.name for p in iterates] == [f"iterate_{i:02d}.json" for i in range(n_hist)]
        assert json.loads(iterates[-1].read_text())["iteration"] == n_hist - 1


def _small_ladder(tmp_path):
    return ExperimentConfig(scenario="noise-ladder", n_fine=99, n_coarse=79, T=10.0,
                            h_T=1e-3, m0=3, outdir=str(tmp_path))


def test_noise_ladder_synthesizes_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_response(*args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate_response", counting)
    run_scenario(_small_ladder(tmp_path))
    assert len(calls) == 1
    rows = (tmp_path / "noise-ladder" / "noise_ladder.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 10 + 1


@pytest.mark.parametrize("error, terminal_m", [(DataUnusableError, "0"), (RomresError, None)])
def test_noise_ladder_maps_only_unusable_data(tmp_path, monkeypatch, error, terminal_m):
    # no admissible model is a ladder outcome (m = 0); any other error propagates
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(scenarios, "data_fitting_Q", failing)
    if terminal_m is None:
        with pytest.raises(RomresError, match="injected"):
            run_scenario(_small_ladder(tmp_path))
        return
    run_scenario(_small_ladder(tmp_path))
    rows = (tmp_path / "noise-ladder" / "noise_ladder.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in rows} == {terminal_m}


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(cells):
    return all(np.isfinite(float(c)) for c in cells)


def test_conditioning_scenarios_write_their_tables(tmp_path):
    out = str(tmp_path)
    assert main(["scenario", "table-ratcond", "--n-fine", "99", "--T", "10",
                 "--h-T", "1e-3", "--outdir", out]) == 0
    header, rows = _rows(tmp_path / "table-ratcond" / "conditioning.csv")
    assert header == ["m", "cond_multipoint", "cond_toeplitz"]
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
    assert all(_finite(r[1:]) for r in rows)

    assert main(["condnum", "--outdir", out]) == 0
    header, rows = _rows(tmp_path / "condnum" / "jacobian_conditioning.csv")
    assert header == ["family", "m", "cond"]
    assert [(r[0], r[1]) for r in rows] == [(f, str(m)) for f in ("pade0", "zolotarev", "fast")
                                            for m in range(2, 9)]
    assert all(_finite(r[2:]) and float(r[2]) >= 1.0 for r in rows)

    assert main(["sensmap", "--fine-shape", "24", "8", "--coarse-shape", "18", "6",
                 "--n-sources", "4", "--m0", "3", "--outdir", out]) == 0
    header, rows = _rows(tmp_path / "sensmap" / "sensitivity_rows.csv")
    assert header == (["x", "y"] + [f"dlog_kappa_{l}" for l in (1, 2, 3)]
                      + [f"dlog_kappa_hat_{l}" for l in (1, 2, 3)])
    assert len(rows) == 18 * 6 and all(_finite(r) for r in rows)
    assert len(list((tmp_path / "sensmap").glob("sens_*.pgm"))) == 6
    for scenario in ("table-ratcond", "condnum", "sensmap"):
        assert (tmp_path / scenario / "manifest.json").exists()


def test_no_nullspace_flag(tmp_path):
    small = ["--n-fine", "149", "--n-coarse", "99", "--m0", "3", "--n-gn", "2",
             "--h-T", "1e-4", "--T", "50"]
    assert main(["invert1d", *small, "--no-nullspace", "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "invert1d" / "manifest.json").read_text())
    assert manifest["config"]["nullspace_correction"] is False
    cfg = ExperimentConfig(scenario="invert1d", n_fine=149, n_coarse=99, m0=3, n_gn=2,
                           h_T=1e-4, T=50.0)
    rec, _ = invert_1d(synthesize_1d(cfg), Grid1D(99),
                       replace(cfg.inversion_config(), nullspace_correction=False))
    _, rows = _rows(tmp_path / "invert1d" / "reconstruction.csv")
    assert np.array_equal([float(r[2]) for r in rows], rec.values)
