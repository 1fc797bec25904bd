import json

import pytest

from romres.cli import main
from romres.errors import RomresError
from romres.scenarios import ExperimentConfig, run_scenario


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
