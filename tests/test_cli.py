import numpy as np
import pytest

from lagstokes import cli
from lagstokes.cli import _SCHEMA, main, parse_config, run_subcommand
from lagstokes.errors import ConfigParseError, ValidationError
from lagstokes.mesh import build_two_phase_disk
from lagstokes.snapshots import read_csv, read_field, write_csv, write_field
from lagstokes.mesh import Field


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL = """
[mesh]
n_radial = 3
n_angular = 12

[solver]
dt = 0.05
n_steps = 20

[initial]
kind = smooth-orthogonal
amplitude = 0.05
"""


def test_minimal_file_fills_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[mesh]\nn_radial = 4\n"))
    assert cfg[("mesh", "n_radial")] == 4
    assert cfg[("mesh", "n_angular")] == 12          # documented default
    assert cfg[("material", "eta_plus")] == 2.0


def test_unknown_key_and_section_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, "[mesh]\nwidth = 3\n"))
    assert "width" in str(err.value)
    with pytest.raises(ValidationError) as err2:
        parse_config(write_cfg(tmp_path, "[meshes]\nn_radial = 3\n"))
    assert "meshes" in str(err2.value)


def test_positivity_validation(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, "[material]\neta_minus = 0.0\n"))
    assert "eta_minus" in str(err.value)


def test_parse_error_reports_line(tmp_path):
    with pytest.raises(ConfigParseError):
        parse_config(write_cfg(tmp_path, "[mesh\nn_radial = 3\n"))
    with pytest.raises(ConfigParseError):
        parse_config(tmp_path / "missing.ini")


def test_manifest_lists_every_default(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL))
    cfg.out_dir = tmp_path / "run"
    assert run_subcommand(cfg, "solve-linear") == 0
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    for section, keys in _SCHEMA.items():
        for key in keys:
            assert f"{section}.{key} " in manifest


def test_manifest_records_versions(tmp_path):
    import platform

    import scipy
    cfg = parse_config(write_cfg(tmp_path, SMALL))
    cfg.out_dir = tmp_path / "run"
    assert run_subcommand(cfg, "solve-linear") == 0
    lines = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
    assert f"version.python {platform.python_version()}" in lines
    assert f"version.numpy {np.__version__}" in lines
    assert f"version.scipy {scipy.__version__}" in lines
    for key in ("version.lagstokes", "version.numpy_blas", "version.scipy_blas"):
        assert any(line.startswith(key + " ") for line in lines)


def test_solve_linear_on_zero_data(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[initial]\nkind = zero\n"
                                           "[solver]\nn_steps = 5\n"))
    cfg.out_dir = tmp_path / "runz"
    assert run_subcommand(cfg, "solve-linear") == 0
    data = read_csv(cfg.out_dir / "diagnostics.csv")
    assert np.all(data["energy"] == 0.0)


def test_outputs_deterministic(tmp_path):
    out = []
    for name in ("a", "b"):
        cfg = parse_config(write_cfg(tmp_path, SMALL))
        cfg.out_dir = tmp_path / name
        cfg.seed = 7
        run_subcommand(cfg, "solve-linear")
        out.append((cfg.out_dir / "diagnostics.csv").read_bytes())
    assert out[0] == out[1]


def test_spectrum_subcommand(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL))
    cfg.out_dir = tmp_path / "spec"
    assert run_subcommand(cfg, "spectrum") == 0
    summary = (cfg.out_dir / "spectrum_summary.txt").read_text()
    assert "kernel_dim 3" in summary
    assert [line.split()[0] for line in summary.splitlines()] == \
        ["kernel_dim", "gap", "max_principal_angle"]
    spectrum = read_csv(cfg.out_dir / "spectrum.csv")
    assert list(spectrum) == ["eigenvalue"] and np.all(np.diff(spectrum["eigenvalue"]) >= 0.0)


def test_spectrum_shift_validated_before_any_solve(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[solver]\nspectrum_shift = 0.1\n")
    code = main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error-category: validation" in err and "spectrum_shift" in err
    assert not (tmp_path / "x").exists()


def test_solve_nonlinear_subcommand(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL))
    cfg.out_dir = tmp_path / "nl"
    assert run_subcommand(cfg, "solve-nonlinear") == 0
    assert "energy" in read_csv(cfg.out_dir / "diagnostics.csv")
    report = read_csv(cfg.out_dir / "iteration_report.csv")
    assert list(report) == ["iteration", "contraction_factor", "picard_distance"]
    assert len(report["iteration"]) >= 1
    manifest = (cfg.out_dir / "manifest.txt").read_text().splitlines()
    assert "converged True" in manifest


def test_min_steps_zero_rejected(tmp_path, capsys):
    # with min_steps = 0 the horizon halvings could reach a zero-step solve
    bad = write_cfg(tmp_path, SMALL + "[iteration]\nmin_steps = 0\nkappa_cap = 1e-9\n")
    code = main(["solve-nonlinear", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "min_steps" in capsys.readouterr().err


def test_global_rejects_rigid_datum(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 "[initial]\nkind = rigid\nrigid_index = 2\n"))
    cfg.out_dir = tmp_path / "glob"
    with pytest.raises(ValidationError) as err:
        run_subcommand(cfg, "solve-global")
    assert "orthogonality" in str(err.value)


def test_bootstrap_subcommand(tmp_path):
    cfg = parse_config(write_cfg(tmp_path,
                                 "[bootstrap]\na = 0.05\nb = 1.0\n"
                                 "x_series = 0.0, 0.05, 0.0528\n"))
    cfg.out_dir = tmp_path / "bs"
    assert run_subcommand(cfg, "bootstrap-check") == 0
    verdict = (cfg.out_dir / "bootstrap_verdict.txt").read_text()
    assert "holds True" in verdict


def test_main_error_reporting(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[material]\nmu_plus = -1\n")
    code = main(["solve-linear", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error-category: validation" in err


def test_diagnose_roundtrip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL))
    cfg.out_dir = tmp_path / "src"
    run_subcommand(cfg, "solve-linear")
    cfg2 = parse_config(write_cfg(tmp_path,
                                  f"[diagnose]\ninput = {tmp_path / 'src'}\n",
                                  name="diag.ini"))
    cfg2.out_dir = tmp_path / "diag"
    assert run_subcommand(cfg2, "diagnose") == 0
    summary = (cfg2.out_dir / "diagnose_summary.txt").read_text()
    assert "monotone True" in summary


def test_transmission_subcommand(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[transmission]\nlevels = 2\n"))
    cfg.out_dir = tmp_path / "tt"
    assert run_subcommand(cfg, "transmission-test") == 0
    data = read_csv(cfg.out_dir / "transmission_rates.csv")
    assert data["rate"][1] >= 0.9


def test_field_snapshot_bitwise_roundtrip(tmp_path):
    mesh = build_two_phase_disk(3, 12, 0.5, 1.0)
    rng = np.random.default_rng(0)
    f = Field(mesh, 2, rng.standard_normal((mesh.nsdof, 2)) * 10.0 ** rng.integers(-20, 20))
    path = tmp_path / "snap.fld"
    write_field(f, path, time=0.625)
    back, t = read_field(mesh, path)
    assert t == 0.625
    assert np.array_equal(back.values, f.values)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    cols = {"time": np.array([0.0, 0.1]), "value": np.array([1.0 / 3.0, np.pi])}
    write_csv(path, cols)
    back = read_csv(path)
    assert np.array_equal(back["time"], cols["time"])
    assert np.array_equal(back["value"], cols["value"])


def test_snapshot_written_when_requested(tmp_path, monkeypatch):
    # every 10th step and the last one, which is not a multiple of 10
    trajs, run_linear = [], cli.run_linear

    def recording_run_linear(*args, **kwargs):
        trajs.append(run_linear(*args, **kwargs))
        return trajs[-1]

    text = SMALL.replace("n_steps = 20", "n_steps = 25") + "[output]\nsnapshot_every = 10\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    cfg.out_dir = tmp_path / "snaps"
    monkeypatch.setattr(cli, "run_linear", recording_run_linear)
    assert run_subcommand(cfg, "solve-linear") == 0
    snapdir = cfg.out_dir / "snapshots"
    files = sorted(p.name for p in snapdir.iterdir())
    assert files == [f"step_{i:06d}_{v}.fld" for i in (0, 10, 20, 25) for v in "qu"]
    mesh = cfg.mesh()
    _, t = read_field(mesh, snapdir / "step_000020_u.fld")
    assert t == pytest.approx(1.0)
    last = trajs[0].states[-1]
    fld, t = read_field(mesh, snapdir / "step_000025_u.fld")
    assert np.array_equal(fld.values, last.u.values) and t == last.t


def test_solve_global_writes_segment_record(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL + "[iteration]\nhorizon = 1.5\n"))
    cfg.out_dir = tmp_path / "glob"
    assert run_subcommand(cfg, "solve-global") == 0
    seg = read_csv(cfg.out_dir / "segments.csv")
    assert list(seg) == ["t0", "n_steps", "iterations", "last_contraction_factor",
                         "kappa_max", "horizon_halvings", "substituted_residual"]
    # one row per local solve: the X report has one row per segment end
    x_times = read_csv(cfg.out_dir / "x_report.csv")["time"]
    assert len(seg["t0"]) == len(x_times) > 1
    assert seg["n_steps"].sum() == 30
    assert np.allclose(seg["t0"] + 0.05 * seg["n_steps"], x_times, rtol=0, atol=1e-12)
    assert seg["t0"][0] == 0.0
    assert np.all(seg["iterations"] >= 1) and np.all(seg["horizon_halvings"] >= 0)
    assert np.all(seg["last_contraction_factor"] < 0.9)
    assert np.all((seg["kappa_max"] > 0) & (seg["kappa_max"] < 1))
    assert np.all(seg["substituted_residual"] < 1e-8)
