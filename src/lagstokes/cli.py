"""Configuration parsing and run orchestration for the solver and
diagnostic paths.

One binary with subcommands; every run echoes its full effective
configuration (defaults included) into ``manifest.txt`` and emits CSV
artifacts with frozen column orders, so identical configurations and
seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fem
from .diagnostics import (bootstrap_check, bootstrap_rb, decay_fit, discrete_spectrum,
                          energy_budget, momentum_and_barycenter)
from .errors import ConfigParseError, LagStokesError, ValidationError
from .fixedpoint import IterationConfig, global_continue, picard_solve_local
from .mesh import Field, RefMesh, build_two_phase_disk, write_mesh
from .snapshots import read_csv, write_csv, write_field
from .stepper import StokesWorkspace, Trajectory, run_linear, step_loop, usable_cpus
from .transmission import (MaterialParams, helmholtz_project, project_out_rigid,
                           rigid_momenta, solve_weak_transmission)

SUBCOMMANDS = ("solve-linear", "solve-nonlinear", "solve-global", "spectrum",
               "diagnose", "bootstrap-check", "transmission-test")

# The [iteration] keys: the fields of IterationConfig, lower-cased, except
# dt, which is set in [solver].
_ITERATION_KEYS = {f.name.lower(): f for f in fields(IterationConfig) if f.name != "dt"}

# section -> key -> (default, parser)
_SCHEMA = {
    "mesh": {
        "n_radial": (3, int),
        "n_angular": (12, int),
        "r_inner": (0.5, float),
        "r_outer": (1.0, float),
    },
    "material": {
        "eta_plus": (2.0, float),
        "eta_minus": (1.0, float),
        "mu_plus": (0.3, float),
        "mu_minus": (0.1, float),
    },
    "solver": {
        "dt": (0.05, float),
        "n_steps": (100, int),
        "spectrum_count": (8, int),
        "spectrum_shift": (-0.1, float),
    },
    "iteration": {key: (f.default, type(f.default)) for key, f in _ITERATION_KEYS.items()},
    "initial": {
        "kind": ("smooth-orthogonal", str),
        "amplitude": (0.05, float),
        "rigid_index": (0, int),
    },
    "output": {
        "snapshot_every": (0, int),
    },
    "bootstrap": {
        "a": (0.05, float),
        "b": (1.0, float),
        "x_series": ("", str),
        "x_file": ("", str),
    },
    "diagnose": {
        "input": ("", str),
    },
    "transmission": {
        "levels": (3, int),
    },
}


@dataclass
class RunConfig:
    """Validated configuration with defaults filled."""

    values: dict                          # section -> key -> parsed value
    out_dir: Path = Path(".")
    seed: int = 0
    verbose: bool = False
    source: str = "<defaults>"

    def __getitem__(self, section_key):
        section, key = section_key
        return self.values[section][key]

    def mesh(self) -> RefMesh:
        v = self.values["mesh"]
        return build_two_phase_disk(v["n_radial"], v["n_angular"],
                                    v["r_inner"], v["r_outer"])

    def material(self) -> MaterialParams:
        v = self.values["material"]
        try:
            return MaterialParams(v["eta_plus"], v["eta_minus"],
                                  v["mu_plus"], v["mu_minus"])
        except LagStokesError as exc:
            raise ValidationError(f"[material] {exc}", field="material") from exc

    def iteration(self) -> IterationConfig:
        v = self.values["iteration"]
        try:
            return IterationConfig(dt=self.values["solver"]["dt"],
                                   **{f.name: v[key] for key, f in _ITERATION_KEYS.items()})
        except LagStokesError as exc:
            raise ValidationError(f"[iteration] {exc}", field="iteration") from exc

    def manifest_lines(self) -> list:
        lines = [f"config_source {self.source}",
                 f"seed {self.seed}",
                 f"out_dir {self.out_dir}"]
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                lines.append(f"{section}.{key} {self.values[section][key]}")
        return lines


def default_config() -> RunConfig:
    values = {sec: {k: default for k, (default, _) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    return RunConfig(values=values)


def parse_config(path) -> RunConfig:
    """Parse and validate a structured-text configuration file.

    Unknown sections or keys are rejected by name; physical positivity
    constraints are enforced before any solve.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigParseError(f"configuration file {path} does not exist")
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigParseError(f"malformed configuration: {exc}", line=line) from exc

    cfg = default_config()
    cfg.source = str(path)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown section [{section}]", field=section)
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown key {key!r} in section [{section}]",
                                      field=f"{section}.{key}")
            _, parse = _SCHEMA[section][key]
            try:
                cfg.values[section][key] = parse(raw)
            except ValueError as exc:
                raise ValidationError(
                    f"invalid value {raw!r} for {section}.{key}",
                    field=f"{section}.{key}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    for key in ("eta_plus", "eta_minus", "mu_plus", "mu_minus"):
        if not v["material"][key] > 0:
            raise ValidationError(
                f"material.{key} must be > 0 (positivity hypothesis), "
                f"got {v['material'][key]}", field=f"material.{key}")
    if v["mesh"]["n_radial"] < 2:
        raise ValidationError("mesh.n_radial must be >= 2", field="mesh.n_radial")
    if v["mesh"]["n_angular"] < 8:
        raise ValidationError("mesh.n_angular must be >= 8", field="mesh.n_angular")
    if not (0 < v["mesh"]["r_inner"] < v["mesh"]["r_outer"]):
        raise ValidationError("mesh radii must satisfy 0 < r_inner < r_outer",
                              field="mesh.r_inner")
    if v["solver"]["dt"] <= 0:
        raise ValidationError("solver.dt must be > 0", field="solver.dt")
    if v["solver"]["n_steps"] < 1:
        raise ValidationError("solver.n_steps must be >= 1", field="solver.n_steps")
    if v["output"]["snapshot_every"] < 0:
        raise ValidationError("output.snapshot_every must be >= 0",
                              field="output.snapshot_every")
    if not v["solver"]["spectrum_shift"] < 0:
        raise ValidationError("solver.spectrum_shift must be < 0",
                              field="solver.spectrum_shift")
    if v["initial"]["kind"] not in ("zero", "rigid", "smooth", "smooth-orthogonal",
                                    "random-orthogonal"):
        raise ValidationError(f"unknown initial.kind {v['initial']['kind']!r}",
                              field="initial.kind")


def build_initial(cfg: RunConfig, mesh: RefMesh, params: MaterialParams,
                  workspace: StokesWorkspace) -> Field:
    kind = cfg[("initial", "kind")]
    amp = cfg[("initial", "amplitude")]
    basis = workspace.rigid_basis()
    if kind == "zero":
        return Field.zeros(mesh, 2)
    if kind == "rigid":
        idx = cfg[("initial", "rigid_index")]
        if not 0 <= idx < len(basis):
            raise ValidationError("initial.rigid_index out of range",
                                  field="initial.rigid_index")
        return basis.fields[idx] * amp
    r_out = cfg[("mesh", "r_outer")]

    def smooth(x, y):
        r2 = x * x + y * y
        w = (1.1 * r_out * r_out - r2)
        return np.array([w * y, -w * x])

    if kind in ("smooth", "smooth-orthogonal"):
        u0 = fem.interpolate(mesh, lambda x, y: amp * smooth(x, y), 2)
        if kind == "smooth":
            return u0
    else:  # random-orthogonal
        rng = np.random.default_rng(cfg.seed)
        u0 = Field.from_nodal(mesh, amp * rng.standard_normal((mesh.n_nodes, 2)))
    u0 = project_out_rigid(u0, basis, params)
    u0, _ = helmholtz_project(u0, params, workspace)
    return u0


def _versions() -> dict:
    """Versions of the package, Python, numpy, scipy and the BLAS that numpy
    and scipy were built against; results depend on them at roundoff."""
    import platform

    import scipy

    from . import __version__
    out = {"version.lagstokes": __version__,
           "version.python": platform.python_version(),
           "version.numpy": np.__version__, "version.scipy": scipy.__version__}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[f"version.{name}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):    # a build that does not report it
            out[f"version.{name}_blas"] = "unknown"
    return out


def _write_manifest(cfg: RunConfig, extra: dict) -> None:
    lines = cfg.manifest_lines()
    extra = {**_versions(), **extra}
    for key in sorted(extra):
        lines.append(f"{key} {extra[key]}")
    (cfg.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def _march_facts(ws: StokesWorkspace, dt: float) -> dict:
    """The CPUs this process may use and the step loop its marches at time
    step dt start on (see :func:`lagstokes.stepper.step_loop`); a march on
    two threads may finish on the pair loop."""
    return {"cpu.usable": usable_cpus(), "march.step_loop": step_loop(ws.step_factorization(dt))}


def _write_trajectory(cfg: RunConfig, mesh: RefMesh, traj: Trajectory,
                      params: MaterialParams, ws: StokesWorkspace) -> None:
    write_mesh(mesh, cfg.out_dir / "mesh.txt")
    eb = energy_budget(traj, params, ws)
    mb = momentum_and_barycenter(traj, params, ws)
    cols = eb.csv_columns()
    mcols = mb.csv_columns()
    for name, arr in mcols.items():
        if name != "time":
            cols[name] = arr
    write_csv(cfg.out_dir / "diagnostics.csv", cols)
    every = cfg[("output", "snapshot_every")]
    if every > 0:
        snapdir = cfg.out_dir / "snapshots"
        snapdir.mkdir(exist_ok=True)
        h = mesh.mesh_hash()
        n = len(traj.times)
        held = range(n) if traj.steps is None else traj.steps
        for i in (i for i in held if i % every == 0 or i == n - 1):
            s = traj.states[i]
            write_field(s.u, snapdir / f"step_{i:06d}_u.fld", s.t, h)
            write_field(s.q, snapdir / f"step_{i:06d}_q.fld", s.t, h)


def run_subcommand(cfg: RunConfig, name: str) -> int:
    """Dispatch one subcommand; writes artifacts into cfg.out_dir and
    returns the process exit status.

    The solve commands and ``spectrum`` share one set-up: the mesh, the
    material parameters and the workspace, and for the solve commands the
    initial datum.  Each handler returns its exit status and its own
    manifest facts; the manifest gets ``subcommand`` here, ``mesh_hash``
    where a mesh was set up, and the march facts of the solve commands.
    """
    if name not in SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {name!r}", field="subcommand")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solves = {
        "solve-linear": _cmd_solve_linear,
        "solve-nonlinear": _cmd_solve_nonlinear,
        "solve-global": _cmd_solve_global,
    }
    facts = {"subcommand": name}
    if name in solves or name == "spectrum":
        mesh = cfg.mesh()
        params = cfg.material()
        ws = StokesWorkspace(mesh, params)
        if name == "spectrum":
            status, own = _cmd_spectrum(cfg, mesh, params, ws)
        else:
            u0 = build_initial(cfg, mesh, params, ws)
            status, own = solves[name](cfg, mesh, params, ws, u0)
            facts.update(_march_facts(ws, cfg[("solver", "dt")]))
        facts["mesh_hash"] = mesh.mesh_hash()
    else:
        status, own = {
            "diagnose": _cmd_diagnose,
            "bootstrap-check": _cmd_bootstrap,
            "transmission-test": _cmd_transmission_test,
        }[name](cfg)
    _write_manifest(cfg, {**facts, **own})
    return status


def _cmd_solve_linear(cfg: RunConfig, mesh: RefMesh, params: MaterialParams,
                      ws: StokesWorkspace, u0: Field) -> tuple[int, dict]:
    # hold only the states the snapshots write
    traj = run_linear(u0, cfg[("solver", "n_steps")], cfg[("solver", "dt")],
                      params, workspace=ws,
                      keep_every=cfg[("output", "snapshot_every")] or None)
    _write_trajectory(cfg, mesh, traj, params, ws)
    return 0, {"n_states": len(traj.times)}


def _cmd_solve_nonlinear(cfg: RunConfig, mesh: RefMesh, params: MaterialParams,
                         ws: StokesWorkspace, u0: Field) -> tuple[int, dict]:
    traj, report = picard_solve_local(u0, cfg.iteration(), params, workspace=ws)
    _write_trajectory(cfg, mesh, traj, params, ws)
    # the first iterate has no contraction factor
    write_csv(cfg.out_dir / "iteration_report.csv", {
        "iteration": np.arange(1, len(report.distances) + 1),
        "contraction_factor": np.array([float("nan")] + report.contraction_factors),
        "picard_distance": np.array(report.distances),
    })
    return 0 if report.converged else 1, {"converged": report.converged,
                                          "horizon_used": report.horizon,
                                          "kappa_max": report.kappa_max,
                                          "residual": report.residual}


def _cmd_solve_global(cfg: RunConfig, mesh: RefMesh, params: MaterialParams,
                      ws: StokesWorkspace, u0: Field) -> tuple[int, dict]:
    moms = rigid_momenta(u0, ws.rigid_basis(), params)
    scale = max(fem.field_h1(u0), 1e-30)
    if np.abs(moms).max() > 1e-10 * scale:
        raise ValidationError(
            "initial datum violates the rigid-orthogonality hypothesis "
            f"(eta v0, p_alpha) = 0: max momentum {np.abs(moms).max():.3e}",
            field="initial.kind")
    traj, report = global_continue(u0, cfg.iteration(), params, workspace=ws)
    _write_trajectory(cfg, mesh, traj, params, ws)
    write_csv(cfg.out_dir / "x_report.csv", {
        "time": report.times, "x": report.x_values,
        "bound": np.full(len(report.times), report.bound),
    })
    _write_segments(cfg, report)
    if report.exceeded:
        print("continuation failure: X(T) exceeded its bound", file=sys.stderr)
    return 1 if report.exceeded else 0, {"eps0": report.eps0,
                                         "decay_rate": report.decay_rate,
                                         "x_exceeded": report.exceeded,
                                         "momenta_drift": report.momenta_drift,
                                         "a_fit": report.a_fit, "b_fit": report.b_fit}


def _write_segments(cfg: RunConfig, report) -> None:
    """segments.csv: one row per local solve of the continuation."""
    segs = report.segments
    n_steps = np.array([r.n_steps for r in segs])
    write_csv(cfg.out_dir / "segments.csv", {
        "t0": cfg[("solver", "dt")] * np.concatenate([[0], np.cumsum(n_steps)[:-1]]),
        "n_steps": n_steps,
        "iterations": np.array([r.iterations for r in segs]),
        "last_contraction_factor": np.array([r.contraction_factors[-1] if r.contraction_factors
                                             else float("nan") for r in segs]),
        "kappa_max": np.array([r.kappa_max for r in segs], dtype=float),
        "horizon_halvings": np.array([r.horizon_halvings for r in segs]),
        "substituted_residual": np.array([r.residual for r in segs], dtype=float),
    })


def _cmd_spectrum(cfg: RunConfig, mesh: RefMesh, params: MaterialParams,
                  ws: StokesWorkspace) -> tuple[int, dict]:
    rep = discrete_spectrum(mesh, params, cfg[("solver", "spectrum_count")], ws,
                            sigma=cfg[("solver", "spectrum_shift")], seed=cfg.seed)
    write_csv(cfg.out_dir / "spectrum.csv", {"eigenvalue": rep.eigenvalues})
    summary = [f"kernel_dim {rep.kernel_dim}",
               "gap %.17g" % rep.gap,
               "max_principal_angle %.17g" % (rep.principal_angles.max()
                                              if len(rep.principal_angles) else 0.0)]
    (cfg.out_dir / "spectrum_summary.txt").write_text("\n".join(summary) + "\n",
                                                      encoding="ascii")
    return 0, {"kernel_dim": rep.kernel_dim}


def _cmd_diagnose(cfg: RunConfig) -> tuple[int, dict]:
    src = cfg[("diagnose", "input")]
    if not src:
        raise ValidationError("diagnose.input must point at a run directory",
                              field="diagnose.input")
    src = Path(src)
    data = read_csv(src / "diagnostics.csv")
    times = data["time"]
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    energy = data["energy"]
    out = {"time": times, "energy": energy}
    if "dissipation" in data:
        dissip = data["dissipation"]
        res = np.zeros_like(energy)
        res[1:] = (energy[1:] - energy[:-1]) / dt + dissip[1:]
        out["dissipation"] = dissip
        out["residual_energy"] = res
    write_csv(cfg.out_dir / "diagnose_report.csv", out)
    summary = [f"states {len(times)}",
               "energy_initial %.17g" % energy[0],
               "energy_final %.17g" % energy[-1],
               "monotone %s" % bool(np.all(np.diff(energy) <= 1e-30))]
    positive = energy > 0
    if positive.sum() >= 8:
        rate, half = decay_fit(np.sqrt(2.0 * energy[positive]), dt)
        summary.append("decay_rate %.17g" % rate)
        summary.append("decay_halfwidth %.17g" % half)
    (cfg.out_dir / "diagnose_summary.txt").write_text("\n".join(summary) + "\n",
                                                      encoding="ascii")
    return 0, {"input": src}


def _cmd_bootstrap(cfg: RunConfig) -> tuple[int, dict]:
    a = cfg[("bootstrap", "a")]
    b = cfg[("bootstrap", "b")]
    series = cfg[("bootstrap", "x_series")]
    xfile = cfg[("bootstrap", "x_file")]
    if xfile:
        xs = read_csv(xfile)["x"]
    elif series:
        xs = np.array([float(tok) for tok in series.split(",")])
    else:
        raise ValidationError("bootstrap needs x_series or x_file",
                              field="bootstrap.x_series")
    root = bootstrap_rb(b)
    verdict = bootstrap_check(a, b, xs)
    lines = [f"holds {verdict.holds}",
             f"hypothesis_ok {verdict.hypothesis_ok}",
             f"recursion_ok {verdict.recursion_ok}",
             f"conclusion_ok {verdict.conclusion_ok}",
             f"first_violation {verdict.first_violation}",
             "r_b %.17g" % verdict.r_b,
             "r_b_identity_residual %.17g" % abs(root.fprime),
             "bound_2a %.17g" % verdict.bound,
             "max_x %.17g" % verdict.max_x]
    (cfg.out_dir / "bootstrap_verdict.txt").write_text("\n".join(lines) + "\n",
                                                       encoding="ascii")
    return 0 if verdict.holds else 1, {}


def _cmd_transmission_test(cfg: RunConfig) -> tuple[int, dict]:
    params = cfg.material()
    base_r = cfg[("mesh", "n_radial")]
    base_a = cfg[("mesh", "n_angular")]
    r_in = cfg[("mesh", "r_inner")]
    r_out = cfg[("mesh", "r_outer")]
    levels = cfg[("transmission", "levels")]
    errors, hs, ratios = [], [], []
    for lvl in range(levels):
        mesh = build_two_phase_disk(base_r * 2 ** lvl, base_a * 2 ** lvl, r_in, r_out)

        def f_plus(x, y):
            return np.array([-2 * x, -2 * y]) / params.eta_plus

        def f_minus(x, y):
            return np.array([-2 * x, -2 * y]) / params.eta_minus

        f = fem.interpolate_two_phase(mesh, f_plus, f_minus, 2)
        sol = solve_weak_transmission(f, params)
        exact = fem.interpolate(mesh, lambda x, y: r_out ** 2 - x * x - y * y, 1)
        errors.append(fem.field_h1_semi(sol.theta - exact))
        ratios.append(sol.stability_ratio)
        hs.append(r_out * 2 * np.pi / (base_a * 2 ** lvl))
    rates = [float("nan")] + [float(np.log2(errors[i - 1] / errors[i]))
                              for i in range(1, levels)]
    write_csv(cfg.out_dir / "transmission_rates.csv", {
        "level": np.arange(levels), "h": np.array(hs),
        "h1_error": np.array(errors), "rate": np.array(rates),
        "stability_ratio": np.array(ratios),
    })
    return 0, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lagstokes",
                                 description="two-phase Lagrangian Stokes solver")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", type=Path, default=None, help="configuration file")
    ap.add_argument("--out", type=Path, default=Path("."), help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        cfg.out_dir = args.out
        cfg.seed = args.seed
        cfg.verbose = args.verbose
        status = run_subcommand(cfg, args.subcommand)
        if cfg.verbose:
            print(f"{args.subcommand}: exit {status}, artifacts in {cfg.out_dir}")
        return status
    except LagStokesError as exc:
        print(f"error-category: {exc.category}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValidationError, ConfigParseError)) else 1


if __name__ == "__main__":
    sys.exit(main())
