"""Command-line runner: simulate, verify, sweep and rescaled modes.

Artifacts land in the configured output directory:

* ``trajectory.csv`` with one diagnostics row per recorded time, columns
  (in fixed order) t, mass, E_reg, D_reg, E_BD, D_BD, I2, I2_tilde, I4,
  Mx_*, Mu_*, min_q, max_q, lsi_margin, hess_margin_mid, hess_margin_final,
  poincare_q, poincare_korn_u, floats printed with 17 significant digits;
* ``summary.json`` with the config echo, audit verdicts and worst margins;
* optional ``state.npz`` spectral snapshot of the final state.

Exit codes: 0 success with all audits passing, 1 completed with an audit
violation, 2 solver failure (fixed point or positivity), 3 configuration
or command-line error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import diagnostics
from .calculus import ModelParams, bohm_residual, korteweg_consistency
from .config import RunConfig, check_seed, load_config
from .continuation import mollify_initial_data, schedule_indices, vanishing_drag_sweep
from .driver import march, simulate, step_count
from .errors import SOLVER_FAILURES, ConfigError, DimensionError, InvalidParameterError
from .galerkin import project_initial_velocity
from .rescaled import (
    combined_identity_residual,
    require_unregularized,
    rescaled_balance,
    tau_coeffs,
    tau_solve,
)
from .sampling import random_density, random_velocity, tilted_density
from .spectral import GaussianFrame, ScalarField, VectorField, build_frame, sigma_from_coefficients

MARGIN_TOL = -1e-8


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def _config_values():
    """Report a config value that the solver's own checks reject as a config error."""
    try:
        yield
    except (InvalidParameterError, DimensionError) as exc:
        raise ConfigError(str(exc)) from exc


def _model_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(a=cfg.a, kappa=cfg.kappa, nu=cfg.nu, lam=cfg.lam,
                       r0=cfg.r0, r1=cfg.r1, r4=cfg.r4, delta1=cfg.delta1)


def _make_frame(cfg: RunConfig, sigma: float | None = None) -> GaussianFrame:
    """The config's frame, at the model's Gaussian scale unless ``sigma`` is
    given; a model scale whose sigma^4 is not a finite float, or a frame too
    large to allocate, is a config error."""
    if sigma is None:
        scale = sigma_from_coefficients(cfg.a, cfg.kappa, cfg.lam)
        try:
            finite = math.isfinite(scale**4)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"[model] lambda = {cfg.lam!r}: the Gaussian scale sigma = "
                              f"{scale!r} has a sigma^4 beyond the float range")
    try:
        if sigma is None:
            return build_frame(cfg.a, cfg.kappa, cfg.lam, cfg.dim, cfg.degree)
        return GaussianFrame(sigma, cfg.dim, cfg.degree)
    except MemoryError as exc:
        raise ConfigError(f"[frame] dim = {cfg.dim}, degree = {cfg.degree}: "
                          "the frame does not fit in memory") from exc


def _read_state_file(path: str, frame: GaussianFrame):
    """(q, u) of an npz snapshot; a file without numeric ``q_coeffs`` and
    ``u_coeffs`` arrays of one field each is a config error."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError(f"state file {path} is not an npz archive")
        with data:
            q_coeffs, u_coeffs = (np.asarray(data[key], dtype=float)
                                  for key in ("q_coeffs", "u_coeffs"))
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from exc
    n_q, n_u = frame.n_basis, frame.dim * frame.n_basis
    if (q_coeffs.size, u_coeffs.size) != (n_q, n_u):
        raise ConfigError(f"state file {path} must hold one state: {n_q} q_coeffs and "
                          f"{n_u} u_coeffs, got shapes {q_coeffs.shape} and {u_coeffs.shape}")
    return (ScalarField(frame, coeffs=q_coeffs.ravel()),
            VectorField(frame, coeffs=u_coeffs.ravel()))


def _initial_state(cfg: RunConfig, frame: GaussianFrame):
    rng = np.random.default_rng(cfg.seed)
    # a non-finite result is reported by the check below, not as a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cfg.family == "steady":
            q0 = ScalarField(frame, coeffs=np.eye(frame.n_basis)[0])
            u0 = VectorField.zero(frame)
        elif cfg.family == "tilted":
            q0 = tilted_density(frame, cfg.alpha)
            u0 = VectorField.zero(frame)
        elif cfg.family == "random":
            q0 = random_density(frame, rng, decay=cfg.decay, amplitude=cfg.amplitude)
            u0 = random_velocity(frame, rng, decay=cfg.decay, amplitude=cfg.u_scale) \
                if cfg.u_scale else VectorField.zero(frame)
        else:  # family == "file", existence checked at parse time
            q0, u0 = _read_state_file(cfg.path, frame)
    if not (np.isfinite(q0.coeffs).all() and np.isfinite(u0.coeffs).all()):
        # e.g. a tilt too steep for the frame (0/0 at unit mass) or a corrupt state file
        raise ConfigError("initial data has non-finite coefficients")
    if cfg.u_scale and cfg.family in ("steady", "tilted"):
        # linear boost u = u_scale * x, projected with the q0 weight
        with np.errstate(over="ignore"):
            boost = cfg.u_scale * frame.nodes.T.copy()
        if not np.isfinite(boost).all():
            raise ConfigError(f"[initial] u_scale = {cfg.u_scale!r} overflows u_scale * x")
        u0 = project_initial_velocity(q0, boost)
    if float(np.min(q0.nodal[frame.trusted])) <= 0.0:
        # data without a two-sided positive bound enter through the
        # cutoff-convolve-normalize pipeline first
        q0, u0 = mollify_initial_data(q0, u0, n=8)
    mass = float(q0.coeffs[0])
    if abs(mass - 1.0) > 1e-6:
        # the tolerance of the log-Sobolev check every record makes
        raise ConfigError(f"initial density must have unit mass, got {mass:.12f}")
    return q0, u0


@contextmanager
def _writing(path: Path):
    """Report an artifact that cannot be written as a config error naming its path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    with _writing(path):
        path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with _writing(path):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(cfg: RunConfig) -> int:
    """Simulate mode: march the confined system and audit the trajectory."""
    out = Path(cfg.output_dir)
    with _config_values():
        frame = _make_frame(cfg)
        params = _model_params(cfg)
        q0, u0 = _initial_state(cfg, frame)
        step_count(cfg.dt, cfg.t_final)
    result = simulate(frame, params, q0, u0, dt=cfg.dt, t_final=cfg.t_final,
                      record_every=cfg.record_every)
    records = result.records
    _write_csv(out / "trajectory.csv", diagnostics.csv_header(frame.dim),
               map(diagnostics.csv_row, records))
    audit = diagnostics.energy_inequality_audit(records, params, frame.sigma, frame.dim)
    worst_lsi = min(r.lsi_margin for r in records)
    worst_hess = min(min(r.hess_margin_mid, r.hess_margin_final) for r in records)
    audit_tol = 10.0 * cfg.dt
    verdicts = {
        "mass_ok": audit["mass_error"] < 1e-10,
        "ebd_nonnegative": audit["ebd_min"] >= MARGIN_TOL,
        "energy_inequality_ok": audit["energy_violation"] <= audit_tol,
        "bd_inequality_ok": audit["bd_violation"] <= audit_tol,
        "envelope_ok": result.envelope_ok,
        "margins_ok": worst_lsi >= MARGIN_TOL and worst_hess >= MARGIN_TOL,
    }
    summary = {
        "config": cfg.raw,
        "t_final": records[-1].t,
        "final_mass": records[-1].mass,
        "final_energy": records[-1].e_reg,
        "audit": audit,
        "worst_lsi_margin": worst_lsi,
        "worst_hessian_margin": worst_hess,
        "verdicts": verdicts,
    }
    if cfg.save_state:
        with _writing(out / "state.npz"):
            np.savez(out / "state.npz", t=result.final_state.t,
                     q_coeffs=result.final_state.q.coeffs,
                     u_coeffs=result.final_state.u.coeffs)
        summary["state_file"] = "state.npz"
    ok = all(verdicts.values())
    summary["exit_code"] = 0 if ok else 1
    _write_json(out / "summary.json", summary)
    for name, good in verdicts.items():
        print(f"{name}: {'pass' if good else 'FAIL'}")
    return 0 if ok else 1


def verify(cfg: RunConfig) -> int:
    """Verify mode: inequality suite over seeded random fields."""
    out = Path(cfg.output_dir)
    with _config_values():
        frame = _make_frame(cfg)
        _model_params(cfg)  # rejects what the other modes reject, e.g. an overflowing square
    # the tilt check's density, under the errstate of the initial data: a
    # tilt too steep for the frame is 0/0 at unit mass
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tilt = tilted_density(frame, 0.4)
    if not np.isfinite(tilt.coeffs).all():
        raise ConfigError(f"[model] lambda = {cfg.lam!r}: the tilt check's density "
                          "has non-finite coefficients")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for k in range(cfg.n_samples):
        # a non-finite sample is reported below, not as a numpy warning
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = random_density(frame, rng, decay=cfg.decay, amplitude=cfg.amplitude)
            u = random_velocity(frame, rng, decay=cfg.decay, amplitude=1.0)
        if not (np.isfinite(q.coeffs).all() and np.isfinite(u.coeffs).all()):
            raise ConfigError(f"[initial] amplitude = {cfg.amplitude!r}, decay = {cfg.decay!r}: "
                              f"sample {k} has non-finite coefficients")
        lsi_main, lsi_alt = diagnostics.lsi_margins(q)
        _, _, _, _, hmid, hfin = diagnostics.check_hessian_lemma(q)
        rows.append({
            "sample": k,
            "lsi_margin": lsi_main,
            "lsi_margin_alt_constant": lsi_alt,
            "hess_margin_mid": hmid,
            "hess_margin_final": hfin,
            "poincare_q": diagnostics.poincare_ratio(q),
            "poincare_korn_u": diagnostics.poincare_korn_ratio(u),
            "korteweg_mismatch": korteweg_consistency(q),
            "bohm_residual": bohm_residual(q),
        })
    tilt_margin = diagnostics.check_log_sobolev(tilt)

    def col(name):
        return [r[name] for r in rows]

    report = {
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "frame": repr(frame),
        "min_lsi_margin": min(col("lsi_margin")),
        "min_lsi_margin_alt_constant": min(col("lsi_margin_alt_constant")),
        "min_hess_margin_mid": min(col("hess_margin_mid")),
        "min_hess_margin_final": min(col("hess_margin_final")),
        "max_poincare_q": max(col("poincare_q")),
        "max_poincare_korn_u": max(col("poincare_korn_u")),
        "max_korteweg_mismatch": max(col("korteweg_mismatch")),
        "max_bohm_residual": max(col("bohm_residual")),
        "tilt_extremizer_lsi_margin": tilt_margin,
    }
    # exit on the inequality margins; the Bohm residual tracks how well the
    # samples resolve their square roots and is reported, not gated
    ok = (
        report["min_lsi_margin"] >= MARGIN_TOL
        and report["min_hess_margin_mid"] >= MARGIN_TOL
        and report["min_hess_margin_final"] >= MARGIN_TOL
        and report["max_korteweg_mismatch"] < 1e-10
        and abs(report["tilt_extremizer_lsi_margin"]) < 1e-6
        and np.isfinite(report["max_poincare_q"])
        and np.isfinite(report["max_poincare_korn_u"])
    )
    report["exit_code"] = 0 if ok else 1
    _write_json(out / "margins.json", {"summary": report, "samples": rows})
    width = max(len(k) for k in report)
    for key, val in report.items():
        print(f"{key:<{width}}  {val}")
    return 0 if ok else 1


def sweep(cfg: RunConfig) -> int:
    """Sweep mode: vanishing-drag continuation study."""
    out = Path(cfg.output_dir)
    with _config_values():
        n_list = schedule_indices(cfg.n_list)
        frame = _make_frame(cfg)
        params = _model_params(cfg)
        if params.regularized:
            raise ConfigError("sweep mode sets r0, r1, r4 and delta1 from its drag "
                              "schedule; leave them at 0")
        q0, u0 = _initial_state(cfg, frame)
        step_count(cfg.dt, cfg.t_final)
    report = vanishing_drag_sweep(frame, params, q0, u0, n_list,
                                  dt=cfg.dt, t_final=cfg.t_final,
                                  record_every=cfg.record_every)
    _write_json(out / "sweep_report.json", report)
    if report["failed_at"] is not None:
        print(f"sweep member n={report['failed_at']} failed: {report['failure']}",
              file=sys.stderr)
        return 2
    for inc in report["increments"]:
        print(f"n={inc['pair'][0]}->{inc['pair'][1]}: "
              f"sqrtq_h1={inc['sqrtq_h1']:.6e} momentum_l2={inc['momentum_l2']:.6e}")
    audits_ok = all(
        a["mass_error"] < 1e-10 and a["ebd_min"] >= MARGIN_TOL
        and a["energy_violation"] <= 10.0 * cfg.dt and a["bd_violation"] <= 20.0 * cfg.dt
        for a in report["audits"]
    )
    ok = report["cauchy_monotone_after_burn_in"] and audits_ok
    print(f"cauchy_monotone_after_burn_in: {report['cauchy_monotone_after_burn_in']}")
    return 0 if ok else 1


def rescaled_run(cfg: RunConfig) -> int:
    """Rescaled mode: dilated system on the unit-Gaussian frame."""
    out = Path(cfg.output_dir)
    if cfg.record_every != 1:
        raise ConfigError("rescaled mode records every step; [time] record_every must be 1")
    with _config_values():
        frame = _make_frame(cfg, sigma=1.0)
        params = _model_params(cfg)
        require_unregularized(params)
        q0, u0 = _initial_state(cfg, frame)
        n_steps = step_count(cfg.dt, cfg.t_final)
        if n_steps < 2:
            # the centered differences of the balance audit need three states
            raise ConfigError("rescaled mode needs at least 2 steps: [time] t_final >= 2 dt")
        if cfg.dt / 2.0 == 0.0:
            raise ConfigError(f"[time] dt = {cfg.dt!r}: its half step rounds to 0, "
                              "and the dilation is solved at half steps")
        # tau at every half step: taus[2k] starts step k, taus[2k + 1] is its midpoint
        taus = tau_solve(cfg.a, cfg.kappa, cfg.nu, cfg.t_final, cfg.dt / 2.0)
    dilations = iter(taus[::2])  # taus[2k] belongs to the state after k steps

    def balance(b, times, params):
        """The trajectory rows of a chunk of states, the dilated balance at each."""
        tau = [next(dilations) for _ in times]
        values = rescaled_balance(b, np.array([d.tau for d in tau]),
                                  np.array([d.tau_dot for d in tau]), params)
        return [(d.t, d.tau, d.tau_dot, mass, *row) for d, mass, row
                in zip(tau, b.q.coeffs[:, 0].tolist(), np.column_stack(values).tolist())]

    results, failure = march(frame, [params], [q0], [u0], cfg.dt, cfg.t_final,
                             schedule=lambda k: tau_coeffs(params, taus[2 * k + 1]),
                             recorder=balance)
    if failure is not None:
        raise failure
    rows = results[0].records
    _write_csv(out / "trajectory.csv", ["t", "tau", "tau_dot", "mass", "E_tau", "D_tau",
                                        "E_BD_tau", "D_BD_tau", "bd_remainder"], rows)
    energies = [row[4:8] for row in rows]
    residual = combined_identity_residual(energies, cfg.dt, [row[8] for row in rows])
    naive = combined_identity_residual(energies, cfg.dt)
    mass_err = max(abs(r[3] - 1.0) for r in rows)
    ok = mass_err < 1e-10
    summary = {
        "config": cfg.raw,
        "combined_identity_residual": residual,
        "combined_identity_residual_without_remainder": naive,
        "mass_error": mass_err,
        "final_tau": rows[-1][1],
        "exit_code": 0 if ok else 1,
    }
    _write_json(out / "summary.json", summary)
    print(f"combined_identity_residual: {residual:.6e} (without twist remainder: {naive:.6e})")
    return 0 if ok else 1


_DISPATCH = {"simulate": run, "verify": verify, "sweep": sweep, "rescaled": rescaled_run}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hermflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the run configuration file")
        p.add_argument("--output-dir", default=None, help="override [run] output_dir")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; only --help exits with 0
        return 3 if exc.code else 0
    try:
        cfg = load_config(args.config)
        if cfg.mode is not None and cfg.mode != args.command:
            raise ConfigError(
                f"config declares mode={cfg.mode!r} but was launched as {args.command!r}"
            )
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SOLVER_FAILURES as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
