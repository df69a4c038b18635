import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermflow
from hermflow import ScalarField, cli, config
from hermflow.cli import main
from hermflow.config import ConfigError, RunConfig, load_config
from hermflow.errors import StepFailureError
from hermflow.sampling import tilted_density


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


STEADY = """
    [model]
    a = 1.0
    kappa = 1.0
    nu = 0.5
    lambda = 2.0

    [frame]
    dim = 1
    degree = 12

    [initial]
    family = steady

    [time]
    dt = 1e-3
    t_final = 0.02

    [run]
    mode = simulate
    seed = 42
"""


class TestConfigParsing:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.cfg", STEADY))
        assert cfg.lam == 2.0 and cfg.family == "steady" and cfg.mode == "simulate"

    def test_unknown_key(self, tmp_path):
        bad = STEADY.replace("seed = 42", "seed = 42\n    typo_key = 1")
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(write_config(tmp_path / "a.cfg", bad))

    def test_unknown_section(self, tmp_path):
        bad = STEADY + "\n    [extras]\n    x = 1\n"
        with pytest.raises(ConfigError, match="extras"):
            load_config(write_config(tmp_path / "a.cfg", bad))

    def test_missing_required(self, tmp_path):
        bad = STEADY.replace("\n    nu = 0.5", "")
        with pytest.raises(ConfigError, match="nu"):
            load_config(write_config(tmp_path / "a.cfg", bad))

    def test_bad_value(self, tmp_path):
        bad = STEADY.replace("dt = 1e-3", "dt = fast")
        with pytest.raises(ConfigError, match="dt"):
            load_config(write_config(tmp_path / "a.cfg", bad))

    def test_missing_file_family(self, tmp_path):
        bad = STEADY.replace("family = steady", "family = file\n    path = /nope/xyz.npz")
        with pytest.raises(ConfigError, match="path"):
            load_config(write_config(tmp_path / "a.cfg", bad))

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.cfg")

    def test_schema_keys_are_the_config_fields(self):
        # one schema entry per RunConfig field, so each key is read one way
        fields = [f.name for f in dataclasses.fields(RunConfig) if f.name != "raw"]
        keys = [config._RENAMED.get(key, key) for keys in config._SCHEMA.values() for key in keys]
        assert sorted(keys) == sorted(fields)

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exits_3(self, tmp_path, capsys, kind):
        path = tmp_path / "a.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(textwrap.dedent(STEADY).encode() + b"# caf\xe9\n")
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["simulate", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("config error:")


class TestSimulateCommand:
    def test_steady_run_passes_audits(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", STEADY)
        code = main(["simulate", cfg, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:9] == ["t", "mass", "E_reg", "D_reg", "E_BD", "D_BD", "I2",
                              "I2_tilde", "I4"]
        e_reg = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(abs(v) for v in e_reg) <= 1e-10
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["verdicts"]["mass_ok"]

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", STEADY.replace("steady", "random"))
        main(["simulate", cfg, "--output-dir", str(tmp_path / "o1")])
        main(["simulate", cfg, "--output-dir", str(tmp_path / "o2")])
        assert (tmp_path / "o1" / "trajectory.csv").read_bytes() == \
            (tmp_path / "o2" / "trajectory.csv").read_bytes()

    def test_seed_override_changes_random_run(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", STEADY.replace("steady", "random"))
        main(["simulate", cfg, "--output-dir", str(tmp_path / "o1"), "--seed", "1"])
        main(["simulate", cfg, "--output-dir", str(tmp_path / "o2"), "--seed", "2"])
        assert (tmp_path / "o1" / "trajectory.csv").read_bytes() != \
            (tmp_path / "o2" / "trajectory.csv").read_bytes()

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        bad = STEADY.replace("seed = 42", "seed = 42\n    typo_key = 1")
        code = main(["simulate", write_config(tmp_path / "a.cfg", bad)])
        assert code == 3
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, args", [
        ("lambda = 2.0", "lambda = 2.0\n    r0 = 2.0", ()),
        ("lambda = 2.0", "lambda = -1", ()),
        ("dim = 1", "dim = 3", ()),
        ("degree = 12", "degree = 8\n    quad_order = 10", ()),
        ("t_final = 0.02", "t_final = 0.0025", ()),
        ("family = steady", "family = file\n    path = {tmp}/short.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/short_u.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/no_u.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/a.cfg", ()),
        ("family = steady", "family = file\n    path = {tmp}/q_nan.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/u_inf.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/text.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/array.npy", ()),
        ("family = steady", "family = file\n    path = {tmp}/truncated.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/q_stack.npz", ()),
        ("family = steady", "family = file\n    path = {tmp}/u_stack.npz", ()),
        ("seed = 42", "seed = 42\n    n_samples = 0", ()),
        ("a = 1.0", "a = nan", ()),
        ("dt = 1e-3", "dt = nan", ()),
        ("t_final = 0.02", "t_final = inf", ()),
        ("family = steady", "family = steady\n    decay = -inf", ()),
        ("seed = 42", "seed = -1", ()),
        ("seed = 42", "seed = 42", ("--seed", "-3")),
        ("nu = 0.5", "nu = 1e300", ()),
        ("family = steady", "family = tilted\n    alpha = 800", ()),
        ("family = steady", "family = random\n    amplitude = 1e308", ()),
        ("family = steady", "family = random\n    decay = 1e200", ()),
        ("t_final = 0.02", "t_final = 1e308", ()),
        ("family = steady", "family = steady\n    u_scale = 1e308", ()),
        ("dt = 1e-3", "dt = 1e-3\n    record_every = 0", ()),
        ("mode = simulate", "mode = simulation", ()),
        ("family = steady", "family = gaussian", ()),
        ("family = steady", "family = file", ()),
        ("seed = 42", "seed = 42\n    save_state = maybe", ()),
        ("seed = 42", "seed = 42\n    n_list = a b", ()),
        ("seed = 42", "seed = 42\n    n_list =", ()),
    ], ids=["r0", "lambda", "dim", "quad_order", "t_final", "file_coeffs", "file_u_coeffs",
            "file_no_u", "file_not_npz", "file_q_nan", "file_u_inf", "file_non_numeric",
            "file_npy", "file_truncated", "file_q_stack", "file_u_stack",
            "n_samples", "a_nan", "dt_nan", "t_final_inf", "decay_inf", "seed_negative",
            "seed_override_negative", "nu_square_overflows", "tilt_too_steep",
            "amplitude_overflows", "decay_overflows",
            "step_count_overflows", "boost_overflows", "record_every_zero", "mode_unknown",
            "family_unknown", "file_without_path", "save_state_not_bool", "n_list_not_int",
            "n_list_empty"])
    def test_out_of_range_value_exits_3(self, tmp_path, capsys, old, new, args):
        # values the solver's own constructors reject are config errors
        np.savez(tmp_path / "short.npz", q_coeffs=np.ones(5), u_coeffs=np.zeros((1, 13)))
        np.savez(tmp_path / "short_u.npz", q_coeffs=np.eye(13)[0], u_coeffs=np.zeros(18))
        np.savez(tmp_path / "no_u.npz", q_coeffs=np.eye(13)[0])
        np.savez(tmp_path / "q_nan.npz", q_coeffs=np.where(np.arange(13) == 4, np.nan, np.eye(13)[0]),
                 u_coeffs=np.zeros((1, 13)))
        np.savez(tmp_path / "u_inf.npz", q_coeffs=np.eye(13)[0],
                 u_coeffs=np.where(np.arange(13) == 2, np.inf, 0.0)[None, :])
        np.savez(tmp_path / "text.npz", q_coeffs=np.array(["a"] * 13), u_coeffs=np.zeros((1, 13)))
        np.save(tmp_path / "array.npy", np.eye(13)[0])
        (tmp_path / "truncated.npz").write_bytes((tmp_path / "no_u.npz").read_bytes()[:40])
        # a stack of members where the file holds one state
        np.savez(tmp_path / "q_stack.npz", q_coeffs=np.tile(np.eye(13)[0], (2, 1)),
                 u_coeffs=np.zeros((1, 13)))
        np.savez(tmp_path / "u_stack.npz", q_coeffs=np.eye(13)[0], u_coeffs=np.zeros((3, 1, 13)))
        body = STEADY.replace(old, new.format(tmp=tmp_path))
        code = main(["simulate", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out"), *args])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if "quad_order" in new:  # the rule size follows from the degree
            assert "unknown key [frame] quad_order" in err

    def test_state_file_off_unit_mass_exits_3(self, tmp_path, capsys):
        # a positive state at half mass is not mollified, so nothing normalizes it
        frame = hermflow.build_frame(a=1.0, kappa=1.0, lam=2.0, dim=1, degree=12)
        np.savez(tmp_path / "half.npz", q_coeffs=0.5 * tilted_density(frame, 0.3).coeffs,
                 u_coeffs=np.zeros((1, 13)))
        body = STEADY.replace("family = steady", f"family = file\n    path = {tmp_path}/half.npz")
        code = main(["simulate", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unit mass, got 0.500000000000" in err

    def test_mollified_state_file_is_normalized(self, tmp_path):
        # a state that dips below zero is mollified, which restores unit mass
        coeffs = np.zeros(13)
        coeffs[[0, 2]] = 0.5, 1.0  # 0.5 + He_2 / sqrt(2) < 0 near the origin
        np.savez(tmp_path / "dip.npz", q_coeffs=coeffs, u_coeffs=np.zeros((1, 13)))
        body = STEADY.replace("family = steady", f"family = file\n    path = {tmp_path}/dip.npz")
        cfg = load_config(write_config(tmp_path / "a.cfg", body))
        frame = cli._make_frame(cfg)
        q0, _ = cli._initial_state(cfg, frame)
        assert np.min(ScalarField(frame, coeffs=coeffs).nodal) < 0.0
        assert abs(q0.coeffs[0] - 1.0) <= 1e-6

    def test_percent_in_values_is_literal(self, tmp_path):
        # '%' has no special meaning: no interpolation and no syntax error
        out = tmp_path / "out%dir" / "%(seed)s"
        cfg = write_config(tmp_path / "a.cfg",
                           STEADY.replace("seed = 42", f"seed = 42\n    output_dir = {out}"))
        assert load_config(cfg).raw["run"]["output_dir"] == str(out)
        assert main(["simulate", cfg]) == 0
        assert (out / "trajectory.csv").exists()

    def test_picard_stall_exits_2(self, tmp_path, capsys, monkeypatch):
        # one velocity sweep cannot settle the first step of a moving state
        monkeypatch.setattr(hermflow.galerkin, "MAX_SWEEPS", 1)
        body = STEADY.replace("family = steady", "family = tilted\n    alpha = 0.3")
        code = main(["simulate", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: velocity fixed point did not settle")
        assert "at t=0;" in err

    def test_positivity_failure_at_setup_exits_2(self, tmp_path, capsys):
        # the boost is projected with a tilt that dips below zero at degree 4
        body = (STEADY.replace("degree = 12", "degree = 4")
                .replace("family = steady", "family = tilted\n    alpha = -1\n    u_scale = 0.1"))
        code = main(["simulate", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_output_dir_naming_a_file_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", STEADY)
        code = main(["simulate", cfg, "--output-dir", cfg])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")

    def test_mode_mismatch_exits_3(self, tmp_path):
        code = main(["verify", write_config(tmp_path / "a.cfg", STEADY)])
        assert code == 3

    def test_state_snapshot(self, tmp_path):
        body = STEADY.replace("seed = 42", "seed = 42\n    save_state = true")
        code = main(["simulate", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        data = np.load(tmp_path / "out" / "state.npz")
        assert data["q_coeffs"].shape == (13,)


class TestVerifyCommand:
    def test_small_suite(self, tmp_path):
        body = STEADY.replace("mode = simulate", "mode = verify\n    n_samples = 10")
        body = body.replace("family = steady", "family = random\n    amplitude = 0.4\n    decay = 0.35")
        code = main(["verify", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "margins.json").read_text())
        assert report["summary"]["min_lsi_margin"] >= -1e-8
        assert len(report["samples"]) == 10

    def test_lambda_square_overflow_exits_3(self, tmp_path, capsys):
        # sigma = 1e-75: the samples' capillarity and Bohm terms overflow
        body = STEADY.replace("mode = simulate", "mode = verify\n    n_samples = 2")
        body = body.replace("family = steady", "family = random")
        body = body.replace("lambda = 2.0", "lambda = 1e300")
        code = main(["verify", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("value", ["amplitude = 1e308", "decay = 1e200"])
    def test_non_finite_sample_exits_3(self, tmp_path, capsys, value):
        # an overflowing sample scale is the config's, not a solver failure,
        # and it is reported without numpy warnings
        body = STEADY.replace("mode = simulate", "mode = verify\n    n_samples = 2")
        body = body.replace("family = steady", f"family = random\n    {value}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", write_config(tmp_path / "a.cfg", body),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: [initial] amplitude = ")
        assert "decay = " in err and "non-finite" in err and err.count("\n") == 1


class TestSweepCommand:
    BODY = """
            [model]
            a = 1.0
            kappa = 0.5
            nu = 0.5
            lambda = 100.0

            [frame]
            dim = 1
            degree = 12

            [initial]
            family = tilted
            alpha = 0.8

            [time]
            dt = 2e-3
            t_final = 0.05
            record_every = 5

            [run]
            mode = sweep
            n_list = 4, 8
        """

    def test_small_sweep(self, tmp_path):
        code = main(["sweep", write_config(tmp_path / "a.cfg", self.BODY),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        assert report["failed_at"] is None
        assert len(report["increments"]) == 1

    def test_failing_member_exits_2(self, tmp_path, capsys, monkeypatch):
        # the second member (r1 = 1/8) stalls on its first step; the members
        # step as one stack, so the stand-in names it by its place there
        step = hermflow.driver.coupled_step

        def stalling_step(state, params, dt, *args):
            rates = [p.r1 for p in params]
            if 1.0 / 8.0 in rates:
                raise StepFailureError(f"stalled at t={state.t:.6g}",
                                       member=rates.index(1.0 / 8.0))
            return step(state, params, dt, *args)

        monkeypatch.setattr(hermflow.driver, "coupled_step", stalling_step)
        code = main(["sweep", write_config(tmp_path / "a.cfg", self.BODY),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            "sweep member n=8 failed: StepFailureError: stalled at t=0\n"
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        assert report["failed_at"] == 8
        assert report["failure"] == "StepFailureError: stalled at t=0"
        assert [s["n"] for s in report["schedules"]] == [4, 8]
        assert len(report["audits"]) == 1 and report["increments"] == []

    @pytest.mark.parametrize("key", ["r0", "r1", "r4", "delta1"])
    def test_regularizer_in_config_exits_3(self, tmp_path, capsys, key):
        # the sweep sets these from its own schedule, so a configured value
        # would be ignored
        body = self.BODY.replace("lambda = 100.0", f"lambda = 100.0\n            {key} = 0.7")
        code = main(["sweep", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("n_list", ["8, 4", "0, 4"], ids=["decreasing", "zero"])
    def test_bad_n_list_exits_3(self, tmp_path, capsys, n_list):
        body = self.BODY.replace("n_list = 4, 8", f"n_list = {n_list}")
        code = main(["sweep", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")


class TestRescaledCommand:
    BODY = (STEADY.replace("mode = simulate", "mode = rescaled")
            .replace("family = steady", "family = tilted\n    alpha = 0.3")
            .replace("t_final = 0.02", "t_final = 0.04"))

    def test_short_run(self, tmp_path):
        code = main(["rescaled", write_config(tmp_path / "a.cfg", self.BODY),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mass_error"] < 1e-10
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0:3] == ["t", "tau", "tau_dot"]

    @pytest.mark.parametrize("key", ["r0", "r1", "r4", "delta1", "record_every"])
    def test_regularizer_in_config_exits_3(self, tmp_path, capsys, key):
        # the dilated system has no drag or diffusion regularization, and it
        # records every step
        anchor, value = ("dt = 1e-3", 5) if key == "record_every" else ("lambda = 2.0", 0.7)
        body = self.BODY.replace(anchor, f"{anchor}\n    {key} = {value}")
        code = main(["rescaled", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")

    def test_single_step_exits_3(self, tmp_path, capsys):
        # the balance audit takes centered differences over three recorded states
        body = self.BODY.replace("t_final = 0.04", "t_final = 1e-3")
        code = main(["rescaled", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("nu", ["1e60", "1e100"])
    def test_overflowing_dilation_exits_2(self, tmp_path, capsys, nu):
        # nu^2 is finite, but the dilation equation overflows in its second half step
        body = self.BODY.replace("nu = 0.5", f"nu = {nu}")
        code = main(["rescaled", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            "solver failure: dilation equation overflowed in the step to t=0.001\n"

    def test_subnormal_dt_exits_3(self, tmp_path, capsys):
        # two whole steps, but the half step of the dilation solve rounds to 0
        body = (self.BODY.replace("dt = 1e-3", "dt = 5e-324")
                .replace("t_final = 0.04", "t_final = 1e-323"))
        code = main(["rescaled", write_config(tmp_path / "a.cfg", body),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "[time] dt" in err and "half step" in err


@pytest.mark.parametrize("mode", ["simulate", "verify", "sweep", "rescaled"])
def test_frame_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch, mode):
    # 2D degree 3000 would need 806 GiB for the basis values; the frame
    # constructor is stubbed, so no test allocates anything that large
    def out_of_memory(self, sigma, dim, degree):
        raise MemoryError

    monkeypatch.setattr(hermflow.GaussianFrame, "__init__", out_of_memory)
    body = (STEADY.replace("mode = simulate", f"mode = {mode}").replace("dim = 1", "dim = 2")
            .replace("degree = 12", "degree = 3000"))
    code = main([mode, write_config(tmp_path / "a.cfg", body),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("config error: [frame] dim = 2, degree = 3000:")


WIDE_FRAME_BODIES = {
    "simulate": STEADY.replace("family = steady", "family = tilted\n    alpha = 0.3"),
    "verify": (STEADY.replace("mode = simulate", "mode = verify\n    n_samples = 2")
               .replace("family = steady", "family = random")),
    "sweep": textwrap.dedent(TestSweepCommand.BODY).replace("lambda = 100.0", "lambda = 2.0"),
}


@pytest.mark.parametrize("lam", ["1e-100", "1e-200", "1e-300"])
@pytest.mark.parametrize("mode", sorted(WIDE_FRAME_BODIES))
def test_frame_too_wide_for_floats_exits_3(tmp_path, capsys, mode, lam):
    # sigma = 1e50, 1e100, 1e150: from lambda = 1e-200 on sigma^4 overflows,
    # and at 1e-100 every tilt, the verify check's included, is 0/0 at unit mass
    body = WIDE_FRAME_BODIES[mode].replace("lambda = 2.0", f"lambda = {lam}")
    code = main([mode, write_config(tmp_path / "a.cfg", body),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    if mode == "verify" or lam != "1e-100":
        assert err.startswith(f"config error: [model] lambda = {lam}:")


@pytest.mark.parametrize("mode, artifact", [
    ("simulate", "trajectory.csv"), ("simulate", "state.npz"), ("verify", "margins.json"),
    ("sweep", "sweep_report.json"), ("rescaled", "trajectory.csv"),
], ids=["simulate", "simulate_state", "verify", "sweep", "rescaled"])
def test_unwritable_artifact_exits_3(tmp_path, capsys, mode, artifact):
    # a directory where an artifact goes: the output directory cannot take
    # it, which is an input error, not an audit violation (1)
    body = {
        "simulate": STEADY.replace("seed = 42", "seed = 42\n    save_state = true"),
        "verify": STEADY.replace("mode = simulate", "mode = verify\n    n_samples = 2")
                        .replace("family = steady", "family = random"),
        "sweep": TestSweepCommand.BODY,
        "rescaled": TestRescaledCommand.BODY,
    }[mode]
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    code = main([mode, write_config(tmp_path / "a.cfg", body), "--output-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / artifact}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, code", [
    (["simulate"], 3),
    (["simulate", "{cfg}", "--seed", "abc"], 3),
    (["simulate_all", "{cfg}"], 3),
    (["simulate", "{cfg}", "--steps", "5"], 3),
    (["--help"], 0),
], ids=["no_config", "seed_not_int", "unknown_command", "unknown_option", "help"])
def test_command_line_exit_codes(tmp_path, capsys, argv, code):
    # a malformed command line is an input error, not a solver failure (2)
    cfg = write_config(tmp_path / "a.cfg", STEADY)
    assert main([arg.format(cfg=cfg) for arg in argv]) == code
    out = capsys.readouterr()
    assert "usage: hermflow" in (out.err if code else out.out)


# one small run per mode, every float key the fuzzer may change spelled out
FUZZ_BASE = {
    "model": {"a": 1.0, "kappa": 0.5, "nu": 0.5, "lambda": 100.0, "r0": 0.0, "delta1": 0.0},
    "frame": {"dim": 1, "degree": 6},
    "initial": {"alpha": 0.3, "amplitude": 0.4, "decay": 0.35, "u_scale": 0.1},
    "time": {"dt": 2e-3, "t_final": 4e-3},
    "run": {"n_samples": 2, "n_list": "4, 8"},
}
FUZZ_FAMILY = {"simulate": "random", "verify": "random", "sweep": "tilted", "rescaled": "tilted"}
FUZZ_KEYS = ["a", "kappa", "nu", "lambda", "r0", "delta1", "alpha", "amplitude", "decay",
             "u_scale", "dt", "t_final"]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(mode=st.sampled_from(sorted(FUZZ_FAMILY)), key=st.sampled_from(FUZZ_KEYS),
       value=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "abc", ""]))
def test_fuzzed_config_exits_with_a_contract_code(mode, key, value):
    lines = []
    for section, entries in FUZZ_BASE.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {value if k == key else v}" for k, v in entries.items()]
        if section == "initial":
            lines.append(f"family = {FUZZ_FAMILY[mode]}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code = main([mode, str(cfg), "--output-dir", str(Path(tmp) / "out")])
    assert isinstance(code, int) and 0 <= code <= 3


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # together they cost about half a second of start-up on every run
    src = str(Path(hermflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, hermflow.cli; "
             "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
