import ast
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatfield
from heatfield import _digits, cli, dyson, montecarlo, pring
from heatfield.cli import ParseError, ValidationError, parse_config

SRC = Path(heatfield.__file__).resolve().parent.parent


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def expanded(columns) -> dict:
    # Every CSV column as its cells: a level column's levels[codes].
    return {name: np.asarray(col.levels)[np.asarray(col.codes)] if isinstance(col, cli._Levels) else col
            for name, col in columns.items()}


EXTINCTION_CFG = """\
# small but real extinction run
alpha = 0.25
gamma = 1.0
horizon = 20.0
replicas = 1500
seed = 42
max.particles = 4000
tau.count = 21
"""


class TestParseConfig:
    def test_typed_values_and_defaults(self, tmp_path):
        path = write(tmp_path / "run.cfg", EXTINCTION_CFG)
        config = parse_config(path, "extinction")
        assert config.kind == "extinction"
        assert config.params["alpha"] == 0.25
        assert config.params["replicas"] == 1500
        assert config.params["max.particles"] == 4000
        assert config.out is None

    def test_inline_comments_and_out_key(self, tmp_path):
        path = write(tmp_path / "run.cfg", "cases = 10  # tiny\nout = here.csv\n")
        config = parse_config(path, "ring-check")
        assert config.params["cases"] == 10
        assert config.out == "here.csv"

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_config(str(tmp_path / "nope.cfg"), "ring-check")
        assert "nope.cfg" in str(err.value)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path / "run.cfg", "cases = 10\nwhat is this\n")
        with pytest.raises(ParseError) as err:
            parse_config(path, "ring-check")
        assert ":2:" in str(err.value)

    def test_constraint_violation_names_key(self, tmp_path):
        path = write(tmp_path / "run.cfg", EXTINCTION_CFG.replace("alpha = 0.25", "alpha = 1.5"))
        with pytest.raises(ValidationError) as err:
            parse_config(path, "extinction")
        assert "alpha" in str(err.value) and "[0, 1]" in str(err.value)

    def test_unknown_and_missing_keys(self, tmp_path):
        path = write(tmp_path / "run.cfg", "bogus = 1\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path, "ring-check")
        assert "bogus" in str(err.value)
        path = write(tmp_path / "run2.cfg", "gamma = 1.0\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path, "extinction")
        assert "required" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path / "run.cfg", "cases = 1\ncases = 2\n")
        with pytest.raises(ParseError):
            parse_config(path, "ring-check")

    @pytest.mark.parametrize(
        "text, message",
        [("Alpha = 0.5\n", "invalid key 'Alpha' (dotted lowercase)"), ("alpha =\n", "empty value for 'alpha'")],
    )
    def test_malformed_pairs_are_parse_errors(self, tmp_path, text, message):
        path = write(tmp_path / "bad.cfg", "gamma = 1.0\n" + text)
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
            parse_config(path, "onepoint")

    def test_non_numeric_value_and_unknown_kind(self, tmp_path, capsys):
        path = write(tmp_path / "bad.cfg", "alpha = half\ngamma = 1.0\ntau.max = 1.0\n")
        with pytest.raises(ValidationError, match="^alpha: expected float, got 'half'$"):
            parse_config(path, "onepoint")
        assert cli.main(["onepoint", "--config", path]) == 1
        assert "heatfield onepoint: alpha: expected float, got 'half'" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="^unknown experiment kind 'twopoints'$"):
            parse_config(path, "twopoints")

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("kernel", "t.min = 1.0\nt.max = 0.5\nt.count = 2\nr.max = 1.0\nr.count = 2\n", "t.max: must be >= t.min"),
            ("kernel", "t.min = 0.5\nt.max = 1.0\nt.count = 2\nr.min = 2.0\nr.max = 1.0\nr.count = 2\n",
             "r.max: must be >= r.min"),
            ("semigroup", "t = 0.25\ngrid.origin = -8.0\ngrid.step = 0.02\ngrid.count = 801\nu.kind = indicator\n"
             "u.lo = 1.0\nu.hi = -1.0\n", "u.hi: must be >= u.lo"),
        ],
    )
    def test_reversed_ranges_exit_1(self, tmp_path, capsys, kind, text, message):
        path = write(tmp_path / "bad.cfg", text)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_config(path, kind)
        out = tmp_path / "bad.csv"
        assert cli.main([kind, "--config", path, "--out", str(out)]) == 1
        assert f"heatfield {kind}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("kernel", "t.min = 0.5\nt.max = 1.0\nt.count = 4097\nr.max = 1.0\nr.count = 4096\n",
             f"t.count, r.count: the CSV must have at most 2**24 rows, got {4097 * 4096}"),
            ("semigroup", "t = 0.25\ngrid.origin = -8.0\ngrid.step = 0.02\ngrid.count = 16777217\n",
             "grid.count: the CSV must have at most 2**24 rows, got 16777217"),
            # 20,000 times by 2,001 nodes: 320 MB as one float64 field.
            ("twopoint", "alpha = 0.5\ngamma = 1.0\nt.max = 2\nt.step = 1e-4\nx.halfwidth = 10\nx.step = 1e-2\n",
             "t.max, t.step, x.halfwidth, x.step: the CSV must have at most 2**24 rows, got 40020000"),
            ("twopoint", "alpha = 0.5\ngamma = 1.0\nt.max = 1e300\nt.step = 1e-300\nx.halfwidth = 10\nx.step = 1e-2\n",
             "t.max, t.step, x.halfwidth, x.step: grid span must take a finite number of steps, "
             "got span 1e+300 at step 1e-300"),
        ],
    )
    def test_grid_csvs_past_2_24_rows_exit_1_before_anything_runs(self, tmp_path, capsys, monkeypatch, kind, text,
                                                                    message):
        monkeypatch.setitem(cli._RUNNERS, kind, pytest.fail)
        path = write(tmp_path / "big.cfg", text)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                parse_config(path, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak  # no grid allocated
        out = tmp_path / "big.csv"
        assert cli.main([kind, "--config", path, "--out", str(out)]) == 1
        assert f"heatfield {kind}: {message}\n" == capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()

    @pytest.mark.parametrize("kind, text", [
        ("kernel", "t.min = 0.5\nt.max = 1.0\nt.count = 4096\nr.max = 1.0\nr.count = 4096\n"),
        ("semigroup", "t = 0.25\ngrid.origin = -8.0\ngrid.step = 0.02\ngrid.count = 16777216\n"),
        ("twopoint", "alpha = 0.5\ngamma = 1.0\nt.max = 2\nt.step = 2.5e-4\nx.halfwidth = 10\nx.step = 1e-2\n"),
    ])
    def test_grid_csvs_of_2_24_rows_or_fewer_pass(self, tmp_path, kind, text):
        assert parse_config(write(tmp_path / "ok.cfg", text), kind).kind == kind

    def test_kind_declaration_must_match(self, tmp_path):
        path = write(tmp_path / "run.cfg", "experiment = gf\ncases = 1\n")
        with pytest.raises(ValidationError):
            parse_config(path, "ring-check")


class TestMain:
    def test_validation_failure_exits_1(self, tmp_path, capsys):
        path = write(tmp_path / "bad.cfg", "alpha = 2.0\ngamma = 1.0\nreplicas = 10\n")
        assert cli.main(["extinction", "--config", path]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_twopoint_rejects_removed_solver_keys(self, tmp_path, capsys):
        # The two-point solve marches to the exact discrete solution, so
        # it has no tolerance or iteration cap to configure.
        grid = "alpha = 0.5\ngamma = 1.0\nt.max = 0.5\nt.step = 0.1\nx.halfwidth = 5.0\nx.step = 0.1\n"
        for extra, key in (("tol = 1e-8\n", "tol"), ("max.iter = 100\n", "max.iter")):
            path = write(tmp_path / "tp.cfg", grid + extra)
            assert cli.main(["twopoint", "--config", path, "--out", str(tmp_path / "tp.csv")]) == 1
            assert f"{key}: unknown key for 'twopoint'" in capsys.readouterr().err
        assert not (tmp_path / "tp.csv").exists()

    def test_extinction_run(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", EXTINCTION_CFG)
        out = tmp_path / "ext.csv"
        assert cli.main(["extinction", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "analytic", "mc_estimate", "mc_stderr"]
        assert len(rows) == 21
        final = rows[-1]
        assert abs(float(final[1]) - 1.0 / 3.0) < 1e-3
        assert abs(float(final[2]) - 1.0 / 3.0) < 4.0 * float(final[3])
        manifest = json.loads((tmp_path / "ext.csv.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "extinction"
        assert manifest["config"]["seed"] == 42
        assert manifest["library_version"]
        assert manifest["duration_seconds"] > 0
        assert "final_mc_stderr" in manifest["estimates"]
        config = montecarlo.BranchingConfig(1.0, dyson.FertilityDistribution.binary(0.25), max_particles=4000)
        assert (manifest["estimates"]["stop_level"], manifest["estimates"]["stop_bias_bound"]) == (
            config.extinction_stop
        )
        assert manifest["estimates"]["stop_level"] == 64
        assert 0.0 < manifest["estimates"]["stop_bias_bound"] <= 2.0**-100

    def test_extinction_computes_its_stop_level_once(self, tmp_path, monkeypatch):
        # The walks and the manifest's stop_level read one cached bisection.
        calls = []
        bound = montecarlo._extinction_upper_bound
        monkeypatch.setattr(montecarlo, "_extinction_upper_bound", lambda cdf: calls.append(1) or bound(cdf))
        cfg = write(tmp_path / "run.cfg", EXTINCTION_CFG)
        assert cli.main(["extinction", "--config", cfg, "--out", str(tmp_path / "ext.csv")]) == 0
        assert len(calls) == 1

    def test_extinction_without_early_stop(self, tmp_path):
        # alpha 1/2 dies out for sure, so the cap is the stop level and nothing is guaranteed.
        text = "alpha = 0.5\ngamma = 1.0\nhorizon = 5.0\nreplicas = 50\nmax.particles = 300\n"
        cfg = write(tmp_path / "run.cfg", text)
        assert cli.main(["extinction", "--config", cfg, "--out", str(tmp_path / "ext.csv")]) == 0
        estimates = json.loads((tmp_path / "ext.csv.manifest.json").read_text())["estimates"]
        assert type(estimates["stop_level"]) is int and estimates["stop_level"] == 300
        assert estimates["stop_bias_bound"] == 1.0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", EXTINCTION_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["extinction", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["extinction", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_doubles(self, tmp_path):
        from heatfield.kernels import heat_kernel, retarded_propagator_heat

        for d in (1, 2, 3):
            cfg = write(
                tmp_path / "run.cfg",
                f"gamma = 0.3\nd = {d}\nt.min = 0.37\nt.max = 1.1\nt.count = 3\nr.max = 2.0\nr.count = 4\n",
            )
            out = tmp_path / "kernel.csv"
            assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_csv(out)
            assert len(rows) == 12
            origin = np.zeros(d)
            for row in rows:
                t, r, hk, ret = (float(c) for c in row)
                target = np.zeros(d)
                target[0] = r
                assert hk == heat_kernel(t, origin, target)
                assert ret == retarded_propagator_heat((0.0, origin), (t, target), 0.3)

    def test_onepoint_critical_endpoint(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "alpha = 0.5\ngamma = 1.0\ntau.max = 2.0\ntau.step = 0.001\npicard.order = 25\n",
        )
        out = tmp_path / "onepoint.csv"
        assert cli.main(["onepoint", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "closed_form", "ode", "picard"]
        assert float(rows[-1][1]) == 0.5
        assert abs(float(rows[-1][2]) - 0.5) < 1e-8

    def test_onepoint_rows_reach_tau_max(self, tmp_path):
        # tau.max 1 is not a whole number of tau.step .3 steps: the grid runs on to 1.2.
        cfg = write(tmp_path / "run.cfg", "alpha = 0.25\ngamma = 1.0\ntau.max = 1.0\ntau.step = 0.3\n")
        out = tmp_path / "onepoint.csv"
        assert cli.main(["onepoint", "--config", cfg, "--out", str(out)]) == 0
        tau, closed, _, _ = np.array(read_csv(out)[1], dtype=float).T
        np.testing.assert_array_equal(tau, 0.3 * np.arange(5))
        np.testing.assert_array_equal(closed, dyson.one_point_closed_form(0.25, 1.0, 0.3 * np.arange(5)))

    def test_onepoint_overflowing_step_exits_2(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "alpha = 0.25\ngamma = 1.0\ntau.max = 1.0\ntau.step = 1e60\n")
        out = tmp_path / "onepoint.csv"
        assert cli.main(["onepoint", "--config", cfg, "--out", str(out)]) == 2
        manifest = json.loads((tmp_path / "onepoint.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("StabilityViolationError: ")
        assert not out.exists()

    def test_semigroup_and_clock_and_gf_run(self, tmp_path):
        cfg = write(
            tmp_path / "sg.cfg",
            "t = 0.25\ngrid.origin = -8.0\ngrid.step = 0.02\ngrid.count = 801\n"
            "u.kind = gaussian\nu.sigma = 0.4\n",
        )
        assert cli.main(["semigroup", "--config", cfg, "--out", str(tmp_path / "sg.csv")]) == 0
        cfg = write(
            tmp_path / "clock.cfg",
            "gamma = 2.0\ndtau.max = 2.0\ndtau.count = 5\nreplicas = 2000\nseed = 9\n",
        )
        assert cli.main(["clock", "--config", cfg, "--out", str(tmp_path / "clock.csv")]) == 0
        manifest = json.loads((tmp_path / "clock.csv.manifest.json").read_text())
        assert abs(manifest["estimates"]["lifetime_mean"] - 0.5) < 0.04
        assert manifest["estimates"]["ks_pvalue"] > 0.01
        header, rows = read_csv(tmp_path / "clock.csv")
        assert header == ["dtau", "event_probability"]
        assert float(rows[0][1]) == 0.0
        cfg = write(
            tmp_path / "gf.cfg",
            "alpha = 0.25\ngamma = 1.0\ntheta = 0.5\nt.max = 1.0\nt.count = 3\n"
            "replicas = 1000\nseed = 4\n",
        )
        assert cli.main(["gf", "--config", cfg, "--out", str(tmp_path / "gf.csv")]) == 0
        header, rows = read_csv(tmp_path / "gf.csv")
        assert header == ["t", "ode", "mc_estimate", "mc_stderr"]
        assert float(rows[0][2]) == 0.5  # theta**1 at t = 0

    @pytest.mark.parametrize("theta, text", [(0.3, "0.29999999999999999"), (0.7, "0.69999999999999996")])
    def test_gf_first_row_is_exact_and_deviation_matches_rows(self, tmp_path, theta, text):
        # N_0 = 1, so the t = 0 row is (theta, 0) exactly.  A replica mean there can
        # sit an ulp off theta (151 copies of 0.7 do) with a stderr of ~1e-16, which
        # would swamp the deviation.
        cfg = write(
            tmp_path / "gf.cfg",
            f"alpha = 0.25\ngamma = 1.0\ntheta = {theta}\nt.max = 2.0\nreplicas = 151\nseed = 11\n",
        )
        out = tmp_path / "gf.csv"
        assert cli.main(["gf", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        ode0 = dyson.one_point_ode(dyson.FertilityDistribution.binary(0.25), 1.0, theta, 2.0)(np.zeros(1))[0]
        assert ",".join(rows[0]) == f"0,{ode0:.17g},{text},0"
        t, ode, est, err = np.array(rows, dtype=float).T
        seen = err > 0
        assert seen.sum() == len(rows) - 1
        manifest = json.loads((tmp_path / "gf.csv.manifest.json").read_text())
        want = max(abs(e - o) / s for e, o, s in zip(est[seen], ode[seen], err[seen]))
        assert manifest["estimates"]["max_abs_deviation_in_stderr"] == want

    def test_twopoint_run_and_runtime_error(self, tmp_path):
        cfg = write(
            tmp_path / "tp.cfg",
            "alpha = 1.0\ngamma = 1.0\nt.max = 0.5\nt.step = 0.1\n"
            "x.halfwidth = 5.0\nx.step = 0.1\n",
        )
        out = tmp_path / "tp.csv"
        assert cli.main(["twopoint", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "dtilde", "slice_mass", "mass_curve"]
        manifest = json.loads((tmp_path / "tp.csv.manifest.json").read_text())
        assert manifest["estimates"]["residual"] < 1e-6
        # narrow grid: passes validation, fails inside the library -> exit 2
        cfg = write(
            tmp_path / "bad.cfg",
            "alpha = 0.5\ngamma = 1.0\nt.max = 4.0\nt.step = 0.1\n"
            "x.halfwidth = 2.0\nx.step = 0.1\n",
        )
        out2 = tmp_path / "bad.csv"
        assert cli.main(["twopoint", "--config", cfg, "--out", str(out2)]) == 2
        manifest = json.loads((tmp_path / "bad.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "GridTooNarrow" in manifest["error"]
        assert not out2.exists()

    def test_under_resolved_twopoint_grid_exits_2(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "tp.cfg",
            "alpha = 0.5\ngamma = 1.0\nt.max = 1.0\nt.step = 0.01\nx.halfwidth = 6.5\nx.step = 0.5\n",
        )
        out = tmp_path / "tp.csv"
        assert cli.main(["twopoint", "--config", cfg, "--out", str(out)]) == 2
        assert "heatfield twopoint: ValueError: x_step 0.5 must be <= sqrt(t_step) = 0.1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [(0.5, 1.0, 1.0, 0.05, 6.5, 0.1), (0.1, 1.0, 2.0, 0.025, 10.0, 0.05)])
    def test_twopoint_residual_is_the_public_pairs(self, tmp_path, args):
        keys = ("alpha", "gamma", "t.max", "t.step", "x.halfwidth", "x.step")
        cfg = write(tmp_path / "tp.cfg", "".join(f"{key} = {value!r}\n" for key, value in zip(keys, args)))
        assert cli.main(["twopoint", "--config", cfg, "--out", str(tmp_path / "tp.csv")]) == 0
        manifest = json.loads((tmp_path / "tp.csv.manifest.json").read_text())
        want = dyson.two_point_residual(dyson.two_point_picard(*args), *args[:2])
        assert manifest["estimates"]["residual"] == want

    def test_twopoint_mass_curve_reaches_the_last_row(self):
        # t.max 2 is not a whole number of t.step .3 steps, so the field runs to t = 2.1.
        p = {"alpha": 0.5, "gamma": 1.0, "t.max": 2.0, "t.step": 0.3, "x.halfwidth": 10.0, "x.step": 0.1}
        columns, estimates = cli._run_twopoint(p)
        columns = expanded(columns)
        assert columns["t"][-1] == 0.3 * 7
        assert columns["mass_curve"][-1] == dyson.mass_curve(0.5, 1.0, 0.3 * 7, 0.3 / 300).values[-1]
        assert abs(columns["mass_curve"][-1] - columns["slice_mass"][-1]) < 2e-4
        assert estimates["max_mass_mismatch"] < 1e-3
        # Where whole steps reach t.max, the curve is the one solved to t.max, bit for bit.
        columns = expanded(cli._run_twopoint(dict(p, **{"t.step": 0.05}))[0])
        nx = np.count_nonzero(columns["t"] == columns["t"][0])
        want = dyson.mass_curve(0.5, 1.0, 2.0, 0.05 / 50).values[50::50]
        np.testing.assert_array_equal(columns["mass_curve"], np.repeat(want, nx))

    @pytest.mark.parametrize("t_step, sub", [(0.0125, 13), (0.05, 50), (0.007, 7)])
    def test_twopoint_mass_column_is_mass_curve_on_its_nodes(self, t_step, sub):
        # The curve is solved at t.step / sub, sub = ceil(t.step * gamma / 1e-3), and read at every sub-th
        # node: at t.step .0125 the default 1e-3 grid would put each field time between two nodes.
        p = {"alpha": 0.25, "gamma": 1.0, "t.max": 0.5, "t.step": t_step, "x.halfwidth": 5.0, "x.step": 0.05}
        columns = expanded(cli._run_twopoint(p)[0])
        times = np.unique(columns["t"])
        curve = dyson.mass_curve(0.25, 1.0, times[-1], t_step / sub)
        assert curve.values.size == sub * times.size + 1
        nx = columns["t"].size // times.size
        np.testing.assert_array_equal(columns["mass_curve"], np.repeat(curve.values[sub::sub], nx))

    def test_gf_ode_column_reaches_t_max(self):
        law = dyson.FertilityDistribution.binary(0.25)
        p = {"alpha": 0.25, "gamma": 1.2345, "theta": 0.5, "t.max": 1.0, "t.count": 11, "replicas": 2,
             "seed": 0, "max.particles": 10**6}
        columns, _ = cli._run_gf(p)
        # gamma * spacing is .12345: the ODE takes 13 sub-steps per output spacing .1, and t.max is its last node.
        assert abs(columns["ode"][-1] - dyson.one_point_ode(law, 1.2345, 0.5, 1.0, 1e-6)(1.0)) < 1e-12
        np.testing.assert_array_equal(columns["ode"], dyson.one_point_ode(law, 1.2345, 0.5, 1.0, 0.1 / 13).values[::13])
        # At gamma 1 the spacing takes 10 sub-steps of 0.01.
        columns, _ = cli._run_gf(dict(p, gamma=1.0))
        np.testing.assert_array_equal(columns["ode"], dyson.one_point_ode(law, 1.0, 0.5, 1.0, 0.01).values[::10])

    @pytest.mark.parametrize("t_max, count", [(1.2345, 11), (1.0, 11), (3.7, 8)])
    def test_gf_ode_column_matches_the_closed_form(self, t_max, count):
        # theta 0 integrates the extinction probability, whose closed form is one_point_closed_form, at times
        # that are not nodes of the default 1e-3/gamma grid (gamma 1.2345).
        p = {"alpha": 0.25, "gamma": 1.2345, "theta": 0.0, "t.max": t_max, "t.count": count, "replicas": 2,
             "seed": 0, "max.particles": 10**6}
        columns, _ = cli._run_gf(p)
        assert np.max(np.abs(columns["ode"] - dyson.one_point_closed_form(0.25, 1.2345, columns["t"]))) < 1e-10

    def test_manifest_hash_matches_csv_file(self, tmp_path):
        # A twopoint CSV of several 64 KiB blocks.
        cfg = write(
            tmp_path / "tp.cfg",
            "alpha = 0.5\ngamma = 1.0\nt.max = 1.0\nt.step = 0.05\nx.halfwidth = 6.5\nx.step = 0.1\n",
        )
        out = tmp_path / "tp.csv"
        assert cli.main(["twopoint", "--config", cfg, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert len(data) > 3 * 65536
        manifest = json.loads((tmp_path / "tp.csv.manifest.json").read_text())
        assert manifest["csv_sha256"] == hashlib.sha256(data).hexdigest()
        assert manifest["library_version"] == heatfield.__version__

    @pytest.mark.parametrize("kind", sorted(cli._SCHEMAS))
    def test_manifest_hash_is_the_hash_of_the_file_on_disk(self, tmp_path, kind):
        out = tmp_path / f"{kind}.csv"
        assert cli.main([kind, "--config", write(tmp_path / "run.cfg", self.VALID[kind]), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{kind}.csv.manifest.json").read_text())
        assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_columns_of_unequal_length_are_an_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match=r"^CSV columns differ in length: \{'a': 2053, 'b': 2050\}$"):
            cli._write_csv(str(path), {"a": np.zeros(2053), "b": np.ones(2050)})
        assert not path.exists()
        monkeypatch.setitem(cli._RUNNERS, "ring-check", lambda p: ({"a": [1.0, 2.0], "b": [3.0]}, {}))
        out = tmp_path / "rc.csv"
        assert cli.main(["ring-check", "--config", write(tmp_path / "rc.cfg", "cases = 5\n"), "--out", str(out)]) == 2
        assert "ValueError: CSV columns differ in length" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "rc.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and "csv_sha256" not in manifest

    def test_semigroup_grid_past_the_float_range_exits_2(self, tmp_path, capsys):
        # The nodes used to be [1e308, inf, inf], written as "inf" rows with status "ok".
        cfg = write(tmp_path / "sg.cfg", "t = 0.25\ngrid.origin = 1e308\ngrid.step = 1e308\ngrid.count = 3\n")
        out = tmp_path / "sg.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["semigroup", "--config", cfg, "--out", str(out)]) == 2
        message = "ValueError: grid last node origin + step*(n - 1) = 1e+308 + 1e+308*2 must be finite"
        assert capsys.readouterr().err == f"heatfield semigroup: {message}\n"
        manifest = json.loads((tmp_path / "sg.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["error"] == message
        assert not out.exists()

    def test_clock_at_a_huge_rate_and_span_warns_nothing(self, tmp_path):
        # gamma * dtau overflows to inf, and the probability is 1: numpy used to print its overflow warning.
        cfg = write(tmp_path / "clock.cfg", "gamma = 1e300\ndtau.max = 1e300\nreplicas = 100\n")
        out = tmp_path / "clock.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["clock", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert [row[1] for row in rows] == ["0"] + ["1"] * (len(rows) - 1)

    def test_indicator_semigroup_run(self, tmp_path):
        # u = 1 on [lo, hi], both ends on grid nodes, evolves to Phi((hi - x)/sqrt(t)) - Phi((lo - x)/sqrt(t)).
        # The trapezoid sum weighs each end node by step instead of step/2, which adds at most
        # step * max p_t = step/sqrt(2*pi*t) in all; the rest of the quadrature error is O(step**2).
        t, step = 0.25, 2.0**-6
        cfg = write(
            tmp_path / "sg.cfg",
            f"t = {t}\ngrid.origin = -8.0\ngrid.step = {step}\ngrid.count = 1025\n"
            "u.kind = indicator\nu.lo = -1.0\nu.hi = 1.0\n",
        )
        out = tmp_path / "sg.csv"
        assert cli.main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "u", "evolved"]
        x, u, evolved = np.array(rows, dtype=float).T
        np.testing.assert_array_equal(u, (np.abs(x) <= 1.0).astype(float))
        phi = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))
        want = phi((1.0 - x) / math.sqrt(t)) - phi((-1.0 - x) / math.sqrt(t))
        assert np.max(np.abs(evolved - want)) <= step / math.sqrt(2.0 * math.pi * t) + step**2

    def test_manifest_records_the_environment(self, tmp_path):
        cfg = write(tmp_path / "rc.cfg", "cases = 5\n")
        assert cli.main(["ring-check", "--config", cfg, "--out", str(tmp_path / "rc.csv")]) == 0
        environment = json.loads((tmp_path / "rc.csv.manifest.json").read_text())["environment"]
        assert sorted(environment) == [
            "blas", "blas_core", "cpu_features", "dispatch_variables", "libc", "numpy", "platform", "python"
        ]
        variables = environment.pop("dispatch_variables")
        core = environment.pop("blas_core")  # the OpenBLAS kernel picked at load, where numpy bundles OpenBLAS
        assert core == cli._blas_core() and (core is None or (isinstance(core, str) and core))
        assert all(isinstance(value, str) for value in environment.values())
        assert environment["numpy"] == np.__version__
        assert environment["blas"] and environment["cpu_features"].split()  # numpy's baseline features at least
        assert variables == {name: os.environ[name] for name in cli._DISPATCH_VARIABLES if name in os.environ}

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="forces x86 OpenBLAS kernels")
    def test_blas_core_follows_openblas_coretype(self):
        # OPENBLAS_CORETYPE forces the kernel OpenBLAS picks at load, and blas_core reports the forced one; a
        # numpy without a bundled OpenBLAS records None either way.
        script = "from heatfield import cli\nprint(cli._environment()['blas_core'])\n"
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cores = {}
        for forced in (None, "Haswell", "Sandybridge"):
            run_env = dict(env, OPENBLAS_CORETYPE=forced) if forced else env
            proc = subprocess.run([sys.executable, "-c", script], env=run_env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            cores[forced] = proc.stdout.strip()
        if cores[None] == "None":
            assert set(cores.values()) == {"None"}
        else:
            assert cores["Haswell"] == "Haswell" and cores["Sandybridge"] == "Sandybridge"

    def test_blas_core_is_none_without_a_bundled_openblas(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert cli._blas_core() is None

    def test_portable_csvs_do_not_depend_on_the_simd_level(self, tmp_path):
        # The kernel, gf, clock, ring-check, extinction and onepoint bytes are the same with
        # numpy's AVX-512 dispatch turned off and with its AVX2 dispatch off as well (no-ops on
        # a CPU without them), each level in a fresh process.
        kinds = ("kernel", "gf", "clock", "ring-check", "extinction", "onepoint")
        configs = {kind: write(tmp_path / f"{kind}.cfg", self.VALID[kind]) for kind in kinds}
        script = (
            "import json, sys\n"
            "from heatfield import cli\n"
            "for kind, cfg in json.loads(sys.argv[1]).items():\n"
            "    out = f'{sys.argv[2]}-{kind}.csv'\n"
            "    assert cli.main([kind, '--config', cfg, '--out', out]) == 0\n"
            "    manifest = json.load(open(out + '.manifest.json'))\n"
            "    print(kind, manifest['csv_sha256'], manifest['environment']['cpu_features'])\n"
        )
        no_avx512 = "X86_V4 AVX512_ICL AVX512_SPR"
        levels = {"default": None, "no-avx512": no_avx512, "no-avx2": f"{no_avx512} X86_V3"}
        runs = {}
        for side, disabled in levels.items():
            env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(configs), str(tmp_path / side)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            runs[side] = [line.split(" ", 2) for line in proc.stdout.splitlines()]
        assert [row[0] for row in runs["default"]] == list(kinds)
        for side, disabled in levels.items():
            assert [row[:2] for row in runs[side]] == [row[:2] for row in runs["default"]], side
            assert all(not set((disabled or "").split()) & set(row[2].split()) for row in runs[side])

    def test_ring_check_passes(self, tmp_path):
        cfg = write(tmp_path / "rc.cfg", "cases = 3000\nseed = 12\n")
        out = tmp_path / "rc.csv"
        assert cli.main(["ring-check", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["property", "cases", "max_defect", "tolerance", "passed"]
        assert all(row[-1] == "1" for row in rows)

    def test_out_key_in_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "rc.cfg", "cases = 500\nout = named.csv\n")
        assert cli.main(["ring-check", "--config", str(cfg)]) == 0
        assert (tmp_path / "named.csv").exists()
        assert (tmp_path / "named.csv.manifest.json").exists()

    def test_out_in_missing_directory_exits_1_before_running(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(pring, "self_check", lambda *args: calls.append(args))
        target = tmp_path / "no" / "such" / "x.csv"
        for args, text in ((["--out", str(target)], "cases = 5\n"), ([], f"cases = 5\nout = {target}\n")):
            assert cli.main(["ring-check", "--config", write(tmp_path / "rc.cfg", text), *args]) == 1
            assert f"heatfield ring-check: out: no such directory '{target.parent}'" in capsys.readouterr().err
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["rc.cfg"]

    def test_out_naming_a_directory_exits_1_before_running(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(pring, "self_check", lambda *args: calls.append(args))
        target = tmp_path / "results"
        target.mkdir()
        for args, text in ((["--out", str(target)], "cases = 5\n"), ([], f"cases = 5\nout = {target}\n")):
            assert cli.main(["ring-check", "--config", write(tmp_path / "rc.cfg", text), *args]) == 1
            assert f"heatfield ring-check: out: '{target}' is a directory" in capsys.readouterr().err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rc.cfg", "results"]
        assert list(target.iterdir()) == []

    def test_clock_lifetimes_follow_replica_streams(self, tmp_path):
        cfg = write(tmp_path / "clock.cfg", "gamma = 2.0\ndtau.max = 2.0\nreplicas = 500\nseed = 9\n")
        assert cli.main(["clock", "--config", cfg, "--out", str(tmp_path / "clock.csv")]) == 0
        estimates = json.loads((tmp_path / "clock.csv.manifest.json").read_text())["estimates"]
        config = montecarlo.BranchingConfig(2.0, dyson.FertilityDistribution((1.0,)))
        times = []
        for r in range(500):
            log = montecarlo.simulate_branching(config, 25.0, (), 9, replica=r)
            if log.events:
                times.append(log.events[0].time)
        times = np.asarray(times)
        assert estimates["lifetime_mean"] == float(np.mean(times))
        assert estimates["lifetime_mean_stderr"] == float(np.std(times, ddof=1) / math.sqrt(times.size))
        assert estimates["ks_statistic"] == montecarlo.lifetime_ks(times, 2.0)[0]

    def test_clock_runner_check_order(self, tmp_path):
        # replicas before the horizon 50 / gamma, which overflows for a subnormal gamma.
        params = {"gamma": 1e-310, "dtau.max": 1.0, "dtau.count": 2, "replicas": 0, "seed": 0}
        with pytest.raises(ValueError, match="^replicas must"):
            cli._run_clock(params)
        with pytest.raises(ValueError, match="^horizon must"):
            cli._run_clock(dict(params, replicas=2))
        # gamma 0, which has no such horizon, stops at the schema before the runner.
        with pytest.raises(ValidationError, match="^gamma: must satisfy gamma > 0"):
            parse_config(write(tmp_path / "run.cfg", "gamma = 0.0\ndtau.max = 1.0\n"), "clock")

    VALID = {
        "kernel": "t.min = 0.5\nt.max = 1.0\nt.count = 2\nr.max = 1.0\nr.count = 2\n",
        "semigroup": "t = 0.25\ngrid.origin = -8.0\ngrid.step = 0.02\ngrid.count = 801\n",
        "clock": "gamma = 2.0\ndtau.max = 2.0\nreplicas = 100\n",
        "extinction": "alpha = 0.25\ngamma = 1.0\nhorizon = 5.0\nreplicas = 50\n",
        "onepoint": "alpha = 0.25\ngamma = 1.0\ntau.max = 1.0\ntau.step = 0.01\n",
        "gf": "alpha = 0.25\ngamma = 1.0\ntheta = 0.5\nt.max = 1.0\nreplicas = 50\n",
        "twopoint": "alpha = 0.5\ngamma = 1.0\nt.max = 0.5\nt.step = 0.1\nx.halfwidth = 5.0\nx.step = 0.1\n",
        "ring-check": "cases = 10\n",
    }

    def test_parser_is_reused_after_a_bad_argv(self, tmp_path, capsys):
        # The parser is built once per process; a rejected argv leaves it fit for the next calls.
        for argv in (["no-such-kind"], ["gf"], ["extinction", "--config"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
        assert "usage: heatfield" in capsys.readouterr().err
        assert cli._parser() is cli._parser()
        for kind in ("extinction", "gf"):
            out = tmp_path / f"{kind}.csv"
            assert cli.main([kind, "--config", write(tmp_path / f"{kind}.cfg", self.VALID[kind]), "--out", str(out)]) == 0
            assert json.loads((tmp_path / f"{kind}.csv.manifest.json").read_text())["command"] == kind

    def test_infinite_float_keys_exit_1(self, tmp_path, capsys):
        assert set(self.VALID) == set(cli._SCHEMAS)
        for kind, schema in cli._SCHEMAS.items():
            base = dict(line.split(" = ") for line in self.VALID[kind].splitlines())
            parse_config(write(tmp_path / "ok.cfg", self.VALID[kind]), kind)
            for key in (k for k, spec in schema.items() if spec[0] is float):
                text = "".join(f"{k} = {v}\n" for k, v in {**base, key: "inf"}.items())
                out = tmp_path / f"{kind}-{key}.csv"
                assert cli.main([kind, "--config", write(tmp_path / "inf.cfg", text), "--out", str(out)]) == 1
                assert f"heatfield {kind}: {key}: must satisfy" in capsys.readouterr().err
                assert not out.exists()


def _readme_schemas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return {kind: cols.split(", ") for kind, cols in re.findall(r"^\| `([a-z-]+)`\s*\| `([^`]+)`", readme, re.M)}


@pytest.mark.parametrize("kind", sorted(TestMain.VALID))
def test_csv_cell_formats(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    assert cli.main([kind, "--config", write(tmp_path / "run.cfg", TestMain.VALID[kind]), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    header, rows = read_csv(out)
    assert header == _readme_schemas()[kind]
    assert rows and all(len(row) == len(header) for row in rows)
    for name, cells in zip(header, zip(*rows)):
        if name == "cases":
            assert all(c.isdigit() and str(int(c)) == c for c in cells)
        elif name == "passed":
            assert set(cells) <= {"0", "1"}
        elif name != "property":
            assert all(format(float(c), ".17g") == c for c in cells)
    if kind == "ring-check":
        assert [row[0] for row in rows] == list(pring.self_check(10, 0))
    if kind == "twopoint":
        field = dyson.two_point_picard(0.5, 1.0, 0.5, 0.1, 5.0, 0.1)
        columns = dict(zip(header, (np.array(col, dtype=float) for col in zip(*rows))))
        assert np.array_equal(columns["dtilde"], field.values.ravel())
        assert np.array_equal(columns["t"], np.repeat(field.times, field.xs.size))
        assert np.array_equal(columns["x"], np.tile(field.xs, field.times.size))


def _write_csv_oracle(path, columns):
    # The row-format writer that _write_csv replaced: one format string per
    # row, every cell formatted on its own.
    formats = {"f": "%.17g", "i": "%d", "b": "%d", "U": "%s"}
    cells = [np.asarray(col) for col in columns.values()]
    row = ",".join(formats[col.dtype.kind] for col in cells) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % cell for cell in zip(*cells))


def test_csv_writer_matches_row_format_oracle(tmp_path):
    rows = 2 * cli._CSV_BLOCK + 123
    specials = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0, 0.1, -1e308])
    rng = np.random.default_rng(3)
    negative_nan = np.array([-math.nan])
    payload_nan = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)
    columns = {
        "special": rng.choice(np.concatenate([specials, negative_nan, payload_nan]), rows),
        "distinct": rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
        "repeated": np.repeat(rng.random(rows // 100 + 1), 100)[:rows],
        "count": rng.integers(-(2**62), 2**62, rows),
        "flag": rng.random(rows) < 0.5,
        "name": rng.choice(["gamma_additive", "inverse", "x"], rows),
        "listed": [float(v) for v in rng.choice(specials, rows)],
    }
    cli._write_csv(str(tmp_path / "new.csv"), columns)
    _write_csv_oracle(str(tmp_path / "old.csv"), columns)
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    special = {line.split(b",")[0] for line in data.splitlines()[1:]}
    assert data.count(b"\n") == rows + 1
    assert {b"-0", b"0", b"nan", b"inf", b"-inf", b"4.9406564584124654e-324"} <= special


_ORACLE_FORMATS = {"i": "%d", "b": "%d", "U": "%s"}


def _cells(col: np.ndarray):
    # The per-cell formatter of the writer before the block writer: every distinct float
    # (by bit pattern) through "%.17g", its strings gathered by the inverse index, and every
    # other cell formatted on its own.
    if col.dtype.kind != "f":
        return [_ORACLE_FORMATS[col.dtype.kind] % v for v in col.tolist()]
    distinct, where = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
    return np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()], dtype=object)[where]


def _csv_oracle(columns) -> bytes:
    cols = [np.asarray(col) for col in expanded(columns).values()]
    rows = min(map(len, cols), default=0)
    cells = [_cells(col[:rows]) for col in cols]
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(tmp_path, columns) -> bytes:
    path = tmp_path / "block.csv"
    cli._write_csv(str(path), columns)
    return path.read_bytes()


EDGE_FLOATS = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9.999999999999998e16, 1e17, 1e-4, 1e-5,
    1.7976931348623157e308, math.inf, 0.1, 1.0 / 3.0, 123456789.0,
]


class TestBlockWriter:
    def test_edge_floats(self, tmp_path):
        # Signed, so the longest %.17g text (-2.2250738585072014e-308, 24 characters) is in.
        values = EDGE_FLOATS + [-v for v in EDGE_FLOATS] + [math.nan, -math.nan]
        columns = {"v": np.array(values), "w": np.array(values[::-1]), "listed": values}
        data = _written(tmp_path, columns)
        assert data == _csv_oracle(columns)
        cells = [line.split(b",")[0] for line in data.splitlines()[1:]]
        assert b"-2.2250738585072014e-308" in cells and b"-0" in cells and b"nan" in cells
        assert {b"10000000000000000", b"99999999999999984", b"1e+17", b"1.0000000000000001e-05"} <= set(cells)

    def test_ints_bools_and_strings(self, tmp_path):
        words = ["a", "gamma additive", " leading", "trailing ", "x" * 40, "é", "ab", "a"]
        words += ["w" * n for n in range(1, 41)]
        n = len(words)
        columns = {
            "int": np.array([0, -1, 2**63 - 1, -(2**63), 10**18, -(10**17), 7, 7] + list(range(n - 8))),
            "flag": np.arange(n) % 3 == 0,
            "name": words,
            "value": np.linspace(-1.0, 1.0, n),
            "small": np.array([-5, 3] * (n // 2), dtype=np.int8),
        }
        data = _written(tmp_path, columns)
        assert data == _csv_oracle(columns)
        assert b"\0" not in data
        assert data.splitlines()[2].split(b",")[2] == b"gamma additive"

    def test_only_text_columns(self, tmp_path):
        columns = {"name": ["p", "q r"], "count": np.array([3, -4])}
        assert _written(tmp_path, columns) == _csv_oracle(columns) == b"name,count\np,3\nq r,-4\n"

    PIECE = cli._CSV_PIECE // (6 * cli._CELL_WIDTH)  # rows of one piece of test_row_counts' six columns

    @pytest.mark.parametrize("rows", [
        0, 1, PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + PIECE // 2,
        cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 1,
    ])
    def test_row_counts(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = {
            "t": np.repeat(rng.random(rows // 7 + 1), 7)[:rows],
            "x": np.tile(rng.standard_normal(5), rows // 5 + 1)[:rows],
            "field": rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 307, rows),
            "count": rng.integers(-(2**62), 2**62, rows),
            "passed": rng.random(rows) < 0.5,
            "property": rng.choice(["inverse", "exp additive", "z"], rows),
        }
        data = _written(tmp_path, columns)
        assert data == _csv_oracle(columns)
        assert data.count(b"\n") == rows + 1

    def test_wide_strings(self, tmp_path):
        # Cells wider than _CELL_WIDTH take fewer rows a piece, and the width changes from
        # block to block: 300-byte names, then none wider than the floats, then one row
        # longer than a whole piece.
        rows = 3 * cli._CSV_BLOCK
        names = np.array(["n%d" % (i % 50) for i in range(rows)], dtype=object)
        names[: cli._CSV_BLOCK : 7] = "w" * 299
        names[-1] = "z" * (cli._CSV_PIECE + 10)
        columns = {"v": np.random.default_rng(4).standard_normal(rows), "name": names.astype(str)}
        data = _written(tmp_path, columns)
        assert data == _csv_oracle(columns)
        assert data.count(b"\n") == rows + 1

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # Blocks are written in pieces through one buffer, so the traced peak of a write is
        # that of one block: no array or bytes object the size of the file.  A twopoint-shaped
        # CSV whose t and x are level columns peaks no higher than the same cells as plain
        # columns: its table holds the levels and one column's distinct cells, not four.
        rng = np.random.default_rng(6)
        cli._write_csv(str(tmp_path / "peak.csv"), {"v": rng.random(cli._CSV_BLOCK)})  # builds _digits' cached tables
        peaks = {"plain": [], "levels": []}
        for blocks in (4, 16, 64):
            rows = blocks * cli._CSV_BLOCK
            nt = rows // 401 + 1
            columns = {"t": cli._Levels(rng.random(nt), np.repeat(np.arange(nt), 401)[:rows]),
                       "x": cli._Levels(rng.standard_normal(401), np.tile(np.arange(401), nt)[:rows]),
                       "field": rng.standard_normal(rows), "mass": rng.random(rows)}
            for form, written in (("plain", expanded(columns)), ("levels", columns)):
                tracemalloc.start()
                try:
                    cli._write_csv(str(tmp_path / "peak.csv"), written)
                    peaks[form].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        for form, values in peaks.items():
            assert max(values) <= 1.1 * min(values), (form, values)
        assert all(level <= plain for level, plain in zip(peaks["levels"], peaks["plain"])), peaks

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300), st.integers(1, 4))
    def test_any_float_bit_pattern(self, tmp_path_factory, patterns, repeat):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        columns = {"a": np.repeat(values, repeat), "b": np.tile(values[::-1], repeat)}
        assert _written(tmp_path_factory.mktemp("bits"), columns) == _csv_oracle(columns)

    BENCHMARK_SHAPED = {
        "kernel": {"gamma": 0.3, "d": 2, "t.min": 0.05, "t.max": 3.0, "t.count": 40, "r.max": 6.0, "r.count": 60},
        "semigroup": {"t": 1.0, "grid.origin": -48.0, "grid.step": 0.01, "grid.count": 9601,
                      "u.kind": "gaussian", "u.center": 0.3, "u.sigma": 0.5},
        "clock": {"gamma": 2.0, "dtau.max": 3.0, "replicas": 2000, "seed": 5},
        "extinction": {"alpha": 0.25, "gamma": 1.0, "horizon": 60.0, "replicas": 200, "seed": 7,
                       "max.particles": 10_000},
        "onepoint": {"alpha": 0.25, "gamma": 1.0, "tau.max": 5.0, "picard.order": 20},
        "gf": {"alpha": 0.25, "gamma": 1.0, "theta": 0.5, "t.max": 1.0, "replicas": 150, "seed": 11},
        "twopoint": {"alpha": 0.5, "gamma": 1.0, "t.max": 2.0, "t.step": 0.025, "x.halfwidth": 10.0,
                     "x.step": 0.05},
        "ring-check": {"cases": 10_000, "seed": 3},
    }

    @pytest.mark.parametrize("kind", sorted(BENCHMARK_SHAPED))
    def test_benchmark_shaped_csvs(self, tmp_path, kind):
        text = "".join(f"{key} = {value}\n" for key, value in self.BENCHMARK_SHAPED[kind].items())
        params = parse_config(write(tmp_path / "run.cfg", text), kind).params
        columns, _ = cli._RUNNERS[kind](params)
        assert _written(tmp_path, columns) == _csv_oracle(columns)

    def test_zero_distinct_floats(self, tmp_path):
        out = np.empty((0, cli._CELL_WIDTH), np.uint8)
        _digits.float_cells(np.empty(0), out)
        for columns in ({"count": np.array([3, -4]), "flag": np.array([True, False])}, {"v": np.empty(0)}):
            assert _written(tmp_path, columns) == _csv_oracle(columns)

    def test_one_row(self, tmp_path):
        columns = {"a": np.array([1.5]), "b": np.array([-2e-300]), "n": np.array([3]), "name": ["x"]}
        assert _written(tmp_path, columns) == _csv_oracle(columns) == b"a,b,n,name\n1.5,-2.0000000000000001e-300,3,x\n"

    @pytest.mark.parametrize("distinct", [
        _digits.NUMPY_MIN - 1, _digits.NUMPY_MIN, _digits.NUMPY_CHUNK, _digits.NUMPY_CHUNK + 1, 3 * cli._CSV_BLOCK,
    ])
    def test_distinct_counts_around_the_numpy_cutoff(self, tmp_path, monkeypatch, distinct):
        # The numpy digits run exactly when a block has NUMPY_MIN distinct floats or more, on
        # parts of NUMPY_MIN to NUMPY_CHUNK values, and give the bytes of the oracle.
        parts = []
        real = _digits.numpy_cells
        monkeypatch.setattr(_digits, "numpy_cells", lambda values, out: parts.append(values.size) or real(values, out))
        rng = np.random.default_rng(distinct)
        values = rng.standard_normal(distinct) * 10.0 ** rng.integers(-12, 12, distinct)
        rows = min(distinct, cli._CSV_BLOCK)
        columns = {name: values[i * rows : (i + 1) * rows] for i, name in enumerate("abc") if i * rows < distinct}
        columns = {name: np.resize(col, rows) for name, col in columns.items()}
        assert _written(tmp_path, columns) == _csv_oracle(columns)
        assert sum(parts) == (distinct if distinct >= _digits.NUMPY_MIN else 0)
        assert all(_digits.NUMPY_MIN <= size <= _digits.NUMPY_CHUNK for size in parts)

    def test_block_mixing_numpy_digits_and_fallback(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        fallback = np.array([0.0, -0.0, 5e-324, -1e-300, 1e-281, 2e280, -1e300, math.inf, -math.inf, math.nan,
                             1e15 + 0.25, 2.0**50 + 0.75])
        fast = rng.uniform(1.0, 9.0, 1500) * 10.0 ** rng.integers(-270, 270, 1500)
        values = rng.permutation(np.concatenate([fallback, fast, [1e-280, 1e280, 1e-5, 1e-4, 1e16, 1e17]]))
        seen = _percent_spy(monkeypatch)
        columns = {"v": values, "w": values[::-1], "n": np.arange(values.size)}
        assert _written(tmp_path, columns) == _csv_oracle(columns)
        assert set(fallback.view(np.int64).tolist()) <= set(seen)
        assert len(seen) == fallback.size


    # Levels the fast path cannot format, among ordinary ones: -0.0 beside 0.0, NaNs of both
    # signs and with a payload, subnormals and both infinities.
    LEVEL_SPECIALS = np.concatenate([
        [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, math.inf, -math.inf, math.nan, -math.nan],
        np.array([0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(np.float64),
    ])

    def _levels(self, rng, n):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[rng.choice(n, self.LEVEL_SPECIALS.size, replace=False)] = self.LEVEL_SPECIALS
        return values

    @pytest.mark.parametrize("nt, nx", [(37, 401), (6, 333), (1, 3001)])
    def test_twopoint_shaped_level_columns(self, tmp_path, nt, nx):
        # nx does not divide 2048, so every block starts at another x; three columns share one codes array.
        rng = np.random.default_rng(nx)
        per_time = np.repeat(np.arange(nt), nx)
        dtilde = rng.random(nt * nx)
        dtilde[:: nx + 1] = np.resize(self.LEVEL_SPECIALS, dtilde[:: nx + 1].size)
        columns = {
            "t": cli._Levels(self._levels(rng, max(nt, 11)), per_time),
            "x": cli._Levels(self._levels(rng, nx), np.tile(np.arange(nx), nt)),
            "dtilde": dtilde,
            "slice_mass": cli._Levels(self._levels(rng, max(nt, 11)), per_time),
            "mass_curve": cli._Levels(self._levels(rng, max(nt, 11)), per_time),
        }
        data = _written(tmp_path, columns)
        assert data == _csv_oracle(columns) == _written(tmp_path, expanded(columns))
        assert data.count(b"\n") == nt * nx + 1

    @pytest.mark.parametrize("t_count, r_count", [(120, 401), (3, 1000), (2049, 1)])
    def test_kernel_shaped_level_columns(self, tmp_path, t_count, r_count):
        rng = np.random.default_rng(t_count)
        rows = t_count * r_count
        columns = {
            "t": cli._Levels(self._levels(rng, max(t_count, 11))[:t_count], np.repeat(np.arange(t_count), r_count)),
            "r": cli._Levels(self._levels(rng, max(r_count, 11))[:r_count], np.tile(np.arange(r_count), t_count)),
            "heat_kernel": rng.random(rows),
            "retarded_propagator": np.resize(self.LEVEL_SPECIALS, rows),
        }
        assert _written(tmp_path, columns) == _csv_oracle(columns) == _written(tmp_path, expanded(columns))

    def test_scattered_codes_and_narrow_types(self, tmp_path):
        # Codes in any order and of any integer type, repeated and unused levels, float32 levels, and
        # text cells whose width changes from block to block, so that the table is made anew.
        rng = np.random.default_rng(8)
        rows = 3 * cli._CSV_BLOCK + 5
        levels = self._levels(rng, 40)
        levels[7] = levels[3]
        names = np.array(["n%d" % (i % 9) for i in range(rows)], dtype=object)
        names[cli._CSV_BLOCK : 2 * cli._CSV_BLOCK : 5] = "w" * 60
        columns = {
            "a": cli._Levels(levels, rng.integers(0, 30, rows).astype(np.uint16)),
            "name": names.astype(str),
            "b": cli._Levels(np.array([1e-45, -0.0, math.inf, math.nan, 0.1] * 8, np.float32) * rng.random(40, np.float32),
                             rng.integers(0, 40, rows).astype(np.int8)),
            "v": rng.standard_normal(rows),
            "c": cli._Levels(list(levels[:2]), [1, 0] * (rows // 2) + [1]),
        }
        assert _written(tmp_path, columns) == _csv_oracle(columns) == _written(tmp_path, expanded(columns))

    def test_only_level_columns_and_no_rows(self, tmp_path):
        levels = np.array([1.5, -0.0, 0.0])
        columns = {"a": cli._Levels(levels, np.array([2, 1, 0, 0])), "b": cli._Levels(levels[::-1], np.arange(4) % 3)}
        assert _written(tmp_path, columns) == _csv_oracle(columns) == b"a,b\n0,0\n-0,-0\n1.5,1.5\n1.5,0\n"
        empty = {"a": cli._Levels(levels, np.empty(0, np.intp)), "v": np.empty(0)}
        assert _written(tmp_path, empty) == _csv_oracle(empty) == b"a,v\n"

    @pytest.mark.parametrize("column, message", [
        (cli._Levels(np.arange(3.0), np.array([0, 1, 3, 2])), r"^CSV column 't': codes must lie in \[0, 3\), got 0 to 3$"),
        (cli._Levels(np.arange(3.0), np.array([0, -1, 2, 2])), r"^CSV column 't': codes must lie in \[0, 3\), got -1 to 2$"),
        (cli._Levels(np.arange(3.0), np.array([0, 1, 2])), r"^CSV columns differ in length: \{'v': 4, 't': 3\}$"),
        (cli._Levels(np.arange(3.0), np.zeros(5, np.intp)), r"^CSV columns differ in length: \{'v': 4, 't': 5\}$"),
        (cli._Levels(np.arange(3), np.zeros(4, np.intp)), r"^CSV column 't': levels must be a 1-d float array"),
        (cli._Levels(np.arange(3.0), np.zeros(4)), r"^CSV column 't': levels must be a 1-d float array"),
        (cli._Levels(np.empty(0), np.zeros(4, np.intp)), r"^CSV column 't': codes must lie in \[0, 0\)"),
    ])
    def test_bad_level_columns_are_refused_before_the_file_is_opened(self, tmp_path, column, message):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=message):
            cli._write_csv(str(path), {"v": np.zeros(4), "t": column})
        assert not path.exists()


def _cell(value: float, width: int = cli._CELL_WIDTH) -> bytes:
    # The oracle of one table row: a per-cell "%.17g", NUL-padded to the field, then ','.
    return ("%.17g" % value).encode("ascii").ljust(width - 1, b"\0") + b","


def _numpy_rows(values, width: int = cli._CELL_WIDTH) -> list:
    values = np.asarray(values, dtype=np.float64)
    out = np.full((values.size, width), 0xFF, np.uint8)  # every byte must be written
    _digits.numpy_cells(values, out)
    return [bytes(row) for row in out]


def _percent_spy(monkeypatch) -> list:
    # The bit patterns of the values that reach the % call.
    seen = []
    real = _digits.percent_cells
    monkeypatch.setattr(_digits, "percent_cells", lambda values, width: seen.extend(
        values.view(np.int64).tolist()) or real(values, width))
    return seen


def _decade_carries() -> list:
    # Every double in [10**k * (1 - 5e-18), 10**k) for the k of the double range: their 17
    # digits round up to 10**k, so the text carries into the next decade.
    found = []
    for k in range(-323, 309):
        value = float(f"1e{k}")
        while value > 0 and Fraction(value) >= Fraction(10) ** k * (1 - Fraction(5, 10**18)):
            if Fraction(value) < Fraction(10) ** k:
                found.append(value)
            value = math.nextafter(value, 0.0)
    return found


class TestNumpyDigits:
    """_digits.numpy_cells against a per-cell "%.17g" % v, byte for byte."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200), st.sampled_from([25, 26, 41]))
    def test_any_bit_pattern(self, patterns, width):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _numpy_rows(values, width) == [_cell(v, width) for v in values.tolist()]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        values = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        values += [-v for v in values]
        assert _numpy_rows(values) == [_cell(v) for v in values]

    def test_exact_ties_take_the_fallback(self, monkeypatch):
        # Odd multiples of 1/4 in [1e15, 2**51) and of 1/8 in [2**49, 1e15) have 18
        # significant digits, the last a 5: their 17 digits are an exact tie.
        rng = np.random.default_rng(5)
        quarters = (2 * rng.integers(2 * 10**15, 2**52, 300) + 1) * 0.25
        eighths = (2 * rng.integers(2**51, 4 * 10**15, 300) + 1) * 0.125
        ties = np.concatenate([quarters, eighths, [1e15 + 0.25, 2.0**51 - 0.25]])
        assert all(Fraction(v) * 10 ** (16 - math.floor(math.log10(v))) % 1 == Fraction(1, 2) for v in ties.tolist())
        seen = _percent_spy(monkeypatch)
        assert _numpy_rows(ties) == [_cell(v) for v in ties.tolist()]
        assert sorted(seen) == sorted(ties.view(np.int64).tolist())

    def test_zeros_subnormals_infinities_and_nan_payloads(self, monkeypatch):
        subnormals = np.array([1, 2, 3, 2**51, 2**52 - 1, 12345678901], dtype=np.int64).view(np.float64)
        nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123, 0xFFF8000000000000,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, math.inf, -math.inf], subnormals, -subnormals, nans])
        seen = _percent_spy(monkeypatch)
        assert _numpy_rows(values) == [_cell(v) for v in values.tolist()]
        assert sorted(seen) == sorted(values.view(np.int64).tolist())

    def test_layout_edges_and_decade_carries(self, monkeypatch):
        carries = _decade_carries()
        inside = [v for v in carries if 1e-280 <= v <= 1e280]
        assert inside and len(carries) > len(inside)  # carries inside the numpy range and outside it
        edges = [1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280]
        edges = [v for e in edges for v in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
        values = np.array(carries + edges + [-v for v in carries + edges])
        seen = _percent_spy(monkeypatch)
        rows = _numpy_rows(values)
        assert rows == [_cell(v) for v in values.tolist()]
        assert not set(np.array(inside).view(np.int64).tolist()) & set(seen)  # carried by the numpy digits
        assert {row.rstrip(b"\0,") for row in rows[: len(carries)]} >= {b"1e-14", b"1e+98"}


def test_package_and_project_versions_agree():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == heatfield.__version__


def test_cli_reads_no_private_library_name():
    # Each runner goes through the library's public API, which the benchmark tracer wraps: the
    # CLI reads no underscore attribute of dyson, kernels, montecarlo or pring, nor imports one.
    modules = {"dyson", "kernels", "montecarlo", "pring"}
    tree = ast.parse((SRC / "heatfield" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ] + [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] in modules
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
