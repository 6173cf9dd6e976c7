import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from heatfield import cli, dyson, montecarlo, pring
from heatfield.cli import ParseError, ValidationError, parse_config


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


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

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", EXTINCTION_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["extinction", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["extinction", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_doubles(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "gamma = 0.3\nt.min = 0.37\nt.max = 1.1\nt.count = 3\nr.max = 2.0\nr.count = 4\n",
        )
        out = tmp_path / "kernel.csv"
        assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        from heatfield.kernels import heat_kernel, retarded_propagator_heat

        _, rows = read_csv(out)
        for row in rows:
            t, r, hk, ret = (float(c) for c in row)
            assert hk == heat_kernel(t, 0.0, r)
            assert ret == retarded_propagator_heat((0.0, 0.0), (t, r), 0.3)

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
