import csv
import dataclasses
import json
import math

import pytest

from ranshare.baselines import ReservationConfig
from ranshare.cli import _HOTSPOT_KEYS, DEFAULTS, RESULT_COLUMNS, main, resolve_config
from ranshare.errors import ConfigError
from ranshare.sim import HotspotParams, ScenarioParams
from ranshare.solver import SolverConfig

TINY = {"num_elements": 12, "num_entities": 4, "num_apps": 5, "num_flows": 60}
ONE_CELL = {"capacities": [10.0], "lower": [[2.0]], "upper": [[8.0]], "coeff": [[1.0]]}


def write_config(tmp_path, **extra):
    cfg = dict(TINY)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(out_dir):
    with open(out_dir / "results.csv") as fh:
        return list(csv.reader(fh))


class TestResolveConfig:
    def test_missing_seed_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(None, {"experiment": "utility"})

    def test_flag_overrides_env_overrides_file(self, tmp_path):
        path = write_config(tmp_path, seed=1, epsilon=0.5)
        cfg = resolve_config(path, {}, env={"RANSHARE_EPSILON": "0.25"})
        assert cfg["epsilon"] == 0.25
        cfg = resolve_config(path, {"epsilon": "0.125"}, env={"RANSHARE_EPSILON": "0.25"})
        assert cfg["epsilon"] == 0.125

    def test_loads_range_syntax(self):
        cfg = resolve_config(None, {"seed": 1, "loads": "2..5"})
        assert cfg["loads"] == [2.0, 3.0, 4.0, 5.0]
        cfg = resolve_config(None, {"seed": 1, "loads": "1,4,9"})
        assert cfg["loads"] == [1.0, 4.0, 9.0]

    def test_loads_json_list(self):
        # environment and flag values are read as JSON first, loads included
        cfg = resolve_config(None, {"seed": 1}, env={"RANSHARE_LOADS": "[1, 2]"})
        assert cfg["loads"] == [1.0, 2.0]
        cfg = resolve_config(None, {"seed": 1, "loads": "[1, 2.5]"})
        assert cfg["loads"] == [1.0, 2.5]
        with pytest.raises(ConfigError, match="loads"):
            resolve_config(None, {"seed": 1, "loads": "[true]"})

    def test_utility_alias(self):
        assert resolve_config(None, {"seed": 1, "utility": "log"})["utility"] == "logarithmic"

    @pytest.mark.parametrize("value", ["-1", "2.5", "x", "true", "[0]"])
    def test_malformed_focus_app_id_rejected(self, value):
        with pytest.raises(ConfigError, match="focus_app_id"):
            resolve_config(None, {"seed": 1}, env={"RANSHARE_FOCUS_APP_ID": value})

    def test_every_dataclass_field_has_a_config_key(self):
        for cls in (ScenarioParams, SolverConfig, ReservationConfig):
            for f in dataclasses.fields(cls):
                default = list(f.default) if isinstance(f.default, tuple) else f.default
                assert DEFAULTS[f.name] == (1.0 if f.name == "epsilon" else default)
        assert sorted(_HOTSPOT_KEYS.values()) == sorted(
            f.name for f in dataclasses.fields(HotspotParams))
        for key, name in _HOTSPOT_KEYS.items():
            assert DEFAULTS[key] == getattr(HotspotParams(), name)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "nonsense": 2}))
        with pytest.raises(ConfigError, match="nonsense"):
            resolve_config(str(path), {})


class TestMain:
    def test_missing_seed_exit_code(self, capsys):
        assert main(["--experiment", "utility"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("num_elements", 12.5), ("num_flows", 60.0), ("epsilon", "abc"), ("mu", None),
        ("capacity_range", 5), ("capacity_range", ["a", 2]), ("capacity_range", [1, 2, 3]),
        ("seed", "abc"), ("loads", ["a"]), ("log_floor", None), ("schemes", 5),
        ("hotspot_mean_bw", "abc"), ("per_bs_fraction", "abc"), ("trace", "yes"),
        ("interior_shift", 0.5), ("loads", [True]), ("loads", []), ("schemes", []),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{"seed": 1, key: value})
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "hotspot", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_epsilon_exit_code(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path), "--experiment", "single-solve",
                     "--seed", "1", "--epsilon", "nan", "--out", str(tmp_path / "run")]) == 1
        assert "InvalidParams" in capsys.readouterr().err

    def test_non_finite_hotspot_bandwidth_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RANSHARE_HOTSPOT_MEAN_BW", "inf")
        path = write_config(tmp_path, hotspot_flows=20, hotspot_elements=6)
        assert main(["--config", path, "--experiment", "hotspot",
                     "--loads", "1", "--seed", "1", "--out", str(tmp_path / "run")]) == 1
        assert "InvalidParams" in capsys.readouterr().err

    def test_utility_experiment_row_count(self, tmp_path):
        out = tmp_path / "run"
        status = main(["--config", write_config(tmp_path, epsilon=1.0),
                       "--experiment", "utility", "--loads", "1..10",
                       "--utility", "log", "--seed", "42", "--out", str(out)])
        assert status == 0
        rows = read_rows(out)
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 1 + 3 * 10  # header + schemes x loads

    def test_single_solve_trivial_instance(self, tmp_path):
        path = write_config(tmp_path, instance=ONE_CELL, epsilon=1e-3, utility="linear")
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "single-solve",
                     "--seed", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective"] == pytest.approx(8.0, abs=2e-3)
        assert summary["converged"] is True
        assert summary["feasible"] is True
        assert 8.0 - 1e-9 <= summary["objective"] + summary["dual_gap"] <= 8.0 + 1e-3

    def test_explicit_instance_follows_the_utility_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, instance=ONE_CELL, epsilon=1e-3),
                     "--experiment", "single-solve", "--utility", "log", "--seed", "7",
                     "--out", str(out)]) == 0
        assert read_rows(out)[1][2] == "logarithmic"
        assert json.loads((out / "summary.json").read_text())["objective"] == pytest.approx(
            math.log(8.0), abs=2e-3)

    @pytest.mark.parametrize("instance, key", [
        ({**ONE_CELL, "app_lower": [2.0]}, "app_lower"),
        ({**ONE_CELL, "app_upper": [8.0]}, "app_upper"),
        ({**ONE_CELL, "utility_kind": "linear"}, "utility_kind"),
        ({k: v for k, v in ONE_CELL.items() if k != "coeff"}, "coeff"),
    ])
    def test_instance_key_set_exit_code(self, tmp_path, capsys, instance, key):
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path, instance=instance),
                     "--experiment", "single-solve", "--seed", "1", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_empty_loads_flag_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path), "--experiment", "single-solve",
                     "--loads", "", "--seed", "1", "--out", str(out)]) == 2
        assert "loads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_json_loads_list_runs(self, tmp_path, monkeypatch, source):
        out = tmp_path / "run"
        args = ["--config", write_config(tmp_path, epsilon=1.0), "--experiment", "utility",
                "--seed", "1", "--out", str(out)]
        if source == "env":
            monkeypatch.setenv("RANSHARE_LOADS", "[1, 2]")
        else:
            args += ["--loads", "[1, 2]"]
        assert main(args) == 0
        assert {row[1] for row in read_rows(out)[1:]} == {"1", "2"}

    @pytest.mark.parametrize("spec", [
        "[1,2]",
        '{"capacities": "abc", "lower": [[1]], "upper": [[2]], "coeff": [[1]]}',
    ])
    def test_malformed_instance_exit_code(self, tmp_path, capsys, monkeypatch, spec):
        monkeypatch.setenv("RANSHARE_INSTANCE", spec)
        assert main(["--experiment", "single-solve", "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 2
        assert "instance" in capsys.readouterr().err

    def test_focus_app_id_beyond_the_applications_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RANSHARE_FOCUS_APP_ID", "5")  # TINY has applications 0..4
        out = tmp_path / "run"
        assert main(["--config", write_config(tmp_path), "--experiment", "single-solve",
                     "--loads", "1", "--seed", "1", "--out", str(out)]) == 2
        assert "focus_app_id" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("experiment", ["utility", "hotspot", "single-solve"])
    def test_focus_app_id_beyond_the_applications_exits_2_in_every_experiment(
            self, tmp_path, capsys, experiment):
        path = write_config(tmp_path, focus_app_id=99, hotspot_flows=40, hotspot_elements=6)
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", experiment, "--loads", "1",
                     "--seed", "1", "--out", str(out)]) == 2
        assert "focus_app_id" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("value", [99, -1])
    def test_hotspot_app_outside_the_applications_exit_code(self, tmp_path, capsys, value):
        path = write_config(tmp_path, hotspot_app=value, hotspot_flows=40, hotspot_elements=6)
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "hotspot", "--loads", "1",
                     "--seed", "1", "--out", str(out)]) == 2
        assert "hotspot_app" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("key, value", [("inner_tol", 1e-6), ("max_inner_iters", 60)])
    def test_linear_inner_loop_constants_are_unknown_keys(self, tmp_path, capsys, monkeypatch,
                                                          source, key, value):
        # the linear inner loop's tolerance and cap are solver constants, not settings
        if source == "config":
            path = write_config(tmp_path, **{key: value})
        else:
            path = write_config(tmp_path)
            monkeypatch.setenv("RANSHARE_" + key.upper(), str(value))
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "single-solve", "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and key in err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_hotspot_seed_offset_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, source):
        # a hotspot run draws its flows under seed + HOTSPOT_SEED_OFFSET, a constant
        if source == "config":
            path = write_config(tmp_path, hotspot_seed_offset=1000)
        else:
            path = write_config(tmp_path)
            monkeypatch.setenv("RANSHARE_HOTSPOT_SEED_OFFSET", "1000")
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "hotspot", "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and "hotspot_seed_offset" in err.lower()
        assert not out.exists()

    def test_trace_written(self, tmp_path):
        path = write_config(tmp_path, instance=ONE_CELL, epsilon=1e-2, trace=True,
                            utility="linear")
        out = tmp_path / "run"
        main(["--config", path, "--experiment", "single-solve", "--seed", "7",
              "--out", str(out)])
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) >= 3
        assert all({"t", "objective", "barrier", "gap_bound", "inner_iters"} <= set(r)
                   for r in records)

    def test_rerun_with_echoed_config_reproduces(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = write_config(tmp_path, epsilon=1.0)
        main(["--config", base, "--experiment", "utility", "--loads", "1..2",
              "--seed", "5", "--out", str(out1)])
        echoed = json.loads((out1 / "summary.json").read_text())["config"]
        echoed["out_dir"] = str(out2)
        repl = tmp_path / "echo.json"
        repl.write_text(json.dumps(echoed))
        main(["--config", str(repl)])
        rows1, rows2 = read_rows(out1), read_rows(out2)
        i_ms = RESULT_COLUMNS.index("solve_ms")
        strip = lambda rows: [[c for j, c in enumerate(r) if j != i_ms] for r in rows]
        assert strip(rows1) == strip(rows2)

    def test_failed_cells_marked_not_dropped(self, tmp_path):
        # zero background floor breaks the logarithmic instance for app-opt
        path = write_config(tmp_path, background_min_share=0.0, epsilon=1.0)
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "utility", "--loads", "1..2",
                     "--utility", "log", "--seed", "3", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 3 * 2
        app_opt_rows = [r for r in rows[1:] if r[0] == "app-opt"]
        assert all(r[3] == "error" for r in app_opt_rows)
        net_rows = [r for r in rows[1:] if r[0] == "net-rsv"]
        assert all(r[3] != "error" for r in net_rows)

    def test_hotspot_experiment_runs(self, tmp_path):
        path = write_config(tmp_path, epsilon=1.0, hotspot_flows=40,
                            hotspot_entities=2, hotspot_elements=6)
        out = tmp_path / "run"
        assert main(["--config", path, "--experiment", "hotspot", "--loads", "1,5",
                     "--seed", "11", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 3 * 2
        assert json.loads((out / "summary.json").read_text())["flows_base"] == 100
