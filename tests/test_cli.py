import json

import pytest

from formaldisk.cli import _config_int, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graphs_listing(capsys):
    code, out, _ = run_cli(capsys, "graphs", "1", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 1
    assert rep["graphs"][0]["edges"] == [[1, 2], [1, 3]]


def test_graphs_with_defect(capsys):
    code, out, _ = run_cli(capsys, "graphs", "2", "0", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 2
    assert rep["config"]["epsilon"] == 1


def test_weights_closed_table(capsys):
    code, out, _ = run_cli(capsys, "weights", "closed", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["weights"] == {"W_1": "0", "W_2": "1/24",
                              "W_3": "0", "W_4": "1/1440"}
    assert rep["schema"] == 1
    assert "toolkit" in rep


def test_weights_mc_cache_cycle(tmp_path, capsys):
    cache = str(tmp_path / "weights.jsonl")
    code, out, _ = run_cli(capsys, "weights", "mc", "--gamma0", "1",
                           "--samples", "2000", "--cache", cache)
    assert code == 0
    rep = json.loads(out)
    assert rep["served_from_cache"] is False
    assert rep["estimate"]["integral"] == pytest.approx(1.0, abs=1e-9)
    code, out, _ = run_cli(capsys, "weights", "mc", "--gamma0", "1",
                           "--samples", "2000", "--cache", cache)
    rep2 = json.loads(out)
    assert rep2["served_from_cache"] is True
    assert rep2["estimate"] == rep["estimate"]


def test_weights_mc_corrupt_cache_warns(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    cache.write_text("this is not json\n")
    code, out, err = run_cli(capsys, "weights", "mc", "--gamma0", "1",
                             "--samples", "1000", "--cache", str(cache))
    assert code == 0
    assert "unreadable cache line" in err


def test_weights_mc_malformed_matching_cache_row(tmp_path, capsys):
    # rows that match the run but lack a field or hold a string value are
    # skipped with the warning, and the estimate is recomputed and stored
    cache = tmp_path / "c.jsonl"
    argv = ("weights", "mc", "--gamma0", "1", "--samples", "1000",
            "--cache", str(cache))
    assert run_cli(capsys, *argv)[0] == 0
    row = json.loads(cache.read_text())
    lacking = {k: v for k, v in row.items() if k != "stderr"}
    cache.write_text(json.dumps(lacking) + "\n"
                     + json.dumps(dict(row, value="1.0")) + "\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["served_from_cache"] is False
    assert "warning: 2 unreadable cache line(s)" in err
    assert json.loads(cache.read_text().splitlines()[-1]) == row


def test_weights_mc_requires_one_graph_choice(capsys):
    code, _, err = run_cli(capsys, "weights", "mc", "--samples", "100")
    assert code == 2
    assert "choose exactly one" in err
    code, _, err = run_cli(capsys, "weights", "mc", "--gamma0", "1",
                           "--wheel", "2")
    assert code == 2


def test_weights_mc_graph_file(tmp_path, capsys):
    from formaldisk import opposite_wheel
    path = tmp_path / "g.json"
    path.write_text(json.dumps(opposite_wheel(2).to_json()))
    code, out, _ = run_cli(capsys, "weights", "mc", "--graph", str(path),
                           "--samples", "20000", "--no-cache")
    assert code == 0
    rep = json.loads(out)
    assert rep["estimate"]["samples"] == 20000


def test_todd_command(capsys):
    code, out, _ = run_cli(capsys, "todd", "--order", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["modified_equals_todd_times_exp_minus_half"] is True
    assert rep["todd"][0] == "1"
    assert rep["modified_todd"][2] == "-1/24"


def test_twist_command(capsys):
    code, out, _ = run_cli(capsys, "twist")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["passed"] is True


def test_formality_command(capsys):
    code, out, _ = run_cli(capsys, "formality", "--d", "2", "--s", "2",
                           "--cap", "6", "--gamma", "1,2")
    assert code == 0
    rep = json.loads(out)
    assert rep["agree"] is True
    assert rep["config"]["dimension"] == 2
    assert set(rep["graph_side"]) == set(rep["closed_side"])


def test_formality_report_times_each_side(capsys):
    code, out, _ = run_cli(capsys, "formality", "--d", "3", "--s", "2",
                           "--gamma", "1,2,3")
    assert code == 0
    timings = json.loads(out)["timings"]
    assert set(timings) == {"seconds", "stages"}
    assert set(timings["stages"]) == {"graph_side", "closed_side"}
    values = [timings["seconds"], *timings["stages"].values()]
    assert all(isinstance(x, float) and x >= 0 for x in values)
    assert sum(timings["stages"].values()) <= timings["seconds"] + 0.002


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "weights-closed")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["results"][0]["suite"] == "weights-closed"
    assert "timings" in rep


def test_verify_seed_threading(capsys):
    code, out, _ = run_cli(capsys, "verify", "derivation",
                           "--trials", "5", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["seed"] == 3
    assert rep["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights"])          # missing the mode argument
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "graphs", "1", "1")
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["count"] == 1


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1500, "seed": 7}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "weights", "mc",
                           "--gamma0", "1", "--no-cache")
    assert code == 0
    rep = json.loads(out)
    assert rep["estimate"]["samples"] == 1500
    assert rep["estimate"]["seed"] == 7


def test_reports_are_byte_stable_modulo_timings(capsys):
    code1, out1, _ = run_cli(capsys, "weights", "closed", "3")
    code2, out2, _ = run_cli(capsys, "weights", "closed", "3")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["formality", "--d", "3", "--gamma", "1,4"],
    ["formality", "--gamma", "0"],
    ["formality", "--d", "0"],
    ["formality", "--s", "0"],
    ["formality", "--d", "-2"],
    ["formality", "--cap", "0"],
    ["weights", "mc", "--wheel", "2", "--samples", "-5"],
    ["weights", "mc", "--wheel", "2", "--samples", "0"],
    ["weights", "mc", "--wheel", "2", "--workers", "0"],
    ["weights", "mc", "--wheel", "2", "--workers", "-3"],
    ["verify", "mc-weights", "--samples", "0"],
    ["verify", "all", "--workers", "-1"],
    ["verify", "gerstenhaber", "--trials", "0"],
    ["todd", "--order", "-1"],
    ["graphs", "-1", "2"],
    ["graphs", "1", "-3"],
    ["graphs", "3", "1", "-3"],
    ["weights", "mc", "--wheel", "0"],
    ["weights", "mc", "--wheel", "1"],
    ["weights", "closed", "0"],
    ["weights", "closed", "-1"],
    ["formality", "--cap", "1"],   # agreement through cap - 3 < 0
    ["formality", "--cap", "2"],   # would compare no coefficient
    ["formality", "--gamma", "1,1"],   # a repeated axis makes gamma 0
])
def test_bad_numbers_exit_2_before_any_work(argv, monkeypatch, capsys):
    # explicit zeros are rejected, not replaced by the defaults; nothing
    # that could start a worker pool may run
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started on bad input")
    for name in ("mc_weight", "mc_weight_cached", "twisted_first_taylor"):
        monkeypatch.setattr("formaldisk.cli." + name, must_not_run)
    monkeypatch.setattr("formaldisk.suites.run_suite", must_not_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("config, argv, message", [
    ({"workers": 0}, ["weights", "mc", "--gamma0", "1"],
     "workers must be at least 1"),
    ({"samples": -1}, ["verify", "mc-weights"], "samples must be at least 1"),
    ({"seed": "x"}, ["weights", "mc", "--gamma0", "1"], "invalid literal"),
    ({"seed": "x"}, ["verify", "hkr"], "invalid literal"),
    ({"cap": 2}, ["formality"], "cap must be at least 3"),
    ({"dimension": 2.7}, ["formality"], "dimension must be an integer"),
    ({"workers": True}, ["weights", "mc", "--gamma0", "1"],
     "workers must be an integer"),
    ({"samples": 1e5 + 0.5}, ["verify", "mc-weights"],
     "samples must be an integer"),
    ({"seed": 1.5}, ["weights", "mc", "--gamma0", "1"],
     "seed must be an integer"),
    ({"seed": False}, ["verify", "hkr"], "seed must be an integer"),
    ({"seed": None}, ["verify", "hkr"], "seed must be an integer"),
    ({"seed": -1}, ["weights", "mc", "--gamma0", "1"],
     "seed must be a non-negative integer"),
    ({"seed": -1}, ["verify", "mc-weights"],
     "seed must be a non-negative integer"),
    ({}, ["weights", "mc", "--wheel", "2", "--seed", "-1"],
     "seed must be a non-negative integer"),
    ({}, ["verify", "mc-weights", "--seed", "-1"],
     "seed must be a non-negative integer"),
])
def test_bad_config_values_exit_2(config, argv, message, tmp_path,
                                  monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setattr("formaldisk.cli.mc_weight", None)
    monkeypatch.setattr("formaldisk.cli.mc_weight_cached", None)
    monkeypatch.setattr("formaldisk.suites.run_suite", None)
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_negative_seed_still_seeds_the_exact_trials(capsys):
    # only numpy's Monte-Carlo streams refuse a negative seed
    code, out, _ = run_cli(capsys, "verify", "gerstenhaber", "--seed", "-1",
                           "--trials", "1")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == -1


@pytest.mark.parametrize("value", [2, 2.0, "2"])
def test_integral_config_values_are_read_as_integers(value):
    assert _config_int({"k": value}, "k", 9) == 2
    assert _config_int({}, "k", 9) == 9


@pytest.mark.parametrize("graph, message", [
    ([1, 2], "a graph is a JSON object"),
    ({"n": "2", "m": 0, "epsilon": 0, "edges": [[1, 2], [2, 1]]},
     "n, m and epsilon must be integers"),
    ({"n": 0, "m": 2, "epsilon": 0, "edges": []},
     "need at least one aerial vertex"),
    ({"n": 2, "m": 0, "epsilon": 1, "edges": [[1, 2]]},
     "form degree 1 does not match moduli 2"),
    ({"n": 1, "m": 1, "edges": [[1.7, 2.2]]},
     "edges must be a list of integer pairs"),
    ({"n": 1, "m": 1, "edges": [[True, "2"]]},
     "edges must be a list of integer pairs"),
    ({"m": 1, "edges": [[1, 2]]}, "a graph needs the field 'n'"),
])
def test_bad_graph_files_exit_2_before_any_work(graph, message, tmp_path,
                                                monkeypatch, capsys):
    # the last two are admissible graphs that mc_weight cannot integrate;
    # its own checks reject them before a cache lookup or a pool
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started on a bad graph")
    for name in ("mc_weight", "mc_weight_cached"):
        monkeypatch.setattr("formaldisk.cli." + name, must_not_run)
    monkeypatch.setattr("formaldisk.weights.cache_lookup", must_not_run)
    code, out, err = run_cli(capsys, "weights", "mc", "--graph", str(path),
                             "--samples", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
