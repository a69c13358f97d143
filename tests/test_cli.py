import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mpdqc.cli as cli
from mpdqc.cli import main, validate
from mpdqc.protocol import AbortInfo, Transcript, message_counts


def write_config(tmp_path, **config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


# ---------------------------------------------------------------- validate


def test_validate_accepts_a_minimal_honest_run():
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 2, "n_columns": 3}) == []


def test_validate_flags_each_problem():
    errors = validate({"mode": "honest-run", "n_wires": 3, "n_columns": 0, "m_copies": 1})
    text = " ".join(errors)
    assert "seed" in text
    assert "n_wires" in text
    assert "n_columns" in text
    assert "m_copies" in text


def test_validate_register_budget_ignores_the_column_count():
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 4, "n_columns": 200}) == []
    # 22 wires plus one reference qubit plus the joining node fill the budget exactly
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 22, "n_columns": 2, "reference_qubits": 1}) == []
    errors = validate({"mode": "honest-run", "seed": 0, "n_wires": 22, "n_columns": 2, "reference_qubits": 2})
    assert errors and "register budget" in errors[0]


def test_validate_message_budget_bounds_copies_and_columns():
    # the largest configs the other tests accept fit the budget
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 4, "n_columns": 200}) == []
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 22, "n_columns": 2, "reference_qubits": 1}) == []
    big_copies = {"mode": "honest-run", "seed": 0, "n_wires": 2, "n_columns": 2, "m_copies": 10 ** 8}
    big_columns = {"mode": "honest-run", "seed": 0, "n_wires": 2, "n_columns": 10 ** 7}
    assert validate(big_copies) == [
        f"2x2 with m_copies {10 ** 8}: one protocol run sends {sum(message_counts(2, 2, 10 ** 8).values())} "
        f"messages, over the message budget of {cli.MESSAGE_BUDGET}"
    ]
    errors = validate(big_columns)
    assert len(errors) == 1 and errors[0].startswith(f"2x{10 ** 7} with m_copies 10: one protocol run sends ")
    for mode in ("blindness", "server-sim-equiv", "client-sim-equiv", "intermediate-equiv"):
        config = {"mode": mode, "seed": 0, "n_wires": 2, "n_columns": 10 ** 7}
        if mode == "blindness":
            config["scenarios"] = {"a": {}, "b": {}}
        assert any("over the message budget" in e for e in validate(config)), mode


def test_validate_summary_budget_bounds_trials(tmp_path, monkeypatch, capsys):
    # a sampled mode keeps trials x worlds x summary fields values
    config = {"mode": "intermediate-equiv", "seed": 0, "n_wires": 2, "n_columns": 2, "trials": 10 ** 8}
    assert validate(config) == [
        f"trials {10 ** 8} x 3 worlds x 10 summary fields: intermediate-equiv keeps {3 * 10 ** 9} values, "
        f"over the summary budget of {cli.SUMMARY_BUDGET}"
    ]
    assert validate({**config, "trials": cli.SUMMARY_BUDGET // 30}) == []
    assert len(validate({**config, "trials": cli.SUMMARY_BUDGET // 30 + 1})) == 1
    # protocol1-detection keeps one outcome per trial
    detection = {"mode": "protocol1-detection", "seed": 0, "trials": cli.SUMMARY_BUDGET}
    assert validate(detection) == []
    assert validate({**detection, "trials": cli.SUMMARY_BUDGET + 1})[0].startswith(f"trials {cli.SUMMARY_BUDGET + 1} x 1 worlds x 1 ")
    # the default 10^4 trials fit the largest graph each rewrite admits, and 2x40 without one
    for mode, shape in (("server-sim-equiv", (2, 6)), ("intermediate-equiv", (4, 2)), ("client-sim-equiv", (2, 40))):
        assert validate({"mode": mode, "seed": 0, "n_wires": shape[0], "n_columns": shape[1]}) == [], mode

    def never(*args, **kwargs):
        raise AssertionError("an over-budget config reached the runner")

    monkeypatch.setattr(cli, "run_experiment", never)
    assert main(["--config", write_config(tmp_path, **config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: trials ") and "over the summary budget" in err


def test_main_refuses_an_over_budget_config_before_running_it(tmp_path, monkeypatch, capsys):
    # validate must stop these: run as they are, they exhaust the host's memory
    def never(*args, **kwargs):
        raise AssertionError("an over-budget config reached the runner")

    monkeypatch.setattr(cli, "run_experiment", never)
    for extra in ({"m_copies": 10 ** 8}, {"n_columns": 10 ** 7}):
        config = {"mode": "honest-run", "seed": 0, "n_wires": 2, "n_columns": 2, **extra}
        assert main(["--config", write_config(tmp_path, **config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "over the message budget" in err and not (tmp_path / "out").exists()


def test_validate_rewrite_budget_admits_what_fits():
    # 2x5 simulator-resource holds 20 qubits; 4x2 delayed holds 21
    assert validate({"mode": "server-sim-equiv", "seed": 0, "n_wires": 2, "n_columns": 5}) == []
    assert validate({"mode": "intermediate-equiv", "seed": 0, "n_wires": 4, "n_columns": 2}) == []
    # the rewrite bound applies only to the modes that run a rewrite
    assert validate({"mode": "honest-run", "seed": 0, "n_wires": 4, "n_columns": 3}) == []


def test_validate_rejects_unknown_modes():
    assert validate({"mode": "quantum-supremacy"})
    assert validate({})
    assert validate({"mode": ["honest-run"]})
    assert validate({"mode": {"honest-run": 1}})


def test_validate_requires_enough_trials():
    errors = validate({"mode": "protocol1-detection", "seed": 1, "trials": 10})
    assert any("trials" in e for e in errors)


def test_validate_checks_the_coalition(tmp_path, monkeypatch, capsys):
    base = {"mode": "client-sim-equiv", "seed": 0, "n_wires": 2, "n_columns": 2}
    assert validate(base) == []  # defaults to the last client
    assert validate({**base, "coalition": [1, 2]})
    assert validate({**base, "coalition": []})
    assert validate({**base, "coalition": [3]})
    assert validate({**base, "coalition": [1]}) == []
    # a member listed twice is refused, not run as the smaller coalition
    assert validate({**base, "coalition": [1, 1]}) == ["coalition lists client 1 more than once"]
    wide = {**base, "n_wires": 4}
    assert validate({**wide, "coalition": [1, 2]}) == []
    assert validate({**wide, "coalition": [3, 1, 3, 1]}) == ["coalition lists client 1, 3 more than once"]

    def never(*args, **kwargs):
        raise AssertionError("a config with a repeated coalition member reached the runner")

    monkeypatch.setattr(cli, "run_experiment", never)
    config = write_config(tmp_path, **wide, coalition=[1, 1, 2])
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: coalition lists client 1 more than once")


def test_validate_requires_blindness_scenarios():
    base = {"mode": "blindness", "seed": 0, "n_wires": 2, "n_columns": 2}
    assert validate(base)
    ok = {**base, "scenarios": {"a": {}, "b": {}}}
    assert validate(ok) == []
    # 2x3, 4x2, and 2x4 with up to one reference qubit fit the amplitude budget
    assert validate({**ok, "n_columns": 3}) == []
    assert validate({**ok, "n_wires": 4}) == []
    assert validate({**ok, "n_columns": 4}) == []
    assert validate({**ok, "n_columns": 4, "reference_qubits": 1}) == []


def test_validate_rejects_bad_deviation_and_threshold():
    assert validate({"mode": "protocol1-detection", "seed": 0, "deviation": 8})
    assert validate({"mode": "protocol1-detection", "seed": 0, "threshold": -1})


# ------------------------------------------------------------- exit codes


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "content", [b"[1, 2]", b'"honest-run"', b"null", b'{"mode": "\xff"}'], ids=["list", "string", "null", "not-utf8"],
)
def test_config_that_is_not_a_json_object_exits_1(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_invalid_config_exits_1_without_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="honest-run", n_wires=3, n_columns=2)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_threshold_violation_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, mode="blindness", seed=0, n_wires=2, n_columns=2,
        threshold=1e-30,
        scenarios={"a": {"angles": "zeros", "input": "zeros"}, "b": {"angles": "random", "input": "ones"}},
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert "FAIL" in (out / "summary.txt").read_text()


def test_protocol_abort_exits_3(tmp_path, monkeypatch):
    def fake_run(pattern, input_state, rng, **kwargs):
        return SimpleNamespace(
            aborted=True,
            abort=AbortInfo(stage="verify", node=1, client=2, reason="test copy answered 1"),
            transcript=Transcript(),
        )

    monkeypatch.setattr(cli, "run_full_protocol", fake_run)
    cfg = write_config(tmp_path, mode="honest-run", seed=0, n_wires=2, n_columns=2)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["abort"]["client"] == 2
    assert "ABORT" in (out / "summary.txt").read_text()


@pytest.mark.parametrize(
    "config,field",
    [
        # six angles on a 2x2 graph, which measures two nodes
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "angles": [0, 1, 2, 3, 4, 5]}, "angles"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1, 0], [0, 0]]}, "input"),
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 2, "reference_qubits": 1, "input": [[1, 0]] * 4}, "input"),
        (
            {"mode": "blindness", "n_wires": 2, "n_columns": 2,
             "scenarios": {"a": {}, "b": {"input": [[1, 0]] * 8}}},
            "scenarios.b.input",
        ),
        # the exact views hold 4^M 2^I 2^(N + reference_qubits) amplitudes: 2x5 needs
        # 4^8 * 2^2 * 2^10 = 2^28, 4x3 4^8 * 2^4 * 2^12 = 2^32, 2x4 with two reference qubits 2^24
        ({"mode": "blindness", "n_wires": 2, "n_columns": 5, "scenarios": {"a": {}, "b": {}}}, "2x5 with 0 reference qubits: blindness needs 268435456 exact-view amplitudes"),
        ({"mode": "blindness", "n_wires": 4, "n_columns": 3, "scenarios": {"a": {}, "b": {}}}, "4x3 with 0 reference qubits: blindness needs 4294967296 exact-view amplitudes"),
        (
            {"mode": "blindness", "n_wires": 2, "n_columns": 4, "reference_qubits": 2, "scenarios": {"a": {}, "b": {}}},
            "2x4 with 2 reference qubits: blindness needs 16777216 exact-view amplitudes",
        ),
        ({"mode": "blindness", "n_wires": 2, "n_columns": 1, "scenarios": {"a": {}, "b": {}}}, "n_columns"),
        # a 41-qubit live register would need 32 TiB per statevector
        ({"mode": "honest-run", "n_wires": 40, "n_columns": 2}, "n_wires + reference_qubits + 1 = 40 + 0 + 1"),
        ({"mode": "server-sim-equiv", "n_wires": 22, "n_columns": 2, "reference_qubits": 2}, "22 + 2 + 1 live qubits"),
        ({"mode": "client-sim-equiv", "n_wires": 24, "n_columns": 3}, "register budget of 24"),
        ({"mode": "intermediate-equiv", "n_wires": 26, "n_columns": 2}, "n_wires + reference_qubits + 1 = 26"),
        ({"mode": "blindness", "n_wires": 40, "n_columns": 2, "scenarios": {"a": {}, "b": {}}}, "n_wires + reference_qubits + 1 = 40"),
        # the simulator-resource rewrite keeps two retained EPR halves per measured node
        ({"mode": "server-sim-equiv", "n_wires": 4, "n_columns": 3}, "simulator-resource rewrite, which holds up to 40 live qubits"),
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 7}, "simulator-resource rewrite, which holds up to 28 live qubits"),
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 6, "reference_qubits": 1}, "up to 25 live qubits"),
        ({"mode": "intermediate-equiv", "n_wires": 4, "n_columns": 3}, "delayed rewrite, which holds up to 25 live qubits"),
        # JSON true and false are not numbers (each of these passed as 1 or 0)
        ({"mode": "honest-run", "seed": True, "n_wires": 2, "n_columns": 2}, "seed"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": True}, "n_columns"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "reference_qubits": True}, "reference_qubits"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "threshold": True}, "threshold"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "angles": [True, False]}, "angles"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1, 0], [0, False], [0, 0], [0, 0]]}, "input"),
        ({"mode": "protocol1-detection", "deviation": True}, "deviation"),
        ({"mode": "client-sim-equiv", "n_wires": 2, "n_columns": 2, "coalition": [True]}, "coalition"),
        # json reads NaN and Infinity as floats; none of them is a usable number
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 2, "threshold": float("nan")}, "threshold"),
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 2, "threshold": float("inf")}, "threshold"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1, 0], [float("nan"), 0], [0, 0], [0, 0]]}, "input"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1, 0], [0, float("-inf")], [0, 0], [0, 0]]}, "input"),
        # finite amplitudes whose squared norm overflows, or underflows to 0 or
        # to a subnormal, cannot be normalized; nor can an integer past float range
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1e200, 0], [0, 0], [0, 0], [0, 0]]}, "input"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[10 ** 400, 0], [0, 0], [0, 0], [0, 0]]}, "input"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1e-200, 0], [0, 0], [0, 0], [0, 0]]}, "input"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[1e-160, 0], [0, 0], [0, 0], [0, 0]]}, "input"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "input": [[0, 0], [0, 0], [0, 0], [0, 0]]}, "input"),
        (
            {"mode": "blindness", "n_wires": 2, "n_columns": 2, "scenarios": {"a": {}, "b": {"input": [[0, 1e200], [0, 0], [0, 0], [0, 0]]}}},
            "scenarios.b.input",
        ),
        # a field the mode does not read was ignored: m_copies, a misspelled
        # trials, a top-level angles in blindness, an unknown scenario key
        ({"mode": "server-sim-equiv", "n_wires": 2, "n_columns": 2, "trials": 100, "m_copies": 50}, "m_copies is not a field of mode server-sim-equiv"),
        ({"mode": "intermediate-equiv", "n_wires": 2, "n_columns": 2, "trials": 100, "m_copies": 50}, "m_copies is not a field of mode intermediate-equiv"),
        ({"mode": "protocol1-detection", "trial": 100}, "trial is not a field of mode protocol1-detection"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "scenario_ids": {"x": [1, 2]}}, "scenario_ids"),
        ({"mode": "blindness", "n_wires": 2, "n_columns": 2, "angles": "zeros", "scenarios": {"a": {}, "b": {}}}, "angles is not a field of mode blindness"),
        ({"mode": "blindness", "n_wires": 2, "n_columns": 2, "scenarios": {"a": {"angle": [0, 1]}, "b": {}}}, "scenarios.a.angle"),
        # a null is no value: it passed as absent, then crashed the runner or ran the default
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "threshold": None}, "threshold must not be null"),
        ({"mode": "blindness", "n_wires": 2, "n_columns": 2, "threshold": None, "scenarios": {"a": {}, "b": {}}}, "threshold must not be null"),
        ({"mode": "client-sim-equiv", "n_wires": 2, "n_columns": 2, "trials": 100, "coalition": None}, "coalition must not be null"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "angles": None}, "angles must not be null"),
        # numpy refuses a negative seed with a ValueError traceback; a key
        # starting with -- is a command-line flag, not a config field
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "seed": -5}, "seed is required and must be an integer >= 0"),
        ({"mode": "honest-run", "n_wires": 2, "n_columns": 2, "--seed": -1}, "seed is required and must be an integer >= 0"),
    ],
    ids=[
        "long-angles", "short-input", "input-with-reference", "scenario-input", "blindness-over-budget",
        "blindness-4x3-over-budget", "blindness-2x4-references-over-budget",
        "blindness-one-column", "honest-over-register-budget", "reference-over-register-budget",
        "client-sim-over-register-budget", "intermediate-over-register-budget", "blindness-over-register-budget",
        "server-sim-4x3-over-rewrite-budget", "server-sim-2x7-over-rewrite-budget", "server-sim-reference-over-rewrite-budget",
        "intermediate-4x3-over-rewrite-budget",
        "bool-seed", "bool-n-columns", "bool-reference-qubits", "bool-threshold", "bool-angles", "bool-amplitude",
        "bool-deviation", "bool-coalition", "nan-threshold", "infinite-threshold", "nan-amplitude", "infinite-amplitude",
        "overflowing-amplitude", "huge-integer-amplitude", "underflowing-amplitude", "subnormal-norm-amplitude",
        "zero-amplitudes", "overflowing-scenario-amplitude",
        "server-sim-m-copies", "intermediate-m-copies", "detection-misspelled-trials", "honest-scenario-ids",
        "blindness-top-level-angles", "blindness-scenario-angle", "honest-null-threshold", "blindness-null-threshold",
        "null-coalition", "null-angles", "negative-seed", "negative-seed-flag",
    ],
)
def test_malformed_configs_fail_validation(tmp_path, capsys, config, field):
    flags = [str(x) for key, value in config.items() if key.startswith("--") for x in (key, value)]
    cfg = write_config(tmp_path, **{"seed": 0, **{key: value for key, value in config.items() if not key.startswith("--")}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err
    assert not out.exists()


# each mode's required fields on a small graph
MINIMAL = {
    "honest-run": {"n_wires": 2, "n_columns": 2},
    "blindness": {"n_wires": 2, "n_columns": 2, "scenarios": {"a": {}, "b": {}}},
    "server-sim-equiv": {"n_wires": 2, "n_columns": 2},
    "client-sim-equiv": {"n_wires": 2, "n_columns": 2},
    "protocol1-detection": {},
    "intermediate-equiv": {"n_wires": 2, "n_columns": 2},
}


@pytest.mark.parametrize("mode", sorted(MINIMAL))
def test_every_declared_default_validates(mode):
    entry = cli.MODES[mode]
    minimal = {"mode": mode, "seed": 0, **MINIMAL[mode]}
    assert validate(minimal) == []
    defaults = {field: value for field, value in entry.fields.items() if value is not None}
    assert validate({**minimal, **defaults, "threshold": entry.threshold}) == []


def test_module_entry_point_exits_with_the_config_verdict(tmp_path):
    # python -m mpdqc.cli runs main through sys.exit
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(**config):
        cfg = write_config(tmp_path, **config)
        out = tmp_path / "out"
        command = [sys.executable, "-m", "mpdqc.cli", "--config", cfg, "--out", str(out)]
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120), out

    done, out = run(mode="honest-run", seed=0, n_wires=2, n_columns=2, m_copy=1)
    assert done.returncode == 1
    assert "config error: m_copy is not a field of mode honest-run" in done.stderr.splitlines()
    assert "Traceback" not in done.stderr
    assert not out.exists()
    done, out = run(mode="honest-run", seed=0, n_wires=2, n_columns=2, m_copies=2)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "report.json").read_text())["passed"] is True


@pytest.mark.parametrize("blocked", ["a file", "a path under a file"])
def test_an_out_that_cannot_be_a_directory_exits_1_before_the_run(tmp_path, monkeypatch, capsys, blocked):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran before its output directory existed")

    monkeypatch.setattr(cli, "run_experiment", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if blocked == "a file" else taken / "out"
    cfg = write_config(tmp_path, mode="honest-run", seed=0, n_wires=2, n_columns=2)
    assert main(["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"output error: cannot create directory {out}: "), err
    assert taken.read_text() == "kept\n"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import, and only
    # protocol1-detection (harness.clopper_pearson) uses it
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, mpdqc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "'scipy.stats'" not in done.stdout, done.stdout


# ------------------------------------------------------------ honest mode


def test_honest_run_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path, mode="honest-run", seed=3, n_wires=2, n_columns=2, m_copies=2)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "honest-run"
    assert report["seed"] == 3
    assert report["value"] >= 1 - 1e-6
    assert report["passed"] is True
    lines = (out / "transcript.jsonl").read_text().splitlines()
    assert lines and len(lines) == report["details"]["messages"]
    assert report["details"]["peak_qubits"] == 3
    for line in lines:
        json.loads(line)
    assert "PASS" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("n_wires,n_columns,m_copies", [(2, 3, 2), (4, 3, 10)])
def test_honest_run_reports_its_message_counts(tmp_path, n_wires, n_columns, m_copies):
    # details.message_counts per variant, read from Transcript.counts, and
    # summary.txt's total: both as message_counts has them and as sent
    cfg = write_config(tmp_path, mode="honest-run", seed=4, n_wires=n_wires, n_columns=n_columns, m_copies=m_copies)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    counts = json.loads((out / "report.json").read_text())["details"]["message_counts"]
    assert counts == message_counts(n_wires, n_columns, m_copies)
    sent = [json.loads(line)["variant"] for line in (out / "transcript.jsonl").read_text().splitlines()]
    assert counts == {variant: sent.count(variant) for variant in counts}
    assert f"messages:  {len(sent)}" in (out / "summary.txt").read_text().splitlines()


def test_reports_are_reproducible(tmp_path):
    cfg = write_config(tmp_path, mode="honest-run", seed=5, n_wires=2, n_columns=3, m_copies=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a)]) == 0
    assert main(["--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()
    assert (out_a / "transcript.jsonl").read_text() == (out_b / "transcript.jsonl").read_text()


def test_debug_secrets_reports_the_reconstructed_secrets(tmp_path):
    cfg = write_config(tmp_path, mode="honest-run", seed=5, n_wires=2, n_columns=3, m_copies=2)
    clean, debug = tmp_path / "clean", tmp_path / "debug"
    assert main(["--config", cfg, "--out", str(clean)]) == 0
    assert main(["--config", cfg, "--out", str(debug), "--debug-secrets"]) == 0
    assert "secrets" not in json.loads((clean / "report.json").read_text())["details"]
    details = json.loads((debug / "report.json").read_text())["details"]
    secrets = details["secrets"]
    assert set(secrets) == {"a", "theta", "r", "delta"}
    assert set(secrets["theta"]) == {"1", "2", "3", "4"}
    assert secrets["delta"] == details["deltas"]


def test_debug_secrets_writes_nothing_for_an_aborted_run(tmp_path, monkeypatch):
    def fake_run(pattern, input_state, rng, **kwargs):
        return SimpleNamespace(
            aborted=True,
            abort=AbortInfo(stage="verification", node=1, client=2, reason="test copy failed its declared basis"),
            transcript=Transcript(),
        )

    monkeypatch.setattr(cli, "run_full_protocol", fake_run)
    cfg = write_config(tmp_path, mode="honest-run", seed=0, n_wires=2, n_columns=2)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--debug-secrets"]) == 3
    assert "secrets" not in json.loads((out / "report.json").read_text())["details"]


def test_debug_secrets_is_rejected_outside_honest_run(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="protocol1-detection", seed=1, trials=150)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--debug-secrets"]) == 1
    assert "config error: --debug-secrets" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_overrides_the_config(tmp_path):
    cfg = write_config(tmp_path, mode="honest-run", seed=5, n_wires=2, n_columns=2, m_copies=2)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 9


# ----------------------------------------------------------- other modes


def test_detection_mode_smoke(tmp_path):
    cfg = write_config(tmp_path, mode="protocol1-detection", seed=1, trials=150, deviation=0)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["value"] == 0.0
    assert report["trials"] == 150
    assert report["confidence_radius"] is not None
    assert (out / "transcript.jsonl").read_text() == ""


def test_blindness_mode_passes_at_default_threshold(tmp_path):
    cfg = write_config(
        tmp_path, mode="blindness", seed=0, n_wires=2, n_columns=2,
        scenarios={"a": {"angles": "zeros", "input": "zeros"}, "b": {"angles": "random", "input": "random"}},
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["value"] <= 1e-9
    assert set(report["details"]["checkpoints"]) == {"prepared", "round:1", "round:2", "delivered"}


def test_blindness_mode_reports_the_view_size_at_2x3(tmp_path):
    cfg = write_config(
        tmp_path, mode="blindness", seed=1, n_wires=2, n_columns=3,
        scenarios={"a": {"angles": "zeros", "input": "zeros"}, "b": {"angles": "random", "input": "random"}},
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    details = json.loads((out / "report.json").read_text())["details"]
    # one class per announced-angle sequence mod 4: 4^i after round i
    assert details["view_classes"] == {"prepared": 1, "round:1": 4, "round:2": 16, "round:3": 64, "round:4": 256, "delivered": 256}
    assert details["view_amplitudes"] == 2 * 65_536


def test_blindness_mode_reports_the_check_wall_time(tmp_path):
    cfg = write_config(
        tmp_path, mode="blindness", seed=2, n_wires=2, n_columns=2,
        scenarios={"a": {"angles": "zeros", "input": "zeros"}, "b": {"angles": "random", "input": "random"}},
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    seconds = json.loads((out / "report.json").read_text())["details"]["seconds"]
    assert isinstance(seconds, float) and math.isfinite(seconds) and seconds >= 0


def test_equivalence_modes_smoke(tmp_path):
    # tiny trial counts: exercise the plumbing, not the statistics
    for mode in ("server-sim-equiv", "client-sim-equiv", "intermediate-equiv"):
        cfg = write_config(
            tmp_path, mode=mode, seed=0, n_wires=2, n_columns=2,
            trials=120, threshold=0.75,
        )
        out = tmp_path / mode
        assert main(["--config", cfg, "--out", str(out)]) == 0, mode
        report = json.loads((out / "report.json").read_text())
        assert report["trials"] == 120
        assert 0 <= report["value"] <= 0.75
