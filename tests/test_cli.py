"""CLI surface tests: subcommands, config plumbing, output-dir resolution,
and exit codes.  Commands run in-process via main(argv).
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ristrack
from ristrack.cli import OUTPUT_DIR_ENV, main
from ristrack.bench import emit_trace, parse_csv, run_matrix, scenario_from_config
from ristrack.codebook import codebook_to_text
from ristrack.config import KEYS, ExperimentConfig, load_config
from ristrack.tracker import Method

TINY_CONFIG = """\
methods = ergodic random
overheads = 0.2
speeds = 1
total_slots = 2
epochs = 2
master_seed = 7
collect_timing = false
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_run_writes_metrics_csv(tiny_config, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    rows = parse_csv(out / "metrics.csv")
    assert [r.method for r in rows] == ["ergodic", "random"]
    assert rows[0].accuracy == 1.0
    assert "metrics.csv" in capsys.readouterr().out


def test_run_seed_and_epoch_overrides(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["run", "--config", str(tiny_config), "--epochs", "1"]
    assert main(args + ["--out", str(out_a), "--seed", "1"]) == 0
    assert main(args + ["--out", str(out_b), "--seed", "2"]) == 0
    a = (out_a / "metrics.csv").read_text()
    b = (out_b / "metrics.csv").read_text()
    assert a != b  # random row reacts to the seed


def test_env_var_output_dir(tiny_config, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["run", "--config", str(tiny_config)]) == 0
    assert (env_dir / "metrics.csv").exists()


def test_flag_beats_env_var(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    out = tmp_path / "explicit"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_codebook_command_round_trips(tiny_config, tmp_path):
    out = tmp_path / "cb"
    assert main(["codebook", "--config", str(tiny_config), "--out", str(out)]) == 0
    text = (out / "codebook.txt").read_text()
    assert text == codebook_to_text(scenario_from_config(load_config(tiny_config)).codebook)
    assert len(text.splitlines()) == 1 + 100


def test_trace_command(tiny_config, tmp_path):
    out = tmp_path / "tr"
    assert main(["trace", "--config", str(tiny_config), "--out", str(out),
                 "--method", "tpe_ei", "--overhead", "0.4", "--speed", "1"]) == 0
    trace = (out / "trace_tpe_ei_eta0.4_s1.csv").read_text().splitlines()
    assert trace[0].startswith("t,true_row")
    assert len(trace) == 3  # header + total_slots lines


@pytest.mark.parametrize("method, noise_dbm", [("gp_ei", None), ("tpe_ei", None),
                                               ("ergodic", None), ("random", None),
                                               ("ergodic", -50.0)],
                         ids=["gp_ei", "tpe_ei", "ergodic", "random", "ergodic-noisy"])
def test_trace_is_the_matrix_episode(method, noise_dbm, tmp_path):
    """`ristrack trace` and `ristrack run` take one route: the traced episode
    is byte for byte the same episode cut from the matrix, for every method
    (the sweep's cell is overhead 1.0, whatever --overhead says), and with
    noise at -50 dBm, where it moves the sweep's picks."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("" if noise_dbm is None
                   else f"noise_power_dbm = {noise_dbm}\nmeasure_with_noise = true\n")
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path), "--method", method,
                 "--overhead", "0.4", "--speed", "2", "--epoch", "3"]) == 0
    loaded = load_config(cfg)

    def matrix_episode(noisy):
        config = dataclasses.replace(loaded, methods=(Method(method),), epochs=5,
                                     collect_timing=False, measure_with_noise=noisy)
        cell = run_matrix(config)[(Method(method), 1.0 if method == "ergodic" else 0.4, 2)]
        return cell[3 * config.total_slots:4 * config.total_slots]

    episode = matrix_episode(loaded.measure_with_noise)
    if noise_dbm is not None:
        assert episode != matrix_episode(False)
    emit_trace(episode, tmp_path / "from_matrix.csv", grid=loaded.grid)
    traced = tmp_path / f"trace_{method}_eta0.4_s2.csv"
    assert traced.read_bytes() == (tmp_path / "from_matrix.csv").read_bytes()


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert "PASS quantizer-batch-vs-rows" in out


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(ristrack.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_oracle_or_distance_modules():
    """Only `validate` needs the oracles, and they run on numpy alone; only a
    GP-EI score needs scipy.special, so importing the package loads no scipy
    subpackage.  scipy.spatial pulls in scipy.sparse and scipy.linalg, and
    scipy.integrate pulls in scipy.optimize and scipy.spatial."""
    for module, heavy in (("ristrack", ("scipy.special",)),
                          ("ristrack.cli", ("scipy.special", "scipy.spatial", "scipy.sparse",
                                            "scipy.stats", "scipy.integrate")),
                          ("ristrack.validate", ("scipy.stats", "scipy.integrate",
                                                 "scipy.optimize", "scipy.spatial"))):
        code = f"import sys, {module}; print([m for m in {heavy!r} if m in sys.modules])"
        assert _fresh_python(code).strip() == "[]", module


def test_scipy_special_loads_for_gp_ei_only_and_before_the_timer():
    """Episodes without GP-EI never import scipy.special.  A GP-EI episode
    imports it before its lanes' timer starts, so no slot's `elapsed`
    includes the import: every perf_counter call the search makes (the start
    and the pick of its one chunk) sees it loaded already."""
    code = """
import sys, time
import numpy as np
from ristrack import bench, tracker
from ristrack.config import ExperimentConfig
from ristrack.tracker import Method
config = ExperimentConfig(total_slots=2)
scenario = bench.scenario_from_config(config)
for method in (Method.TPE_EI, Method.ERGODIC, Method.RANDOM):
    tracker.run_episode(scenario, config, method, (0.2,), 1, np.random.default_rng(0))
print("scipy.special" in sys.modules)
real = time.perf_counter
loaded = []
tracker.time.perf_counter = lambda: loaded.append("scipy.special" in sys.modules) or real()
tracker.run_episode(scenario, config, Method.GP_EI, (0.2,), 1, np.random.default_rng(0))
print(loaded)
"""
    assert _fresh_python(code).split("\n")[:2] == ["False", "[True, True]"]


def test_bad_config_fails_with_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ristrack: error:") and err.count("\n") == 1


def test_missing_config_file_fails(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_init_config_writes_template(tmp_path):
    target = tmp_path / "template.cfg"
    assert main(["init-config", str(target)]) == 0
    assert "carrier_frequency_hz" in target.read_text()


def test_init_config_loads_to_run_defaults(tmp_path):
    target = tmp_path / "template.cfg"
    assert main(["init-config", str(target)]) == 0
    assert load_config(target) == ExperimentConfig()


@pytest.mark.parametrize("bad_line", [
    "speeds = 0 -3",
    "speeds = 1 0",
    "overheads = 0",
    "overheads = 1.5",
    "methods =",
    "overheads =",
    "speeds =",
    "speeds = 1 1",
    "overheads = 0.2 0.2",
    "methods = random random",
    "total_slots = 0",
    "epochs = 0",
    "master_seed = -1",
    "tpe_gamma = 1.5",
    "tpe_gamma = 0",
    "gp_length_scale = 0",
    "kde_bandwidth = -1",
    "kde_bandwidth = nan",
    "kde_bandwidth = inf",
    "gp_length_scale = inf",
    "gp_length_scale = nan",
    "carrier_frequency_hz = nan",
    "element_spacing_m = inf",
    "noise_power_dbm = nan",
    "noise_power_dbm = inf",
    "cell_size_m = nan",
    "cell_height_m = nan",
])
def test_out_of_range_config_fails_before_running(tmp_path, capsys, bad_line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + bad_line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ristrack: error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["carrier_frequency_hz", "noise_power_dbm", "element_spacing_m",
                                 "cell_size_m", "cell_height_m", "kde_bandwidth",
                                 "gp_length_scale"])
def test_non_finite_config_number_is_rejected_by_name(tmp_path, capsys, key, value):
    """The error names the field the key sets, before any output is made."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + f"measure_with_noise = true\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert KEYS[key][1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--speed", "0"),
    ("--speed", "-2"),
    ("--overhead", "0"),
    ("--overhead", "1.5"),
    ("--epoch", "-1"),
    ("--seed", "-1"),
    ("--epochs", "0"),
])
def test_out_of_range_trace_flags_fail_before_running(tiny_config, tmp_path, capsys, flag, value):
    """The trace flags go through the same range checks as a config file,
    and the error names the flag that was typed."""
    out = tmp_path / "o"
    assert main(["trace", "--config", str(tiny_config), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ristrack: error:") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--epochs", "0")])
def test_out_of_range_run_flags_name_the_flag(tiny_config, tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    assert main(["run", "--config", str(tiny_config), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ristrack: error: {flag} {value}:") and err.count("\n") == 1
    assert not out.exists()


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(ristrack.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 12
