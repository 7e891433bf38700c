import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid import io as tio
from loadsysid import pipeline
from loadsysid.cli import (
    EXIT_CONFIG,
    EXIT_IDENT,
    EXIT_OK,
    EXIT_SIMULATION,
    _parser,
    main,
)
from loadsysid.config import default_config_text, load_config
from loadsysid.errors import (
    ConfigError,
    RiccatiError,
    SimulationError,
    SpectrumError,
    ToolkitError,
)
from loadsysid.greybox import evaluate_candidate
from loadsysid.pipeline import build_system, make_init, run_diagnose, run_simulate
from loadsysid.series import MeasurementSeries, detrend

from loops import identify_lbfgsb

SHORT_CFG = """
case = wscc9
seed = 2
scenario.duration = 5.0
scenario.internal.variance = 0.002
scenario.internal.start = 1.5
scenario.internal.end = 5.0
scenario.internal.hold = 0.01
analysis.start = 1.5
analysis.end = 5.0
diagnostics.pe_order_max = 55
motor.X = 3.679
motor.Xp = 0.296
motor.Td0p = 0.576
motor.Tj = 2.0
motor.s0 = 0.01
"""


# Criterion 12's configuration: the reference experiment on a 6 s record
# with one optimizer start.
CRITERION_12_CFG = default_config_text() + """
scenario.duration = 6.0
scenario.internal.end = 6.0
analysis.end = 6.0
ident.restarts = 1
"""


@pytest.fixture(scope="module")
def short_cfg():
    return load_config(SHORT_CFG)


@pytest.fixture(scope="module")
def short_bundle(short_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    series, system = run_simulate(short_cfg, out)
    return short_cfg, out, series, system


def test_default_config_parses():
    cfg = load_config(default_config_text())
    assert cfg.scenario.internal is not None
    assert cfg.motor.X == 3.679


def test_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        load_config("just some words\n")
    with pytest.raises(ConfigError):
        load_config(SHORT_CFG + "\ndiagnostics.band_high_hz = 80\n")
    with pytest.raises(ConfigError, match=r"\['ident.restart', 'motor.x'\]"):
        load_config(SHORT_CFG + "ident.restart = 1\nmotor.x = 3\n")


@pytest.mark.parametrize("line", ["ident.q = -1", "ident.q = nan",
                                  "ident.rm = -1e-8", "ident.burn_in = -5"])
def test_config_rejects_negative_or_non_finite_ident_values(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        load_config(SHORT_CFG + line + "\n")


def test_config_missing_case_file():
    with pytest.raises(ConfigError):
        load_config("case = /nonexistent/path.case\nmotor.X = 1\n"
                    "motor.Xp = 0.5\nmotor.Td0p = 1\nmotor.Tj = 1\n")


def test_seed_override():
    cfg = load_config(SHORT_CFG, seed_override=77)
    assert cfg.seed == 77
    assert cfg.scenario.internal.seed == 77


def test_simulate_writes_row_count_and_equilibrium(short_bundle, tmp_path):
    cfg, out, series, system = short_bundle
    assert len(series) == 501  # 5 s at 10 ms, inclusive endpoints
    text = (Path(out) / "equilibrium.txt").read_text()
    assert "slip" in text and "eigenvalues" in text
    loaded = tio.read_series(Path(out) / "measurement.csv")
    assert np.array_equal(loaded.data, series.data)
    assert loaded.ts == series.ts


def test_zero_noise_config_produces_flat_record(tmp_path):
    cfg = load_config("""
case = wscc9
scenario.duration = 1.0
motor.X = 3.679
motor.Xp = 0.296
motor.Td0p = 0.576
motor.Tj = 2.0
motor.s0 = 0.01
""")
    series, _ = run_simulate(cfg, tmp_path)
    assert np.max(np.abs(series.data - series.data[0])) < 1e-8


def test_series_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ser = MeasurementSeries(ts=0.01, time=np.arange(50) * 0.01,
                            data=rng.standard_normal((50, 4)),
                            meta={"seed_internal": 5})
    path = tmp_path / "ser.csv"
    tio.write_series(path, ser)
    back = tio.read_series(path)
    assert np.array_equal(back.data, ser.data)
    assert np.array_equal(back.time, ser.time)
    det = detrend(ser)
    tio.write_series(path, det)
    back2 = tio.read_series(path)
    assert back2.detrended
    # the written payload (deltas and means) round-trips bit exactly; the
    # absolute columns are reconstructed from them
    assert np.array_equal(back2.deltas, det.deltas)
    assert np.array_equal(back2.means, det.means)
    assert np.allclose(back2.data, det.data, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_series_roundtrip_random(seed):
    import tempfile

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    ts = float(rng.uniform(0.001, 0.1))
    scale = 10.0 ** float(rng.integers(-6, 6))
    ser = MeasurementSeries(ts=ts, time=np.arange(n) * ts,
                            data=rng.standard_normal((n, 4)) * scale)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.csv"
        tio.write_series(path, ser)
        back = tio.read_series(path)
    assert np.array_equal(back.data, ser.data)


def test_write_table_array_rows_match_the_per_value_path(tmp_path):
    # A float64 array is written through tolist and repr; the same rows as
    # a list of arrays go through _fmt one value at a time.
    rng = np.random.default_rng(0)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1e300, -1e300,
               1e-300, 1 / 3]
    rows = np.vstack([np.reshape(special, (2, 5)),
                      rng.standard_normal((20, 5))
                      * 10.0 ** rng.integers(-300, 300, (20, 5))])
    columns = [f"c{j}" for j in range(5)]
    tio.write_table(tmp_path / "array.csv", columns, rows, ["x=1"])
    tio.write_table(tmp_path / "values.csv", columns, list(rows), ["x=1"])
    text = (tmp_path / "array.csv").read_text()
    assert text == (tmp_path / "values.csv").read_text()
    assert text.splitlines()[2:4] == ["nan,inf,-inf,-0.0,5e-324",
                                      "-5e-324,1e+300,-1e+300,1e-300,"
                                      "0.3333333333333333"]
    _, _, back = tio.read_table(tmp_path / "array.csv")
    assert np.array_equal(back, rows, equal_nan=True)


def test_frf_csv_layout(tmp_path):
    from loadsysid.freq import FrequencyResponse

    omega = np.array([1.0, 2.0])
    vals = np.arange(8, dtype=float).reshape(2, 2, 2) + 1j
    frf = FrequencyResponse(omega, vals)
    path = tmp_path / "frf.csv"
    tio.write_frf(path, frf, label="network")
    comments, header, rows = tio.read_table(path)
    assert header == ["omega_rad_s", "re_11", "im_11", "re_12", "im_12",
                      "re_21", "im_21", "re_22", "im_22"]
    assert rows[0][1] == 0.0 and rows[0][3] == 1.0  # row-major entries


def test_diagnose_reports(short_bundle):
    cfg, out, series, system = short_bundle
    diag = run_diagnose(cfg, out, series, system)
    assert diag["pe"].verified_order > 50
    assert not diag["pitfall"].feedforward_dominant
    text = (Path(out) / "diagnostics.txt").read_text()
    assert "closed-loop pitfall regime" in text


def test_external_dominant_data_flags_feedforward(tmp_path):
    cfg = load_config("""
case = wscc9
seed = 4
scenario.duration = 6.0
scenario.internal.variance = 1e-8
scenario.internal.start = 0.5
scenario.internal.end = 6.0
scenario.internal.hold = 0.01
scenario.external.bus = 8
scenario.external.variance = 0.002
scenario.external.start = 0.5
scenario.external.end = 6.0
scenario.external.hold = 0.01
analysis.start = 0.5
analysis.end = 6.0
motor.X = 3.679
motor.Xp = 0.296
motor.Td0p = 0.576
motor.Tj = 2.0
motor.s0 = 0.01
""")
    series, system = run_simulate(cfg, tmp_path)
    diag = run_diagnose(cfg, tmp_path, series, system)
    pit = diag["pitfall"]
    assert pit.feedforward_dominant
    # in this regime the load response explains the data better
    assert pit.cw_nrmse_load < pit.cw_nrmse


def test_make_init_modes(short_cfg, wscc_eq):
    truth = wscc_eq.params
    assert make_init(short_cfg, truth, 1) != truth  # default perturbed
    from dataclasses import replace
    cfg_truth = replace(short_cfg, ident_init="truth")
    assert make_init(cfg_truth, truth, 1) == truth
    cfg_exp = replace(short_cfg, ident_init="explicit:4.0,0.3,0.6,2.1,0.012")
    init = make_init(cfg_exp, truth, 1)
    assert init.X == 4.0 and init.s0 == 0.012


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_CONFIG


def test_cli_rejects_bad_seed_range():
    rc = main(["reproduce", "--seeds", "5..2"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("argv", [["check", "--seed", "3"],
                                  ["simulate", "--seeds", "1..2"]])
def test_cli_rejects_options_the_command_ignores(argv):
    # Parsed only: where the parser accepts the option, main would run the
    # command.
    with pytest.raises(SystemExit) as info:
        _parser().parse_args(argv)
    assert info.value.code == 2


def test_constant_record_degenerate_diagnostics():
    from loadsysid.diagnostics import persistent_excitation_order

    u = np.full((600, 2), 1.0)
    rep = persistent_excitation_order(u, 10)
    assert rep.verified_order <= 1


def test_cli_simulate_runs_as_subprocess(tmp_path):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("""
case = wscc9
scenario.duration = 1.0
motor.X = 3.679
motor.Xp = 0.296
motor.Td0p = 0.576
motor.Tj = 2.0
motor.s0 = 0.01
""")
    proc = subprocess.run(
        [sys.executable, "-m", "loadsysid.cli", "simulate",
         "--config", str(cfg_path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "measurement.csv").is_file()


def test_package_import_leaves_out_scipy_signal():
    # scipy.signal costs about 0.7 s and 25 MiB at import, paid by every run.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, loadsysid.pipeline, loadsysid.cli, loadsysid.freq; "
         "print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest_at_threads(script, threads):
    """stdout of ``script`` run in a fresh interpreter with every BLAS
    thread variable at ``threads``."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, threads))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_simulation_and_linearization_are_blas_thread_invariant():
    # A 2 s record and the linearization, hashed at one and two BLAS threads.
    script = (
        "import hashlib\n"
        "from dataclasses import replace\n"
        "from loadsysid.config import default_config_text, load_config\n"
        "from loadsysid.pipeline import build_system\n"
        "from loadsysid.sim import linearize_system, simulate\n"
        "cfg = load_config(default_config_text())\n"
        "case, _, eq = build_system(cfg)\n"
        "model = linearize_system(case, eq, disturbance_bus=8)\n"
        "sc = replace(cfg.scenario, duration=2.0,\n"
        "             internal=replace(cfg.scenario.internal, end=2.0))\n"
        "h = hashlib.sha256(simulate(case, eq, sc).data.tobytes())\n"
        "for m in (model.a, model.b, model.c, model.d):\n"
        "    h.update(m.tobytes())\n"
        "print(h.hexdigest())\n"
    )
    assert (_digest_at_threads(script, "1")
            == _digest_at_threads(script, "2"))


def test_identification_is_blas_thread_invariant():
    # A short pem-a identification of a 3 s record: the estimate and the
    # evaluation count at one and two BLAS threads.
    script = (
        "from dataclasses import replace\n"
        "from loadsysid import pipeline\n"
        "from loadsysid.config import default_config_text, load_config\n"
        "from loadsysid.greybox import FREE, identify\n"
        "from loadsysid.series import detrend\n"
        "from loadsysid.sim import simulate\n"
        "cfg = load_config(default_config_text())\n"
        "case, _, eq = pipeline.build_system(cfg)\n"
        "sc = replace(cfg.scenario, duration=4.5,\n"
        "             internal=replace(cfg.scenario.internal, end=4.5))\n"
        "win = detrend(simulate(case, eq, sc).window(1.5, 4.5))\n"
        "r = identify(win, pipeline.make_init(cfg, eq.params, 1),\n"
        "             noise=pipeline._noise_for(cfg, 'pem-a'), n_restarts=1,\n"
        "             maxiter=10)\n"
        "print([getattr(r.params, n).hex() for n in FREE],\n"
        "      r.loss.hex(), r.meta['n_eval'])\n"
    )
    assert (_digest_at_threads(script, "1")
            == _digest_at_threads(script, "2"))


def test_cli_pins_blas_threads_unless_set():
    # Unset variables are set to 1 before numpy loads; a caller's value
    # stays.
    script = ("import os; os.environ['OMP_NUM_THREADS'] = '2'; "
              "import loadsysid.cli; "
              "print(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
              "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2", "1"]


def test_reproduce_leaves_scipy_optimize_unloaded(tmp_path):
    # The package never imports scipy.optimize (see the import guard
    # below).  The lazy greybox.minimize alias, which perfbench traces by
    # name, still resolves to scipy's function.
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(CRITERION_12_CFG)
    argv = ["reproduce", "--config", str(cfg_path), "--seed", "1",
            "--out", str(tmp_path / "out")]
    script = ("import importlib, sys\n"
              "from loadsysid import cli\n"
              f"rc = cli.main({argv!r})\n"
              "loaded = 'scipy.optimize' in sys.modules\n"
              "import scipy.optimize\n"
              "alias = importlib.import_module('loadsysid.greybox').minimize\n"
              "print(rc, loaded, alias is scipy.optimize.minimize)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_OK), "False", "True"]


def test_reproduce_scores_an_unstable_predictor_as_a_result(tmp_path):
    # On seed 13 the pem-b estimate's predictor is unstable on the held-out
    # record.
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(CRITERION_12_CFG)
    out = tmp_path / "out"
    rc = main(["reproduce", "--config", str(cfg_path), "--seed", "13",
               "--out", str(out)])
    assert rc == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "validation_quad_loss=inf  (unstable predictor)" in summary
    # Report numbers are plain Python numbers, not numpy scalar reprs.
    for path in out.iterdir():
        assert "np." not in path.read_text(), path.name


def test_reproduce_counts_pem_b_unstable_predictors(tmp_path):
    # Seed 8.  The penalty counts repeat in a second identification of the
    # same record and stay out of the identification report.
    cfg = load_config(CRITERION_12_CFG, seed_override=8)
    run = pipeline.run_reproduce(cfg, tmp_path / "a")
    counts = run["results"]["pem-b"].meta["penalties"]
    assert counts["unstable_predictor"] > 0
    again = pipeline.run_identify(cfg, tmp_path / "b", run["series"],
                                  run["system"], "pem-b")
    assert again.meta["penalties"] == counts
    assert "penalt" not in (tmp_path / "a" / "ident_pem-b.txt").read_text()


@pytest.mark.parametrize("method", ["pem-a", "tm"])
def test_search_reaches_the_lbfgsb_oracles_criterion(tmp_path, method):
    # The search from the configured init ends no higher than the
    # L-BFGS-B search it replaced, on criterion 12's configuration.
    for seed in (1, 2, 3):
        cfg = load_config(CRITERION_12_CFG, seed_override=seed)
        series, system = run_simulate(cfg, tmp_path)
        result = pipeline.run_identify(cfg, tmp_path, series, system, method)
        oracle = identify_lbfgsb(
            detrend(series.window(*cfg.analysis_window)),
            make_init(cfg, system[2].params, seed),
            pipeline._noise_for(cfg, method), cfg.ident_burn_in,
            cfg.ident_maxiter, method)
        assert result.loss <= oracle + 1e-8 * abs(oracle)


def test_trace_holds_the_criterion_at_each_iterate(tmp_path):
    # The search accepts only a step that lowers the criterion, so the
    # criterion at its iterates falls.  pem-b, whose search also meets
    # penalised candidates and rejected rounds.
    cfg = load_config(CRITERION_12_CFG, seed_override=1)
    series, system = run_simulate(cfg, tmp_path)
    result = pipeline.run_identify(cfg, tmp_path, series, system, "pem-b")
    assert len(result.trace) > 10
    assert np.all(np.diff(result.trace) <= 0.0)
    _, _, rows = tio.read_table(tmp_path / "trace_pem-b.csv")
    assert np.array_equal(rows[:, 1], result.trace)


def test_cli_rejects_seed_with_seed_range(tmp_path):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(CRITERION_12_CFG)
    out = tmp_path / "out"
    rc = main(["reproduce", "--config", str(cfg_path), "--seeds", "1..1",
               "--seed", "5", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_cli_rejects_a_negative_seed(tmp_path):
    out = tmp_path / "out"
    rc = main(["reproduce", "--seed", "-1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("line", ["ident.free = X,Xq",
                                  "ident.free = X,Xp,Td0p,Tj,s0",
                                  "ident.init = explicit:1.0,0.2",
                                  "ident.init = perturbed:nan",
                                  "ident.restart = 1",
                                  "ident.q = -1",
                                  "ident.maxiter = -1",
                                  "ident.restarts = -3",
                                  "ident.restarts = 0",
                                  "seed = -1",
                                  "scenario.ts = 0",
                                  "scenario.dt_integration = 0",
                                  "scenario.duration = inf",
                                  "scenario.internal.variance = nan",
                                  "scenario.external.variance = nan",
                                  "scenario.external.direction_deg = nan",
                                  "scenario.measurement.p = nan",
                                  "scenario.internal.hold = nan",
                                  "scenario.internal.hold = 0.0007",
                                  "scenario.external.start = soon",
                                  "analysis.start = nan",
                                  "diagnostics.band_high_hz = nan",
                                  "diagnostics.segment = 0",
                                  "diagnostics.segment = -64",
                                  "diagnostics.info_segment = -1",
                                  "diagnostics.pe_order_max = 0",
                                  "diagnostics.pe_order_max = -5",
                                  "diagnostics.pad_factor = 0",
                                  "motor.X = nan",
                                  "motor.Tj = -2",
                                  "scenario.external.variance = 0.001\n"
                                  "scenario.external.bus = 99",
                                  "analysis.end = 1.0",
                                  "diagnostics.band_low_hz = 20",
                                  # between the bins at 0 and 3.125 Hz
                                  "diagnostics.band_low_hz = 1.0\n"
                                  "diagnostics.band_high_hz = 2.0"])
def test_reproduce_rejects_bad_ident_keys_before_any_stage(tmp_path, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(default_config_text() + "\n" + line + "\n")
    out = tmp_path / "out"
    rc = main(["reproduce", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_reproduce_rejects_a_config_without_the_slip_at_load(tmp_path,
                                                              capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(CRITERION_12_CFG.replace("motor.s0 = 0.01\n", ""))
    out = tmp_path / "out"
    rc = main(["reproduce", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "missing required key 'motor.s0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage_fn, exc, code, stage", [
    ("run_simulate", SimulationError("diverged"), EXIT_SIMULATION, "simulate"),
    ("run_diagnose", SpectrumError("short record"), EXIT_CONFIG, "diagnose"),
    ("run_identify", RiccatiError("no gain"), EXIT_IDENT, "identify:pem-a"),
    ("run_identify", ConfigError("bad init"), EXIT_CONFIG, "identify:pem-a"),
    ("validation_record", ToolkitError("held out"), EXIT_SIMULATION,
     "simulate:validation"),
])
def test_reproduce_exit_code_follows_failure_type_then_stage(
        tmp_path, monkeypatch, capsys, stage_fn, exc, code, stage):
    stubs = {"run_simulate": (None, None), "run_diagnose": {},
             "run_identify": None, "validation_record": None}
    for name, value in stubs.items():
        monkeypatch.setattr(pipeline, name,
                            lambda *a, value=value, **k: value)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(pipeline, stage_fn, fail)
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(SHORT_CFG)
    rc = main(["reproduce", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == code
    assert f"stage {stage} failed: {exc}" in capsys.readouterr().err
    assert exc.stage == stage


@pytest.mark.parametrize("method", ["pem-a", "tm"])
def test_run_identify_writes_the_estimates_final_predictions(
        short_bundle, tmp_path, method):
    from dataclasses import replace

    cfg, _, series, system = short_bundle
    cfg = replace(cfg, ident_restarts=1, ident_maxiter=3)
    result = pipeline.run_identify(cfg, tmp_path, series, system, method)
    win = detrend(series.window(*cfg.analysis_window))
    u = np.column_stack([win.delta("v"), win.delta("theta")])
    y = np.column_stack([win.delta("p"), win.delta("q")])
    params = replace(result.params, V0=float(win.means[0]),
                     theta0=float(win.means[1]))
    _, _, yhat, _, _ = evaluate_candidate(
        params, pipeline._noise_for(cfg, method), u, y, win.ts,
        cfg.ident_burn_in, output_error=(method == "tm"))
    assert np.array_equal(result.predictions, yhat)


def test_benchmark_trace_targets_exist():
    # perfbench wraps these functions by name; importing perfbench/run.py
    # pins the BLAS thread variables, hence the subprocess.
    script = (
        "import importlib, json, sys\n"
        "sys.path[:0] = ['perfbench', 'src']\n"
        "import run\n"
        "names = [(t.module, t.func) for t in run.targets(True)]\n"
        "names += [('loadsysid.pipeline', '_noise_for'),\n"
        "          ('loadsysid.sim', '_rhs')]\n"
        "missing = []\n"
        "for module, func in names:\n"
        "    try:\n"
        "        getattr(importlib.import_module(module), func)\n"
        "    except AttributeError:\n"
        "        missing.append(module + '.' + func)\n"
        "print(json.dumps([len(names), missing]))\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, missing = json.loads(proc.stdout)
    assert count > 2 and missing == []


def _benchmark_round_passes(tmp_path, workload):
    """One traced round of a perfbench workload passes its own checks: the
    calls it makes into the package keep their signatures and return
    shapes.  It runs on copies of src/ and perfbench/, so its reports land
    under ``tmp_path``."""
    import shutil

    root = Path(__file__).resolve().parents[1]
    skip = shutil.ignore_patterns("__pycache__", "perfbench-results")
    for d in ("src", "perfbench"):
        shutil.copytree(root / d, tmp_path / d, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr


def test_benchmark_reproduce_workload_runs(tmp_path):
    _benchmark_round_passes(tmp_path, "reproduce")


@pytest.mark.parametrize("workload", ["simulate", "identify"])
def test_benchmark_workload_runs(tmp_path, workload):
    # simulate diagnoses through freq's load model; identify scores the
    # truth through evaluate_candidate and _noise_for and reads the EMF pair
    # for its recovery envelope.
    _benchmark_round_passes(tmp_path, workload)


# Public names that only tests call, each with the reason it stays.
TEST_ONLY_NAMES = {
    "freq.closed_loop_response":
        "the paper's effective voltage-to-current relation with both "
        "disturbance sources active",
    "freq.superposition_decompose":
        "the paper's split of a closed-loop record into the internal and "
        "external disturbance paths",
    "freq.load_noise_frf":
        "the paper's internal-disturbance path of the load model",
    "io.read_series":
        "the reader of the measurement format, which the bit-exact "
        "round-trip tests need",
}


def test_every_public_name_has_a_package_caller():
    """Each public module-level function and class of the package is
    referenced in src/, perfbench/ or scripts/ outside its own definition
    (perfbench names traced functions as strings), or is listed in
    ``TEST_ONLY_NAMES``."""
    root = Path(__file__).resolve().parents[1]
    refs = {}
    for d in ("src", "perfbench", "scripts"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    name = node.value
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    uncalled = []
    for path in sorted((root / "src" / "loadsysid").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in refs.get(node.name, [])):
                uncalled.append(f"{path.stem}.{node.name}")
    assert sorted(uncalled) == sorted(TEST_ONLY_NAMES)


# Dataclass fields that no package code reads, each with the reason it stays.
WRITE_ONLY_FIELDS = {
    "network.PowerFlowSolution.iterations":
        "the power-flow tests read the Newton iteration count",
    "network.PowerFlowSolution.max_mismatch":
        "the power-flow tests read the converged mismatch",
    "sim.SystemEquilibrium.slack_gen_bus":
        "the full-network oracles place the slack machine by it",
    "sim.SystemEquilibrium.y_dyn":
        "the full-network oracles solve the dynamic network with it",
}


def test_every_dataclass_field_is_read():
    """Each field of a dataclass of the package is read in src/,
    perfbench/ or scripts/ (an attribute load, or a string constant such
    as a ``getattr`` name), or is listed in ``WRITE_ONLY_FIELDS``."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for d in ("src", "perfbench", "scripts"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
    unread = []
    for path in sorted((root / "src" / "loadsysid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list)):
                continue
            unread += [f"{path.stem}.{node.name}.{item.target.id}"
                       for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and item.target.id not in read]
    assert sorted(unread) == sorted(WRITE_ONLY_FIELDS)


# Keyword options that no package code sets, each with the reason it stays.
UNSET_OPTIONS = {
    "freq.reduce_to_load.disturbance_bus":
        "the paper's external-disturbance path: the bus of the injection",
    "freq.reduce_to_load.direction_deg":
        "the paper's external-disturbance path: the injection's direction",
    "freq.load_noise_frf.noise":
        "the paper's internal-disturbance path: the noise channel",
    "io.write_frf.label":
        "write_frf has no package caller and stays while perfbench traces it",
}


def test_every_keyword_option_has_a_package_caller():
    """Each defaulted parameter of a public module-level function of the
    package is passed at some call in src/, perfbench/ or scripts/ (by
    keyword, by position at or after its index, or through ``*`` or
    ``**``), or is listed in ``UNSET_OPTIONS``.  Calls match by name."""
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for d in ("src", "perfbench", "scripts"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)

    def passes(call, index, param):
        return (any(k.arg in (param, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index))

    unset = []
    for path in sorted((root / "src" / "loadsysid").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            options = [(i, a.arg) for i, a in enumerate(positional)
                       if i >= first]
            options += [(None, a.arg) for a, d
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
            for index, param in options:
                if not any(passes(call, index, param)
                           for call in calls.get(node.name, [])):
                    unset.append(f"{path.stem}.{node.name}.{param}")
    assert sorted(unset) == sorted(UNSET_OPTIONS)


def test_only_the_perfbench_alias_imports_scipy_optimize():
    """No module of the package imports ``scipy.optimize`` except the lazy
    ``greybox.minimize`` alias in ``greybox.__getattr__``, which perfbench
    traces by name."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "loadsysid").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
                       for n in names):
                    found.append(f"{path.stem}.{getattr(top, 'name', '')}")
    assert found == ["greybox.__getattr__"]
