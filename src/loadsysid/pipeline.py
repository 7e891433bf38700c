"""Batch pipelines: simulate, diagnose, identify and the full reproduction.

Every stage is a plain function writing its artifacts into a directory;
outputs depend only on the configuration content, so two runs with the same
config are byte identical.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from loadsysid import io as tio
from loadsysid.diagnostics import (
    estimate_spectrum,
    informativeness_test,
    persistent_excitation_order,
    pitfall_metrics,
)
from loadsysid.config import parse_init
from loadsysid.errors import ConfigError, ToolkitError, UnstablePredictorError
from loadsysid.greybox import (
    FREE_ALL,
    FREE_DEFAULT,
    NoiseConfig,
    _series_arrays,
    evaluate_candidate,
    identify,
)
from loadsysid.network import load_case, solve_power_flow
from loadsysid.series import detrend
from loadsysid.sim import init_equilibrium, linearize_system, simulate

METHODS = ("pem-a", "pem-b", "tm")

# The held-out record shifts every noise seed by this much.
VALIDATION_SEED_OFFSET = 7000


def build_system(cfg):
    case = load_case(cfg.case_text)
    pf = solve_power_flow(case)
    eq = init_equilibrium(case, pf, cfg.motor)
    return case, pf, eq


def _param_line(name, true_v, est_v):
    rel = abs(est_v / true_v - 1.0) if true_v != 0 else math.inf
    return f"{name:6s} true {true_v:12.6f}  est {est_v:12.6f}  relerr {100 * rel:8.3f}%"


def run_simulate(cfg, out_dir, system=None):
    """Simulate the configured scenario; write the record and an
    equilibrium summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    case, pf, eq = system if system is not None else build_system(cfg)
    series = simulate(case, eq, cfg.scenario)
    tio.write_series(out / "measurement.csv", series)
    model = linearize_system(case, eq)
    eigs = sorted(model.eigenvalues(), key=lambda z: (z.real, abs(z.imag)))
    lines = [
        "equilibrium summary",
        f"slip            = {eq.params.s0!r}",
        f"emf_x           = {eq.params.Exp0!r}",
        f"emf_y           = {eq.params.Eyp0!r}",
        f"torque          = {eq.tm!r}",
        f"v0              = {eq.params.V0!r}",
        f"theta0          = {eq.params.theta0!r}",
        f"remainder_shunt = {eq.remainder_shunt!r}",
        f"derivative_norm = {eq.deriv_norm!r}",
        "eigenvalues (continuous, rad/s):",
    ]
    lines += [f"  {z.real:+.6f} {z.imag:+.6f}j" for z in eigs]
    tio.write_report(out / "equilibrium.txt", lines)
    return series, (case, pf, eq)


def run_diagnose(cfg, out_dir, series, system):
    """Persistent-excitation, informativeness and loop-consistency reports."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    case, pf, eq = system
    win = detrend(series.window(*cfg.analysis_window))

    u, y, _ = _series_arrays(win)
    pe = persistent_excitation_order(u, cfg.pe_order_max)
    tio.write_table(
        out / "pe_report.csv",
        ["order", "condition"],
        list(zip(pe.orders, pe.conditions)),
        comments=[f"verified_order={pe.verified_order}",
                  f"threshold={pe.threshold!r}"],
    )

    spec_z = estimate_spectrum(np.hstack([u, y]), win.ts,
                               segment_len=cfg.info_segment)
    info = informativeness_test(spec_z, band_hz=cfg.band_hz)
    tio.write_table(
        out / "informativeness.csv",
        ["freq_hz", "eig_ratio"],
        list(zip(info.omega / (2 * math.pi), info.eig_ratio)),
        comments=[f"informative={int(info.informative)}",
                  f"floor={info.floor!r}",
                  f"band_hz={cfg.band_hz[0]},{cfg.band_hz[1]}"],
    )

    pit = pitfall_metrics(win, case, eq, segment_len=cfg.segment,
                          pad_factor=cfg.pad_factor)
    tio.write_table(
        out / "loop_overlay.csv",
        ["time", "dix_meas", "diy_meas", "dix_network", "diy_network"],
        np.column_stack([pit.time, pit.i_measured, pit.i_network]),
        comments=[f"cw_nrmse={pit.cw_nrmse!r}",
                  f"cw_nrmse_load={pit.cw_nrmse_load!r}"],
    )
    tio.write_table(
        out / "loop_bins.csv",
        ["freq_hz", "coherence", "dist_network", "dist_load"],
        np.column_stack([pit.omega / (2 * math.pi), pit.coherence,
                         pit.dist_network, pit.dist_load]),
    )
    verdict = [
        "diagnostics verdict",
        f"persistent_excitation_order > {pe.verified_order - 1}: "
        f"verified {pe.verified_order}",
        f"informative = {info.informative} "
        f"(min eig ratio {float(info.eig_ratio.min())!r}, "
        f"floor {info.floor!r})",
        f"loop_consistency_nrmse = {pit.cw_nrmse!r}",
        f"load_response_nrmse = {pit.cw_nrmse_load!r}",
        "regression target = "
        + ("network response (closed-loop pitfall regime)"
           if not pit.feedforward_dominant else "feedforward-dominant"),
    ]
    if pit.feedforward_dominant:
        verdict.append("flag: feedforward-dominant")
    tio.write_report(out / "diagnostics.txt", verdict)
    return {"pe": pe, "informativeness": info, "pitfall": pit, "window": win}


def make_init(cfg, truth, seed):
    """Initial parameter vector per the configured init mode."""
    mode, value = parse_init(cfg.ident_init)
    if mode == "truth":
        return truth
    if mode == "perturbed":
        frac = value / 100.0
        rng = np.random.default_rng(seed + 20000)
        vals = {}
        for name in FREE_DEFAULT:
            vals[name] = getattr(truth, name) * (1.0 + frac * rng.uniform(-1, 1))
        if vals["Xp"] >= vals["X"]:
            vals["Xp"] = vals["X"] / 3.0
        return replace(truth, **vals)
    return replace(truth, **value)


def _noise_for(cfg, method):
    channel = {"pem-a": "torque", "pem-b": "emf-wrong", "tm": "torque"}[method]
    mvar = cfg.scenario.measurement_variance
    rm = max(cfg.ident_rm, *mvar[2:], 1e-12)
    return NoiseConfig(q=cfg.ident_q, rm=rm, channel=channel,
                       input_variance=mvar[:2])


def run_identify(cfg, out_dir, series, system, method):
    """One identification method on a simulated record, with reports."""
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    case, pf, eq = system
    truth = eq.params
    win = detrend(series.window(*cfg.analysis_window))
    init = make_init(cfg, truth, cfg.seed)
    noise = _noise_for(cfg, method)
    result = identify(win, init, noise=noise, free=cfg.ident_free,
                      n_restarts=cfg.ident_restarts,
                      burn_in=cfg.ident_burn_in, seed=cfg.seed,
                      maxiter=cfg.ident_maxiter, method=method)

    est = result.params
    lines = [
        f"identification report  method={method}  channel={noise.channel}"
        + ("  (gain fixed to zero)" if method == "tm" else ""),
        f"criterion = {result.loss!r}",
        f"quadratic_loss = {result.quad_loss!r}",
        f"initial_criterion = {result.initial_loss!r}",
        f"converged = {result.converged}",
        f"fit_p_percent = {result.fit['p']!r}",
        f"fit_q_percent = {result.fit['q']!r}",
        f"at_bound = {','.join(result.at_bound) if result.at_bound else '-'}",
        f"seed = {cfg.seed}",
        "starts:",
    ]
    lines += [f"  start {s['start']}: nit = {s['nit']}  "
              f"chains = {s['chains']}  rejected = {s['rejected']}  "
              f"status = {s['status']}"
              + ("  (chosen)" if s["start"] == result.meta["chosen_start"]
                 else "")
              for s in result.starts]
    lines += ["parameters (true vs estimated):"]
    lines += [_param_line(n, getattr(truth, n), getattr(est, n))
              for n in FREE_ALL]
    tio.write_report(out / f"ident_{method}.txt", lines)
    tio.write_table(
        out / f"trace_{method}.csv",
        ["iteration", "criterion"],
        list(enumerate(result.trace)),
    )

    _, y, _ = _series_arrays(win)
    yhat = result.predictions
    tio.write_table(
        out / f"fit_{method}.csv",
        ["time", "dp_meas", "dp_pred", "dq_meas", "dq_pred"],
        np.column_stack([win.time, y[:, 0], yhat[:, 0], y[:, 1], yhat[:, 1]]),
        comments=[f"method={method}"],
    )
    return result


def validation_record(cfg, system):
    """Detrended analysis window of the held-out record: the configured
    scenario with every noise seed shifted by ``VALIDATION_SEED_OFFSET``."""
    case, pf, eq = system
    scenario = cfg.scenario
    offset = VALIDATION_SEED_OFFSET
    val_scenario = replace(
        scenario,
        internal=replace(scenario.internal, seed=cfg.seed + offset)
        if scenario.internal else None,
        external=replace(scenario.external, seed=cfg.seed + offset + 1)
        if scenario.external else None,
        measurement_seed=scenario.measurement_seed + offset,
    )
    series = simulate(case, eq, val_scenario)
    return detrend(series.window(*cfg.analysis_window))


def validation_loss(cfg, system, result, method, record):
    """Quadratic prediction loss of a fitted model on the held-out
    ``record``, or ``math.inf`` if its predictor is unstable there.
    ``system`` is unused; it keeps ``method`` fourth, as perfbench reads it."""
    u, y, operating_point = _series_arrays(record)
    params = replace(result.params, **operating_point)
    noise = _noise_for(cfg, method)
    try:
        _, quad, _, _, _ = evaluate_candidate(
            params, noise, u, y, record.ts, cfg.ident_burn_in,
            output_error=(method == "tm"),
        )
    except UnstablePredictorError:
        return math.inf
    return quad


def run_reproduce(cfg, out_dir):
    """Full pipeline: simulate, diagnose, identify with all three methods.

    A failure propagates with its own type and a ``stage`` attribute naming
    the stage it came from (``simulate``, ``diagnose``, ``identify:<method>``,
    ``simulate:validation`` or ``identify:<method>:validation``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = "simulate"
    try:
        series, system = run_simulate(cfg, out)
        stage = "diagnose"
        diag = run_diagnose(cfg, out, series, system)
        results = {}
        val = {}
        for method in METHODS:
            stage = f"identify:{method}"
            results[method] = run_identify(cfg, out, series, system, method)
        stage = "simulate:validation"
        held_out = validation_record(cfg, system)
        for method in METHODS:
            stage = f"identify:{method}:validation"
            val[method] = validation_loss(cfg, system, results[method],
                                          method, held_out)
    except ToolkitError as exc:
        exc.stage = stage
        raise

    case, pf, eq = system
    truth = eq.params
    lines = ["reproduction summary", f"seed = {cfg.seed}", ""]
    lines.append("true parameters:")
    lines += [f"  {n:6s} = {getattr(truth, n)!r}" for n in FREE_ALL]
    for method in METHODS:
        r = results[method]
        lines.append("")
        lines.append(f"[{method}]  criterion={r.loss!r}  "
                     f"fit_p={r.fit['p']:.2f}%  fit_q={r.fit['q']:.2f}%  "
                     f"validation_quad_loss={val[method]!r}"
                     + ("  (unstable predictor)"
                        if math.isinf(val[method]) else ""))
        lines += ["  " + _param_line(n, getattr(truth, n),
                                     getattr(r.params, n))
                  for n in FREE_ALL]
    pit = diag["pitfall"]
    lines += [
        "",
        "diagnostics:",
        f"  pe_verified_order = {diag['pe'].verified_order}",
        f"  informative = {diag['informativeness'].informative}",
        f"  loop_consistency_nrmse = {pit.cw_nrmse!r}",
    ]
    tio.write_report(out / "summary.txt", lines)
    return {"series": series, "system": system, "diagnostics": diag,
            "results": results, "validation": val}
