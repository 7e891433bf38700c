"""Layered benchmark of loadsysid: simulate, identify and reproduce.

    python3 perfbench/run.py --workload simulate|identify|reproduce \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
spans recorded around the package's public functions.  Each run also
writes a report with the environment, evaluation counts and (traced) the
spans to ``perfbench-results/``.  See perfbench/README.md.
"""

import os

# One compute thread: the BLAS thread count changes the L-BFGS-B path, so
# times are only comparable at a fixed setting.  Must precede numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-results"

WORKLOADS = ("simulate", "identify", "reproduce")
SETUP_REPEATS = 3
# Record seeds the reproduce workload draws from.  On the other seeds below
# 60 the command exits 4: the pem-b estimate's predictor is unstable on the
# held-out record and validation_loss aborts the reproduction (see README).
REPRODUCE_SEEDS = tuple(sorted(
    set(range(60)) - {8, 13, 15, 22, 24, 26, 30, 32, 34, 40, 43, 49, 50, 51,
                      54, 57, 58, 59}))

# The external record: the reference record with the motor torque noise
# replaced by a random current injection at bus 8.
EXTERNAL = """
scenario.internal.variance = 0
scenario.external.bus = 8
scenario.external.variance = 0.002
scenario.external.start = 1.5
scenario.external.end = 20.0
scenario.external.hold = 0.01
"""
# The reference experiment shortened to 6 s with one optimizer start: the
# configuration of acceptance criterion 12.  See README for why.
SHORT = """
scenario.duration = 6.0
scenario.internal.end = 6.0
analysis.end = 6.0
ident.restarts = 1
"""

# Acceptance criterion 7's recovery envelope (relative errors).
ENVELOPE = {"X": 0.25, "Xp": 0.05, "Tj": 0.05, "Td0p": 0.30, "s0": 0.10,
            "Exp0": 0.05, "Eyp0": 0.05}
# Value the identification objective returns for a candidate it cannot
# evaluate (greybox._identify_impl).
PENALTY = 1e6
# Pre-disturbance voltage may differ from the power flow by this many
# sensor-noise standard deviations.
VOLTAGE_SIGMAS = 5.0
REPRODUCE_ARTIFACTS = sorted(
    ["measurement.csv", "equilibrium.txt", "pe_report.csv",
     "informativeness.csv", "loop_overlay.csv", "loop_bins.csv",
     "diagnostics.txt", "summary.txt"]
    + [f"{kind}_{m}.{ext}" for m in ("pem-a", "pem-b", "tm")
       for kind, ext in (("ident", "txt"), ("trace", "csv"), ("fit", "csv"))]
)


def record_seeds(workload, seed):
    """Record seeds of one round.  An identification's cost varies up to
    4x with the record (the L-BFGS-B path), so identify and reproduce mix
    records fixed for every run, which hold the median between two of
    their times, with one record chosen by ``seed``, so a change cannot be
    tuned to the fixed ones.  The simulator's cost does not depend on the
    record."""
    if workload == "simulate":
        return [seed]
    if workload == "identify":
        return [0, 1, 2, 3, 4 + seed]
    pool = REPRODUCE_SEEDS
    return [pool[0], pool[1], pool[2 + seed % (len(pool) - 2)]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Environment


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def import_seconds():
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import loadsysid.cli, loadsysid.freq"],
        env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Traced functions


def _method_kw(args, kwargs):
    return "." + kwargs.get("method", "pem-a")


def _wrap_objective(tracer, args, kwargs):
    """Trace the objective greybox hands to scipy's minimize; a span whose
    items is 1 returned the penalty value."""
    from tracing import Target

    target = Target("loadsysid.greybox", "objective",
                    items=lambda a, k, r: int(r == PENALTY))
    return (tracer.wrap(target, args[0]),) + tuple(args[1:]), kwargs


def targets(traced):
    """Functions to trace.  Untraced runs keep only the identification and
    validation calls, whose return values the checks read (two to six per
    seed)."""
    from tracing import Target

    capture = [
        Target("loadsysid.greybox", "identify", tag=_method_kw, keep=True),
        Target("loadsysid.greybox", "identify_output_error",
               name="greybox.identify", tag=lambda a, k: ".tm", keep=True),
        Target("loadsysid.pipeline", "validation_loss",
               tag=lambda a, k: "." + a[3], keep=True),
    ]
    if not traced:
        return capture
    size = (lambda a, k, r: os.path.getsize(a[0]))
    return capture + [
        Target("loadsysid.config", "load_config"),
        Target("loadsysid.network", "load_case"),
        Target("loadsysid.network", "solve_power_flow"),
        Target("loadsysid.sim", "init_equilibrium"),
        Target("loadsysid.sim", "simulate", items=lambda a, k, r: int(
            round(a[2].duration / a[2].dt_integration))),
        Target("loadsysid.sim", "linearize_system"),
        Target("loadsysid.freq", "reduce_to_load"),
        Target("loadsysid.freq", "load_frf"),
        Target("loadsysid.diagnostics", "pitfall_metrics"),
        Target("loadsysid.diagnostics", "estimate_spectrum"),
        Target("loadsysid.diagnostics", "persistent_excitation_order"),
        Target("loadsysid.diagnostics", "informativeness_test"),
        Target("loadsysid.greybox", "evaluate_candidate"),
        Target("loadsysid.greybox", "assemble_continuous"),
        Target("loadsysid.greybox", "discretize_zoh"),
        Target("loadsysid.greybox", "solve_dare"),
        Target("loadsysid.greybox", "predict",
               items=lambda a, k, r: len(a[2])),
        Target("loadsysid.greybox", "minimize", wrap_args=_wrap_objective,
               items=lambda a, k, r: int(r.nit)),
        Target("loadsysid.pipeline", "run_simulate"),
        Target("loadsysid.pipeline", "run_diagnose"),
        Target("loadsysid.pipeline", "run_identify",
               tag=lambda a, k: "." + a[4]),
        Target("loadsysid.io", "write_table", items=size),
        Target("loadsysid.io", "write_series", items=size),
        Target("loadsysid.io", "write_report", items=size),
        Target("loadsysid.io", "write_frf", items=size),
    ]


# ----------------------------------------------------------------------
# Checks


class Checks:
    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)


def rel_err(est, truth, name):
    return abs(getattr(est, name) / getattr(truth, name) - 1.0)


def in_envelope(est, truth):
    return all(rel_err(est, truth, n) < tol for n, tol in ENVELOPE.items())


def check_record(checks, label, cfg, series, system):
    """Sample count, finite values, and the pre-disturbance voltage at the
    motor bus equal to the power flow's within sensor noise."""
    import numpy as np

    sc = cfg.scenario
    n = int(round(sc.duration / sc.dt_sample)) + 1
    checks.require(len(series) == n and np.all(np.isfinite(series.data)),
                   f"{label}: {len(series)} samples (want {n}) or non-finite")
    case, pf, eq = system
    v_pf = pf.vm[case.bus_index()[eq.motor_bus]]
    start = min(w.start for w in (sc.internal, sc.external) if w is not None)
    pre = series.v[series.time < start - 1e-9]
    sigma = math.sqrt(sc.measurement_variance[0])
    dev = float(np.max(np.abs(pre - v_pf)))
    checks.require(len(pre) > 0 and dev <= VOLTAGE_SIGMAS * sigma,
                   f"{label}: pre-disturbance voltage off the power flow "
                   f"by {dev:.3e} (> {VOLTAGE_SIGMAS} sigma)")


def truth_criterion(cfg, series, truth, method):
    import numpy as np
    from dataclasses import replace

    from loadsysid import pipeline
    from loadsysid.greybox import evaluate_candidate
    from loadsysid.series import detrend

    win = detrend(series.window(*cfg.analysis_window))
    u = np.column_stack([win.delta("v"), win.delta("theta")])
    y = np.column_stack([win.delta("p"), win.delta("q")])
    params = replace(truth, V0=float(win.means[0]),
                     theta0=float(win.means[1]))
    # The noise model the pipeline gave the estimator, so both criteria
    # are the same function.
    crit, _, _, _, _ = evaluate_candidate(
        params, pipeline._noise_for(cfg, method), u, y, win.ts,
        cfg.ident_burn_in, output_error=(method == "tm"))
    return crit


def check_estimates(checks, label, results, truth):
    """Properties every seed's estimates have: no worse than the start,
    and the output-error baseline grossly off and a worse fit than pem-a."""
    for method, r in results.items():
        checks.require(r.loss <= r.initial_loss,
                       f"{label} {method}: criterion {r.loss!r} above its "
                       f"initial {r.initial_loss!r}")
    a, tm = results["pem-a"], results["tm"]
    gross = max(rel_err(tm.params, truth, "X"),
                rel_err(tm.params, truth, "Td0p"))
    checks.require(gross > 1.0, f"{label} tm: X/Td0p error {gross:.2f} "
                   "not above 100%")
    for ch in ("p", "q"):
        checks.require(tm.fit[ch] < a.fit[ch],
                       f"{label}: tm fit_{ch} not below pem-a's")


# ----------------------------------------------------------------------
# Workloads.  run(seed, out) is the timed work of one seed and returns its
# outputs; verify(seed, out, outputs) checks them outside the timed region.


class Workload:
    ops_per_seed = 1
    extra = SHORT

    def __init__(self, name, seed, tmp, tracer, checks):
        from loadsysid.config import default_config_text

        self.seeds = record_seeds(name, seed)
        self.tmp = tmp
        self.tracer = tracer
        self.checks = checks
        self.reference = default_config_text()
        self.counts = {}          # seed -> {method: evaluations}
        self.envelope_hits = {}   # seed -> pem-a inside the envelope

    def config(self, extra, seed):
        from loadsysid.config import load_config

        return load_config(self.reference + extra, seed_override=seed)

    def build(self):
        """Config parsing, power flow and equilibrium."""
        from loadsysid import pipeline

        self.system = pipeline.build_system(
            self.config(self.extra, self.seeds[0]))

    def setup(self):
        """Set-up after build(); returns the time spent on records."""
        return 0.0

    def outdir(self, *parts):
        path = Path(self.tmp, *map(str, parts))
        path.mkdir(parents=True, exist_ok=True)
        return path

    def record_counts(self, seed, results):
        truth = self.system[2].params
        self.counts[seed] = {m: r.meta["n_eval"] for m, r in results.items()}
        self.envelope_hits[seed] = in_envelope(results["pem-a"].params, truth)


class Simulate(Workload):
    ops_per_seed = 2
    extra = ""

    def setup(self):
        self.cfgs = {seed: {"internal": self.config("", seed),
                            "external": self.config(EXTERNAL, seed)}
                     for seed in self.seeds}
        return 0.0

    def run(self, seed, out):
        from loadsysid import pipeline

        outputs = {}
        for label, cfg in self.cfgs[seed].items():
            where = self.outdir(out, label)
            series, system = pipeline.run_simulate(cfg, where, self.system)
            diag = pipeline.run_diagnose(cfg, where, series, system)
            outputs[label] = (series, diag)
        return outputs

    def verify(self, seed, out, outputs):
        import numpy as np

        for label, (series, diag) in outputs.items():
            name = f"simulate seed {seed} {label}"
            check_record(self.checks, name, self.cfgs[seed][label], series,
                         self.system)
            pit = diag["pitfall"]
            if label == "internal":
                hi = pit.coherence > 0.95
                self.checks.require(
                    pit.cw_nrmse < 0.15 and hi.sum() > 0
                    and bool(np.all(pit.dist_network[hi]
                                    < pit.dist_load[hi])),
                    f"{name}: record does not follow the network response "
                    f"(NRMSE {pit.cw_nrmse:.3f})")
            else:
                self.checks.require(
                    pit.feedforward_dominant,
                    f"{name}: not flagged feedforward-dominant "
                    f"(NRMSE {pit.cw_nrmse:.3f})")


class Identify(Workload):
    ops_per_seed = 2

    def setup(self):
        from loadsysid import pipeline

        t0 = time.perf_counter()
        self.records = {}
        for seed in self.seeds:
            cfg = self.config(SHORT, seed)
            series, _ = pipeline.run_simulate(
                cfg, self.outdir("records", seed), self.system)
            self.records[seed] = (cfg, series)
        elapsed = time.perf_counter() - t0
        for seed, (cfg, series) in self.records.items():
            check_record(self.checks, f"identify seed {seed} record", cfg,
                         series, self.system)
        return elapsed

    def run(self, seed, out):
        from loadsysid import pipeline

        cfg, series = self.records[seed]
        return {m: pipeline.run_identify(cfg, out, series, self.system, m)
                for m in ("pem-a", "tm")}

    def verify(self, seed, out, results):
        cfg, series = self.records[seed]
        truth = self.system[2].params
        label = f"identify seed {seed}"
        check_estimates(self.checks, label, results, truth)
        for method, r in results.items():
            crit = truth_criterion(cfg, series, truth, method)
            self.checks.require(
                r.loss <= crit, f"{label} {method}: criterion {r.loss!r} "
                f"above the criterion at the true parameters {crit!r}")
        self.record_counts(seed, results)


class Reproduce(Workload):
    def identified(self, start):
        """{method: IdentResult} of the identify calls after the first
        ``start`` captured ones."""
        return {name.split(".")[-1]: r for name, r
                in self.tracer.results("greybox.identify")[start:]}

    def setup(self):
        self.cfg_path = Path(self.tmp, "reproduce.cfg")
        self.cfg_path.write_text(self.reference + SHORT)
        return 0.0

    def run(self, seed, out):
        from loadsysid import cli

        start = len(self.tracer.results("greybox.identify"))
        vstart = len(self.tracer.results("pipeline.validation_loss"))
        code = cli.main(["reproduce", "--config", str(self.cfg_path),
                         "--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise OperationFailed(f"reproduce seed {seed}: exit code {code}")
        val = {name.split(".")[-1]: v for name, v in
               self.tracer.results("pipeline.validation_loss")[vstart:]}
        return self.identified(start), val

    def verify(self, seed, out, outputs):
        results, val = outputs
        label = f"reproduce seed {seed}"
        names = sorted(p.name for p in Path(out).iterdir())
        self.checks.require(names == REPRODUCE_ARTIFACTS,
                            f"{label}: artifacts {names}")
        truth = self.system[2].params
        check_estimates(self.checks, label, results, truth)
        # Acceptance criterion 8 on this seed.
        b = results["pem-b"]
        self.checks.require(
            rel_err(b.params, truth, "Tj") > 0.5
            or val["pem-b"] > 3.0 * val["pem-a"],
            f"{label}: pem-b not degraded (Tj error "
            f"{rel_err(b.params, truth, 'Tj'):.2f}, validation "
            f"{val['pem-b']!r} vs pem-a {val['pem-a']!r})")
        self.record_counts(seed, results)

    def determinism(self):
        """A traced run makes the first invocation twice; every artifact
        must have come out byte-identical."""
        seed = self.seeds[0]
        old, new = (
            {p.name: p.read_bytes()
             for p in Path(self.tmp, phase, "0", str(seed)).iterdir()}
            for phase in ("untraced", "timed"))
        differ = sorted(n for n in old.keys() | new.keys()
                        if old.get(n) != new.get(n))
        self.checks.require(not differ, f"reproduce seed {seed}: artifacts "
                            f"differ between identical runs: {differ}")


class OperationFailed(Exception):
    """An operation of the workload failed (not a failed check)."""


WORKLOAD_CLASSES = {"simulate": Simulate, "identify": Identify,
                    "reproduce": Reproduce}


# ----------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(workload, spans, n_seeds, n_builds, seed_walls,
                  untraced_walls=None):
    """Per-layer numbers from the spans of one traced run.

    Times are self times per seed of the traced round (s), except power
    flow and equilibrium (per set-up) and, on identify, the sim layer
    (per record simulated during set-up).
    """
    from tracing import enclosing, self_times

    own = self_times(spans)

    def pick(phase, prefix):
        return [i for i, s in enumerate(spans)
                if s.phase == phase and s.name.startswith(prefix)]

    def self_s(phase, prefix, per):
        return sum(own[i] for i in pick(phase, prefix)) / per

    def incl_s(phase, prefix, per):
        return sum(spans[i].duration for i in pick(phase, prefix)) / per

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("network.power_flow_s",
        self_s("setup", "network.solve_power_flow", n_builds), "s")
    put("sim.equilibrium_s",
        self_s("setup", "sim.init_equilibrium", n_builds), "s")

    sim_phase = "setup" if workload == "identify" else "timed"
    sims = pick(sim_phase, "sim.simulate")
    substeps = sum(spans[i].items for i in sims)
    put("sim.simulate_s", self_s(sim_phase, "sim.simulate", n_seeds), "s")
    put("sim.simulate_calls", len(sims) / n_seeds, "count")
    put("sim.substep_us", 1e6 * sum(own[i] for i in sims) / substeps
        if substeps else 0.0, "us")
    put("sim.linearize_s", self_s(sim_phase, "sim.linearize_system",
                                  n_seeds), "s")

    for name, prefix in (
            ("freq.reduce_to_load_s", "freq.reduce_to_load"),
            ("freq.load_frf_s", "freq.load_frf"),
            ("diagnostics.pitfall_s", "diagnostics.pitfall_metrics"),
            ("diagnostics.spectrum_s", "diagnostics.estimate_spectrum"),
            ("diagnostics.pe_order_s",
             "diagnostics.persistent_excitation_order"),
            ("diagnostics.informativeness_s",
             "diagnostics.informativeness_test"),
            ("greybox.assemble_s", "greybox.assemble_continuous"),
            ("greybox.discretize_s", "greybox.discretize_zoh"),
            ("greybox.dare_s", "greybox.solve_dare"),
            ("greybox.predict_s", "greybox.predict"),
            ("io.write_s", "io.write_")):
        put(name, self_s("timed", prefix, n_seeds), "s")

    dare = pick("timed", "greybox.solve_dare")
    put("greybox.dare_failures",
        sum(spans[i].failed for i in dare) / n_seeds, "count")
    predicts = pick("timed", "greybox.predict")
    samples = sum(spans[i].items for i in predicts)
    put("greybox.predict_us", 1e6 * sum(own[i] for i in predicts) / samples
        if samples else 0.0, "us")

    idents = pick("timed", "greybox.identify.")
    evaluations = [i for i in pick("timed", "greybox.evaluate_candidate")
                   if enclosing(spans, i, "greybox.identify.")]
    put("greybox.optimizer_self_s",
        (sum(spans[i].duration for i in idents)
         - sum(spans[i].duration for i in evaluations)) / n_seeds, "s")

    for method in ("pem-a", "pem-b", "tm"):
        runs = [spans[i].result for i in idents
                if spans[i].name == f"greybox.identify.{method}"]
        evals = sum(r.meta["n_eval"] for r in runs)
        penalties = sum(int(r.initial_loss == PENALTY) for r in runs)
        penalties += sum(
            spans[i].items for i in pick("timed", "greybox.objective")
            if enclosing(spans, i, "greybox.identify.")
            == f"greybox.identify.{method}")
        nit = sum(s.get("nit", 0) for r in runs for s in r.starts)
        put(f"greybox.evals.{method}", evals / n_seeds, "count")
        put(f"greybox.penalty_evals.{method}", penalties / n_seeds, "count")
        put(f"greybox.useful_eval_ratio.{method}",
            (evals - penalties) / evals if evals else 0.0, "ratio")
        put(f"greybox.lbfgs_nit.{method}", nit / n_seeds, "count")
        put(f"pipeline.identify_stage_s.{method}",
            incl_s("timed", f"pipeline.run_identify.{method}", n_seeds), "s")

    put("pipeline.simulate_stage_s",
        incl_s("timed", "pipeline.run_simulate", n_seeds), "s")
    put("pipeline.diagnose_stage_s",
        incl_s("timed", "pipeline.run_diagnose", n_seeds), "s")
    put("pipeline.validation_s",
        incl_s("timed", "pipeline.validation_loss", n_seeds), "s")
    writes = [i for i in pick("timed", "io.write_")
              if not (spans[i].parent is not None
                      and spans[spans[i].parent].name.startswith("io."))]
    put("io.bytes_written", sum(spans[i].items for i in writes) / n_seeds,
        "B")

    # Traced wall time per seed that no root span covers, and the cost of
    # tracing: the first seed's traced time minus its untraced time.
    roots = [i for i, s in enumerate(spans)
             if s.phase == "timed" and s.parent is None]
    put("trace.unaccounted_s", statistics.fmean(seed_walls)
        - sum(spans[i].duration for i in roots) / n_seeds, "s")
    if untraced_walls:
        put("trace.overhead_s", seed_walls[0] - untraced_walls[0], "s")
    return m


# ----------------------------------------------------------------------
# Running a workload


def run_rounds(work, seeds, phase, seconds, walls, failures):
    """Whole rounds over ``seeds`` until ``seconds`` have passed.  Appends
    each seed's wall time to ``walls``; returns the operations attempted
    and failed."""
    from loadsysid.errors import ToolkitError

    attempted = failed = 0
    round_no = 0
    t_begin = time.perf_counter()
    while round_no == 0 or time.perf_counter() - t_begin < seconds:
        for seed in seeds:
            out = work.outdir(phase, round_no, seed)
            work.tracer.phase = phase
            attempted += work.ops_per_seed
            t0 = time.perf_counter()
            try:
                outputs = work.run(seed, out)
            except (OperationFailed, ToolkitError) as exc:
                failed += work.ops_per_seed
                failures.append(f"{phase} seed {seed}: {exc}")
                continue
            walls.append(time.perf_counter() - t0)
            work.tracer.phase = "check"
            work.verify(seed, out, outputs)
        round_no += 1
    return attempted, failed


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loadsysid" / "__init__.py").is_file():
        print(f"loadsysid sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import loadsysid.cli  # noqa: F401  (imports every layer)
    import loadsysid.freq  # noqa: F401
    from tracing import Tracer

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    checks = Checks()
    failures = []
    tracer = Tracer()
    traced = bool(args.trace)
    tracer.install(targets(traced))
    try:
        work = WORKLOAD_CLASSES[args.workload](args.workload, args.seed,
                                               tmp, tracer, checks)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            work.build()
            builds.append(time.perf_counter() - t0)
        records_s = work.setup()
        setup_s = (statistics.median(imports) + statistics.median(builds)
                   + records_s)
        t_first = time.perf_counter()

        untraced_walls, walls = [], []
        attempted = failed = 0
        if traced:
            # The first seed untraced, then the round traced: the
            # difference on the first seed is the tracing overhead.
            tracer.uninstall()
            tracer.install(targets(False))
            attempted, failed = run_rounds(work, work.seeds[:1], "untraced",
                                           0.0, untraced_walls, failures)
            tracer.uninstall()
            tracer.install(targets(True))
        t_timed = time.perf_counter()
        a, f = run_rounds(work, work.seeds, "timed", args.seconds, walls,
                          failures)
        attempted, failed = attempted + a, failed + f
        timed_s = time.perf_counter() - t_timed
        if traced and isinstance(work, Reproduce) and not failed:
            work.determinism()
    finally:
        tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    if not walls:
        for failure in failures:
            print(f"failed: {failure}", file=sys.stderr)
        print("every operation failed", file=sys.stderr)
        return 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        metrics = layer_metrics(args.workload, tracer.spans,
                                len(walls), SETUP_REPEATS, walls,
                                untraced_walls)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "seed_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "record_seeds": work.seeds,
        "environment": environment(),
        "evaluations": work.counts,
        "pem_a_in_envelope": work.envelope_hits,
        "seed_walls_s": walls,
        "untraced_seed_walls_s": untraced_walls,
        "setup": {"import_s": imports, "build_s": builds,
                  "records_s": records_s,
                  "before_first_seed_s": t_first - T_START},
        "timed_s": timed_s,
        "failed_operations": failures,
        "check_failures": checks.failures,
        "metrics": metrics,
    }
    if traced:
        report["spans"] = [s.as_row() for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, default=str))

    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in
                      ("environment", "evaluations", "pem_a_in_envelope")}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
