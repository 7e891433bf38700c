"""Per-layer figures of one ``loadsysid reproduce`` on the bundled
reference configuration (20 s record, two optimizer starts), traced the
same way as the benchmark, at one BLAS thread.

    python3 perfbench/reference.py --seed 1

Takes about two minutes.  It regenerates the reference-configuration
figures in perfbench/README.md; the benchmark's own workloads run a
shortened configuration (see the README for why).
"""

import argparse
import json
import sys
import tempfile
import time

import run  # pins the BLAS threads before numpy is imported


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from loadsysid import cli, sim
    from tracing import Tracer

    # The RHS is private, so it gets a plain call counter, not a span.
    rhs_calls = [0]
    rhs = sim._rhs

    def counted_rhs(*a, **k):
        rhs_calls[0] += 1
        return rhs(*a, **k)

    tracer = Tracer()
    tracer.install(run.targets(True))
    tracer.phase = "timed"
    sim._rhs = counted_rhs
    try:
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as out:
            t0 = time.perf_counter()
            code = cli.main(["reproduce", "--seed", str(args.seed),
                             "--out", out])
            wall = time.perf_counter() - t0
    finally:
        sim._rhs = rhs
        tracer.uninstall()
    metrics = run.layer_metrics("reproduce", tracer.spans, 1, 1, [wall])
    for name in ("network.power_flow_s", "sim.equilibrium_s"):
        metrics.pop(name)  # measured inside the command, not in set-up
    print(json.dumps({
        "seed": args.seed,
        "exit_code": code,
        "wall_s": wall,
        "rhs_calls": rhs_calls[0],
        "environment": run.environment(),
        "evaluations": {name.split(".")[-1]: r.meta["n_eval"]
                        for name, r in tracer.results("greybox.identify")},
        "starts": {name.split(".")[-1]: [s.get("status") for s in r.starts]
                   for name, r in tracer.results("greybox.identify")},
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }, indent=1, default=str))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
