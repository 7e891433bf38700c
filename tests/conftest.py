import os

# One BLAS thread unless the caller set the variables, before numpy loads,
# as the command line does: the matrices gain nothing from threads (the
# suite took 63 s at two against 58 s at one on two cores), and a second
# OpenBLAS thread spins on a core between the small products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from loadsysid.config import default_config_text, load_config
from loadsysid.motor import MotorSpec
from loadsysid.network import load_case, solve_power_flow
from loadsysid.sim import init_equilibrium

TRUE_MOTOR = MotorSpec(X=3.679, Xp=0.296, Td0p=0.576, Tj=2.0, s0=0.01)


@pytest.fixture(scope="session")
def wscc_case():
    cfg = load_config(default_config_text())
    return load_case(cfg.case_text)


@pytest.fixture(scope="session")
def wscc_pf(wscc_case):
    return solve_power_flow(wscc_case)


@pytest.fixture(scope="session")
def wscc_eq(wscc_case, wscc_pf):
    return init_equilibrium(wscc_case, wscc_pf, TRUE_MOTOR)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(default_config_text())


def perturbed_init(truth, seed, frac=0.3):
    """Truth perturbed by a uniform +-frac factor on the physical fields."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    vals = {
        name: getattr(truth, name) * (1.0 + frac * rng.uniform(-1, 1))
        for name in ("X", "Xp", "Td0p", "Tj", "s0")
    }
    if vals["Xp"] >= vals["X"]:
        vals["Xp"] = vals["X"] / 3.0
    return replace(truth, **vals)
