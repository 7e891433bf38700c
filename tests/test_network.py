import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid import network
from loadsysid.config import resolve_case
from loadsysid.errors import CaseParseError, CaseValidationError, PowerFlowError
from loadsysid.network import (
    build_admittance,
    expand_real,
    load_case,
    solve_power_flow,
)

TWO_BUS = """
[bus]
1 slack 1.0
2 pq
[branch]
1 2 0.01 0.1
[gen]
1 10.0 0.1
"""


def test_bundled_case_shape(wscc_case):
    assert wscc_case.n == 9
    assert len(wscc_case.generators) == 3
    motors = wscc_case.motor_loads()
    assert len(motors) == 1 and motors[0].bus == 6


def test_minimal_two_bus_case():
    case = load_case(TWO_BUS)
    assert case.n == 2
    assert len(case.branches) == 1


def test_dangling_branch_reference_rejected():
    text = TWO_BUS + "\n[branch]\n1 99 0.0 0.1\n"
    with pytest.raises(CaseValidationError):
        load_case(text)


def test_injection_load_kind_rejected():
    """The external disturbance bus is the scenario's, not the case's."""
    text = resolve_case("wscc9").replace("8      1.00  0.35  impedance",
                                         "8      1.00  0.35  injection")
    with pytest.raises(CaseValidationError,
                       match="unknown load kind 'injection'"):
        load_case(text)


def test_parse_error_carries_line_number():
    bad = "[bus]\n1 slack 1.0\nnot-enough\n"
    with pytest.raises(CaseParseError) as err:
        load_case(bad)
    assert "line 3" in str(err.value)


def test_single_branch_admittance_stamp():
    case = load_case(TWO_BUS)
    y = build_admittance(case)
    ys = 1.0 / (0.01 + 0.1j)
    expected = np.array([[ys, -ys], [-ys, ys]])
    assert np.allclose(y, expected, atol=1e-14)


def test_admittance_against_stamp_by_stamp_oracle(wscc_case):
    # independent accumulation, one branch at a time
    idx = wscc_case.bus_index()
    oracle = np.zeros((9, 9), dtype=complex)
    for br in wscc_case.branches:
        i, j = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        stamp = np.zeros((9, 9), dtype=complex)
        stamp[i, i] = ys + 1j * br.b / 2
        stamp[j, j] = ys + 1j * br.b / 2
        stamp[i, j] = stamp[j, i] = -ys
        oracle = oracle + stamp
    y = build_admittance(wscc_case)
    assert np.max(np.abs(y - oracle)) < 1e-10


def test_row_sums_vanish_without_shunts():
    text = """
[bus]
1 slack 1.0
2 pq
3 pq
[branch]
1 2 0.01 0.1
2 3 0.02 0.2
1 3 0.0  0.3
[gen]
1 10.0 0.1
"""
    y = build_admittance(load_case(text))
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_folding_matches_shunt_formula(wscc_case, wscc_pf):
    base = build_admittance(wscc_case)
    folded = build_admittance(wscc_case, wscc_pf)
    idx = wscc_case.bus_index()
    diff = folded - base
    for ld in wscc_case.loads:
        k = idx[ld.bus]
        if ld.kind != "impedance":
            assert abs(diff[k, k]) < 1e-15
            continue
        expect = (ld.p - 1j * ld.q) / wscc_pf.vm[k] ** 2
        assert abs(diff[k, k] - expect) < 1e-14


def test_admittance_permutation_equivariance(wscc_case, wscc_pf):
    rng = np.random.default_rng(3)
    perm = rng.permutation(9)
    relabel = {b.id: int(perm[i]) + 100 for i, b in enumerate(wscc_case.buses)}
    from loadsysid.network import Branch, Bus, Generator, Load, NetworkCase

    case2 = NetworkCase(
        buses=[Bus(relabel[b.id], b.kind, b.vset) for b in wscc_case.buses],
        branches=[Branch(relabel[br.from_bus], relabel[br.to_bus], br.r,
                         br.x, br.b) for br in wscc_case.branches],
        generators=[Generator(relabel[g.bus], g.tj, g.xdp, g.damping, g.pset)
                    for g in wscc_case.generators],
        loads=[Load(relabel[ld.bus], ld.p, ld.q, ld.kind)
               for ld in wscc_case.loads],
    )
    y1 = build_admittance(wscc_case)
    y2 = build_admittance(case2)
    # case2's bus list preserves list order, only ids changed
    assert np.allclose(y1, y2, atol=1e-15)


def test_flat_no_load_solution():
    text = """
[bus]
1 slack 1.0
2 pq
[branch]
1 2 0.01 0.1
[gen]
1 10.0 0.1
"""
    pf = solve_power_flow(load_case(text))
    assert np.allclose(pf.vm, 1.0, atol=1e-12)
    assert np.allclose(pf.va, 0.0, atol=1e-12)


def _gauss_seidel(case, tol=1e-10, max_iter=20000):
    """Independent fixed-point power-flow oracle."""
    idx = case.bus_index()
    y = build_admittance(case)
    kinds = [b.kind for b in case.buses]
    sched = np.zeros(case.n, dtype=complex)
    for g in case.generators:
        sched[idx[g.bus]] += g.pset
    for ld in case.loads:
        sched[idx[ld.bus]] -= ld.p + 1j * ld.q
    v = np.ones(case.n, dtype=complex)
    vm_set = {}
    for b in case.buses:
        if b.kind in ("slack", "pv"):
            v[idx[b.id]] = b.vset
            vm_set[idx[b.id]] = b.vset
    for _ in range(max_iter):
        prev = v.copy()
        for i in range(case.n):
            if kinds[i] == "slack":
                continue
            s = sched[i]
            if kinds[i] == "pv":
                q = np.imag(v[i] * np.conj(y[i] @ v))
                s = complex(s.real, q)
            total = y[i] @ v - y[i, i] * v[i]
            v[i] = (np.conj(s / v[i]) - total) / y[i, i]
            if kinds[i] == "pv":
                v[i] = vm_set[i] * v[i] / abs(v[i])
        if np.max(np.abs(v - prev)) < tol:
            break
    return v


def test_power_flow_matches_gauss_seidel_oracle(wscc_case, wscc_pf):
    v_gs = _gauss_seidel(wscc_case)
    v_nr = wscc_pf.v_complex()
    assert np.max(np.abs(v_gs - v_nr)) < 1e-8


def test_power_flow_published_solution(wscc_case, wscc_pf):
    idx = wscc_case.bus_index()
    assert abs(wscc_pf.vm[idx[6]] - 1.0127) < 5e-4
    assert abs(np.degrees(wscc_pf.va[idx[6]]) - (-3.687)) < 5e-3


def test_power_flow_residual_and_stationarity(wscc_case, wscc_pf,
                                              monkeypatch):
    assert wscc_pf.max_mismatch < 1e-8
    # one extra Newton iteration changes nothing beyond 1e-10
    monkeypatch.setattr(network, "PF_TOL", 1e-13)
    monkeypatch.setattr(network, "PF_MAX_ITER", wscc_pf.iterations + 2)
    pf2 = solve_power_flow(wscc_case)
    assert np.max(np.abs(pf2.vm - wscc_pf.vm)) < 1e-10
    assert np.max(np.abs(pf2.va - wscc_pf.va)) < 1e-10


def test_power_flow_divergence_reports_mismatch():
    text = """
[bus]
1 slack 1.0
2 pq
[branch]
1 2 0.01 0.1
[gen]
1 10.0 0.1
[load]
2 50.0 20.0
"""
    with pytest.raises(PowerFlowError) as err:
        solve_power_flow(load_case(text))
    assert err.value.mismatch is None or err.value.mismatch > 0


def test_expand_real_unit_blocks():
    assert np.allclose(expand_real(np.array([[1j]])),
                       np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(expand_real(np.array([[1.0 + 0j]])), np.eye(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_expand_real_preserves_multiplication(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    yr = expand_real(y)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    stacked = np.empty(6)
    stacked[0::2], stacked[1::2] = v.real, v.imag
    prod = y @ v
    prod_r = yr @ stacked
    assert np.max(np.abs(prod_r[0::2] - prod.real)) < 1e-12
    assert np.max(np.abs(prod_r[1::2] - prod.imag)) < 1e-12
