"""Static network description, admittance construction and power flow.

Everything is per-unit on a single system base.  Buses are referenced by
integer ids; internal matrices are ordered by position in the case's bus
list.  The real-expanded form stacks (x, y) = (real, imaginary) components
so index 2i is the x component of bus-slot i and 2i+1 the y component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadsysid.errors import CaseParseError, CaseValidationError, PowerFlowError

BUS_KINDS = ("slack", "pv", "pq")
LOAD_KINDS = ("impedance", "motor")

# Newton power flow: largest mismatch accepted, and the iteration budget.
PF_TOL = 1e-8
PF_MAX_ITER = 30


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    vset: float = 1.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0  # total line charging susceptance


@dataclass(frozen=True)
class Generator:
    bus: int
    tj: float        # acceleration time constant (2H), s
    xdp: float       # transient reactance, p.u.
    damping: float = 0.0
    pset: float = 0.0  # scheduled active power; ignored on the slack bus


@dataclass(frozen=True)
class Load:
    bus: int
    p: float
    q: float
    kind: str = "impedance"


@dataclass
class NetworkCase:
    """Validated static description of the study system."""

    buses: list[Bus]
    branches: list[Branch]
    generators: list[Generator]
    loads: list[Load]

    def __post_init__(self):
        self.validate()

    def validate(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseValidationError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise CaseValidationError(
                f"exactly one slack bus required, found {len(slacks)}"
            )
        known = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise CaseValidationError(
                        f"branch {br.from_bus}-{br.to_bus} references "
                        f"unknown bus {end}"
                    )
            if abs(br.r + 1j * br.x) <= 0.0:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} has zero impedance"
                )
        for g in self.generators:
            if g.bus not in known:
                raise CaseValidationError(f"generator on unknown bus {g.bus}")
            if g.xdp <= 0 or g.tj <= 0:
                raise CaseValidationError(
                    f"generator at bus {g.bus} needs positive tj and xdp"
                )
        kind_of = {b.id: b.kind for b in self.buses}
        for ld in self.loads:
            if ld.bus not in known:
                raise CaseValidationError(f"load on unknown bus {ld.bus}")
            if ld.kind not in LOAD_KINDS:
                raise CaseValidationError(f"unknown load kind {ld.kind!r}")
            if ld.kind == "motor" and kind_of[ld.bus] != "pq":
                raise CaseValidationError(
                    f"motor load must sit on a PQ bus, bus {ld.bus} "
                    f"is {kind_of[ld.bus]}"
                )

    @property
    def n(self):
        return len(self.buses)

    def bus_index(self):
        """Map bus id -> matrix position."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def slack_bus(self):
        return next(b for b in self.buses if b.kind == "slack")

    def motor_loads(self):
        return [ld for ld in self.loads if ld.kind == "motor"]

    def generator_at(self, bus_id):
        for g in self.generators:
            if g.bus == bus_id:
                return g
        return None


@dataclass
class PowerFlowSolution:
    vm: np.ndarray       # voltage magnitude per bus slot, p.u.
    va: np.ndarray       # voltage angle per bus slot, rad
    p_inj: np.ndarray    # net injected active power per bus slot
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float

    def v_complex(self):
        return self.vm * np.exp(1j * self.va)


def load_case(case_text):
    """Parse the plain-text case schema into a validated NetworkCase.

    Sections are introduced by ``[bus]``, ``[branch]``, ``[gen]``,
    ``[load]``; records are whitespace separated, one per line, ``#``
    starts a comment.
    """
    buses, branches, gens, loads = [], [], [], []
    section = None
    for lineno, raw in enumerate(case_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("bus", "branch", "gen", "load"):
                raise CaseParseError(f"line {lineno}: unknown section {section!r}")
            continue
        if section is None:
            raise CaseParseError(f"line {lineno}: record before any section header")
        tok = line.split()
        try:
            if section == "bus":
                if len(tok) < 2:
                    raise ValueError("need: id kind [vset]")
                kind = tok[1].lower()
                if kind not in BUS_KINDS:
                    raise ValueError(f"bus kind must be one of {BUS_KINDS}")
                vset = float(tok[2]) if len(tok) > 2 else 1.0
                buses.append(Bus(int(tok[0]), kind, vset))
            elif section == "branch":
                if len(tok) < 4:
                    raise ValueError("need: from to r x [b]")
                b = float(tok[4]) if len(tok) > 4 else 0.0
                branches.append(
                    Branch(int(tok[0]), int(tok[1]), float(tok[2]), float(tok[3]), b)
                )
            elif section == "gen":
                if len(tok) < 3:
                    raise ValueError("need: bus tj xdp [damping] [pset]")
                damping = float(tok[3]) if len(tok) > 3 else 0.0
                pset = float(tok[4]) if len(tok) > 4 else 0.0
                gens.append(Generator(int(tok[0]), float(tok[1]), float(tok[2]),
                                      damping, pset))
            elif section == "load":
                if len(tok) < 3:
                    raise ValueError("need: bus p q [kind]")
                kind = tok[3].lower() if len(tok) > 3 else "impedance"
                loads.append(Load(int(tok[0]), float(tok[1]), float(tok[2]), kind))
        except (ValueError, IndexError) as exc:
            raise CaseParseError(
                f"line {lineno}: bad [{section}] record {line!r}: {exc}"
            ) from exc
    return NetworkCase(buses, branches, gens, loads)


def build_admittance(case, pf=None):
    """Complex nodal admittance matrix of the branch network.

    Given a power-flow solution ``pf``, every constant-impedance load is
    converted to a shunt admittance y = (P - jQ)/V^2 at its solved voltage
    and added to the diagonal.
    """
    idx = case.bus_index()
    n = case.n
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        i, j = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / (br.r + 1j * br.x)
        y[i, i] += ys + 1j * br.b / 2.0
        y[j, j] += ys + 1j * br.b / 2.0
        y[i, j] -= ys
        y[j, i] -= ys
    if pf is not None:
        for ld in case.loads:
            if ld.kind != "impedance":
                continue
            k = idx[ld.bus]
            v2 = pf.vm[k] ** 2
            y[k, k] += (ld.p - 1j * ld.q) / v2
    return y


def expand_real(y):
    """Real 2n x 2n block expansion of a complex matrix.

    Each entry g + jb becomes the block [[g, -b], [b, g]] so that stacked
    (x, y) vectors multiply exactly like the complex originals.
    """
    n, nc = y.shape
    out = np.zeros((2 * n, 2 * nc))
    out[0::2, 0::2] = y.real
    out[1::2, 1::2] = y.real
    out[0::2, 1::2] = -y.imag
    out[1::2, 0::2] = y.imag
    return out


def _scheduled_injections(case):
    """Net scheduled complex power per bus slot (generation minus load)."""
    idx = case.bus_index()
    s = np.zeros(case.n, dtype=complex)
    for g in case.generators:
        s[idx[g.bus]] += g.pset
    for ld in case.loads:
        s[idx[ld.bus]] -= ld.p + 1j * ld.q
    return s


def solve_power_flow(case):
    """Newton-Raphson power flow from a flat start, to ``PF_TOL`` within
    ``PF_MAX_ITER`` steps.

    Full Jacobian is rebuilt and refactored every step.  Raises
    PowerFlowError with the final mismatch on divergence.
    """
    idx = case.bus_index()
    n = case.n
    y = build_admittance(case)
    kinds = [b.kind for b in case.buses]
    slack = kinds.index("slack")
    pv = [i for i, k in enumerate(kinds) if k == "pv"]
    pq = [i for i, k in enumerate(kinds) if k == "pq"]
    ang_unknown = [i for i in range(n) if i != slack]
    mag_unknown = list(pq)

    vm = np.ones(n)
    va = np.zeros(n)
    for b in case.buses:
        if b.kind in ("slack", "pv"):
            vm[idx[b.id]] = b.vset
    s_sched = _scheduled_injections(case)

    def mismatches(vm, va):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(y @ v)
        dp = s_sched.real - s_calc.real
        dq = s_sched.imag - s_calc.imag
        return np.concatenate([dp[ang_unknown], dq[mag_unknown]]), s_calc

    it = 0
    mis, s_calc = mismatches(vm, va)
    while np.max(np.abs(mis)) > PF_TOL:
        if it >= PF_MAX_ITER:
            raise PowerFlowError(
                f"power flow did not converge in {PF_MAX_ITER} iterations "
                f"(max mismatch {np.max(np.abs(mis)):.3e})",
                mismatch=float(np.max(np.abs(mis))),
            )
        v = vm * np.exp(1j * va)
        # dS/dVa and dS/dVm of the injected complex power
        ibus = y @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_e = np.diag(v / vm)
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e
        j11 = ds_dva.real[np.ix_(ang_unknown, ang_unknown)]
        j12 = ds_dvm.real[np.ix_(ang_unknown, mag_unknown)]
        j21 = ds_dva.imag[np.ix_(mag_unknown, ang_unknown)]
        j22 = ds_dvm.imag[np.ix_(mag_unknown, mag_unknown)]
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            step = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular power-flow Jacobian: {exc}") from exc
        na = len(ang_unknown)
        va[ang_unknown] += step[:na]
        vm[mag_unknown] += step[na:]
        it += 1
        mis, s_calc = mismatches(vm, va)

    return PowerFlowSolution(
        vm=vm,
        va=va,
        p_inj=s_calc.real.copy(),
        q_inj=s_calc.imag.copy(),
        iterations=it,
        max_mismatch=float(np.max(np.abs(mis))),
    )
