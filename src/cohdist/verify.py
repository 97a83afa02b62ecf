"""Certification suites tying quantifiers, protocols, and closed forms together."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coherence import basis_dependent_discord, c_re, qi_relative_entropy
from .optimize import (
    brute_force_measurement_opt,
    gap_analysis,
    qi_werner_closed_form,
    rate_werner_closed_form,
)
from .protocols import licc_erasing_protocol, lqicc_werner_protocol
from .states import (
    DensityMatrix,
    ZeroDiscordSpec,
    partial_trace,
    pure_state,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)

DEFAULT_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MAX_SCAN_STEPS = 1_000_001


@dataclass(frozen=True)
class ScanRecord:
    """One row of a closed-form p sweep."""

    p: float
    qi: float
    rate: float
    gap: float
    passed: bool = True

    def __post_init__(self):
        if abs(self.gap - (self.qi - self.rate)) > 1e-10:
            raise ValueError("gap must equal qi - rate")


@dataclass(frozen=True)
class DiscordReport:
    """Zero-discord equality check on one bipartite state."""

    discord: float
    qi: float
    marginal_coherence: float
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    """Achievability check: a protocol rate never beats the qi measure."""

    rate: float
    qi: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class CheckLine:
    """One printable verification step."""

    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def discord_report(rho: DensityMatrix, tol: float = 1e-9) -> DiscordReport:
    """Evaluate discord and the equality qi == c_re(rho_B) on any
    bipartite state; passes only when the discord vanishes within tol."""
    qi = qi_relative_entropy(rho)
    cb = c_re(partial_trace(rho, 1))
    d = basis_dependent_discord(rho, check=True)
    passed = abs(d) <= tol and abs(qi - cb - d) <= tol
    return DiscordReport(d, qi, cb, passed)


def check_theorem3(spec: ZeroDiscordSpec, tol: float = 1e-9) -> DiscordReport:
    """Assemble the classical-quantum state a spec describes and confirm
    its discord vanishes, i.e. qi collapses to the marginal coherence."""
    return discord_report(zero_discord_state(spec), tol)


@dataclass(frozen=True)
class Theorem4Record:
    """Per-p comparison of protocol rates against the closed forms."""

    p: float
    qi: float
    rate: float
    gap: float
    lqicc_rate: float
    licc_rate: float
    brute_force_rate: float
    passed: bool


def check_theorem4(
    p_grid=DEFAULT_P_GRID, brute_grid: tuple[int, int] = (200, 400)
) -> list[Theorem4Record]:
    """For each p: both protocols hit the closed-form rate within 1e-10,
    the exhaustive measurement sweep agrees within 2e-4 (and never beats
    the closed form by more than 1e-9), and the gap is positive."""
    records = []
    for p in p_grid:
        qi = qi_werner_closed_form(p)
        rate = rate_werner_closed_form(p)
        gap = qi - rate
        lq = lqicc_werner_protocol(p).rate
        li = licc_erasing_protocol(p).rate
        bf = brute_force_measurement_opt(p, brute_grid).rate
        passed = (
            abs(lq - rate) <= 1e-10
            and abs(li - rate) <= 1e-10
            and abs(bf - rate) <= 2e-4
            and bf <= rate + 1e-9
            and gap > 0.0
        )
        records.append(Theorem4Record(p, qi, rate, gap, lq, li, bf, passed))
    return records


def check_chain(rho: DensityMatrix, rate: float, tol: float = 1e-9) -> ChainReport:
    """An achieved distillation rate can never exceed the qi relative
    entropy of the input state."""
    qi = qi_relative_entropy(rho)
    return ChainReport(rate, qi, qi - rate, rate <= qi + tol)


def figure_data(p_from: float = 0.0, p_to: float = 1.0, steps: int = 101) -> list[ScanRecord]:
    """Uniform closed-form sweep of (qi, rate, gap) over [p_from, p_to]."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    # the CSV prints p to 6 decimals: no more distinct rows fit in [0, 1]
    if steps > MAX_SCAN_STEPS:
        raise ValueError(f"steps must be at most {MAX_SCAN_STEPS}, got {steps}")
    if not 0.0 <= p_from <= p_to <= 1.0:
        raise ValueError(f"need 0 <= from <= to <= 1, got {p_from}..{p_to}")
    records = []
    for k in range(steps):
        p = p_from + (p_to - p_from) * k / (steps - 1)
        qi = qi_werner_closed_form(p)
        rate = rate_werner_closed_form(p)
        records.append(ScanRecord(p, qi, rate, qi - rate, qi - rate >= -1e-10))
    return records


CSV_HEADER = "p,qi,rate,gap"


def records_to_csv(records) -> str:
    """Six-decimal CSV with the fixed header row."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.p:.6f},{r.qi:.6f},{r.rate:.6f},{r.gap:.6f}")
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    """Full-precision JSON array of {p, qi, rate, gap} objects."""
    payload = [{"p": r.p, "qi": r.qi, "rate": r.rate, "gap": r.gap} for r in records]
    return json.dumps(payload, indent=2) + "\n"


def _overlap_control_state() -> DensityMatrix:
    # two-block mixture whose B factors overlap on the same basis span;
    # the classical-quantum decomposition fails and discord is positive
    sigma0 = pure_state([1.0, 0.0])
    sigma1 = pure_state([0.0, 1.0])
    plus = pure_state([1.0, 1.0])
    zero = pure_state([1.0, 0.0])
    mat = 0.5 * np.kron(sigma0.mat, plus.mat) + 0.5 * np.kron(sigma1.mat, zero.mat)
    return DensityMatrix(mat, (2, 2))


def theorem3_suite(tol: float = 1e-9) -> SuiteResult:
    """Deterministic zero-discord constructions hit the equality."""
    checks = []
    product = ZeroDiscordSpec(
        (1.0,),
        (pure_state([1.0, 0.0]),),
        ((0, 1),),
        (pure_state([1.0, 1.0]),),
    )
    rep = check_theorem3(product, tol)
    checks.append(
        CheckLine(
            "product state |0><0| x |+><+|",
            rep.passed and abs(rep.qi - 1.0) <= tol,
            f"discord={rep.discord:.3e} qi={rep.qi:.6f}",
        )
    )
    two_block = ZeroDiscordSpec(
        (0.6, 0.4),
        (pure_state([1.0, 0.0]), pure_state([1.0, 1.0])),
        ((0, 1), (2,)),
        (
            pure_state([1.0, 1.0, 0.0], (3,)),
            pure_state([0.0, 0.0, 1.0], (3,)),
        ),
    )
    rep = check_theorem3(two_block, tol)
    checks.append(
        CheckLine(
            "two-block qubit x qutrit mixture",
            rep.passed,
            f"discord={rep.discord:.3e} qi={rep.qi:.6f} c_re(B)={rep.marginal_coherence:.6f}",
        )
    )
    return SuiteResult("theorem3", tuple(checks))


def lemma1_suite(n_random: int = 100, seed: int = 7, tol: float = 1e-9) -> SuiteResult:
    """Randomized zero-discord constructions plus negative controls.

    The controls feed discordant states (Werner, overlapping-block
    mixture) through the same report and demand that it FAILS, guarding
    against a vacuously-passing checker.
    """
    rng = np.random.default_rng(seed)
    dims_cycle = ((2, 2), (2, 3), (2, 4), (3, 3))
    checks = []
    for i in range(n_random):
        da, db = dims_cycle[i % len(dims_cycle)]
        spec = random_zero_discord_spec(rng, da, db)
        rep = check_theorem3(spec, tol)
        checks.append(
            CheckLine(
                f"random zero-discord spec {i:03d} ({da}x{db}, {len(spec.blocks)} blocks)",
                rep.passed,
                f"discord={rep.discord:.3e}",
            )
        )
    for p in (0.1, 0.5, 0.9):
        rep = discord_report(werner(p), tol)
        checks.append(
            CheckLine(
                f"negative control: werner({p}) must fail",
                (not rep.passed) and rep.discord > 1e-9,
                f"discord={rep.discord:.6f}",
            )
        )
    rep = discord_report(_overlap_control_state(), tol)
    checks.append(
        CheckLine(
            "negative control: overlapping blocks must fail",
            (not rep.passed) and rep.discord > 1e-9,
            f"discord={rep.discord:.6f}",
        )
    )
    return SuiteResult("lemma1", tuple(checks))


def theorem4_suite(
    p_grid=DEFAULT_P_GRID, brute_grid: tuple[int, int] = (200, 400)
) -> SuiteResult:
    """Protocol optimality sweep plus the gap shape facts."""
    checks = []
    for rec in check_theorem4(p_grid, brute_grid):
        checks.append(
            CheckLine(
                f"p={rec.p:g}: protocols and sweep meet the closed form",
                rec.passed,
                f"rate={rec.rate:.6f} lqicc={rec.lqicc_rate:.6f} "
                f"licc={rec.licc_rate:.6f} brute={rec.brute_force_rate:.6f} gap={rec.gap:.6f}",
            )
        )
    gaps = [gap_analysis(k / 1000.0).gap for k in range(1, 1000)]
    # gap ~ p^2 / (2 ln 2) near p=0, so the first grid point sits below
    # 1e-6; it must still be strictly positive, and every later point
    # must clear the margin.
    strict = min(gaps) > 0.0 and all(g > 1e-6 for g in gaps[1:])
    checks.append(
        CheckLine(
            "gap positive on the interior grid",
            strict,
            f"min over k/1000 grid = {min(gaps):.3e} at p={(gaps.index(min(gaps)) + 1) / 1000:g}",
        )
    )
    curv = gap_analysis(0.2).second_derivative > 0.0 > gap_analysis(0.5).second_derivative
    checks.append(
        CheckLine(
            "gap convex below 1/3, concave above",
            curv,
            f"d2(0.2)={gap_analysis(0.2).second_derivative:.4f} "
            f"d2(0.5)={gap_analysis(0.5).second_derivative:.4f}",
        )
    )
    return SuiteResult("theorem4", tuple(checks))
