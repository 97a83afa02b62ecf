"""Certification suites tying quantifiers, protocols, and closed forms together."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coherence import basis_dependent_discord, c_re, qi_relative_entropy
from .linalg import _kron
from .optimize import (
    brute_force_measurement_opt,
    gap_second_derivative,
    qi_werner_closed_form,
    rate_werner_closed_form,
)
from .protocols import licc_erasing_protocol, lqicc_werner_protocol
from .states import (
    DensityMatrix,
    ZeroDiscordSpec,
    _index,
    pure_state,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)

DEFAULT_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Verdict tolerance of the discord and chain checks.
VERDICT_TOL = 1e-9
MAX_SCAN_STEPS = 1_000_001


@dataclass(frozen=True)
class ScanRecord:
    """One row of a closed-form p sweep."""

    p: float
    qi: float
    rate: float
    gap: float


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


def discord_report(rho: DensityMatrix) -> DiscordReport:
    """Evaluate discord and the equality qi == c_re(rho_B) on any
    bipartite state; passes only when the discord vanishes within
    VERDICT_TOL."""
    qi = qi_relative_entropy(rho)
    cb = c_re(rho.marginal_b)
    d = basis_dependent_discord(rho, check=True)
    passed = abs(d) <= VERDICT_TOL and abs(qi - cb - d) <= VERDICT_TOL
    return DiscordReport(d, qi, cb, passed)


def check_theorem3(spec: ZeroDiscordSpec) -> DiscordReport:
    """Assemble the classical-quantum state a spec describes and confirm
    its discord vanishes, i.e. qi collapses to the marginal coherence."""
    return discord_report(zero_discord_state(spec))


def check_chain(rho: DensityMatrix, rate: float) -> ChainReport:
    """An achieved distillation rate can never exceed the qi relative
    entropy of the input state (up to VERDICT_TOL)."""
    qi = qi_relative_entropy(rho)
    return ChainReport(rate, qi, qi - rate, rate <= qi + VERDICT_TOL)


def figure_data(p_from: float, p_to: float, steps: int) -> list[ScanRecord]:
    """Uniform closed-form sweep of (qi, rate, gap) over [p_from, p_to]."""
    try:
        steps = _index(steps)
    except TypeError:
        raise ValueError(f"steps must be an integer, got {steps!r}") from None
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
        records.append(ScanRecord(p, qi, rate, qi - rate))
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
    mat = 0.5 * _kron(sigma0.mat, plus.mat) + 0.5 * _kron(sigma1.mat, zero.mat)
    return DensityMatrix(mat, (2, 2))


def theorem3_suite() -> SuiteResult:
    """Deterministic zero-discord constructions hit the equality."""
    checks = []
    product = ZeroDiscordSpec(
        (1.0,),
        (pure_state([1.0, 0.0]),),
        ((0, 1),),
        (pure_state([1.0, 1.0]),),
    )
    rep = check_theorem3(product)
    checks.append(
        CheckLine(
            "product state |0><0| x |+><+|",
            rep.passed and abs(rep.qi - 1.0) <= VERDICT_TOL,
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
    rep = check_theorem3(two_block)
    checks.append(
        CheckLine(
            "two-block qubit x qutrit mixture",
            rep.passed,
            f"discord={rep.discord:.3e} qi={rep.qi:.6f} c_re(B)={rep.marginal_coherence:.6f}",
        )
    )
    return SuiteResult("theorem3", tuple(checks))


def lemma1_suite(seed: int) -> SuiteResult:
    """100 randomized zero-discord constructions plus negative controls.

    The controls feed discordant states (Werner, overlapping-block
    mixture) through the same report and demand that it FAILS, guarding
    against a vacuously-passing checker.
    """
    rng = np.random.default_rng(seed)
    dims_cycle = ((2, 2), (2, 3), (2, 4), (3, 3))
    checks = []
    for i in range(100):
        da, db = dims_cycle[i % len(dims_cycle)]
        spec = random_zero_discord_spec(rng, da, db)
        rep = check_theorem3(spec)
        checks.append(
            CheckLine(
                f"random zero-discord spec {i:03d} ({da}x{db}, {len(spec.blocks)} blocks)",
                rep.passed,
                f"discord={rep.discord:.3e}",
            )
        )
    for p in (0.1, 0.5, 0.9):
        rep = discord_report(werner(p))
        checks.append(
            CheckLine(
                f"negative control: werner({p}) must fail",
                (not rep.passed) and rep.discord > VERDICT_TOL,
                f"discord={rep.discord:.6f}",
            )
        )
    rep = discord_report(_overlap_control_state())
    checks.append(
        CheckLine(
            "negative control: overlapping blocks must fail",
            (not rep.passed) and rep.discord > VERDICT_TOL,
            f"discord={rep.discord:.6f}",
        )
    )
    return SuiteResult("lemma1", tuple(checks))


def theorem4_suite(brute_grid: tuple[int, int]) -> SuiteResult:
    """Protocol optimality sweep plus the gap shape facts.

    For each p of DEFAULT_P_GRID: both protocols hit the closed-form rate
    within 1e-10, the exhaustive measurement sweep agrees within 2e-4 (and
    never beats the closed form by more than 1e-9), and the gap is
    positive.  The curvature line also demands that gap_second_derivative
    match a central difference of the gap (step 1e-4, within 1e-4) at
    every k/1000 in [0.05, 0.95].
    """
    checks = []
    for p in DEFAULT_P_GRID:
        rate = rate_werner_closed_form(p)
        gap = qi_werner_closed_form(p) - rate
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
        checks.append(
            CheckLine(
                f"p={p:g}: protocols and sweep meet the closed form",
                passed,
                f"rate={rate:.6f} lqicc={lq:.6f} licc={li:.6f} brute={bf:.6f} gap={gap:.6f}",
            )
        )

    def f(p: float) -> float:  # the gap
        return qi_werner_closed_form(p) - rate_werner_closed_form(p)

    gaps = [f(k / 1000.0) for k in range(1, 1000)]
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
    # the analytic curvature must match a central difference of the gap
    h = 1e-4
    fd_agrees = all(
        abs((f(p + h) - 2.0 * f(p) + f(p - h)) / (h * h) - gap_second_derivative(p)) <= 1e-4
        for p in (k / 1000.0 for k in range(50, 951))
    )
    lo, hi = gap_second_derivative(0.2), gap_second_derivative(0.5)
    checks.append(
        CheckLine(
            "gap convex below 1/3, concave above",
            lo > 0.0 > hi and fd_agrees,
            f"d2(0.2)={lo:.4f} d2(0.5)={hi:.4f}",
        )
    )
    return SuiteResult("theorem4", tuple(checks))
