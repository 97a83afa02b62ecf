"""Certification suites: they hold the matrix-level routes (discord,
protocols, the measurement sweep) to the closed forms of closed_forms,
which no route can import.  Only theorem4_suite loads the closed forms,
the sweep and the protocols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import basis_dependent_discord, c_re, qi_relative_entropy
from .scalars import _fmt6
from .states import (
    DensityMatrix,
    ZeroDiscordSpec,
    pure_state,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)

DEFAULT_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Verdict tolerance of the discord checks.
VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class DiscordReport:
    """Zero-discord check on one bipartite state: passed is |discord| <=
    VERDICT_TOL.  The benchmark's discord audit reads its four fields."""

    discord: float
    qi: float
    marginal_coherence: float
    passed: bool


@dataclass(frozen=True)
class CheckLine:
    """One printable verification step."""

    label: str
    passed: bool
    detail: str


def discord_report(rho: DensityMatrix) -> DiscordReport:
    """Evaluate discord and the equality qi == c_re(rho_B) on any
    bipartite state.  The discord is qi - c_re(rho_B) from the same calls,
    so it passes only when the discord vanishes within VERDICT_TOL."""
    d = basis_dependent_discord(rho, check=True)
    return DiscordReport(d, qi_relative_entropy(rho), c_re(rho.marginal_b), abs(d) <= VERDICT_TOL)


def check_theorem3(spec: ZeroDiscordSpec) -> DiscordReport:
    """Assemble the classical-quantum state a spec describes and confirm
    its discord vanishes, i.e. qi collapses to the marginal coherence."""
    return discord_report(zero_discord_state(spec))


_ZERO, _ONE, _PLUS = (pure_state(v) for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
# two-block mixture whose B factors overlap on the same basis span;
# the classical-quantum decomposition fails and discord is positive
_OVERLAP_CONTROL = DensityMatrix(0.5 * np.kron(_ZERO.mat, _PLUS.mat) + 0.5 * np.kron(_ONE.mat, _ZERO.mat), (2, 2))


def theorem3_suite() -> tuple[CheckLine, ...]:
    """Deterministic zero-discord constructions hit the equality."""
    product = check_theorem3(ZeroDiscordSpec((1.0,), (_ZERO,), (_PLUS,)))
    two_block = check_theorem3(
        ZeroDiscordSpec(
            (0.6, 0.4),
            (_ZERO, _PLUS),
            (pure_state([1.0, 1.0, 0.0], (3,)), pure_state([0.0, 0.0, 1.0], (3,))),
        )
    )
    return (
        CheckLine(
            "product state |0><0| x |+><+|",
            product.passed and abs(product.qi - 1.0) <= VERDICT_TOL,
            f"discord={product.discord:.3e} qi={_fmt6(product.qi)}",
        ),
        CheckLine(
            "two-block qubit x qutrit mixture",
            two_block.passed,
            f"discord={two_block.discord:.3e} qi={_fmt6(two_block.qi)} c_re(B)={_fmt6(two_block.marginal_coherence)}",
        ),
    )


def lemma1_suite(seed: int) -> tuple[CheckLine, ...]:
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
                f"random zero-discord spec {i:03d} ({da}x{db}, {len(spec.weights)} blocks)",
                rep.passed,
                f"discord={rep.discord:.3e}",
            )
        )
    controls = [(f"werner({p})", werner(p)) for p in (0.1, 0.5, 0.9)]
    for name, rho in [*controls, ("overlapping blocks", _OVERLAP_CONTROL)]:
        rep = discord_report(rho)
        checks.append(
            CheckLine(
                f"negative control: {name} must fail",
                rep.discord > VERDICT_TOL,
                f"discord={_fmt6(rep.discord)}",
            )
        )
    return tuple(checks)


def theorem4_suite(brute_grid: tuple[int, int]) -> tuple[CheckLine, ...]:
    """Protocol optimality sweep plus the gap shape facts.

    For each p of DEFAULT_P_GRID: both protocols hit the closed-form rate
    within 1e-10, the exhaustive measurement sweep agrees within 2e-4 (and
    never beats the closed form by more than 1e-9), the closed-form qi
    matches qi_relative_entropy(werner(p)) within 1e-10, and the gap is
    positive.  The curvature line also demands that gap_second_derivative
    match a central difference of the gap (step 1e-4, within 1e-4) at
    every k/1000 in [0.05, 0.95], away from its nan sentinel at p = 1.
    """
    from .closed_forms import gap_second_derivative, qi_werner_closed_form, rate_werner_closed_form
    from .optimize import brute_force_measurement_opt
    from .protocols import licc_erasing_protocol, lqicc_werner_protocol

    checks = []
    for p in DEFAULT_P_GRID:
        rate, qi = rate_werner_closed_form(p), qi_werner_closed_form(p)
        gap = qi - rate
        lq = lqicc_werner_protocol(p).rate
        li = licc_erasing_protocol(p).rate
        bf = brute_force_measurement_opt(p, brute_grid).rate
        passed = (
            abs(lq - rate) <= 1e-10
            and abs(li - rate) <= 1e-10
            and abs(bf - rate) <= 2e-4
            and bf <= rate + 1e-9
            and abs(qi - qi_relative_entropy(werner(p))) <= 1e-10
            and gap > 0.0
        )
        checks.append(
            CheckLine(
                f"p={p:g}: protocols and sweep meet the closed form",
                passed,
                f"rate={_fmt6(rate)} lqicc={_fmt6(lq)} licc={_fmt6(li)} brute={_fmt6(bf)} gap={_fmt6(gap)}",
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
    return tuple(checks)
