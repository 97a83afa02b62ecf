"""The paper's Werner closed forms and the `cohdist scan` sweep over them.

Standard library and scalars only, and each row a plain dict, so a scan
loads neither numpy nor dataclasses.  This is a top layer: only verify,
which holds the matrix-level routes to these forms, and cli import it,
so no route can reach the forms it is checked against."""

from __future__ import annotations

import math

from .scalars import _check_p, _fmt6, _indices, xlog2x

MAX_SCAN_STEPS = 1_000_001

LN2 = math.log(2.0)


def qi_werner_closed_form(p: float) -> float:
    """Quantum-incoherent relative entropy of werner(p):
    (1-p)/4 log2(1-p) - (1+p)/2 log2(1+p) + (1+3p)/4 log2(1+3p)."""
    p = _check_p(p)
    return 0.25 * xlog2x(1.0 - p) - 0.5 * xlog2x(1.0 + p) + 0.25 * xlog2x(1.0 + 3.0 * p)


def rate_werner_closed_form(p: float) -> float:
    """Distillation rate of both Werner protocols, c_re(p|+><+| + (1-p)I/2):
    (1+p)/2 log2(1+p) + (1-p)/2 log2(1-p)."""
    p = _check_p(p)
    return 0.5 * (xlog2x(1.0 + p) + xlog2x(1.0 - p))


def gap_second_derivative(p: float) -> float:
    """d^2/dp^2 of the gap qi - rate: (1 - 3p) / ((1 + 3p)(1 - p^2) ln 2).

    Positive below p = 1/3, negative above.  Finite at p = 0, where it is
    1/ln 2; undefined (nan) at p = 1, where the ln(1 - p) term diverges.
    """
    p = _check_p(p)
    if p == 1.0:
        return math.nan
    return (1.0 - 3.0 * p) / ((1.0 + 3.0 * p) * (1.0 - p * p) * LN2)


def figure_data(p_from: float, p_to: float, steps: int) -> list[dict[str, float]]:
    """Uniform closed-form sweep over [p_from, p_to]: one {p, qi, rate, gap} row per sample."""
    (steps,) = _indices((steps,), "steps", least=2)
    # the CSV prints p to 6 decimals: no more distinct rows fit in [0, 1]
    if steps > MAX_SCAN_STEPS:
        raise ValueError(f"steps must be at most {MAX_SCAN_STEPS}, got {steps}")
    if not 0.0 <= p_from <= p_to <= 1.0:
        raise ValueError(f"need 0 <= from <= to <= 1, got {p_from}..{p_to}")
    records = []
    for k in range(steps):
        # the formula may end one ulp either side of p_to: the last sample is p_to
        p = p_from + (p_to - p_from) * k / (steps - 1) if k < steps - 1 else p_to
        qi = qi_werner_closed_form(p)
        rate = rate_werner_closed_form(p)
        records.append({"p": p, "qi": qi, "rate": rate, "gap": qi - rate})
    return records


CSV_HEADER = "p,qi,rate,gap"


def records_to_csv(records) -> str:
    """Six-decimal CSV, as scalars._fmt6 prints, with the fixed header row."""
    lines = [CSV_HEADER, *(",".join(map(_fmt6, r.values())) for r in records)]
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    """Full-precision JSON array of {p, qi, rate, gap} objects."""
    import json  # only --format json needs it

    return json.dumps(records, indent=2) + "\n"
