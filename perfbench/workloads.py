"""The three benchmark workloads.

Each workload draws all of its inputs from the seed when it is built,
hands the package only those inputs, and exposes two methods:

  call(item)         the timed work: calls into cohdist's public functions
  check(item, out)   compares out with oracle.py; returns a list of problems

Every call goes through a module attribute (optimize.brute_force_...),
never a name bound at import, so tracer.Tracer sees it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

CLI_TIMEOUT_S = 60.0


def _ginibre_state(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / m.trace().real


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    # written as `not <=` so that a NaN fails
    if not abs(got - want) <= tol:
        return [f"{label}: got {got!r}, reference {want!r}, tolerance {tol:g}"]
    return []


class WernerCertify:
    """Theorem-4 certificate for one seeded p per item: the measurement
    sweep and both protocols.  The odd theta count puts theta = pi/2, where
    the optimum lies, on the grid."""

    name = "werner_certify"
    GRID = (21, 20)
    TRACE_ITEMS = 24
    TAIL_PERCENTILE = 90.0

    def __init__(self, seed: int, root: Path, workdir: Path):
        from cohdist import optimize, protocols, states

        self.optimize, self.protocols, self.states = optimize, protocols, states
        rng = np.random.default_rng(seed)
        self.items = [float(p) for p in rng.uniform(0.05, 0.95, 512)]

    def call(self, p: float):
        sweep = self.optimize.brute_force_measurement_opt(p, self.GRID)
        lqicc = self.protocols.lqicc_werner_protocol(p)
        licc = self.protocols.licc_erasing_protocol(p)
        return sweep, lqicc.rate, licc.rate

    def check(self, p: float, out) -> list[str]:
        sweep, lqicc, licc = out
        ref = oracle.rate_werner(p)
        problems = _close(f"sweep rate at p={p}", sweep.rate, ref, 2e-4)
        if not sweep.rate <= ref + 1e-9:
            problems.append(f"sweep rate {sweep.rate!r} beats the closed form {ref!r} at p={p}")
        problems += _close(f"lqicc rate at p={p}", lqicc, ref, 1e-10)
        problems += _close(f"licc rate at p={p}", licc, ref, 1e-10)
        # the reported argmax must attain the reported rate
        up, down = oracle.direction_projectors(sweep.theta, sweep.phi)
        channel = self.protocols.KrausChannel((up, down))
        again = self.protocols.ensemble_rate(
            self.protocols.measure_local_A(self.states.werner(p), channel)
        )
        problems += _close(
            f"rate recomputed at theta={sweep.theta}, phi={sweep.phi}", again, sweep.rate, 1e-12
        )
        return problems


class DiscordAudit:
    """Discord checks on random states.  Items alternate between a seeded
    zero-discord spec (verify.check_theorem3) and a Ginibre state of the
    same dims (verify.discord_report); the dims cycle in a fixed order so
    every seed has the same mix of matrix sizes."""

    name = "discord_audit"
    DIMS = ((2, 2), (2, 3), (2, 4), (3, 3))
    POOL = 384
    TRACE_ITEMS = 400
    TAIL_PERCENTILE = 99.0

    def __init__(self, seed: int, root: Path, workdir: Path):
        from cohdist import states, verify

        self.states, self.verify = states, verify
        rng = np.random.default_rng(seed)
        self.items = []
        for i in range(self.POOL):
            dims = self.DIMS[(i // 2) % len(self.DIMS)]
            if i % 2 == 0:
                spec = states.random_zero_discord_spec(rng, *dims)
                mat = sum(w * np.kron(a.mat, b.mat) for w, a, b in zip(spec.weights, spec.a_states, spec.b_states))
                self.items.append(("zero", dims, spec, mat))
            else:
                self.items.append(("general", dims, None, _ginibre_state(rng, dims[0] * dims[1])))

    def call(self, item):
        kind, dims, spec, mat = item
        if kind == "zero":
            return self.verify.check_theorem3(spec)
        return self.verify.discord_report(self.states.DensityMatrix(mat, dims))

    def check(self, item, report) -> list[str]:
        kind, dims, _, mat = item
        ref = oracle.bipartite_measures(mat, *dims)
        tag = f"{kind} {dims[0]}x{dims[1]}"
        problems = _close(f"{tag} qi", report.qi, ref["qi"], 1e-9)
        problems += _close(f"{tag} C_re(rho_B)", report.marginal_coherence, ref["cre_b"], 1e-9)
        problems += _close(f"{tag} discord", report.discord, ref["discord"], 1e-9)
        if not report.discord >= -1e-9:
            problems.append(f"{tag} discord {report.discord!r} is negative")
        if kind == "zero" and not report.passed:
            problems.append(f"{tag} zero-discord state did not pass")
        if kind == "general" and ref["discord"] > 1e-6 and report.passed:
            problems.append(f"{tag} state with discord {ref['discord']:.3e} passed")
        return problems


def _state_payload(mat: np.ndarray, dims) -> dict:
    return {"dims": list(dims), "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _theorem3_reference() -> list[float]:
    """qi of the two fixed states `cohdist verify theorem3` prints, then
    C_re(rho_B) of the second."""
    plus = np.full((2, 2), 0.5)
    zero = np.diag([1.0, 0.0])
    product = oracle.bipartite_measures(np.kron(zero, plus), 2, 2)
    psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    two = np.diag([0.0, 0.0, 1.0])
    mixed = 0.6 * np.kron(zero, np.outer(psi, psi)) + 0.4 * np.kron(plus, two)
    block = oracle.bipartite_measures(mixed, 2, 3)
    return [product["qi"], block["qi"], block["cre_b"]]


def _numbers_after(line: str, key: str) -> float:
    return float(line.split(key, 1)[1].split()[0].rstrip(")"))


class CliSession:
    """A seeded sequence of short `python -m cohdist.cli` commands, one
    fresh process at a time.  Commands come in rounds holding one of each
    kind in seeded order, so every seed runs the same mix; one command in
    six is a malformed state file that must exit 2 with nothing on stdout."""

    name = "cli_session"
    KINDS = ("measures_werner", "measures_file", "protocol", "scan", "verify", "malformed")
    MALFORMED = ("non_hermitian", "bad_trace", "non_psd", "non_bipartite", "invalid_json")
    ROUNDS = 10
    VALID_FILES = 8
    TRACE_ITEMS = 12
    TAIL_PERCENTILE = 50.0

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.prefix = [sys.executable, "-m", "cohdist.cli"]
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.states = {}
        for i in range(self.VALID_FILES):
            dims = (2, 2) if i % 2 == 0 else (2, 3)
            mat = _ginibre_state(rng, dims[0] * dims[1])
            path = workdir / f"state{i}.json"
            path.write_text(json.dumps(_state_payload(mat, dims)))
            self.states[str(path)] = (mat, dims)
        self.malformed = {}
        for kind in self.MALFORMED:
            path = workdir / f"{kind}.json"
            path.write_text(self._malformed_text(kind, rng))
            self.malformed[kind] = str(path)
        self.theorem3_ref = _theorem3_reference()
        self.items = []
        for r in range(self.ROUNDS):
            for k in rng.permutation(len(self.KINDS)):
                self.items.append(self._command(self.KINDS[k], r, rng))

    def _malformed_text(self, kind: str, rng: np.random.Generator) -> str:
        if kind == "non_psd":
            u = _random_unitary(rng, 4)
            mat = u @ np.diag([0.6, 0.5, 0.1, -0.2]) @ u.conj().T
            return json.dumps(_state_payload(0.5 * (mat + mat.conj().T), (2, 2)))
        if kind == "non_bipartite":
            return json.dumps(_state_payload(_ginibre_state(rng, 4), (4,)))
        mat = _ginibre_state(rng, 4)
        if kind == "non_hermitian":
            mat[0, 1] += 1e-3
        elif kind == "bad_trace":
            mat *= 1.0 + rng.uniform(0.01, 0.3)
        text = json.dumps(_state_payload(mat, (2, 2)))
        return text[: len(text) // 2] if kind == "invalid_json" else text

    def _command(self, kind: str, round_: int, rng: np.random.Generator):
        p = float(rng.uniform(0.05, 0.95))
        if kind == "measures_werner":
            return kind, ["measures", "--werner", repr(p)], p
        if kind == "measures_file":
            path = list(self.states)[int(rng.integers(len(self.states)))]
            return kind, ["measures", "--file", path], path
        if kind == "protocol":
            name = ("lqicc", "licc")[int(rng.integers(2))]
            return kind, ["protocol", name, "--p", repr(p)], p
        if kind == "scan":
            lo, hi = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0))
            fmt = ("csv", "json")[int(rng.integers(2))]
            args = ["scan", "--from", repr(lo), "--to", repr(hi), "--steps", "101", "--format", fmt]
            return kind, args, (lo, hi, fmt)
        if kind == "verify":
            return kind, ["verify", "theorem3"], None
        which = self.MALFORMED[round_ % len(self.MALFORMED)]
        return kind, ["measures", "--file", self.malformed[which]], which

    def call(self, item):
        proc = subprocess.run(
            [*self.prefix, *item[1]],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            env=self.env,
            cwd=self.root,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out) -> list[str]:
        kind, args, expect = item
        code, stdout = out
        if kind == "malformed":
            if code != 2 or stdout:
                return [f"malformed {expect} file: exit {code}, stdout {stdout[:80]!r}"]
            return []
        if code != 0:
            return [f"{' '.join(args)}: exit {code}"]
        lines = stdout.splitlines()
        if kind in ("measures_werner", "measures_file"):
            return self._check_measures(lines, expect)
        if kind == "protocol":
            return self._check_protocol(lines, expect)
        if kind == "scan":
            return self._check_scan(stdout, *expect)
        return self._check_theorem3(lines)

    def _check_measures(self, lines, expect) -> list[str]:
        if isinstance(expect, float):
            ref = oracle.bipartite_measures(oracle.werner_matrix(expect), 2, 2)
        else:
            mat, dims = self.states[expect]
            ref = oracle.bipartite_measures(mat, *dims)
        keys = (("S(rho)", "S"), ("C_re(rho_B)", "cre_b"), ("C_re^A|B(rho)", "qi"), ("D^A|B(rho)", "discord"))
        if [line.split(" = ")[0] for line in lines] != [k for k, _ in keys]:
            return [f"measures printed {lines!r}"]
        problems = []
        for line, (label, key) in zip(lines, keys):
            problems += _close(label, float(line.split(" = ")[1]), ref[key], 1e-6)
        return problems

    def _check_protocol(self, lines, p: float) -> list[str]:
        problems = _close("printed p", _numbers_after(lines[1], "p = "), p, 1e-6)
        problems += _close("rate", _numbers_after(lines[-1], "rate = "), oracle.rate_werner(p), 1e-6)
        probs = [_numbers_after(x, "probability = ") for x in lines if "probability = " in x]
        if len(probs) != 2:
            problems.append(f"expected 2 outcomes, got {len(probs)}")
        for q in probs:
            problems += _close("outcome probability", q, 0.5, 1e-6)
        # both corrected branches equal p|+><+| + (1-p) I/2
        want = [[0.5, 0.5 * p], [0.5 * p, 0.5]]
        for at in (i for i, x in enumerate(lines) if x == "bob state ="):
            rows = [[complex(v) for v in x.strip(" []").split(", ")] for x in lines[at + 1 : at + 3]]
            for i in range(2):
                for j in range(2):
                    problems += _close(f"bob state [{i},{j}]", abs(rows[i][j] - want[i][j]), 0.0, 1e-6)
        return problems

    def _check_scan(self, stdout: str, lo: float, hi: float, fmt: str) -> list[str]:
        if fmt == "json":
            rows = [(r["p"], r["qi"], r["rate"], r["gap"]) for r in json.loads(stdout)]
        else:
            lines = stdout.splitlines()
            if lines[0] != "p,qi,rate,gap":
                return [f"scan csv header {lines[0]!r}"]
            rows = [tuple(float(v) for v in x.split(",")) for x in lines[1:]]
        if len(rows) != 101:
            return [f"scan printed {len(rows)} rows, expected 101"]
        problems = []
        for k, row in enumerate(rows):
            p = lo + (hi - lo) * k / 100
            qi, rate = oracle.qi_werner(p), oracle.rate_werner(p)
            for label, got, want in zip(("p", "qi", "rate", "gap"), row, (p, qi, rate, qi - rate)):
                problems += _close(f"scan row {k} {label}", got, want, 1e-6)
        return problems

    def _check_theorem3(self, lines) -> list[str]:
        if lines[-1] != "2/2 checks passed" or not all(x.startswith("[PASS]") for x in lines[:-1]):
            return [f"verify theorem3 printed {lines!r}"]
        got = [_numbers_after(lines[0], "qi="), _numbers_after(lines[1], "qi="), _numbers_after(lines[1], "c_re(B)=")]
        problems = []
        for label, g, w in zip(("product qi", "two-block qi", "two-block C_re(B)"), got, self.theorem3_ref):
            problems += _close(label, g, w, 1e-6)
        for x in lines[:-1]:
            problems += _close("theorem3 discord", _numbers_after(x, "discord="), 0.0, 1e-9)
        return problems


WORKLOADS = {w.name: w for w in (WernerCertify, DiscordAudit, CliSession)}
