"""Mutation harness: does tier-1 fail every one-line mutant of the package?

    python mutants/run.py

Each row of MUTANTS names a file under src/cohdist, a text that must occur
in it exactly once, and the text that replaces it.  For each row the
harness copies the checkout (without .git or caches) into a temporary
directory, applies the row there, and runs two checks on the copy:
`python -m cohdist.cli verify all`, and tier-1, `python -m pytest -q
-W error::RuntimeWarning -p no:cacheprovider` over the copy's tests.  A
nonzero exit kills the mutant.  One JSON line per row says which checks
killed it and names the tier-1 tests that failed; a last line sums up.

The first row changes nothing: both checks must pass on it.  Every other
row must be killed by tier-1; `verify all` is reported beside it.  The
harness exits 1 on a survivor, on a failing control, or on an error (a
row whose text is not found exactly once, or a check that runs past
TIMEOUT_S).  On SIGTERM it exits 143, once the running check is killed
and the row's copy removed.  Standard library only; it needs numpy,
pytest and hypothesis in the running interpreter, as tier-1 does.  About
10-20 s per row.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks", "*.egg-info", "build")
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)

# (name, file under src/cohdist, old, new)
MUTANTS = (
    ("control: no change", "", "", ""),
    # the baseline probe's fourteen
    ("c_re sign flip", "coherence.py",
     "return von_neumann_entropy(rho.dephased) - von_neumann_entropy(rho)",
     "return von_neumann_entropy(rho) - von_neumann_entropy(rho.dephased)"),
    ("qi dephases both sides", "coherence.py",
     "return von_neumann_entropy(rho.dephased_b) - von_neumann_entropy(rho)",
     "return von_neumann_entropy(rho.dephased) - von_neumann_entropy(rho)"),
    ("rate form times 1 + 1e-7", "closed_forms.py",
     "return 0.5 * (xlog2x(1.0 + p) + xlog2x(1.0 - p))",
     "return (1.0 + 1e-7) * 0.5 * (xlog2x(1.0 + p) + xlog2x(1.0 - p))"),
    ("SWEEP_TIE_TOL at 1e-6", "optimize.py", "SWEEP_TIE_TOL = 1e-12", "SWEEP_TIE_TOL = 1e-6"),
    ("projector pair's phase conjugated", "optimize.py",
     "pairs[:, 0, 0, 1] = 0.5 * (nx - 1j * ny)", "pairs[:, 0, 0, 1] = 0.5 * (nx + 1j * ny)"),
    ("werner built on |Phi->", "states.py",
     "_BELL = pure_state([1.0, 0.0, 0.0, 1.0], (2, 2))", "_BELL = pure_state([1.0, 0.0, 0.0, -1.0], (2, 2))"),
    ("_rates' PSD rule removed", "optimize.py", "    valid &= spectrum[0] >= -DEFAULT_TOL\n", ""),
    ("relative entropy's infinite-support branch removed", "coherence.py", "return math.inf", "continue"),
    ("lemma 1's controls made vacuous", "verify.py", "rep.discord > VERDICT_TOL,", "True,"),
    ("discord check route switched off", "coherence.py", "    if check:", "    if False:"),
    ("M09: theorem 4's sweep allowance 2e-4 -> 2e-2", "verify.py", "abs(bf - rate) <= 2e-4", "abs(bf - rate) <= 2e-2"),
    ("M10: theorem 4's bf <= rate + 1e-9 removed", "verify.py", "            and bf <= rate + 1e-9\n", ""),
    ("M12: VERDICT_TOL 1e-9 -> 1e-6", "verify.py", "VERDICT_TOL = 1e-9", "VERDICT_TOL = 1e-6"),
    ("M14: theorem 4's gap > 0.0 -> gap > -1.0", "verify.py", "and gap > 0.0", "and gap > -1.0"),
    # one per behaviour whose second copy in tier-1 was deleted; its remaining home must kill it
    ("measures prints `name: value`", "cli.py", 'print(f"{name} = {_fmt6(x)}")', 'print(f"{name}: {_fmt6(x)}")'),
    ("lqicc's Z correction times -1", "protocols.py",
     '_X_CORRECTIONS = {"+1": IDENTITY_2, "-1": PAULI_Z}', '_X_CORRECTIONS = {"+1": IDENTITY_2, "-1": _gate(-PAULI_Z)}'),
    ("licc's first correction times -1", "protocols.py",
     '"1": _gate(PHASE_MINUS_I @ PAULI_X)', '"1": _gate(-PHASE_MINUS_I @ PAULI_X)'),
    ("scan's CSV rows joined by ', '", "cli.py", '",".join(map(_fmt6, r.values()))', '", ".join(map(_fmt6, r.values()))'),
    ("scan's gap column drawn at random", "closed_forms.py", '"gap": qi - rate}', '"gap": qi - rate + __import__("random").random()}'),
    ("relative entropy in nats on sigma's side", "coherence.py", "second += w * math.log2(lam)", "second += w * math.log(lam)"),
    ("dephasing keeps entries two levels apart", "states.py",
     "np.where(_same_residue(self.dim, self.dim), self.mat, 0.0)", "np.where(_same_residue(self.dim, 2), self.mat, 0.0)"),
    ("gap curvature's numerator shifted by 1e-3", "closed_forms.py",
     "return (1.0 - 3.0 * p) / ((1.0 + 3.0 * p)", "return (1.001 - 3.0 * p) / ((1.0 + 3.0 * p)"),
    ("gap curvature 0 at p = 1", "closed_forms.py", "return math.nan", "return 0.0"),
    ("lqicc measures Y, not X", "protocols.py",
     "np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex)",
     "np.array([[[0.5, -0.5j], [0.5j, 0.5]], [[0.5, 0.5j], [-0.5j, 0.5]]])"),
    ("licc's second correction uses the -i phase", "protocols.py",
     '"2": _gate(PHASE_PLUS_I @ PAULI_X)', '"2": _gate(PHASE_MINUS_I @ PAULI_X)'),
    ("incoherence read along rows", "protocols.py", "(m > DEFAULT_TOL).sum(axis=0)", "(m > DEFAULT_TOL).sum(axis=1)"),
    ("theorem 3's two-block line negated", "verify.py", "            two_block.passed,\n", "            not two_block.passed,\n"),
    # one per input rule whose second copy in tier-1 was deleted; its remaining home must kill it
    ("measures takes both sources", "cli.py", "if (werner_p is None) == (path is None):", "if werner_p is None and path is None:"),
    ("an unreadable state file exits 2", "cli.py",
     'print(f"cannot read state file: {exc}", file=sys.stderr)\n            sys.exit(3)',
     'print(f"cannot read state file: {exc}", file=sys.stderr)\n            sys.exit(2)'),
    ("invalid JSON not caught", "cli.py", "except (json.JSONDecodeError, UnicodeDecodeError, ", "except (UnicodeDecodeError, "),
    ("undecodable bytes not caught", "cli.py", "except (json.JSONDecodeError, UnicodeDecodeError, ", "except (json.JSONDecodeError, "),
    ("--werner read as a plain float", "cli.py", '("--werner", "werner_p", _check_p,', '("--werner", "werner_p", float,'),
    ("protocol's --p not required", "cli.py", "required=default is ...", "required=False"),
    ("verify accepts a bogus suite", "cli.py", '("theorem3", "theorem4", "lemma1", "all")', '("theorem3", "theorem4", "lemma1", "all", "bogus")'),
    ("a scan may run from above its end", "closed_forms.py",
     "if not 0.0 <= p_from <= p_to <= 1.0:", "if not (0.0 <= p_from <= 1.0 and 0.0 <= p_to <= 1.0):"),
    ("a bool size read as an integer", "scalars.py", "    if isinstance(x, bool):\n", "    if False:\n"),
    ("sizes truncated by int", "scalars.py", "map(_index, values)", "map(int, values)"),
    ("bool entries read as numbers", "scalars.py",
     "if isinstance(x, bool) or not isinstance(x, (int, float)):", "if not isinstance(x, (int, float)):"),
    ("string entries read as numbers", "scalars.py",
     "if isinstance(x, bool) or not isinstance(x, (int, float)):", "if isinstance(x, bool) or not isinstance(x, (int, float, str)):"),
    ("integer entries rejected", "scalars.py",
     "if isinstance(x, bool) or not isinstance(x, (int, float)):", "if isinstance(x, bool) or not isinstance(x, float):"),
    ("a missing re key not named", "scalars.py", 'for key in ("dims", "re", "im"):', 'for key in ("dims", "im"):'),
    ("the square rule removed", "scalars.py", "if any(len(row) != n for row in rows):", "if False:"),
    ("the dims product rule removed", "scalars.py", "if math.prod(dims) != n:", "if False:"),
    ("non-finite entries reported as non-Hermitian", "scalars.py",
     "if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):", "if False:"),
    ("the qubit off-diagonal tolerance at 1.0", "scalars.py", "abs(b - c.conjugate()) <= DEFAULT_TOL", "abs(b - c.conjugate()) <= 1.0"),
    ("the trace tolerance at 1.0", "scalars.py", "if abs(tr - 1.0) > DEFAULT_TOL:", "if abs(tr - 1.0) > 1.0:"),
    ("the positivity tolerance at 1.0", "states.py", "eigs[-1] < -DEFAULT_TOL", "eigs[-1] < -1.0"),
    # one per eigen-path behaviour whose second copy in tier-1 was deleted; its remaining home must kill it
    ("the 2x2 path reads the lower triangle", "linalg.py", "(a, c), (_, d) = mat.tolist()", "(a, _), (c, d) = mat.conj().tolist()"),
    ("hermitian_eigh's values left ascending", "linalg.py", "return _converged(vals)[::-1].tolist()", "return _converged(vals).tolist()"),
    ("eigvalsh_up -> eigvalsh_lo", "linalg.py", "_umath_linalg.eigvalsh_up(", "_umath_linalg.eigvalsh_lo("),
    ("eigh_up -> eigh_lo", "linalg.py", "_umath_linalg.eigh_up(", "_umath_linalg.eigh_lo("),
    # one per theorem-4, verify-suite, scan or protocol behaviour whose second copy in tier-1 was deleted; its remaining home must kill it
    ("check_theorem3 reads the state with A and B swapped", "verify.py",
     "return discord_report(zero_discord_state(spec))",
     "return discord_report(DensityMatrix(zero_discord_state(spec).mat, zero_discord_state(spec).dims[::-1]))"),
    ("theorem 4's detail prints gap before brute", "verify.py",
     "brute={_fmt6(bf)} gap={_fmt6(gap)}", "gap={_fmt6(gap)} brute={_fmt6(bf)}"),
    ("lemma 1 draws 99 specs", "verify.py", "for i in range(100):", "for i in range(99):"),
    ("lemma 1 ignores its seed", "verify.py", "rng = np.random.default_rng(seed)", "rng = np.random.default_rng()"),
    ("the gap minimum's p read one step low", "verify.py",
     "at p={(gaps.index(min(gaps)) + 1) / 1000:g}", "at p={gaps.index(min(gaps)) / 1000:g}"),
    ("the curvature line skips the central difference", "verify.py", "lo > 0.0 > hi and fd_agrees,", "lo > 0.0 > hi,"),
    ("scan's rate column before qi", "closed_forms.py",
     '{"p": p, "qi": qi, "rate": rate, "gap": qi - rate}', '{"p": p, "rate": rate, "qi": qi, "gap": qi - rate}'),
    ("scan's p jittered by 1e-12 at random", "closed_forms.py",
     '{"p": p, "qi": qi,', '{"p": p + 1e-12 * __import__("random").random(), "qi": qi,'),
    ("scan's JSON ends without a newline", "cli.py", '["\\n]\\n"]', '["\\n]"]'),
    ("scan --out drops the file's last newline", "cli.py", "fh.writelines(text)", 'fh.write("".join(text).rstrip("\\n"))'),
    ("theorem 3's product line expects qi = 0.5", "verify.py",
     "abs(product.qi - 1.0) <= VERDICT_TOL", "abs(product.qi - 0.5) <= VERDICT_TOL"),
    ("theorem 4 sweeps its grid transposed", "verify.py",
     "brute_force_measurement_opt(p, brute_grid).rate", "brute_force_measurement_opt(p, brute_grid[::-1]).rate"),
    ("lqicc's outcome labels swapped", "protocols.py", '("+1", "-1"))', '("-1", "+1"))'),
    ("PAULI_Z holds X", "protocols.py",
     "PAULI_Z = _gate(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))",
     "PAULI_Z = _gate(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))"),
    ("werner's noise coherent on B", "states.py", "linalg.identity(4) / 4.0", "np.kron(linalg.identity(2), np.ones((2, 2))) / 4.0"),
)


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(cwd / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def try_row(name: str, file: str, old: str, new: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="cohdist-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if old:
            path = tree / "src" / "cohdist" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return {"row": name, "verdict": "error", "error": f"{old!r} occurs {text.count(old)} times in {file}"}
            path.write_text(text.replace(old, new), encoding="utf-8")
        try:
            verify = run([sys.executable, "-m", "cohdist.cli", "verify", "all"], tree)
            tier1 = run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-W", "error::RuntimeWarning", "-p", "no:cacheprovider"], tree)
        except subprocess.TimeoutExpired as exc:
            return {"row": name, "verdict": "error", "error": f"{' '.join(exc.cmd[2:])} ran past {TIMEOUT_S} s"}
    killed_by = [check for check, proc in (("verify all", verify), ("tier-1", tier1)) if proc.returncode]
    failed = FAILED.findall(tier1.stdout)
    if not old:
        verdict = "control failed" if killed_by else "control passed"
    else:
        verdict = "killed" if tier1.returncode else "survived"
    return {"row": name, "verdict": verdict, "killed_by": killed_by, "tier1_exit": tier1.returncode, "failed": failed}


def main() -> int:
    # a CI cancel or `kill` sends SIGTERM: exit through SystemExit, so that subprocess.run
    # kills its child and the row's TemporaryDirectory is removed as the stack unwinds
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = []
    for row in MUTANTS:
        results.append(try_row(*row))
        print(json.dumps(results[-1]), flush=True)
    counts = {v: sum(r["verdict"] == v for r in results) for v in ("control passed", "killed", "survived", "control failed", "error")}
    print(json.dumps({"rows": len(results), **counts}))
    return 0 if counts["control passed"] + counts["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
