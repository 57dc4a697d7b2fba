"""Mutation runner: which fast tests catch each of a few one-token defects.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a temporary copy of the repository, and runs

    python -m pytest -q -m "not slow" --ignore=tests/test_golden.py

in the copy.  Before any suite runs, every selected mutant's text is
counted; if some do not occur exactly once, it names them all and exits
2.  The unmutated copy runs first and must pass.  The golden
digests are left out because they catch any change to the printed bytes;
the question is whether a check of meaning catches the defect.  Prints
each mutant with the tests that failed on it, and exits 1 if any mutant
survives.  pytest does not collect this file (its name does not start
with test_).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PYTEST = (sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
          "-m", "not slow", "--ignore=tests/test_golden.py")

# A suite that runs this many seconds (the unmutated one takes about one
# minute) is stopped, and its mutant counts as killed by a hang.
TIMEOUT = 900

# name: (file, text, replacement)
MUTANTS = {
    "fold delta at 1 + 2^-52": (
        "src/rumour/model.py", "p.delta == 1.0", "p.delta in (1.0, 1.0 + 2.0**-52)"),
    "fold theta1 at 1 + 2^-52": (
        "src/rumour/model.py", "p.theta1 == 1.0", "p.theta1 in (1.0, 1.0 + 2.0**-52)"),
    "fold theta2 at 1 + 2^-52": (
        "src/rumour/model.py", "p.theta2 == 1.0", "p.theta2 in (1.0, 1.0 + 2.0**-52)"),
    "fold gamma at 1 + 2^-52": (
        "src/rumour/model.py", "p.gamma == 1.0", "p.gamma in (1.0, 1.0 + 2.0**-52)"),
    "drop theta2 term at a subnormal": (
        "src/rumour/model.py", "p.theta2 == 0.0", "p.theta2 in (0.0, 5e-324)"),
    "delta = 1 step: u = n - x": (
        "src/rumour/simulate.py", "0 if delta1 else", "n - x[done] if delta1 else"),
    "rate_weights: n for n + 1": (
        "src/rumour/model.py", "p.gamma, n + 1, 1.0, 2.0", "p.gamma, n, 1.0, 2.0"),
    "C: (1 - theta)^3": (
        "src/rumour/clt.py", "(1.0 - th) ** 2", "(1.0 - th) ** 3"),
    "Dormand-Prince a65 = -5103/18657": (
        "src/rumour/clt.py", "-5103 / 18656", "-5103 / 18657"),
    "ODE error norm over size - 1": (
        "src/rumour/clt.py", "/ len(est))", "/ (len(est) - 1))"),
    "Lyapunov ODE: uu row without its factor 2": (
        "src/rumour/clt.py", "a * (2.0 * xu + x)", "a * (xu + x)"),
    "Lyapunov ODE: xy row decays at theta, not 1 + theta": (
        "src/rumour/clt.py", "(1.0 + th) * xy", "th * xy"),
    "B: gamma + theta": (
        "src/rumour/clt.py", "/ (g + d * th)", "/ (g + th)"),
    "delta = 1 w1 fill at a subnormal": (
        "src/rumour/model.py", "np.zeros(w0.shape)", "np.full(w0.shape, 5e-324)"),
    "McStats: x . x for x . u": (
        "src/rumour/simulate.py", "np.dot(x, u)", "np.dot(x, x)"),
    "JSON table: 16 digits": (
        "src/rumour/jsonio.py", "else '%.17g'", "else '%.16g'"),
    "JSON table: % in keys unescaped": (
        "src/rumour/jsonio.py", "json.dumps(k).replace('%', '%%')", "json.dumps(k)"),
    "A: gamma * x in the denominator": (
        "src/rumour/clt.py", "/ (g - (g + d) * x)", "/ (g - g * x)"),
    "Sigma: s12 - A * B": (
        "src/rumour/clt.py", "+ consts.a * consts.b", "- consts.a * consts.b"),
    "Philox seek one counter late": (
        "src/rumour/simulate.py", "= draw // 4", "= draw // 4 + 1"),
    "McStats: sum x for sum u": (
        "src/rumour/simulate.py", "int(u.sum())", "int(x.sum())"),
    "kernel: w0 threshold inclusive": (
        "src/rumour/simulate.py", "np.less(v, w0", "np.less_equal(v, w0"),
    "window: a change at the absorbing jump ignored": (
        "src/rumour/simulate.py", "np.less_equal(diff.argmax(axis=1), last)",
        "np.less(diff.argmax(axis=1), last)"),
    "window: prefix sums shifted by one jump": (
        "src/rumour/simulate.py", "packed.ravel()[1:]", "packed.ravel()[:-1]"),
    "window: converged when the first jump is": (
        "src/rumour/simulate.py", "np.less_equal(diff.argmax(axis=1), last)",
        "np.less_equal(diff.argmax(axis=1), 0)"),
    "window: absorption read one jump early": (
        "src/rumour/simulate.py", "ys[:, 1:] == 0", "ys[:, :-1] == 0"),
    "JSON: a Python bool rendered as an int": (
        "src/rumour/jsonio.py", "isinstance(obj, bool) or isinstance(obj, np.bool_)",
        "isinstance(obj, np.bool_)"),
    "window: one jump past absorption counted": (
        "src/rumour/simulate.py", "np.less(np.arange(width), taken[:, None]",
        "np.less_equal(np.arange(width), taken[:, None]"),
    "move table: w0 and w1 swapped": (
        "src/rumour/simulate.py", "(-1.0, 0.0), (-1.0, 1.0)", "(-1.0, 1.0), (-1.0, 0.0)"),
    "kappa: theta1 and theta2 weights swapped": (
        "src/rumour/clt.py", "kappa = 3.0 * p.theta1 + 2.0 * p.theta2 - 4.0 * g\n    a = x",
        "kappa = 2.0 * p.theta1 + 3.0 * p.theta2 - 4.0 * g\n    a = x"),
    "D: (gamma + delta theta)^3": (
        "src/rumour/clt.py", "(g + d * th) ** 2", "(g + d * th) ** 3"),
    "McStats: x . u for x . x": (
        "src/rumour/simulate.py", "np.dot(x, x)", "np.dot(x, u)"),
    "McStats: u . x for u . u": (
        "src/rumour/simulate.py", "np.dot(u, u)", "np.dot(u, x)"),
    "McStats: sum u for sum x": (
        "src/rumour/simulate.py", "int(x.sum())", "int(u.sum())"),
    "fluid: --t-max bound at 2 t_inf": (
        "src/rumour/cli.py", "t_max <= t_inf:", "t_max <= 2 * t_inf:"),
    "exact oracle: w1 pull from the wrong u": (
        "src/rumour/simulate.py", "two[t, :-1]", "two[t, 1:]"),
    "step: holding time added, not subtracted": (
        "src/rumour/simulate.py", "t -= holding(", "t += holding("),
    "exact-time: lambda applied twice": (
        "src/rumour/simulate.py", "/ params.lam", "/ params.lam / params.lam"),
    "ODE clock scaled by lambda": (
        "src/rumour/clt.py", "math.exp(-s)", "math.exp(-p.lam * s)"),
    "step: x falls on w0 alone": (
        "src/rumour/simulate.py", "x -= b", "x -= a"),
    "moves: w2 threshold inclusive": (
        "src/rumour/simulate.py", "np.less(v, c2)", "np.less_equal(v, c2)"),
    "monte_carlo walks exact-time": (
        "src/rumour/simulate.py", "iter_final_states(n, reps, params, master_seed)",
        'iter_final_states(n, reps, params, master_seed, mode="exact-time")'),
    "[0, 1] aux range bound at 2": (
        "src/rumour/model.py", "lambda v: 0 <= v <= 1", "lambda v: 0 <= v <= 2"),
    "(0, 1] aux range closed at 0": (
        "src/rumour/model.py", "lambda v: 0 < v <= 1", "lambda v: 0 <= v <= 1"),
    "aux loop skips a preset's last name": (
        "src/rumour/model.py", "for key in info.aux:", "for key in info.aux[:-1]:"),
    "pearce: q1 + q2 bound at 2": (
        "src/rumour/model.py", "q1 + q2 <= 1,", "q1 + q2 <= 2,"),
    "model: theta1 + theta2 = 0 admitted": (
        "src/rumour/model.py", "self.theta1 + self.theta2 > 0", "self.theta1 + self.theta2 >= 0"),
    "CLI: header after the command's keys": (
        "src/rumour/cli.py", "jsonio.dumps(header | out)", "jsonio.dumps(out | header)"),
    "CSV: no header row": (
        "src/rumour/cli.py", '[",".join(rows[0])] +', ""),
    "oracle: mean_x over n + 1": (
        "src/rumour/cli.py", "@ np.arange(n + 1)) / n,", "@ np.arange(n + 1)) / (n + 1),"),
    "fluid: u without its factor 1 - delta": (
        "src/rumour/clt.py", '"u": (1.0 - p.delta) * (1.0 - x)', '"u": (1.0 - x)'),
    "t_inf: finite check removed": (
        "src/rumour/clt.py", "if not math.isfinite(t):", "if False:"),
    "window: a round reads the window's rows, not the chunk's": (
        "src/rumour/simulate.py", "at = live[act]", "at = act"),
    "Philox reader: live row r written one row up": (
        "src/rumour/simulate.py", "gen.random(out=out[r])", "gen.random(out=out[r - 1])"),
}


def run_suite(copy: Path) -> list[str]:
    """The ids of the tests that failed or errored in copy, or a note that
    the suite timed out."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        res = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return [f"(the suite ran past {TIMEOUT} s)"]
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.MULTILINE)


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    # a stale text is named before the suite runs, not a run per mutant later
    stale = []
    for name in names:
        file, old, _ = MUTANTS[name]
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            stale.append(f"{name}: {old!r} occurs {count} times in {file}")
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        # the whole tree: some tests read README.md and perfbench/
        shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        failed = run_suite(copy)
        if failed:
            print(f"the unmutated copy fails: {failed}", file=sys.stderr)
            return 2
        survivors = 0
        for name in names:
            file, old, new = MUTANTS[name]
            path = copy / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                killers = run_suite(copy)
            finally:
                path.write_text(text)
            survivors += not killers
            print(f"{name}: {len(killers)} killed it" if killers else f"{name}: SURVIVED",
                  flush=True)
            for test in killers:
                print(f"    {test}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
