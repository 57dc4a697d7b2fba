"""Mutation runner: which fast tests catch each of a few one-token defects.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a temporary copy of the repository, and runs

    python -m pytest -q -m "not slow" --ignore=tests/test_golden.py

in the copy.  The unmutated copy runs first and must pass.  The golden
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
}


def run_suite(copy: Path) -> list[str]:
    """The ids of the tests that failed or errored in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    res = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.MULTILINE)


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
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
        for name in names or list(MUTANTS):
            file, old, new = MUTANTS[name]
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: {old!r} occurs {text.count(old)} times in {file}",
                      file=sys.stderr)
                return 2
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
