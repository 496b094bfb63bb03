"""Mutation check: each recorded mutation of ``src/expdesign`` must make a
chosen set of tests fail.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py slices-off-by-one ladder-skips-zero

Each entry of ``MUTANTS`` is (name, file under ``src/expdesign``, old
text, new text, pytest arguments). For each, the script copies ``src/`` to
a temporary directory, replaces the old text, which must occur exactly
once, by the new, and runs ``python -m pytest -q -x`` on the arguments
with that copy first on ``PYTHONPATH`` and one BLAS thread. The mutant is
killed when pytest reports failures (exit 1); it survives when the tests
pass. Any other exit (a selection that collects nothing, an error in the
run) is reported as such. No file of the checkout is changed. The script
exits 1 when a mutant survives or an entry does not apply, and 0 when all
are killed. It is not part of the tier-1 suite: each mutant runs its own
pytest process.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WHITENED = ["tests/test_surrogates.py", "-k", "TestWhitenedRows or TestDualScores"]

MUTANTS = [
    (
        "slices-off-by-one",
        "pool.py",
        "slice(n * i // k, n * (i + 1) // k)",
        "slice(n * i // k, n * (i + 1) // k + 1)",
        ["tests/test_pool.py", "-k", "slices"],
    ),
    (
        "ladder-skips-zero",
        "surrogates.py",
        "for jitter in (0.0, *jitters):",
        "for jitter in jitters:",
        ["tests/test_surrogates.py", "-k", "TestLinUcb or TestGaussianProcess"],
    ),
    (
        "returns-after-failed-factor",
        "surrogates.py",
        "        except np.linalg.LinAlgError:\n            continue\n"
        "    raise NumericalError",
        "        except np.linalg.LinAlgError:\n            return shifted, jitter\n"
        "    raise NumericalError",
        ["tests/test_surrogates.py", "-k", "TestGaussianProcess"],
    ),
    (
        "skips-column-sums",
        "surrogates.py",
        'self.sums[cols] += np.einsum("ij,ij->j", out, out)',
        "self.sums[cols] += 0.0",
        WHITENED,
    ),
    (
        "drops-l21-v-old",
        "surrogates.py",
        "np.subtract(new[:, cols], block, out=block)",
        "np.subtract(new[:, cols], 0.0, out=block)",
        WHITENED,
    ),
    (
        "returns-before-extending",
        "surrogates.py",
        "                self._extend(rows, kept, reg + self.jitter)\n                return\n",
        "                return\n",
        WHITENED,
    ),
]


def run_mutant(file: str, old: str, new: str, args: list[str]) -> str:
    """``killed``, ``SURVIVED``, or why the mutant could not be judged."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "expdesign" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"NOT APPLIED: the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        where = subprocess.run(
            [sys.executable, "-c", "import expdesign; print(expdesign.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            return f"NOT APPLIED: expdesign imports from {where or 'nowhere'}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:
        return "killed"
    return f"ERROR: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    names = parser.parse_args(argv).names
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    results = []
    for name, file, old, new, args in MUTANTS:
        if names and name not in names:
            continue
        start = time.monotonic()
        outcome = run_mutant(file, old, new, args)
        results.append(outcome)
        print(f"{name:30s} {outcome}  ({time.monotonic() - start:.0f} s)", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
