"""The recorded mutants.  tests/mutants.json holds one entry per mutation of
the package that the tests are known to catch: the file, its exact old text
(which occurs once in it), the new text and the tests that must fail.

Run as a script, this applies each mutant to a copy of the tree and runs its
named tests there.  A mutant survives when one of its named tests does not
fail; then the script exits 1.

    python tests/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "build", "*.egg-info")


def load() -> list:
    return json.loads(TABLE.read_text())


def failed_tests(mutant: dict) -> set:
    """Apply mutant to a copy of the tree; the ids of the tests that fail there."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        path = copy / mutant["file"]
        text = path.read_text()
        assert text.count(mutant["old"]) == 1, mutant["name"]
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant["tests"]],
                             cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")), capture_output=True, text=True)
    return {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}


def survivors(mutant: dict, failed: set) -> list:
    """The named tests that did not fail; a parametrised name fails when any of
    its cases does."""
    return [test for test in mutant["tests"] if not any(f == test or f.startswith(test + "[") for f in failed)]


def main() -> int:
    start, mutants, survived = time.perf_counter(), load(), 0
    for mutant in mutants:
        failed = failed_tests(mutant)
        alive = survivors(mutant, failed)
        survived += bool(alive)
        print(f"{'SURVIVED' if alive else 'caught  '} {mutant['name']}: {len(failed)} tests failed")
        for test in sorted(failed):
            print(f"    failed {test}")
        for test in alive:
            print(f"    did not fail {test}")
    print(f"{survived} of {len(mutants)} mutants survived in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
