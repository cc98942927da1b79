"""The pinned command line runs.  tests/pinned_runs.json holds one entry per
run: its name, why it is pinned, its argv, exit code, stdout and stderr.  An
output of more than LONG lines is pinned by its sha256 and line count instead
of its text.  Every run has TIMEOUT seconds.

`mismatches` is the one comparison, and it has two callers:
tests/test_pinned_runs.py runs every entry in process through cli.main, and
this file, run as a script, runs every entry through the polyfunctor command
on PATH.  Run it from outside the checkout, so that the installed package
runs:

    cd /tmp && python /path/to/repo/tests/pinned_runs.py
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

TABLE = Path(__file__).with_name("pinned_runs.json")
LONG = 40
TIMEOUT = 10


def load() -> list:
    return json.loads(TABLE.read_text())


def pinned(text: str):
    """An output as the table pins it: its text, or when it has more than LONG
    lines (newlines, as wc -l counts them) its sha256 and line count."""
    lines = text.count("\n")
    return text if lines <= LONG else {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": lines}


def captured(entry: dict, code: int, stdout: str, stderr: str) -> dict:
    """The entry with a run's exit code and outputs in place of its pins."""
    return dict(entry, exit=code, stdout=pinned(stdout), stderr=pinned(stderr))


def mismatches(entry: dict, code: int, stdout: str, stderr: str, seconds: float) -> list:
    """The pins a run breaks: each of exit, stdout and stderr that differs from
    its entry, and timeout when the run took longer than TIMEOUT seconds."""
    got = captured(entry, code, stdout, stderr)
    return [key for key in ("exit", "stdout", "stderr") if got[key] != entry[key]] + (
        ["timeout"] if seconds > TIMEOUT else [])


def dumps(entry: dict) -> str:
    """One entry in the table's layout, one key a line."""
    return "  {\n" + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items()) + "\n  }"


def recapture(entry: dict, code: int, stdout: str, stderr: str) -> str:
    """The entry as a run captures it, in the table's layout, followed by the
    full text of each output that it pins by digest: the lines to read before
    a digest goes into the table."""
    got = captured(entry, code, stdout, stderr)
    return dumps(got) + "".join(f"\n{key} ({got[key]['lines']} lines):\n{text}"
                                for key, text in (("stdout", stdout), ("stderr", stderr)) if isinstance(got[key], dict))


def run_script(entry: dict) -> list:
    """Run one entry through the polyfunctor command on PATH; its mismatches."""
    start = time.perf_counter()
    try:
        run = subprocess.run(["polyfunctor", *entry["argv"]], capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return ["timeout"]
    return mismatches(entry, run.returncode, run.stdout.decode(), run.stderr.decode(), time.perf_counter() - start)


def main() -> int:
    entries = load()
    failed = 0
    for entry in entries:
        wrong = run_script(entry)
        failed += bool(wrong)
        print(f"{'FAIL' if wrong else 'ok  '} {entry['name']} {' '.join(wrong)}".rstrip())
    print(f"{len(entries) - failed} of {len(entries)} pinned runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
