"""Every pinned command line run of tests/pinned_runs.json, in process through
cli.main; CI runs the same table through the installed script."""

import time

import pytest

import pinned_runs
from polyfunctor.cli import main

ENTRIES = pinned_runs.load()
KEYS = ["name", "why", "argv", "exit", "stdout", "stderr"]


def run(argv) -> tuple:
    start = time.perf_counter()
    code = main(list(argv))
    return code, time.perf_counter() - start


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_pinned_run(capsys, entry):
    code, seconds = run(entry["argv"])
    out, err = capsys.readouterr()
    wrong = pinned_runs.mismatches(entry, code, out, err, seconds)
    assert wrong == [], f"{wrong}; this run captures as\n{pinned_runs.recapture(entry, code, out, err)}"


def test_every_entry_is_pinned_in_its_one_form():
    """Unique names, every key in order, and each output as its text up to
    LONG lines and as its digest past them."""
    assert len({entry["name"] for entry in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert list(entry) == KEYS, entry["name"]
        for key in ("stdout", "stderr"):
            pin = entry[key]
            assert isinstance(pin, str) and pin.count("\n") <= pinned_runs.LONG or (
                sorted(pin) == ["lines", "sha256"] and pin["lines"] > pinned_runs.LONG), (entry["name"], key)


@pytest.mark.parametrize("name", ["delta-scales-q", "rank1-n8-fp101"])
def test_one_changed_byte_breaks_a_pin(capsys, name):
    """One changed byte, in the pin or in the output, is a mismatch, on a text
    pin and on a digest pin; so is a run past TIMEOUT."""
    entry = next(entry for entry in ENTRIES if entry["name"] == name)
    code, _ = run(entry["argv"])
    out, err = capsys.readouterr()
    assert pinned_runs.mismatches(entry, code, out, err, 0) == []
    assert pinned_runs.mismatches(entry, code, out[:-2] + "?" + out[-1:], err, 0) == ["stdout"]
    pin = entry["stdout"]
    changed = pin[:-2] + "?" + pin[-1:] if isinstance(pin, str) else (
        dict(pin, sha256=format(int(pin["sha256"], 16) ^ 1, "064x")))
    assert pinned_runs.mismatches(dict(entry, stdout=changed), code, out, err, 0) == ["stdout"]
    assert pinned_runs.mismatches(entry, code, out, err, pinned_runs.TIMEOUT + 1) == ["timeout"]


def test_a_digest_pin_recaptures_with_its_text(capsys):
    """A run that fails a digest pin prints the text behind the digest."""
    entry = next(entry for entry in ENTRIES if entry["name"] == "induce-sum-q-json")
    code, _ = run(entry["argv"])
    out, err = capsys.readouterr()
    assert pinned_runs.recapture(entry, code, out, err) == (
        pinned_runs.dumps(entry) + f"\nstdout ({entry['stdout']['lines']} lines):\n{out}")
