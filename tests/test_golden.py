"""Golden corpus: each command's exit code and the sha256 of its stdout
and stderr, run as `python -m weylgram` in a fresh interpreter.  The
interpreters run two at a time; each entry still gets its own.  A second
test replays the corpus through `cli.main` in this one interpreter, so
state that one command leaves in the shared parser shows in the next.

The expected values in tests/golden/cli.json were recorded from an
earlier commit, so a change that alters any byte or exit code of a
listed command fails here.  To grow the corpus, add an entry with only
"argv" and run

    PYTHONPATH=src python tests/test_golden.py --record

which fills in the entries that have no recorded values and leaves every
recorded entry as it is.  It records nothing, and exits non-zero naming
the commands, if a new entry crashes: an exit code other than 0, 1 or 2,
a traceback on stderr, or a run past run_process's timeout.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import weylgram
from weylgram.cli import main

CORPUS = Path(__file__).with_name("golden") / "cli.json"


def run_process(argv):
    """One command run as `python -m weylgram` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylgram.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "weylgram", *argv], capture_output=True, env=env, timeout=120)


def digests(done):
    """(exit code, stdout sha256, stderr sha256) of a finished command."""
    return (
        done.returncode,
        hashlib.sha256(done.stdout).hexdigest(),
        hashlib.sha256(done.stderr).hexdigest(),
    )


def run_command(argv):
    return digests(run_process(argv))


def load_corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(request):
    """{argv: future of run_command(argv)} for every entry this session
    selected, run two at a time in corpus order."""
    argvs = [
        tuple(item.callspec.params["entry"]["argv"])
        for item in request.session.items
        if item.originalname == "test_command_bytes_are_golden"
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {argv: pool.submit(run_command, argv) for argv in argvs}


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: " ".join(entry["argv"]))
def test_command_bytes_are_golden(entry, results):
    expected = (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"])
    assert results[tuple(entry["argv"])].result() == expected


def run_in_process(argv):
    """(exit code, stdout sha256, stderr sha256) of one command run through
    cli.main in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return (
        code,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    )


def test_corpus_replays_in_one_interpreter(monkeypatch):
    # Every entry but the verify runs that pass, which only repeat suites
    # the tier-1 tests run already, in corpus order.  The recorded usage
    # text was wrapped at the 80 columns a pipe gets.
    monkeypatch.setenv("COLUMNS", "80")
    entries = [entry for entry in load_corpus() if not (entry["argv"][0] == "verify" and entry["exit"] == 0)]
    mismatched = [
        entry["argv"]
        for entry in entries
        if run_in_process(entry["argv"]) != (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"])
    ]
    assert mismatched == []


def run_or_time_out(argv):
    """run_process(argv), or the TimeoutExpired it raised."""
    try:
        return run_process(argv)
    except subprocess.TimeoutExpired as exc:
        return exc


def crash(done):
    """Why a command, finished or timed out, must not be recorded, or None."""
    if isinstance(done, subprocess.TimeoutExpired):
        return f"timed out after {done.timeout} s"
    if done.returncode not in (0, 1, 2):
        return f"exit code {done.returncode}"
    if b"Traceback (most recent call last)" in done.stderr:
        return "traceback on stderr"
    return None


def record():
    corpus = load_corpus()
    new = [entry for entry in corpus if "exit" not in entry]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(run_or_time_out, [entry["argv"] for entry in new]))
    crashes = [f"{why}: {entry['argv']}" for entry, done in zip(new, runs) if (why := crash(done))]
    if crashes:
        sys.exit("nothing recorded; these commands crash:\n" + "\n".join(crashes))
    for entry, done in zip(new, runs):
        code, out, err = digests(done)
        entry.update(exit=code, stdout_sha256=out, stderr_sha256=err)
    CORPUS.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "outcome, why",
    [
        ((1, b"", b"Traceback (most recent call last):\nOverflowError: too many digits in integer\n"),
         "traceback on stderr"),
        ((-9, b"", b""), "exit code -9"),
        ((3, b"", b""), "exit code 3"),
        (subprocess.TimeoutExpired(["python", "-m", "weylgram"], 120), "timed out after 120 s"),
    ],
    ids=["traceback", "killed", "exit-3", "timed-out"],
)
def test_record_refuses_to_pin_a_crash(monkeypatch, tmp_path, outcome, why):
    # one crash among clean entries: nothing is written
    corpus = tmp_path / "cli.json"
    text = json.dumps([{"argv": ["rook", "--board", "1"]}, {"argv": ["rook", "--board", "2,x"]}], indent=2)
    corpus.write_text(text, encoding="utf-8")
    fake = {"1": outcome, "2,x": (2, b"", b"usage: weylgram\nweylgram: error: bad part\n")}

    def run_process(argv):
        if isinstance(fake[argv[-1]], Exception):
            raise fake[argv[-1]]
        return subprocess.CompletedProcess(argv, *fake[argv[-1]])

    monkeypatch.setitem(globals(), "CORPUS", corpus)
    monkeypatch.setitem(globals(), "run_process", run_process)
    with pytest.raises(SystemExit) as exc:
        record()
    assert exc.value.code == f"nothing recorded; these commands crash:\n{why}: ['rook', '--board', '1']"
    assert corpus.read_text(encoding="utf-8") == text


def test_record_fills_in_clean_entries(monkeypatch, tmp_path):
    corpus = tmp_path / "cli.json"
    corpus.write_text(json.dumps([{"argv": ["rook", "--board", "2,x"]}]), encoding="utf-8")
    monkeypatch.setitem(globals(), "CORPUS", corpus)
    monkeypatch.setitem(globals(), "run_process", lambda argv: subprocess.CompletedProcess(argv, 2, b"", b"error\n"))
    record()
    [entry] = load_corpus()
    assert (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]) == (
        2, hashlib.sha256(b"").hexdigest(), hashlib.sha256(b"error\n").hexdigest()
    )


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
