"""Golden corpus: each command's exit code and the sha256 of its stdout
and stderr, run as `python -m weylgram` in a fresh interpreter.  The
interpreters run two at a time; each entry still gets its own.

The expected values in tests/golden/cli.json were recorded from an
earlier commit, so a change that alters any byte or exit code of a
listed command fails here.  To grow the corpus, add an entry with only
"argv" and run

    PYTHONPATH=src python tests/test_golden.py --record

which fills in the entries that have no recorded values and leaves every
recorded entry as it is.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import weylgram

CORPUS = Path(__file__).with_name("golden") / "cli.json"


def run_command(argv):
    """(exit code, stdout sha256, stderr sha256) of one command."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylgram.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "weylgram", *argv], capture_output=True, env=env, timeout=120
    )
    return (
        done.returncode,
        hashlib.sha256(done.stdout).hexdigest(),
        hashlib.sha256(done.stderr).hexdigest(),
    )


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


def record():
    corpus = load_corpus()
    new = [entry for entry in corpus if "exit" not in entry]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for entry, (code, out, err) in zip(new, pool.map(run_command, [entry["argv"] for entry in new])):
            entry.update(exit=code, stdout_sha256=out, stderr_sha256=err)
    CORPUS.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
