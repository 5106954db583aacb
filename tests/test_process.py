"""A ``lipfree`` process: ``cli.run`` writes the report, flushes it and exits.

The other CLI tests call ``cli.main``, which returns the exit code. These
start ``python -m lipfree.cli`` itself, whose ``run`` flushes both streams
and ends the process with ``os._exit``, skipping interpreter finalization.
Each case runs with ``PYTHONUNBUFFERED`` unset unless it says otherwise, so
stdout is block-buffered as in a plain shell.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lipfree.cli as cli
from test_golden import CASES, GOLDEN, argv_of

SRC = Path(__file__).resolve().parents[1] / "src"
INPUTS = GOLDEN / "inputs"

# registers an atexit hook, then runs the module as ``python -m`` does
ATEXIT_SCRIPT = """
import atexit, os, runpy, sys
atexit.register(os.write, 2, b"finalized\\n")
sys.argv = ["lipfree", *sys.argv[1:]]
runpy.run_module("lipfree.cli", run_name="__main__")
"""


def _env(unbuffered: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def lipfree(*argv, stdout=subprocess.PIPE, unbuffered=False, script=None):
    """A fresh ``python -m lipfree.cli`` (or ``python -c script``) process."""
    head = ["-m", "lipfree.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *head, *argv], env=_env(unbuffered),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("name,template,expected", CASES, ids=[c[0] for c in CASES])
def test_golden_as_a_process(name, template, expected):
    done = lipfree(*argv_of(template))
    assert done.returncode == expected, (name, done.stderr)
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes(), name


def test_report_longer_than_a_pipe_buffer_arrives_whole(capsys):
    argv = ["gen", "--kind", "random", "--size", "120"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 64 * 1024
    done = lipfree(*argv)
    assert done.returncode == 0
    assert done.stdout == expected


def test_help_and_usage_errors():
    done = lipfree("--help")
    assert done.returncode == 0
    assert done.stdout.startswith(b"usage: lipfree")
    done = lipfree("frobnicate")
    assert done.returncode == 2
    assert done.stdout == b""
    assert b"usage: lipfree" in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableReport:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "tri.json", "--element", "elem.json"),
            ("norm", "--space", "rand40.json", "--element", "rand40_elem.json"),
        ],
        ids=["short", "long"],
    )
    def test_is_an_internal_error(self, argv, unbuffered):
        argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
        with open("/dev/full", "w") as full:
            done = lipfree(*argv, stdout=full, unbuffered=unbuffered)
        assert done.returncode == 3
        assert done.stderr.count(b"lipfree: internal error") == 1
        assert b"Exception ignored" not in done.stderr

    def test_help_that_cannot_be_written_is_an_internal_error(self):
        with open("/dev/full", "w") as full:
            done = lipfree("--help", stdout=full)
        assert done.returncode == 3
        assert b"lipfree: internal error" in done.stderr

    # unbuffered, only argparse's own writer sees the failed write
    @pytest.mark.parametrize("argv", [("--help",), ("decide", "--help")],
                             ids=["help", "decide-help"])
    def test_unbuffered_help_is_an_internal_error(self, argv):
        with open("/dev/full", "w") as full:
            done = lipfree(*argv, stdout=full, unbuffered=True)
        assert done.returncode == 3
        assert done.stderr.count(b"lipfree: internal error") == 1
        assert b"Exception ignored" not in done.stderr


def test_process_ends_without_finalization():
    done = lipfree("gen", "--kind", "star", "--size", "2", script=ATEXIT_SCRIPT)
    assert done.returncode == 0
    assert done.stdout.startswith(b"{")
    assert b"finalized" not in done.stderr

