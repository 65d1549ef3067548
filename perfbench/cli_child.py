"""Traced cold CLI process: `python cli_child.py SPANS_JSON <cli args...>`.

Imports heatkern.cli, wraps the measured functions, runs `main` with the
given arguments and writes the spans on the way out, also when `main`
raises.  The exit status is the one `main` returns, or 1 with the traceback
when an exception escapes it, as for `python -m heatkern.cli`.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import heatkern.cli  # noqa: E402

import tracer  # noqa: E402


def main():
    recorder = tracer.Recorder()
    undo = tracer.install(recorder)
    try:
        return heatkern.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall(undo)
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
