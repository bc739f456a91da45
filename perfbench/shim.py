"""Traced stand-in for ``python -m qschur``: one CLI job with spans recorded.

Usage: ``python perfbench/shim.py SPANS_PATH JOB_ID QSCHUR_ARGS...``

Installs the span wrappers, runs ``qschur.cli.main`` on the remaining
arguments and, whatever the outcome, writes the spans to ``SPANS_PATH``.
The exit code is the CLI's, as with ``python -m qschur``.
"""

import sys

from spans import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    install(recorder)
    recorder.job = job
    from qschur.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
