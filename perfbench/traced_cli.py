"""Runs the mccws command line with the tracer installed.

    python3 perfbench/traced_cli.py SPANS_PATH COMMAND [ARGS...]

The spans are written to SPANS_PATH when the command returns. Every read of
a line from stdin is a span of its own (``stdin.readline``, outside the eight
modules), so the time the command waits for its caller's next line is not
counted in ``cli.self_s``.
"""

import sys

from tracing import Tracer

from mccws import cli


class TracedStdin:
    """A text stream whose line iteration goes through ``readline``."""

    def __init__(self, stream, readline):
        self._stream, self.readline = stream, readline

    def __iter__(self):
        return self

    def __next__(self):
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> None:
    spans_path = sys.argv.pop(1)
    tracer = Tracer()
    tracer.install()
    sys.stdin = TracedStdin(sys.stdin, tracer.wrap("stdin.readline", sys.stdin.readline))
    try:
        cli.main()
    finally:
        sys.stdin = sys.stdin._stream
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
