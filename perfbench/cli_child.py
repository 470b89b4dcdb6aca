"""Traced stand-in for ``python -m latquot.cli``: same arguments, same stdout.

Records the cli phases (import, argparse, compute, emit) and the library's
layer spans, then writes the spans to stderr as one JSON line.  Run as
``python perfbench/cli_child.py <latquot arguments>`` with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer


class TracedStream:
    """Forwards to a text stream, timing each write as part of the emit phase."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def write(self, text: str) -> int:
        with self.tracer.span("cli.emit"):
            return self.inner.write(text)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def main() -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import latquot.cli as cli
    import latquot

    tracer.install(latquot)
    parse_args, dumps, stdout = argparse.ArgumentParser.parse_args, json.dumps, sys.stdout

    def traced_parse_args(self, *args, **kwargs):
        with tracer.span("cli.argparse"):
            return parse_args(self, *args, **kwargs)

    def traced_dumps(*args, **kwargs):
        with tracer.span("cli.emit"):
            return dumps(*args, **kwargs)

    argparse.ArgumentParser.parse_args = traced_parse_args
    json.dumps = traced_dumps
    sys.stdout = TracedStream(stdout, tracer)
    try:
        code = cli.run(sys.argv[1:])
        sys.stdout.flush()
    finally:
        argparse.ArgumentParser.parse_args, json.dumps, sys.stdout = parse_args, dumps, stdout
        tracer.uninstall()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
