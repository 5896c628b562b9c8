"""Traced service entry point.

``python bench/serve_child.py SPANS_DIR serve ...`` installs the layer
wrappers of ``layers.py`` and then runs the program's own CLI with the
remaining arguments, exactly as ``python -m repro serve ...`` would.
The service's spans are written when the CLI returns (after SIGTERM
drains it); forked attempt children write theirs as they exit.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list[str]) -> int:
    recorder = layers.SpanRecorder(argv[0])
    missing = layers.install(recorder)
    if missing:
        print(f"untraced (not found): {missing}", file=sys.stderr)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
