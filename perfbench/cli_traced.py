"""Run the naplespf CLI in-process, timing its import and its command.

    python3 perfbench/cli_traced.py <naplespf arguments>

Behaves like ``python -m naplespf.cli`` (same stdout, stderr and exit code)
and then writes one more stderr line, ``PERFBENCH_SPANS <json>``, with two
spans: ``cli.import`` and ``cli.<command>``.  Used by traced runs only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import SPANS_MARKER, Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    with tracer.span("cli.import"):
        from naplespf import cli
    code = 0
    with tracer.span(f"cli.{sys.argv[1]}"):
        try:
            cli.main(args=sys.argv[1:], prog_name="naplespf")
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARKER + json.dumps(tracer.spans) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
