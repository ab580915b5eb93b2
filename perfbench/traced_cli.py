#!/usr/bin/env python3
"""The spectral-pair CLI with the benchmark's layer wrappers installed.

    python3 perfbench/traced_cli.py SPANS.json <cli arguments...>

Behaves like ``python -m spectral_pair.cli <cli arguments...>`` and writes the
spans it recorded to SPANS.json on exit.  ``spectral_pair`` must be importable
(the harness puts ``src`` on ``PYTHONPATH``).
"""

import json
import sys

import spectral_pair.cli as cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
