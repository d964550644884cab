"""Run the program's CLI with per-layer spans installed.

Usage: ``python perfbench/launch.py LAYERS.json <repro CLI args...>``

Installs :mod:`perfbench.layers` wrappers, calls ``repro.cli.main``
with the remaining arguments, and when it returns (for ``serve``: after
the SIGTERM drain) writes the layer totals to ``LAYERS.json``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import ensure_program  # noqa: E402


def main() -> int:
    ensure_program()
    from perfbench.layers import install
    output = sys.argv[1]
    layers = install()
    import repro.cli
    code = repro.cli.main(sys.argv[2:])
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(layers.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
