"""Start the live cluster with the program's functions wrapped.

Usage: ``python3 perfbench/launcher.py --dump PATH serve [serve args]``.

Installs :class:`perfbench.layers.Tracer` in this (the server) process,
then runs the program's own ``serve`` command unchanged.  Signals
control the measurement window:

- ``SIGUSR1`` zeroes the counters and writes ``{"reset": true}`` to PATH;
- ``SIGUSR2`` writes the counters accumulated since to PATH.

Each write replaces PATH atomically, so a reader never sees half a file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import Tracer, position_cache_stats, position_hit_ratio  # noqa: E402


def _write(path: Path, payload: dict) -> None:
    staging = path.with_suffix(".tmp")
    staging.write_text(json.dumps(payload))
    os.replace(staging, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, required=True)
    args, command = parser.parse_known_args(argv)

    import repro.cli
    import repro.proxy  # noqa: F401 -- bind every proxy module before wrapping

    tracer = Tracer().install()
    window = {"positions": position_cache_stats()}

    def on_reset(_signum, _frame) -> None:
        tracer.reset()
        window["positions"] = position_cache_stats()
        _write(args.dump, {"reset": True})

    def on_dump(_signum, _frame) -> None:
        _write(args.dump, {
            "tracer": tracer.snapshot(),
            "position_hit_ratio": position_hit_ratio(window["positions"], position_cache_stats()),
        })

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGUSR2, on_dump)
    try:
        return repro.cli.main(command)
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main())
