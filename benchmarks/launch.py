"""Run the haarconc CLI from the checkout's sources, as one benchmark child.

    python3 benchmarks/launch.py --mark FILE [--setup-only] [--trace FILE] -- CLI ARGS

The first entry into the experiment runner (``run_experiment`` for the
config-driven commands, ``_run_mixing_curve`` for ``mixing-curve``) writes
the CLOCK_MONOTONIC time to --mark; everything before it is set-up.  With
--setup-only the child exits right there.  With --trace the layer spans of
``tracer.py`` are installed and their summary is written to FILE at exit;
without it the CLI runs unwrapped apart from that one entry mark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = ("run_experiment", "_run_mixing_curve")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mark", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    if not (SRC / "haarconc" / "cli.py").is_file():
        print(f"error: no haarconc sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from haarconc import cli

    tracer = missing = None
    if args.trace is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        missing = install(tracer)

    entered = []
    runner_wall = []

    def entry(fn):
        def marked(*a, **kw):
            if not entered:
                entered.append(True)
                Path(args.mark).write_text(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
                if args.setup_only:
                    os._exit(0)
            start = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                runner_wall.append(time.perf_counter() - start)

        return marked

    for name in ENTRY_POINTS:
        if not hasattr(cli, name):
            print(f"error: haarconc.cli has no {name}", file=sys.stderr)
            return 1
        setattr(cli, name, entry(getattr(cli, name)))

    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            summary = tracer.summary()
            summary["runner_wall_s"] = sum(runner_wall)
            summary["missing"] = missing
            Path(args.trace).write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main())
