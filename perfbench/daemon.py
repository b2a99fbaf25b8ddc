"""Traced launcher for the ``repro serve`` daemon.

Installs the serve-layer wrappers of :mod:`layers`, then runs the
regular CLI entry point with the arguments after ``--``.  When the
daemon drains and exits, its tallies, per-request dispatch times and
spans are written to ``--trace-dir``.  The untraced benchmark starts
``python3 -m repro`` directly instead.

Usage: ``python3 perfbench/daemon.py --trace-dir D --run-id R --
--jobs 1 serve --port 0`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]

    import layers
    from repro import cli
    from repro.perf.cache import default_cache
    from spans import Recorder

    rec = Recorder(args.run_id, "daemon", args.trace_dir)
    layers.install_serve_daemon(rec)

    def finish() -> None:
        stats = default_cache().stats.as_dict()
        hits = stats["memory_hits"] + stats["disk_hits"]
        rec.sample("cache_stats", {
            "puts": stats["puts"],
            "bytes_written": stats["bytes_written"],
            "lookups": hits + stats["misses"], "hits": hits})
        rec.dump()

    atexit.register(finish)
    return cli.main(repro_args)


if __name__ == "__main__":
    sys.exit(main())
