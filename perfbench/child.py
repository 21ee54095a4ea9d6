"""One ``plaplace`` CLI call in a fresh interpreter, with its cost written to a JSON file.

Usage: python3 perfbench/child.py --root DIR --stats FILE [--trace FILE] [--setup-only] -- ARGS...

``plaplace`` is imported from ``DIR/src`` (never from an installed copy).
``resolved_at`` is the wall-clock time at which the config was resolved, so
the parent, which noted the time it started this process, can compute the
set-up time.  With ``--setup-only`` the process stops there; otherwise it runs
``plaplace.cli.main(ARGS)`` and records wall time, CPU time and peak RSS of
that call.  With ``--trace`` every layer is traced and the spans are written
out when the call ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_and_rss():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import plaplace
    import plaplace.cli

    if not os.path.realpath(plaplace.__file__).startswith(src + os.sep):
        print(f"plaplace imported from {plaplace.__file__}, not from {src}", file=sys.stderr)
        return 3

    stats = {"plaplace_file": plaplace.__file__, **_versions()}
    if args.setup_only:
        plaplace.cli.load_config(cli_args[cli_args.index("--config") + 1])
        stats["resolved_at"] = time.time()
        with open(args.stats, "w") as f:
            json.dump(stats, f)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    real_load = plaplace.cli.load_config

    def load_config(path):
        cfg = real_load(path)
        stats["resolved_at"] = time.time()
        return cfg

    plaplace.cli.load_config = load_config

    cpu0, _ = _cpu_and_rss()
    t0 = time.perf_counter()
    try:
        code = plaplace.cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 1
    stats["wall_s"] = time.perf_counter() - t0
    cpu1, rss = _cpu_and_rss()
    stats.update(exit_code=code, cpu_s=cpu1 - cpu0, peak_rss_mb=rss)
    with open(args.stats, "w") as f:
        json.dump(stats, f)
    if tracer is not None:
        with open(args.trace, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
