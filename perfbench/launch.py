"""Run the vorlab CLI in this process, stamping when set-up ends.

    python3 launch.py STAMP_PATH TRACE_PATH|- SETUP_ONLY(0|1) -- VORLAB_ARGS...

Imports vorlab from the `src` directory next to this one, then runs
`vorlab.cli.main` on VORLAB_ARGS exactly as `python3 -m vorlab.cli` would.
When the config has been parsed it writes, to STAMP_PATH, the system-wide
monotonic times (ns) at which vorlab finished importing and the config
finished parsing; with SETUP_ONLY=1 it exits there.  With a TRACE_PATH the
tracer in this directory wraps vorlab's layers first and its spans are
appended to that file.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    stamp_path, trace_path, setup_only, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py STAMP TRACE|- SETUP_ONLY -- ARGS...")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if trace_path != "-":
        sys.path.insert(0, HERE)
        import tracer

        tracer.install(trace_path)
    from vorlab import cli

    imported = time.monotonic_ns()
    parse = cli._config_from_args

    def stamped(ns):
        config = parse(ns)
        with open(stamp_path, "w", encoding="utf-8") as fh:
            fh.write(f"{imported} {time.monotonic_ns()}\n")
        if setup_only == "1":
            raise SystemExit(0)
        return config

    cli._config_from_args = stamped
    try:
        return cli.main(args)
    finally:
        if trace_path != "-":
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
