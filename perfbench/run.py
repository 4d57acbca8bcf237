#!/usr/bin/env python3
"""Build and run the lowpower benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-zoo --seed 1 --seconds 15 --trace 0

The benchmark is built from source with dune, then run; its last line of
standard output is the result object.  Build output goes to standard
error.  Exits 2 without a result when run outside a checkout.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a lowpower checkout\n")
        return 2
    # no shared build cache: everything the build writes stays in _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0:
        return build.returncode
    proc = subprocess.Popen([EXE] + argv)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    # turn SIGTERM into an exit so the benchmark process is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
