#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ism_stream --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ with a build cache
kept there too, so nothing is read or written outside the checkout. All
arguments are passed through; the last line of standard output is the JSON
result. The exit code is the benchmark's own, or 2 when the directory is not
a checkout of the repository (no go.mod or internal/ next to perfbench/).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))
            and os.path.isfile(os.path.join(bench, "go.mod"))):
        print("perfbench: run from the root of a repository checkout "
              "(go.mod, internal/ and perfbench/ must be present)", file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        # The go command keeps its env file and telemetry counters under the
        # user config directory; point that into the checkout as well.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
