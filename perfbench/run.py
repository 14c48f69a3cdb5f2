#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The Go build cache, the binary, scratch stores and trace output all live
under .bench_build/ in the repository root. The benchmark module replaces
the `explainit` module with the parent directory, so the build fails (and
no result is printed) when the program's sources are not there.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    run = subprocess.run([binary, "--workdir", BUILD] + sys.argv[1:],
                         cwd=ROOT, env=env, timeout=175)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
