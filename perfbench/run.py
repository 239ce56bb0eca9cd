#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload offline_check|campaign|fleet \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it with the same
arguments plus the git commit when there is one.  Exits non-zero, without
printing a result, when the repository sources are missing or the build
fails.
"""
import os
import subprocess
import sys

# A cold build takes a few minutes; a build still running after this is
# stuck (for instance on another dune's lock) and fails the run.
BUILD_TIMEOUT_S = 840


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(["dune", "build", "--root", ".",
                                "./perfbench/main.exe"],
                               stdout=sys.stderr, check=False,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe, *sys.argv[1:], "--commit", git_commit()],
                         check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
