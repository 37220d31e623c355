#!/usr/bin/env python3
"""Build and run ioeval's benchmark.

Usage, from the root of a checkout:

    python3 _perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the Go benchmark in _perfbench/ (a module of its own that uses
the repository's packages), keeping every Go cache and all benchmark
state under .bench_build/ in the checkout. Before an evaluation
workload it fills the characterization store that workload reads, in
a process of its own. Then it runs the measurement and relays its
output; the last line of standard output is the result JSON. Exits
non-zero, without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(STATE, "perfbench")
BUILD_TIMEOUT = 850  # seconds; a cold build compiles the whole module
RUN_TIMEOUT = 170  # seconds, for the store fill and the measured run together
EVALUATIONS = ("eval-btio-full", "eval-madbench-faulted")


def go_env():
    """The environment for the go command: caches, home and temporary
    files inside the checkout, no network, no toolchain switch."""
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("TMPDIR", "tmp")):
        env[var] = os.path.join(STATE, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOWORK="off", GOFLAGS="-mod=readonly", CGO_ENABLED="0")
    return env


def run(cmd, timeout, **kw):
    """Runs cmd to completion (killing it at the timeout) and returns
    its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at the checkout root; nothing to build", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("run.py: the go command is not on PATH", file=sys.stderr)
        return 2
    env = go_env()
    code = run([go, "build", "-o", BINARY, "."], BUILD_TIMEOUT,
               cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code

    deadline = time.monotonic() + RUN_TIMEOUT
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else ""
    if workload in EVALUATIONS:
        code = run([BINARY, "-state", STATE, "-prepare"], RUN_TIMEOUT,
                   cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            print("run.py: filling the characterization store failed", file=sys.stderr)
            return code
    left = max(1, int(deadline - time.monotonic()))
    return run([BINARY, "-state", STATE] + argv, left, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
