#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-long --seed 42 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --sets 2 --seconds 12

Every argument is passed on to the binary (see main.go).  The Go build
cache, temporary files, the binary and the benchmark's scratch files all
stay under .bench_build/ in the repository root.  A traced run (--trace 1)
also writes its spans to .bench_build/spans-<workload>.json, which opens in
Perfetto.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main(argv):
    go_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(go_mod) or "module cobra\n" not in open(go_mod).read():
        print("perfbench: %s is not a cobra checkout (no go.mod)" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOENV="off")
    binary = os.path.join(BUILD, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    args = list(argv)
    if flag_value(args, "trace") == "1" and not any(a.lstrip("-").startswith("spans") for a in args):
        args += ["-spans", os.path.join(BUILD, "spans-%s.json" % flag_value(args, "workload"))]
    cmd = [binary, "-root", ROOT, "-workdir", os.path.join(BUILD, "work")] + args
    # One workload's run fits in RUN_TIMEOUT_S; "-workload all" runs many.
    timeout = None if flag_value(args, "workload") == "all" else RUN_TIMEOUT_S
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def flag_value(args, name):
    """Value of -name/--name in either the separate or the = form."""
    for i, a in enumerate(args):
        key, eq, val = a.lstrip("-").partition("=")
        if a.startswith("-") and key == name:
            if eq:
                return val
            if i + 1 < len(args):
                return args[i + 1]
    return ""


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
