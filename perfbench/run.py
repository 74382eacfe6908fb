#!/usr/bin/env python3
"""Build and run the tpdf_serve end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload advance-mem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds `tpdf_tool` and the benchmark program
(`perfbench.exe`) with dune and runs one measurement; its last stdout
line is the JSON result.  `--smoke` runs every workload briefly,
untraced and traced, and fails unless every check passes.  Build output
goes to stderr.
"""

import json
import os
import subprocess
import sys

DAEMON = "_build/default/bin/tpdf_tool.exe"
BENCH_EXE = "_build/default/perfbench/perfbench.exe"
WORKLOADS = ["advance-mem", "admit-churn", "persist-evict"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ["dune-project", "bin/dune", "lib", "perfbench/dune"]:
        if not os.path.exists(need):
            die(f"not a tpdf source checkout (missing {need}); run from its root")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/tpdf_tool.exe", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        die("build failed", 1)


def git_meta():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))

    def git(*args):
        try:
            r = subprocess.run(["git", *args], capture_output=True, text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "unknown", "unknown"
    return rev, "true" if git("status", "--porcelain", "--untracked-files=no") else "false"


def run(args, timeout=170):
    """Run perfbench.exe; return (exit code, stdout lines)."""
    p = subprocess.Popen([BENCH_EXE, "--daemon", DAEMON, *args], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        return 1, []
    return p.returncode, out.splitlines()


def smoke():
    ok = True
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run(["--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--setups", "1"])
            res = json.loads(lines[-1]) if code == 0 and lines else None
            good = res is not None and res["correct"] and res["failed"] == 0
            ok = ok and good
            print(f"smoke {w} trace={trace}: {'ok' if good else 'FAILED'}"
                  + (f" ({res['attempted']} ops, {len(res['metrics'])} metrics)" if res else ""))
            if not good:
                print("\n".join(lines[-20:]))
    sys.exit(0 if ok else 1)


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        smoke()
    rev, dirty = git_meta()
    print(f"meta git_rev {rev} dirty {dirty}", flush=True)
    code, lines = run(sys.argv[1:])
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
