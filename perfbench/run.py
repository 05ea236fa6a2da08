#!/usr/bin/env python3
"""Run one workload of the NOVA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark worker and
the nova CLI with dune, runs the worker (which spawns `nova serve` for
the serve workloads), relays its report and ends with its one-line JSON
result. Exits nonzero, without a result line, when the build fails, the
worker fails or its output has no result line. Everything it writes
stays under the checkout: `_build/` and `.perfbench_run/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ("perfbench/nb.exe", "bin/nova_cli.exe")
WORKER, NOVA = (os.path.join("_build", "default", t) for t in TARGETS)
WORKER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the worker and the CLI from source; stdout stays clean."""
    for need in ("dune-project", "lib", os.path.join("bin", "nova_cli.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a nova source checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet"] + ["./" + t for t in TARGETS],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def source_id():
    """The commit when this is a git work tree, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, commit = (rev.stdout.split() + ["", ""])[:2]
        if rev.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    tmp = os.path.join(".perfbench_run", "tmp-%d" % os.getpid())
    cmd = [os.path.join(ROOT, WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--nova", NOVA,
           "--tmp", tmp, "--out", os.path.join(".perfbench_run", "spans"),
           "--commit", source_id(), "--nproc", str(len(os.sched_getaffinity(0)))]
    # The worker and the daemons it spawns share one process group, so an
    # interrupted run stops all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail("worker did not finish within %d s" % WORKER_TIMEOUT_S, 1)
    stop()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        fail("worker exited with code %d and no result line" % proc.returncode, 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
