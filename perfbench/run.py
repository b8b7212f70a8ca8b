#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a gompax checkout.

    python3 perfbench/run.py --workload stream-mix --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark binary, which is built from
source into .bench_build/ with the Go toolchain (no network, no module
downloads: the benchmark module only requires the gompax module beside
it). The last line of standard output is the benchmark's JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.abspath(__file__))


def source_digest():
    """sha256 over the Go sources and module files, for the provenance line."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_head():
    """The checkout's commit, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout.
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    commit = git_head() or "src-" + source_digest()
    sys.stdout.flush()
    return subprocess.run([binary, "--commit", commit] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
