#!/usr/bin/env python3
"""Build and run the PAAF benchmark.

    python3 paobench/run.py --workload cold_unique --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the `pao` CLI (the daemon under
test) and the `paobench` binary in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. The last line of standard
output is the JSON result; build output goes to standard error.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_digest():
    """Content hash of the program sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "crates").rglob("Cargo.toml"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "pao-cli"]), (ROOT / "paobench" / "Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("paobench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = target / "release"
    cmd = [str(release / "paobench")] + sys.argv[1:] + [
        "--pao", str(release / "pao"),
        "--work", os.path.relpath(target / "paobench", ROOT),
        "--rev", source_digest(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
