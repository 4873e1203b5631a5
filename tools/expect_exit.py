#!/usr/bin/env python3
"""Run a command and check its exit status and error output.

    expect_exit.py [--exit N] [--stderr TEXT] -- COMMAND [ARGS...]

Passes (exit 0) only when COMMAND exits with status N (default 2) and,
when --stderr is given, TEXT appears in what it wrote to stderr. The CLI
argument checks in bench/CMakeLists.txt (`ctest -L cli`) use it to require
that a bad flag value is refused with an error that names the flag.
"""
import argparse
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exit", type=int, default=2, dest="status")
    ap.add_argument("--stderr", default=None)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    ok = proc.returncode == args.status
    if args.stderr is not None and args.stderr not in proc.stderr:
        ok = False
    if not ok:
        want = f"exit {args.status}"
        if args.stderr is not None:
            want += f" with {args.stderr!r} in stderr"
        print(f"expected {want}; got exit {proc.returncode}", file=sys.stderr)
        print(f"command: {' '.join(cmd)}", file=sys.stderr)
        print(f"stderr:\n{proc.stderr}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
