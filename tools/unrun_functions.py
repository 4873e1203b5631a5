#!/usr/bin/env python3
"""List the library functions a coverage run never executed.

Build with coverage, run whatever should count as "used", then point this
script at the build tree:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -O1" -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    (cd build-cov && ctest -j)
    ./build-cov/bench/hmca-bench run --campaign default --no-wallclock \\
        --out bench-cov.json
    python3 tools/unrun_functions.py build-cov --out unrun.txt

It runs `gcov --json-format` over every .gcda file under <build>/src, sums
each function's execution count over all objects that compiled it (a
header's inline function appears in every object that includes it), keyed
by (source file, function, first line), and prints the functions defined
in src/**/*.cpp whose total is zero, one per line as
`<file>:<line>: <function>`. Standard library only.
"""
import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile


def gcda_files(build_src):
    """Every .gcda file under `build_src`, grouped by directory."""
    by_dir = collections.defaultdict(list)
    for root, _, files in os.walk(build_src):
        for name in sorted(files):
            if name.endswith(".gcda"):
                by_dir[root].append(os.path.join(root, name))
    return dict(sorted(by_dir.items()))


def gcov_reports(directory, gcdas, scratch):
    """Parse the JSON reports gcov prints for the given .gcda files."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names",
         "--object-directory", directory] + gcdas,
        cwd=scratch, check=True, capture_output=True, text=True).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return
        report, pos = decoder.raw_decode(out, pos)
        yield report


def sum_counts(build, root):
    """{(file relative to root, function, line): summed execution count}."""
    counts = collections.Counter()
    with tempfile.TemporaryDirectory() as scratch:
        for directory, gcdas in gcda_files(os.path.join(build, "src")).items():
            for report in gcov_reports(directory, gcdas, scratch):
                cwd = report.get("current_working_directory", "")
                for f in report.get("files", []):
                    path = os.path.normpath(os.path.join(cwd, f["file"]))
                    rel = os.path.relpath(path, root)
                    for fn in f.get("functions", []):
                        name = fn.get("demangled_name") or fn["name"]
                        key = (rel, name, fn["start_line"])
                        counts[key] += fn["execution_count"]
    return counts


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build", help="coverage build directory")
    ap.add_argument("--root", default=os.path.dirname(here),
                    help="repository root (default: the parent of tools/)")
    ap.add_argument("--out", help="write the list here instead of stdout")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    counts = sum_counts(os.path.abspath(args.build), root)
    if not counts:
        sys.exit("unrun_functions: no .gcda data under " +
                 os.path.join(args.build, "src"))
    unrun = sorted(
        (rel, line, name) for (rel, name, line), n in counts.items()
        if n == 0 and rel.startswith("src" + os.sep) and rel.endswith(".cpp"))
    lines = [f"{rel}:{line}: {name}" for rel, line, name in unrun]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    ran = sum(1 for (rel, _, _), n in counts.items()
              if n > 0 and rel.startswith("src" + os.sep)
              and rel.endswith(".cpp"))
    print(f"unrun_functions: {len(unrun)} of {len(unrun) + ran} src/**/*.cpp "
          "functions never ran", file=sys.stderr)


if __name__ == "__main__":
    main()
