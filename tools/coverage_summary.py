#!/usr/bin/env python3
"""Line coverage of src/ from a gcov-instrumented build.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -j
    python3 tools/coverage_summary.py build-cov

Runs gcov in its JSON format on every .gcda file under the build
directory and merges the records of each source file under src/ across
translation units: a line is executable if any unit has code on it, and
covered if any unit ran it. Prints covered and executable lines and
functions, then the files with the most lines never run. Exits 1 if the
covered share of lines, rounded to a tenth of a percent as printed, is
below the figure last recorded in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
# The line coverage last recorded in CHANGES.md, in percent, as this
# script prints it (GCC 12.2's gcov).
RECORDED_PERCENT = 96.6
# How many files to list by lines never run.
TOP_FILES = 10
BATCH = 64


def gcda_files(build_dir):
    for dirpath, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def gcov_documents(paths):
    """Runs gcov on `paths` (one object directory per call) and yields each
    JSON document it prints."""
    by_dir = defaultdict(list)
    for p in paths:
        by_dir[os.path.dirname(p)].append(p)
    decoder = json.JSONDecoder()
    for obj_dir, files in sorted(by_dir.items()):
        for i in range(0, len(files), BATCH):
            proc = subprocess.run(
                ["gcov", "--json-format", "--stdout", "--object-directory",
                 obj_dir] + files[i:i + BATCH],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True)
            text, pos = proc.stdout, 0
            while True:
                while pos < len(text) and text[pos].isspace():
                    pos += 1
                if pos == len(text):
                    break
                doc, pos = decoder.raw_decode(text, pos)
                yield doc


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} BUILD_DIR")
    build_dir = sys.argv[1]

    paths = list(gcda_files(build_dir))
    if not paths:
        sys.exit(f"coverage_summary: no .gcda files under {build_dir}; "
                 "build with --coverage and run ctest first")

    lines = defaultdict(dict)      # file -> line -> ran
    functions = defaultdict(dict)  # file -> (name, line) -> ran
    for doc in gcov_documents(paths):
        cwd = doc.get("current_working_directory", "")
        for f in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            for ln in f.get("lines", []):
                n = ln["line_number"]
                lines[rel][n] = lines[rel].get(n, False) or ln["count"] > 0
            for fn in f.get("functions", []):
                key = (fn["demangled_name"], fn["start_line"])
                functions[rel][key] = (functions[rel].get(key, False)
                                       or fn["execution_count"] > 0)

    executable = sum(len(v) for v in lines.values())
    covered = sum(sum(v.values()) for v in lines.values())
    fn_total = sum(len(v) for v in functions.values())
    fn_run = sum(sum(v.values()) for v in functions.values())
    percent = 100.0 * covered / executable if executable else 0.0
    print(f"src/ lines: {covered} of {executable} executable lines run "
          f"({percent:.1f}%)")
    print(f"src/ functions: {fn_run} of {fn_total} run; "
          f"{fn_total - fn_run} never run")
    missed = sorted(((len(v) - sum(v.values()), rel)
                     for rel, v in lines.items()), reverse=True)
    for count, rel in missed[:TOP_FILES]:
        if count:
            print(f"  {count:5d} lines never run  {rel}")
    if round(percent, 1) < RECORDED_PERCENT:
        print(f"coverage_summary: {percent:.1f}% is below "
              f"{RECORDED_PERCENT}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
