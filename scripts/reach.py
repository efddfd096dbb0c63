#!/usr/bin/env python3
"""Line and function reach of src/ from gcov data (scripts/check.sh reach).

  reach.py collect OUT TREE...   runs `gcov -j -p` over every object of the
                                 coverage-built TREEs and writes the src/ line
                                 and function counts to OUT (JSON); the notes
                                 of deleted sources are skipped
  reach.py report SHIPPED ALL    prints, per src/ file, the executable lines
                                 and how many the shipping programs ran
                                 (SHIPPED), how many only the tests ran (ALL,
                                 collected after the tests, minus SHIPPED) and
                                 how many nothing ran; then every src/ function
                                 no shipping program calls
  reach.py lines SHIPPED ALL [FILE...]
                                 prints every executable src/ line no shipping
                                 program ran, marked T (a test ran it) or -
                                 (nothing did), with its source text; FILEs
                                 (paths under the repo, e.g. src/db/parser.cpp
                                 or a directory src/db) narrow the list

ALL defines which lines are executable: collect it from the -O0 tree only,
since an optimised tree (perfbench's) folds lines together. `-p` keeps the
output names of same-named sources (db/parser.cpp, http/parser.cpp) apart.
"""

import gzip
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


def collect(out, trees):
    notes = []
    for tree in trees:
        for dirpath, _, filenames in os.walk(tree):
            notes += [os.path.join(dirpath, f) for f in filenames if f.endswith(".gcno")]
    lines = {}      # file -> {line: count}
    functions = {}  # "file:start_line" -> [name, count]
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["gcov", "-j", "-p"] + sorted(notes), cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for name in os.listdir(tmp):
            with gzip.open(os.path.join(tmp, name)) as f:
                doc = json.load(f)
            paths = [os.path.realpath(os.path.join(doc["current_working_directory"],
                                                   entry["file"]))
                     for entry in doc["files"]]
            # A reused tree keeps the note of a deleted source, and a fresh
            # note names only files that exist: a note naming a missing file
            # is stale, so none of its counts are taken.
            if not all(os.path.exists(path) for path in paths):
                continue
            for path, entry in zip(paths, doc["files"]):
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, ROOT)
                counts = lines.setdefault(rel, {})
                for line in entry["lines"]:
                    n = line["line_number"]
                    counts[n] = counts.get(n, 0) + line["count"]
                for fn in entry["functions"]:
                    key = f"{rel}:{fn['start_line']}"
                    name = fn["demangled_name"]
                    seen = functions.setdefault(key, [name, 0])
                    if len(name) < len(seen[0]):
                        seen[0] = name
                    seen[1] += fn["execution_count"]
    with open(out, "w") as f:
        json.dump({"lines": lines, "functions": functions}, f)


def load(path):
    with open(path) as f:
        return json.load(f)


def report(shipped_path, all_path):
    shipped, every = load(shipped_path), load(all_path)
    rows = []
    for rel in sorted(every["lines"]):
        ran = shipped["lines"].get(rel, {})
        total = shipped_n = tests_n = 0
        for n, count in every["lines"][rel].items():
            total += 1
            if ran.get(n, 0) > 0:
                shipped_n += 1
            elif count > 0:
                tests_n += 1
        rows.append((rel, total, shipped_n, tests_n, total - shipped_n - tests_n))
    width = max(len(r[0]) for r in rows)
    print(f"{'file':<{width}} {'exec':>6} {'shipped':>8} {'tests-only':>10} {'unreached':>9}")
    for row in rows:
        print(f"{row[0]:<{width}} {row[1]:>6} {row[2]:>8} {row[3]:>10} {row[4]:>9}")
    sums = [sum(r[i] for r in rows) for i in range(1, 5)]
    print(f"{'src/ total':<{width}} {sums[0]:>6} {sums[1]:>8} {sums[2]:>10} {sums[3]:>9}")
    print(f"reach: shipping programs run {sums[1]} of {sums[0]} executable src/ lines "
          f"({100.0 * sums[1] / max(1, sums[0]):.1f}%); {sums[2]} only tests run, "
          f"{sums[3]} nothing runs")
    print()
    print("src/ functions no shipping program calls (tests: a test calls it; "
          "none: nothing does):")
    idle = []
    for key, (name, count) in every["functions"].items():
        if shipped["functions"].get(key, [name, 0])[1] == 0:
            rel, line = key.rsplit(":", 1)
            idle.append((rel, int(line), "tests" if count > 0 else "none", name))
    for rel, line, who, name in sorted(idle):
        print(f"  {rel}:{line}  {who:<5}  {name}")
    print(f"reach: {len(idle)} functions")


def lines(shipped_path, all_path, only):
    shipped, every = load(shipped_path), load(all_path)
    only = [os.path.normpath(p).rstrip(os.sep) for p in only]
    for rel in sorted(every["lines"]):
        if only and not any(rel == p or rel.startswith(p + os.sep) for p in only):
            continue
        ran = shipped["lines"].get(rel, {})
        idle = sorted(int(n) for n, count in every["lines"][rel].items()
                      if ran.get(n, 0) == 0)
        if not idle:
            continue
        with open(os.path.join(ROOT, rel)) as f:
            text = f.read().split("\n")
        for n in idle:
            mark = "T" if every["lines"][rel][str(n)] > 0 else "-"
            source = text[n - 1] if n <= len(text) else ""
            print(f"{rel}:{n}: {mark} {source}")


def main(argv):
    if len(argv) >= 3 and argv[0] == "collect":
        collect(argv[1], argv[2:])
    elif len(argv) == 3 and argv[0] == "report":
        report(argv[1], argv[2])
    elif len(argv) >= 3 and argv[0] == "lines":
        lines(argv[1], argv[2], argv[3:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
