#!/usr/bin/env python3
"""Lists every configuration knob and the code that sets it.

  python3 scripts/knobs.py [ROOT]

Walks BrokerConfig and BrokerDaemonConfig and every config struct nested in
them (field types that are structs declared under ROOT/src); a root nested
in another is listed once, under its own name. For each field
it prints the shipping programs (bench/, examples/, perfbench/) and the test
files that assign it: `.field =` or `->field =`, designated initializers
included; a positional aggregate (`ClusterConfig{4, 0.01}` or
`ClusterConfig c{4, 0.01}`) credits its fields in declaration order, one
per argument. A field name that more than one src/ struct declares is
marked with `~`: its matches may belong to the other struct. A knob no
shipping program sets is a candidate for a named constant. The last line
counts the fields, those nothing assigns and those only tests assign.
"""

import os
import re
import sys

ROOTS = ("BrokerConfig", "BrokerDaemonConfig")
SHIPPING = ("bench", "examples", "perfbench")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def sources(root, top, exts=(".h", ".cpp")):
    for base, _, files in os.walk(os.path.join(root, top)):
        for name in sorted(files):
            if name.endswith(exts):
                yield os.path.join(base, name)


def struct_fields(root):
    """Maps struct name -> [(type, field)] for every struct in src/ headers."""
    structs = {}
    for path in sources(root, "src", (".h",)):
        text = strip_comments(open(path, encoding="utf-8").read())
        for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", text):
            depth, i = 1, m.end()
            while depth and i < len(text):
                depth += {"{": 1, "}": -1}.get(text[i], 0)
                i += 1
            body, fields, level, stmt = text[m.end():i - 1], [], 0, ""
            for ch in body:
                if ch == "{":
                    level += 1
                elif ch == "}":
                    level -= 1
                    if level == 0:
                        stmt = ""  # a nested body (method, struct) ends here
                        continue
                if level == 0 and ch == ";":
                    decl = stmt.split("=")[0].strip()
                    fm = re.match(r"^([\w:<>, ]+?)\s+(\w+)$", decl)
                    if fm and "(" not in decl and not re.match(
                            r"(using|static|friend|return)\b", decl):
                        fields.append((fm.group(1).split("::")[-1], fm.group(2)))
                    stmt = ""
                elif level == 0:
                    stmt += ch
            structs.setdefault(m.group(1), fields)
    return structs


def aggregate_args(text, start):
    """Top-level comma-separated arguments of the brace list opening before
    `start`; None when the braces do not balance."""
    args, depth, arg = [], 0, ""
    for ch in text[start:]:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            if depth == 0:
                args.append(arg.strip())
                return [a for a in args if a]
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(arg.strip())
            arg = ""
            continue
        arg += ch
    return None


def positional(structs, text):
    """(struct, field) pairs that positional aggregates in `text` assign."""
    names = "|".join(sorted(structs, key=len, reverse=True))
    credited = set()
    for m in re.finditer(r"\b(" + names + r")(?:\s+\w+)?\s*\{", text):
        args = aggregate_args(text, m.end())
        if not args or args[0].startswith("."):  # empty or designated
            continue
        for _, field in structs[m.group(1)][:len(args)]:
            credited.add((m.group(1), field))
    return credited


def knobs(structs, name, prefix):
    for ftype, field in structs.get(name, []):
        path = prefix + "." + field
        yield path, name, field
        # A nested root (BrokerDaemonConfig.broker) is listed on its own.
        if ftype in structs and ftype != name and ftype not in ROOTS:
            yield from knobs(structs, ftype, path)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    structs = struct_fields(root)
    declared = {}
    for fields in structs.values():
        for _, field in fields:
            declared[field] = declared.get(field, 0) + 1
    texts, credits = {}, {}
    for top in SHIPPING + ("tests",):
        for path in sources(root, top):
            rel = os.path.relpath(path, root)
            texts[rel] = strip_comments(open(path, encoding="utf-8").read())
            credits[rel] = positional(structs, texts[rel])

    def setters(owner, field, tops):
        pattern = re.compile(r"(\.|->)" + field + r"\s*=(?!=)")
        return sorted(os.path.splitext(os.path.basename(p))[0]
                      for p, t in texts.items()
                      if p.split(os.sep)[0] in tops and (
                          pattern.search(t) or (owner, field) in credits[p]))

    count = unset = tests_only = 0
    for name in ROOTS:
        for path, owner, field in knobs(structs, name, name):
            count += 1
            mark = "~" if declared.get(field, 0) > 1 else " "
            ship = setters(owner, field, SHIPPING)
            tests = setters(owner, field, ("tests",))
            unset += not ship and not tests
            tests_only += not ship and bool(tests)
            print(f"{mark}{path}\n    shipping: {' '.join(ship) or '-'}"
                  f"\n    tests:    {' '.join(tests) or '-'}")
    print(f"knobs: {count} fields, {unset} unset, {tests_only} tests-only")


if __name__ == "__main__":
    main()
