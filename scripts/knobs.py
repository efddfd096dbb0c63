#!/usr/bin/env python3
"""Lists every configuration knob and the code that sets it.

  python3 scripts/knobs.py [ROOT]

Walks the config structs the broker, the daemons, the federation and the
backend channel take (ROOTS) and every config struct nested in them (field
types that are structs declared under ROOT/src); a root nested in another is
listed once, under its own name, and a struct declared inside a class is
named with its class (`PipelinedBackend::Config`). For each field it prints
the shipping programs (bench/, examples/, perfbench/) and the test files
that assign it: `.field =` or `->field =`, designated initializers included;
an assignment through a variable declared as another struct or class
(`ShardStatus s; s.obs = ...`) is not credited, nor is a class writing its
own `config_` (a constructor's clamp normalises a knob, it does not set it);
a positional aggregate (`ClusterConfig{4, 0.01}` or
`ClusterConfig c{4, 0.01}`) credits its fields in declaration order, one
per argument. An assignment inside src/ itself (plumbing such as the
federation setting its daemon's listen port) is credited as `src` among the
shipping setters, and an enclosing struct field is credited with every
setter of its members. A field name that more than one src/ struct declares is
marked with `~`: its matches may belong to the other struct. A knob no
shipping program sets is a candidate for a named constant. The last line
counts the fields, those nothing assigns and those only tests assign.
"""

import os
import re
import sys

ROOTS = ("BrokerConfig", "ShardedBrokerDaemonConfig", "FedNodeConfig",
         "PipelinedBackend::Config", "AdminConfig")
SHIPPING = ("bench", "examples", "perfbench")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def sources(root, top, exts=(".h", ".cpp")):
    for base, _, files in os.walk(os.path.join(root, top)):
        for name in sorted(files):
            if name.endswith(exts):
                yield os.path.join(base, name)


def body_end(text, start):
    """Index just past the brace that closes the body opening before
    `start`."""
    depth, i = 1, start
    while depth and i < len(text):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return i


def struct_fields(root):
    """Maps struct name -> [(type, field)] for every struct in src/ headers;
    a struct declared inside a class or struct is named `Outer::Inner`."""
    structs = {}
    for path in sources(root, "src", (".h",)):
        text = strip_comments(open(path, encoding="utf-8").read())
        scopes = [(m.start(), body_end(text, m.end()), m.group(1))
                  for m in re.finditer(
                      r"\b(?:class|struct)\s+(\w+)[^;{()]*\{", text)]
        for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", text):
            i = body_end(text, m.end())
            outer = [name for start, end, name in scopes
                     if start < m.start() and m.end() < end]
            name = "::".join(outer[-1:] + [m.group(1)])
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
            structs.setdefault(name, fields)
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


# Words that precede an expression, not a declared variable (`return cfg;`).
KEYWORDS = {"return", "else", "case", "delete", "new", "throw", "co_return"}


def type_names(texts):
    """Every struct and class name the scanned sources declare."""
    return {m.group(1) for t in texts.values()
            for m in re.finditer(r"\b(?:struct|class)\s+(\w+)", t)}


def declarations(text, name):
    """(offset, type) of each declaration of variable `name` in `text`."""
    return [(m.start(), m.group(1)) for m in re.finditer(
        r"([\w:]+)\s*[&*]?\s+" + name + r"\s*[;=({,)]", text)
        if m.group(1) not in KEYWORDS]


def credited(text, match, owner, known):
    """Whether an assignment `recv.field =` at `match` sets `owner`'s field.
    A designated initializer, a member chain (`cfg.broker.x =`) and a
    receiver whose declaration is not found keep the credit."""
    before = re.search(r"(\w+)\s*$", text[max(0, match.start() - 80):match.start()])
    if not before:
        return True
    recv, start = before.group(1), match.start() - len(before.group(0))
    if text[:start].rstrip().endswith((".", "->")):
        return True
    if recv == "config_":
        return False  # the owner class normalising its own copy
    decls = [t for at, t in declarations(text, recv) if at < start]
    if not decls:
        return True
    declared = decls[-1].split("::")[-1]
    return declared == owner.split("::")[-1] or declared not in known


def positional(structs, text):
    """(struct, field) pairs that positional aggregates in `text` assign."""
    names = "|".join(re.escape(n) for n in sorted(structs, key=len, reverse=True))
    credited = set()
    for m in re.finditer(r"\b(" + names + r")(?:\s+\w+)?\s*\{", text):
        if re.search(r"\b(struct|class)\s+$", text[:m.start()]):
            continue  # the declaration itself, not an aggregate
        args = aggregate_args(text, m.end())
        if not args or args[0].startswith("."):  # empty or designated
            continue
        for _, field in structs[m.group(1)][:len(args)]:
            credited.add((m.group(1), field))
    return credited


def knobs(structs, name, prefix):
    for ftype, field in structs.get(name, []):
        path = prefix + "." + field
        yield path, name, field, ftype
        # A nested root (ShardedBrokerDaemonConfig.broker) is listed on its own.
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
    for top in SHIPPING + ("tests", "src"):
        for path in sources(root, top):
            rel = os.path.relpath(path, root)
            texts[rel] = strip_comments(open(path, encoding="utf-8").read())
            credits[rel] = positional(structs, texts[rel])
    known = type_names(texts)

    def setters(owner, field, tops):
        pattern = re.compile(r"(\.|->)" + field + r"\s*=(?!=)")
        return sorted(os.path.splitext(os.path.basename(p))[0]
                      for p, t in texts.items()
                      if p.split(os.sep)[0] in tops and (
                          any(credited(t, m, owner, known)
                              for m in pattern.finditer(t))
                          or (owner, field) in credits[p]))

    rows = []
    for name in ROOTS:
        for path, owner, field, ftype in knobs(structs, name, name):
            ship = setters(owner, field, SHIPPING)
            ship += ["src"] if setters(owner, field, ("src",)) else []
            rows.append((path, field, ftype, ship,
                         setters(owner, field, ("tests",))))
    unset = tests_only = 0
    for path, field, ftype, ship, tests in rows:
        # An enclosing struct is set wherever one of its members is (a
        # nested root's members are listed under the root's own name).
        inner = (ftype if ftype in ROOTS else path) + "."
        for sub, _, _, sub_ship, sub_tests in rows:
            if sub.startswith(inner):
                ship = sorted(set(ship) | set(sub_ship))
                tests = sorted(set(tests) | set(sub_tests))
        mark = "~" if declared.get(field, 0) > 1 else " "
        unset += not ship and not tests
        tests_only += not ship and bool(tests)
        print(f"{mark}{path}\n    shipping: {' '.join(ship) or '-'}"
              f"\n    tests:    {' '.join(tests) or '-'}")
    print(f"knobs: {len(rows)} fields, {unset} unset, {tests_only} tests-only")


if __name__ == "__main__":
    main()
