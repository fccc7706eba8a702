#!/usr/bin/env python3
"""Lists options in src/**/*.h that no non-test code sets.

usage: python3 tools/unread_names.py [--check ALLOWLIST]

Run from the repository root.  Non-test code is every C++ file under src/,
bench/, tools/, odperf/ or examples/; comments and string literals are
ignored.

An option is a non-static data member of a `struct *Config` /
`struct *Options` (nested ones included).  It counts as set when non-test
code writes it: the member name after `.` or `->` followed by an
assignment (`x.f = v`, `x->f += v`, a designated `{.f = v}`), or anywhere
in such a chain (`x.f.g = v` writes f and g).  Names are matched bare, so a
write to any member called `f` counts for every option called `f`, and the
list can miss an option nothing sets.  Aggregate initialisation by position
(`Config{a, b}`) and writes through a reference to the member are not seen,
so such a write lists its option although it is set: write designated
initialisers.  Functions that only tests call are found by
tools/unreached_functions.py, from the linker; data members are not
symbols, so options are matched here by name.

Without --check, prints one `Struct::name` per line, sorted.  With --check,
compares that list with ALLOWLIST (one name per line, `#` comments allowed)
and exits 1 if a name is missing from the allowlist (a new option that only
tests set: make it a named constant in the .cc that uses it) or an
allowlisted name is no longer found (it was deleted or gained a writer:
drop the line), so the allowlist can only shrink.
"""

import argparse
import os
import re
import sys

NON_TEST_DIRS = ("src", "bench", "tools", "odperf", "examples")
CXX_SUFFIXES = (".h", ".cc", ".cpp")

TYPE_HEAD = re.compile(r"\b(class|struct|union|enum|namespace)\b\s*(\w*)")
ACCESS = re.compile(r"^\s*(?:public|private|protected)\s*:(?!:)")
WORD = re.compile(r"[A-Za-z_]\w*")
# An option struct, and an assignment to a chain of members.
OPTION_STRUCT = re.compile(r"(?:Config|Options)$")
MEMBER_WRITE = re.compile(
    r"((?:(?:\.|->)\s*[A-Za-z_]\w*\s*)+)(?:[-+*/%&|^]|<<|>>)?=(?!=)")
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")
MEMBER_NAME = re.compile(r"\w[\w:\s*&]*?[\s*&]([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")
NOT_A_FIELD = {"static", "using", "typedef", "friend", "template"}


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals; keeps line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == 'R' and text.startswith('R"', i) and (
                i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            k = text.find("(", i + 2)
            delim = ")" + text[i + 2:k] + '"'
            j = text.find(delim, k)
            j = n if j < 0 else j + len(delim)
            out.append(" " + "\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_preprocessor(text):
    lines = []
    continued = False
    for line in text.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        lines.append("" if directive else line)
    return "\n".join(lines)


def heads(text):
    """Yields (classes, head) for each declaration-like statement head.

    `classes` lists the enclosing class names, outermost first ([] at
    namespace scope), or is None inside a function body or an initializer.
    A head is the text before a `;` or `{` that is not itself inside a body.
    """
    stack = []  # (kind, name)
    buf = []
    for c in text:
        if c not in "{};":
            buf.append(c)
            continue
        head = ACCESS.sub("", "".join(buf)).strip()
        buf = []
        in_body = any(kind == "body" for kind, _ in stack)
        classes = [name for kind, name in stack if kind == "class"]
        if c == "}":
            if stack:
                stack.pop()
            continue
        yield (None if in_body else classes), head
        if c == "{":
            m = TYPE_HEAD.search(head)
            if "(" not in head and m and m.group(1) == "namespace":
                stack.append(("namespace", m.group(2)))
            elif "(" not in head and m and m.group(1) in ("class", "struct",
                                                          "union"):
                stack.append(("class", m.group(2)))
            elif "(" in head and "=" not in head.split("(")[0]:
                stack.append(("body", ""))
            else:
                stack.append(("init", ""))


def source_files(root):
    for top in NON_TEST_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_SUFFIXES):
                    yield os.path.join(dirpath, name)


def field_name(head):
    """The member a data-member declaration head declares, or None."""
    decl = head.split("=", 1)[0].strip()
    while TEMPLATE_ARGS.search(decl):
        decl = TEMPLATE_ARGS.sub("", decl)
    if not decl or "(" in decl or TYPE_HEAD.search(decl):
        return None
    if NOT_A_FIELD & set(WORD.findall(decl)):
        return None
    m = MEMBER_NAME.match(decl)
    return m.group(1) if m else None


def unset_fields(root):
    declared = []   # (bare name, qualified name)
    written = set()
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for chain in MEMBER_WRITE.findall(text):
            written.update(WORD.findall(chain))
        if not (path.endswith(".h") and os.path.relpath(
                path, root).startswith("src" + os.sep)):
            continue
        for classes, head in heads(strip_preprocessor(text)):
            if not classes or not OPTION_STRUCT.search(classes[-1]):
                continue
            name = field_name(head)
            if name is not None:
                declared.append((name, "::".join(classes + [name])))
    return sorted(q for name, q in declared if name not in written)


def read_allowlist(path):
    names = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                names.append(line)
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="ALLOWLIST")
    args = parser.parse_args()
    found = unset_fields(os.getcwd())
    if args.check is None:
        print("\n".join(found))
        return 0
    allowed = read_allowlist(args.check)
    new = sorted(set(found) - set(allowed))
    gone = sorted(set(allowed) - set(found))
    for name in new:
        print(f"set only by tests, not in {args.check}: {name}")
    for name in gone:
        print(f"in {args.check} but set or deleted (drop the line): {name}")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
