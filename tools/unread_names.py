#!/usr/bin/env python3
"""Lists declarations in src/**/*.h that no non-test code reads or sets.

usage: python3 tools/unread_names.py [--fields] [--check ALLOWLIST]

Run from the repository root.  Non-test code is every C++ file under src/,
bench/, tools/, odperf/ or examples/; comments and string literals are
ignored.

By default the script lists functions.  A function counts as read when its
name appears, as a whole word, in non-test code anywhere other than its own
declarations and definitions.  Names are matched bare, so a name that
several classes share counts as read when any of them is read: the list
can miss an unread function, but every name it prints is unread.

With --fields it lists options instead: the non-static data members of
each `struct *Config` / `struct *Options` (nested ones included) that no
non-test code writes.  A write is the member name after `.` or `->`
followed by an assignment (`x.f = v`, `x->f += v`, a designated
`{.f = v}`), or anywhere in such a chain (`x.f.g = v` writes f and g).
Names are matched bare here too, so a write to any member called `f`
counts for every option called `f`, and the list can miss an option
nothing sets.  Aggregate initialisation by position (`Config{a, b}`) and
writes through a reference to the member are not seen, so such a write
lists its option although it is set: write designated initialisers.

Without --check, prints one `Class::name` (or `name` for a free function)
per line, sorted.  With --check, compares that list with ALLOWLIST (one
name per line, `#` comments allowed) and exits 1 if a name is missing from
the allowlist (new code that only tests read or set: delete it, or use
it) or an allowlisted name is no longer found (it was deleted or gained a
reader: drop the line), so the allowlist can only shrink.
"""

import argparse
import os
import re
import sys

NON_TEST_DIRS = ("src", "bench", "tools", "odperf", "examples")
CXX_SUFFIXES = (".h", ".cc", ".cpp")

# A declaration head: specifiers and a return type, then the (possibly
# qualified) name and its opening parenthesis.  Matched at the start of a
# statement outside function bodies, so calls never match.
DECL = re.compile(
    r"^(?:template\s*<[^;{}]*?>\s*)?"
    r"(?:[\w:]+(?:\s*<[^;{}]*?>)?[\s*&]+)+"
    r"((?:\w+::)*)(\w+)\s*\(")
KEYWORDS = {"return", "else", "new", "delete", "case", "throw", "sizeof",
            "alignof", "decltype", "static_assert", "operator", "using",
            "typedef", "goto", "co_return", "co_yield"}
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


def unread_names(root):
    declared = {}   # bare name -> set of qualified names
    own_uses = {}   # bare name -> occurrences inside its own heads
    words = {}      # bare name -> occurrences anywhere
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        # Macro bodies read names too; only the heads skip directives.
        for w in WORD.findall(text):
            words[w] = words.get(w, 0) + 1
        text = strip_preprocessor(text)
        is_header = path.endswith(".h") and os.path.relpath(
            path, root).startswith("src" + os.sep)
        for classes, head in heads(text):
            if classes is None:
                continue
            scope = classes[-1] if classes else ""
            m = DECL.match(head)
            if not m or m.group(2) in KEYWORDS:
                continue
            qualifier, name = m.group(1), m.group(2)
            own_uses[name] = own_uses.get(name, 0) + 1
            if is_header and not qualifier:
                declared.setdefault(name, set()).add(
                    f"{scope}::{name}" if scope else name)
    return sorted(q for name, quals in declared.items()
                  if words.get(name, 0) <= own_uses.get(name, 0)
                  for q in quals)


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
    parser.add_argument("--fields", action="store_true",
                        help="list options nothing sets, not functions")
    parser.add_argument("--check", metavar="ALLOWLIST")
    args = parser.parse_args()
    found = (unset_fields if args.fields else unread_names)(os.getcwd())
    if args.check is None:
        print("\n".join(found))
        return 0
    allowed = read_allowlist(args.check)
    new = sorted(set(found) - set(allowed))
    gone = sorted(set(allowed) - set(found))
    for name in new:
        print(f"unread outside tests, not in {args.check}: {name}")
    for name in gone:
        print(f"in {args.check} but no longer unread (drop the line): {name}")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
