#!/usr/bin/env python3
"""Lists functions in the src/ libraries that no non-test program keeps.

usage: python3 tools/unreached_functions.py [--check ALLOWLIST]

Run from the repository root.  Needs CMake, a C++ toolchain, and binutils'
nm; builds into build-reach/ (about 80 s on 4 cores the first time).

The script configures two builds with the same reachability flags: the
root project (build-reach/root) and the odperf/ benchmark package
(build-reach/odperf), the latter unmodified, by passing the flags on the
command line.  Both compile with

    -O0 -fno-inline -ffunction-sections -fdata-sections
    -fkeep-inline-functions

so every function, header inline ones included, is a section of its own
that each caller reaches through a relocation, and link with
-Wl,--gc-sections, so a program keeps exactly the functions that its main
reaches.  The programs are the executables that do not link GoogleTest:
odbench, odyssey_cli, the examples and odperf.  The libraries are the
static libraries under src/.

A function is listed when a src/ library defines it and no program keeps
it: nothing but tests calls it.  The list holds the demangled signatures
of functions in the project's od* namespaces, so overloads are separate
entries; constructors, destructors, lambdas and thunks are left out.  A
function reached only through a vtable is kept by that vtable and not
listed, and a template is seen only where src/ instantiates it.

Without --check, prints the list, one signature per line, sorted.  With
--check, compares it with ALLOWLIST (one signature per line, each with a
`# reason`) and exits 1 if a signature is missing from the allowlist (new
code that only tests call: delete it, or use it), an allowlisted one is no
longer found (it was deleted or gained a caller: drop the line), or a line
has no reason, so the allowlist can only shrink.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

BUILD_ROOT = "build-reach"
COMPILE_FLAGS = ("-O0 -fno-inline -ffunction-sections -fdata-sections "
                 "-fkeep-inline-functions")
LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = "TtWw"

ANONYMOUS = "(anonymous namespace)"
PROJECT_NAMESPACE = re.compile(r"od\w*$")
OPERATOR = re.compile(r"\boperator(?!\w)")
STRING = "std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >"
SKIPPED = ("{lambda(", "thunk to ", "{unnamed type")


def configure_and_build(source, build):
    """Builds the programs and src/ libraries of one CMake project.

    Returns (programs, libraries): the artifact paths of the executables
    that do not link GoogleTest and of the static libraries under src/.
    """
    query = os.path.join(build, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    subprocess.run(
        ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=", f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        check=True, stdout=subprocess.DEVNULL)

    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = max(glob.glob(os.path.join(reply, "index-*.json")))
    with open(index, encoding="utf-8") as f:
        codemodel = next(o["jsonFile"] for o in json.load(f)["objects"]
                         if o["kind"] == "codemodel")
    with open(os.path.join(reply, codemodel), encoding="utf-8") as f:
        targets = json.load(f)["configurations"][0]["targets"]
    programs, libraries, names = [], [], []
    for ref in targets:
        with open(os.path.join(reply, ref["jsonFile"]), encoding="utf-8") as f:
            target = json.load(f)
        artifacts = [os.path.join(build, a["path"])
                     for a in target.get("artifacts", [])]
        if target["type"] == "EXECUTABLE":
            fragments = target.get("link", {}).get("commandFragments", [])
            if any("gtest" in frag["fragment"] for frag in fragments):
                continue
            programs += artifacts
        elif target["type"] == "STATIC_LIBRARY":
            src = os.path.relpath(
                os.path.join(source, target["paths"]["source"]), ".")
            if src.split(os.sep)[0] != "src":
                continue
            libraries += artifacts
        else:
            continue
        names.append(target["name"])
    subprocess.run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                    "--target"] + names, check=True, stdout=subprocess.DEVNULL)
    return programs, libraries


def text_symbols(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            symbols.add(parts[2])
    return symbols


def is_project_function(signature):
    """True for a function of an od* namespace that is not a constructor,
    destructor, lambda or thunk."""
    if any(s in signature for s in SKIPPED):
        return False
    # The qualified name: before the parameter list, after a template's
    # return type, with template arguments dropped.
    name = OPERATOR.split(signature.replace(ANONYMOUS, "{anon}"))[0]
    depth, start = 0, 0
    for i, c in enumerate(name):
        depth += (c == "<") - (c == ">")
        if depth == 0 and c == " ":
            start = i + 1
        elif depth == 0 and c == "(":
            name = name[:i]
            break
    parts = re.sub(r"<[^<>]*>", "", name[start:])
    while "<" in parts:
        parts = re.sub(r"<[^<>]*>", "", parts)
    parts = parts.split("::")
    if len(parts) < 2 or not PROJECT_NAMESPACE.match(parts[0]):
        return False
    return parts[-1] == "" or parts[-1].lstrip("~") != parts[-2]


def unreached_functions():
    programs, libraries = configure_and_build(
        ".", os.path.join(BUILD_ROOT, "root"))
    odperf_programs, _ = configure_and_build(
        "odperf", os.path.join(BUILD_ROOT, "odperf"))
    defined = set().union(*(text_symbols(p) for p in libraries))
    kept = set().union(*(text_symbols(p)
                         for p in programs + odperf_programs))
    return sorted(s.replace(STRING, "std::string") for s in defined - kept
                  if is_project_function(s))


def read_allowlist(path):
    """Returns ({signature: reason}, [signatures without a reason])."""
    allowed, bare = {}, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("#") or not line.strip():
                continue
            signature, _, reason = line.partition("#")
            allowed[signature.strip()] = reason.strip()
            if not reason.strip():
                bare.append(signature.strip())
    return allowed, bare


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="ALLOWLIST")
    args = parser.parse_args()
    found = unreached_functions()
    if args.check is None:
        print("\n".join(found))
        return 0
    allowed, bare = read_allowlist(args.check)
    new = sorted(set(found) - set(allowed))
    gone = sorted(set(allowed) - set(found))
    for name in new:
        print(f"no program keeps it, not in {args.check}: {name}")
    for name in gone:
        print(f"in {args.check} but kept or deleted (drop the line): {name}")
    for name in bare:
        print(f"in {args.check} without a `# reason`: {name}")
    return 1 if new or gone or bare else 0


if __name__ == "__main__":
    sys.exit(main())
