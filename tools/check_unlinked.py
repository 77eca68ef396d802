#!/usr/bin/env python3
"""List the src/ functions that no shipped binary links.

Usage: check_unlinked.py BUILD_DIR [EXTRA_BUILD_DIR ...]

BUILD_DIR is the main CMake build tree; each EXTRA_BUILD_DIR is
another tree built from the same sources (perfbench/, configured on
its own). Both must be built at Debug (-g) and -O0 with
-ffunction-sections -fdata-sections -fkeep-inline-functions and
linked with -Wl,--gc-sections, so that every function a binary does
not reach is dropped from it with its symbol, no function vanishes
into an inlined caller, and every header-inline function is emitted
into the libraries whether or not a library calls it:

    flags="-O0 -ffunction-sections -fdata-sections"
    flags="$flags -fkeep-inline-functions"
    cmake -B build -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="$flags" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake -B build-perfbench -S perfbench -G Ninja (same flags)
    cmake --build build -j && cmake --build build-perfbench -j
    python3 tools/check_unlinked.py build build-perfbench

The script takes the functions in namespace osp that the libraries
build/src/*/libosp_*.a define: the global (T, out-of-line) and weak
(W, header-inline and template) text symbols. It drops those the
compiler wrote rather than a person (implicit constructors,
destructors and assignments, lambda conversion thunks), which the
DWARF marks DW_AT_artificial, and every function that some shipped
executable defines under any of its symbols (a constructor has
several): each ELF executable in the given trees except the test
binary (anything under BUILD_DIR's tests/) and CMake's own probes.
A function left over is reached only by tests. It is either deleted
or listed in ALLOWLIST below with the reason it stays. Exits 1
naming every leftover function that is not on the allowlist, and
names allowlist entries that no longer match a leftover (stale: the
function is gone or now linked); exits 2 when a tree holds no
library or no executable, or the libraries carry no DWARF.
"""

import os
import subprocess
import sys

# Demangled signature -> why it stays although only tests reach it.
ALLOWLIST = {
    "osp::Cache::probe(unsigned long) const":
        "ROADMAP item 11 probes a service's plan against the L2 with it",
    "osp::Pcg32::geometric(double)":
        "the reference that Pcg32::geometricWith is tested against",
    "osp::store::PageStore::setFailPoint("
    "osp::store::PageStore::FailPoint)":
        "the crash tests inject their faults with it",
}


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(tree, skip_tests):
    found = []
    for root, dirs, files in os.walk(tree):
        # CMakeFiles holds the compiler-identification probes;
        # _deps holds fetched third-party builds.
        dirs[:] = [d for d in dirs if d not in ("CMakeFiles", "_deps")]
        rel = os.path.relpath(root, tree).split(os.sep)
        if skip_tests and rel[0] == "tests":
            continue
        for name in files:
            path = os.path.join(root, name)
            if is_elf_executable(path):
                found.append(path)
    return sorted(found)


def text_symbols(paths, types):
    """Mangled names of the symbols of one of @p types that @p paths
    define."""
    out = subprocess.run(
        ["nm", "--defined-only", *paths], capture_output=True,
        text=True, check=True).stdout
    return {parts[2] for parts in map(str.split, out.splitlines())
            if len(parts) == 3 and parts[1] in types}


def artificial_functions(paths):
    """Mangled names of the functions that the DWARF of @p paths
    marks DW_AT_artificial (written by the compiler, not in the
    source)."""
    found = set()
    tag, linkage, artificial = None, None, False

    def close_entry():
        if tag == "DW_TAG_subprogram" and artificial and linkage:
            found.add(linkage)

    with subprocess.Popen(["readelf", "--debug-dump=info", *paths],
                          stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            # An entry opens with " <depth><offset>: Abbrev Number:
            # N (DW_TAG_...)"; its attributes follow, indented more.
            if line.startswith(" <"):
                close_entry()
                tag = line[line.find("(") + 1:line.rfind(")")]
                linkage, artificial = None, False
            elif tag != "DW_TAG_subprogram":
                continue
            elif "DW_AT_linkage_name" in line:
                linkage = line.rsplit(": ", 1)[1].strip()
            elif "DW_AT_artificial" in line:
                artificial = True
        close_entry()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, "readelf")
    return found


def demangle(names):
    out = subprocess.run(
        ["c++filt"], input="\n".join(names), capture_output=True,
        text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    main_tree, extra = argv[1], argv[2:]
    src = os.path.join(main_tree, "src")
    libs = sorted(
        os.path.join(src, d, f)
        for d in (os.listdir(src) if os.path.isdir(src) else [])
        if os.path.isdir(os.path.join(src, d))
        for f in os.listdir(os.path.join(src, d))
        if f.startswith("libosp_") and f.endswith(".a"))
    if not libs:
        print(f"check_unlinked: no {src}/*/libosp_*.a", file=sys.stderr)
        return 2
    exes = executables(main_tree, skip_tests=True)
    for tree in extra:
        tree_exes = executables(tree, skip_tests=False)
        if not tree_exes:
            print(f"check_unlinked: no executable under {tree}",
                  file=sys.stderr)
            return 2
        exes += tree_exes
    if not exes:
        print(f"check_unlinked: no executable under {main_tree}",
              file=sys.stderr)
        return 2

    # Matched demangled: the DWARF names a constructor by its
    # unified C4 symbol, the objects define C1 and C2.
    artificial = set(demangle(sorted(artificial_functions(libs))).values())
    if not artificial:
        print(f"check_unlinked: no DWARF in {src}/*/libosp_*.a "
              "(build at Debug)", file=sys.stderr)
        return 2
    # Demangled signature -> its symbols: one per constructor or
    # destructor variant, and the same weak symbol in many members.
    defined = {}
    for m, d in demangle(sorted(text_symbols(libs, {"T", "W"}))).items():
        if d.startswith("osp::") and d not in artificial:
            defined.setdefault(d, set()).add(m)
    linked = text_symbols(exes, {"T", "t", "W", "w"})
    unlinked = sorted(d for d, ms in defined.items() if not ms & linked)

    print(f"check_unlinked: {len(defined)} osp:: functions in "
          f"{len(libs)} libraries, {len(exes)} shipped executables, "
          f"{len(unlinked)} reached by none")
    failed = False
    for name in unlinked:
        if name in ALLOWLIST:
            print(f"  allowed: {name} ({ALLOWLIST[name]})")
        else:
            print(f"  UNLINKED: {name}", file=sys.stderr)
            failed = True
    for name in sorted(set(ALLOWLIST) - set(unlinked)):
        print(f"  STALE allowlist entry: {name}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
