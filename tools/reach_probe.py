#!/usr/bin/env python3
"""Reachability probe: which library functions does no shipped binary reach?

    python3 tools/reach_probe.py [--build-dir DIR]

Builds every bench/ and examples/ target and the standalone perfbench binary
at -O0 with one section per function, and links them with --gc-sections. At
-O0 nothing is inlined, so the linker keeps exactly the functions some call
chain from a main() reaches. Both trees define CQ_FORCE_SCALAR, which selects
the portable kernel backend (as the scalar preset does), so the result does
not depend on the build host's SIMD width. Code under an ISA guard
(CQ_SIMD_AVX2, CQ_IGEMM_VNNI) is therefore not probed. Two passes read the
result:

  1. External functions: every strong function symbol (nm type T) of a
     libcq_*.a that appears in no shipped binary is unreached.
  2. Code nm's T set cannot show: file-local functions (static, anonymous
     namespace) and header-inline functions of the library. Each binary is
     relinked with --print-gc-sections and a link map; a function section in
     namespace cq that some link removed and no link kept is unreached.
     Pass 2 cannot see an inline function that no library or shipped TU
     instantiates at all.

tools/reach_allowlist.txt names the unreached functions that stay, one per
line: the demangled symbol, " | ", and one of three reasons:

    oracle for <shipped function>
    artifact loader, fuzzed by ROADMAP item 8
    test hook

Exit status: 0 when the unreached set equals the allowlist; 1 when a function
is unreached but not allowlisted, or an allowlist line names a function that
is now reached or no longer exists; 2 on a build or allowlist format error.
"""
import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")
REASONS = (
    re.compile(r"oracle for \S.*"),
    re.compile(r"artifact loader, fuzzed by ROADMAP item 8"),
    re.compile(r"test hook"),
)
SHIPPED_DIRS = ("bench", "examples")


def log(msg):
    print(f"reach_probe: {msg}", file=sys.stderr, flush=True)


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, text=True, **kw)


def configure_and_build(src, out, targets):
    run(["cmake", "-S", src, "-B", out, "-G", "Ninja",
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections "
         "-DCQ_FORCE_SCALAR",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", out, "-j", str(len(os.sched_getaffinity(0))),
         "--target", *targets],
        stdout=subprocess.DEVNULL)


def executables(build, dirs):
    """The executables the build defines under `dirs`.

    Read from ninja's own target list (each link output and its rule), not
    from the files on disk: a build dir keeps the binaries of targets that
    have since been deleted, and their calls must not count as reached."""
    out = run(["ninja", "-C", build, "-t", "targets", "all"],
              capture_output=True).stdout
    exes = []
    for line in out.splitlines():
        path, _, rule = line.rpartition(": ")
        if (rule.startswith("CXX_EXECUTABLE_LINKER")
                and os.path.dirname(path) in dirs):
            exes.append(os.path.join(build, path))
    return sorted(exes)


def defined_symbols(path, types):
    out = run(["nm", "--defined-only", path], capture_output=True).stdout
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            syms.add(parts[2])
    return syms


def demangle(names):
    names = sorted(names)
    if not names:
        return {}
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True).stdout.splitlines()
    return dict(zip(names, out))


def input_key(path):
    """Names a linker input file the same way in both build trees.

    The main build splits the library into libcq_<subsystem>.a and perfbench
    builds one libcq_bench_lib.a, so a library object is keyed by its member
    name alone. (data/dataset.cpp and detect/dataset.cpp share one.)"""
    m = re.search(r"/?libcq_\w+\.a\((.+)\)$", path)
    return "lib:" + m.group(1) if m else os.path.basename(path)


def relink(build, binary, mapfile):
    """Reruns the binary's link with --print-gc-sections and a link map.

    Returns the (input file, section) pairs the link removed and kept."""
    rel = os.path.relpath(binary, build)
    cmds = run(["ninja", "-C", build, "-t", "commands", rel],
               capture_output=True).stdout.strip().splitlines()
    gc = "-Wl,--gc-sections"
    if gc not in cmds[-1]:
        raise RuntimeError(f"no {gc} in the link of {rel}: {cmds[-1]}")
    link = cmds[-1].replace(
        gc, f"{gc} -Wl,--print-gc-sections -Wl,-Map={mapfile}", 1)
    proc = subprocess.run(link, shell=True, cwd=build, text=True,
                          capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"relink of {rel} failed:\n{proc.stderr}")
    removed = set(re.findall(
        r"removing unused section '(\.text\.[^']+)' in file '([^']+)'",
        proc.stderr))
    # A COMDAT section is printed with its group name: ".text._ZN...[group]".
    removed = {(input_key(f), s.split("[", 1)[0]) for s, f in removed}
    with open(mapfile) as f:
        # The map lists discarded sections first; kept ones follow this line.
        text = f.read().split("Linker script and memory map", 1)[1]
    kept = re.findall(r"^ (\.text\.\S+)\s+0x[0-9a-f]+\s+0x[0-9a-f]+\s+(\S+)$",
                      text, re.M)
    return removed, {(input_key(f), s) for s, f in kept}


# Functions, lambdas and locals nested in namespace cq; std:: templates
# instantiated on cq types (_ZSt...) are not library code.
IN_CQ = re.compile(r"^_ZZ?N[KVr]*2cq")


def unreached_sections(build, binaries, lib_t, lib_local):
    removed_any, kept_pairs, kept_sections = set(), set(), set()
    mapdir = os.path.join(build, "reach_maps")
    os.makedirs(mapdir, exist_ok=True)
    for tree, b in binaries:
        mapfile = os.path.join(mapdir, os.path.basename(b) + ".map")
        removed, kept = relink(tree, b, mapfile)
        removed_any |= removed
        kept_pairs |= kept
        kept_sections |= {s for _, s in kept}
    dead = set()
    for f, s in removed_any:
        sym = s[len(".text."):]
        if sym in lib_t or not IN_CQ.match(sym):
            continue  # pass 1 reports external functions; std:: is not ours
        if sym in lib_local:
            # A file-local function is one per object: key it by the object.
            if f.startswith("lib:") and (f, s) not in kept_pairs:
                dead.add(sym)
        elif s not in kept_sections:
            # An inline function may be kept from any object that emits it.
            dead.add(sym)
    return set(demangle(dead).values())


def read_allowlist():
    entries, bad = {}, []
    with open(ALLOWLIST) as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            sym, sep, reason = line.rpartition(" | ")
            if not sep or not any(r.fullmatch(reason) for r in REASONS):
                bad.append(f"{ALLOWLIST}:{n}: {line}")
                continue
            if sym in entries:
                bad.append(f"{ALLOWLIST}:{n}: duplicate entry {sym}")
            entries[sym] = reason
    return entries, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    args = ap.parse_args()

    allow, bad = read_allowlist()
    if bad:
        log("malformed allowlist lines (want '<symbol> | <reason>' with a "
            "listed reason):\n  " + "\n  ".join(bad))
        return 2

    build = os.path.abspath(args.build_dir)
    bench_build = os.path.join(build, "perfbench")
    try:
        configure_and_build(ROOT, build,
                            [f"{d}/all" for d in SHIPPED_DIRS])
        configure_and_build(os.path.join(ROOT, "perfbench"), bench_build,
                            ["perfbench"])
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 2

    binaries = [(build, b) for b in executables(build, SHIPPED_DIRS)]
    binaries.append((bench_build, os.path.join(bench_build, "perfbench")))
    libs = [os.path.join(build, "src", f)
            for f in sorted(os.listdir(os.path.join(build, "src")))
            if f.startswith("libcq_") and f.endswith(".a")]

    lib_t, lib_local = set(), set()
    for lib in libs:
        lib_t |= defined_symbols(lib, {"T"})
        lib_local |= defined_symbols(lib, {"t"})
    reached = set()
    for _, b in binaries:
        reached |= defined_symbols(b, {"T", "t", "W", "w"})
    names = demangle(lib_t - reached)
    pass1 = set(names.values())
    try:
        pass2 = unreached_sections(build, binaries, lib_t, lib_local)
    except RuntimeError as e:
        log(str(e))
        return 2
    log(f"{len(binaries)} shipped binaries; {len(lib_t - reached)} of "
        f"{len(lib_t)} strong library functions unreached; "
        f"{len(pass2)} file-local or inline functions unreached")

    # A lambda or template instantiation inside an allowlisted function is
    # covered by that function's line.
    pass2 = {s for s in pass2 if not any(a != s and a in s for a in allow)}
    unreached = pass1 | pass2
    new = sorted(unreached - allow.keys())
    stale = sorted(allow.keys() - unreached)
    for sym in new:
        print(f"UNREACHED (not allowlisted): {sym}")
    for sym in stale:
        print(f"STALE ALLOWLIST LINE (reached or gone): {sym}")
    if new or stale:
        log(f"{len(new)} unreached functions not in {ALLOWLIST}, "
            f"{len(stale)} allowlist lines that name no unreached function; "
            "delete the dead code or give it an allowlist line")
        return 1
    log(f"ok: the unreached set equals the {len(allow)}-line allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
