#!/usr/bin/env python3
"""Check that every library export has a caller and every API reference resolves.

    python3 scripts/exports_audit.py

Run from the repository root. Two checks, both against the interfaces
in lib/*/*.mli:

1. Exports. A `val` or `external` stays only when bin/, examples/,
   perfbench/, bench/ or another lib/ module calls it, or when its doc
   comment carries the marker "Test hook:" (and names what it lets a
   test check that no production API can). Each export that meets
   neither condition is printed as `file:line Library.Module.name`.
2. References. Every `Module.name` in README.md, DESIGN.md and
   EXPERIMENTS.md, and every `{!Module.name}` in lib/*/*.mli, whose
   module part names a library module must name a value, type or
   record field that module exports; a bare `{!name}` in an interface
   must name one of that interface's own. A dotted path in those docs
   or anywhere in an interface whose first segment is a library
   (`Rcm.`, `Markov.`) must go on with one of that library's modules;
   a later capitalised segment may be a constructor
   (`Rcm.Geometry.Tree`). Each dangling one is printed as
   `file:line Module.name` (`file:line name` for a bare one,
   `file:line Library.Segment` for a path into no module).

Exits 1 when either check finds something, 0 otherwise.

The caller scan is conservative: comments and string literals are
skipped, a qualified use counts through any path that can reach the
module (`Lib.Mod.name`, `Mod.name` inside the library or after
`open Lib`, and `module X = ...` aliases), and a file that opens the
module in any way (`open`, `let open`, a local open `Mod.( ... )`)
counts every bare use of the name. A missed orphan only delays a
prune; a wrongly flagged export would block every later change.
"""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "examples", "perfbench", "bench"]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
MARKER = "Test hook:"

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_]*(?:\s*\.\s*[A-Z][A-Za-z0-9_]*)*"


def capitalize(name):
    return name[:1].upper() + name[1:]


def strip_ocaml(src):
    """Blank out comments, string and char literals, keeping line breaks
    so offsets map to the same lines."""
    out = []
    i, n = 0, len(src)
    depth = 0

    def blank(text):
        return re.sub(r"[^\n]", " ", text)

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            start = i
            depth = 1
            i += 2
            while i < n and depth > 0:
                if src.startswith("(*", i):
                    depth += 1
                    i += 2
                elif src.startswith("*)", i):
                    depth -= 1
                    i += 2
                elif src[i] == '"':
                    i = skip_string(src, i)
                else:
                    i += 1
            out.append(blank(src[start:i]))
            continue
        if c == '"':
            j = skip_string(src, i)
            out.append('"' + blank(src[i + 1:j - 1]) + '"')
            i = j
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 40])
        if c == "{" and m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            out.append(blank(src[i:j]))
            i = j
            continue
        if c == "'":
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'", src[i:i + 8])
            if m:
                out.append(blank(m.group(0)))
                i += len(m.group(0))
                continue
        out.append(c)
        i += 1
    return "".join(out)


def skip_string(src, i):
    """Index just past the string literal that starts at src[i] == '"'."""
    i += 1
    n = len(src)
    while i < n:
        if src[i] == "\\":
            i += 2
        elif src[i] == '"':
            return i + 1
        else:
            i += 1
    return n


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Module:
    def __init__(self, lib, name, mli):
        self.lib = lib  # library module name, e.g. "Overlay"
        self.name = name  # module name, e.g. "Table"
        self.mli = mli
        self.values = []  # (name, line, doc text)
        self.types = set()
        self.fields = set()
        self.aliases = {}  # sub-module name -> module name it re-exports

    @property
    def path(self):
        return self.name if self.name == self.lib else self.lib + "." + self.name

    def exported(self, name):
        return (
            any(v[0] == name for v in self.values)
            or name in self.types
            or name in self.fields
        )


def parse_mli(lib, name, path):
    mod = Module(lib, name, path)
    with open(path, encoding="utf-8") as f:
        src = f.read()
    code = strip_ocaml(src)
    # Doc comments, by span, to find the one next to each declaration.
    docs = []
    for m in re.finditer(r"\(\*\*", src):
        depth, i = 0, m.start()
        while i < len(src):
            if src.startswith("(*", i):
                depth += 1
                i += 2
            elif src.startswith("*)", i):
                depth -= 1
                i += 2
                if depth == 0:
                    break
            elif src[i] == '"':
                i = skip_string(src, i)
            else:
                i += 1
        docs.append((m.start(), i, src[m.start():i]))
    decls = [
        (m.start(), m.group(1), m.group(2))
        for m in re.finditer(
            r"^(val|external|type|and|exception|module|include)\b\s*(?:nonrec\s+)?"
            r"(?:'[a-z_]+\s+|\([^)]*\)\s*)?([A-Za-z_][A-Za-z0-9_']*)?",
            code,
            re.M,
        )
    ]
    for idx, (start, kind, ident) in enumerate(decls):
        next_start = decls[idx + 1][0] if idx + 1 < len(decls) else len(src)
        prev_start = decls[idx - 1][0] if idx > 0 else 0
        if kind in ("val", "external") and ident:
            # The doc comment just before the declaration (no blank line
            # between) or the first one after it, before the next item.
            doc = ""
            for ds, de, text in docs:
                between = src[de:start]
                if prev_start <= ds < start and not between.strip() and between.count("\n") <= 1:
                    doc += text
                elif start < ds < next_start:
                    decl_tail = code[start:ds]
                    if decl_tail.strip() and not re.search(r"\n\s*\n", src[start:ds].rstrip()):
                        doc += text
            mod.values.append((ident, line_of(src, start), doc))
        elif kind in ("type", "and") and ident:
            mod.types.add(ident)
            body = code[start:next_start]
            for fm in re.finditer(r"(?:\{|;)\s*(?:mutable\s+)?(" + IDENT + r")\s*:", body):
                mod.fields.add(fm.group(1))
        elif kind == "module" and ident:
            m = re.match(r"module\s+([A-Z][A-Za-z0-9_]*)\s*=\s*(" + MODPATH + ")", code[start:next_start])
            if m:
                mod.aliases[m.group(1)] = re.sub(r"\s", "", m.group(2)).split(".")[-1]
    return mod


def load_modules():
    mods = []
    for lib_dir in sorted(os.listdir("lib")):
        d = os.path.join("lib", lib_dir)
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if f.endswith(".mli"):
                mods.append(parse_mli(capitalize(lib_dir), capitalize(f[:-4]), os.path.join(d, f)))
    return mods


def source_files(dirs):
    for top in dirs:
        for root, subdirs, files in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if not s.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(root, f)


class Scope:
    """The module paths one source file can use to reach each module."""

    def __init__(self, path, code, libs):
        parts = path.split(os.sep)
        self.lib = capitalize(parts[1]) if parts[0] == "lib" and len(parts) > 2 else None
        self.own = capitalize(os.path.basename(path)[:-3])
        opened = set()
        for m in re.finditer(r"\b(?:let\s+)?open!?\s+(" + MODPATH + ")", code):
            opened.add(re.sub(r"\s", "", m.group(1)))
        for m in re.finditer(r"(?<![A-Za-z0-9_'.])(" + MODPATH + r")\s*\.\s*[(\[{]", code):
            opened.add(re.sub(r"\s", "", m.group(1)))
        aliases = {}
        for m in re.finditer(r"\bmodule\s+([A-Z][A-Za-z0-9_]*)\s*=\s*(" + MODPATH + ")", code):
            aliases[m.group(1)] = re.sub(r"\s", "", m.group(2))
        self.opened_libs = {p for p in opened if p in libs}
        self.opened = opened
        self.aliases = aliases
        self.libs = libs

    def paths_to(self, mod):
        """Every dotted prefix by which this file may name mod."""
        if mod.name == mod.lib:
            paths = {mod.lib}
        else:
            paths = {mod.lib + "." + mod.name}
            if self.lib == mod.lib or mod.lib in self.opened_libs:
                paths.add(mod.name)
        changed = True
        while changed:
            changed = False
            for alias, target in self.aliases.items():
                if alias in paths:
                    continue
                if target in paths:
                    paths.add(alias)
                    changed = True
                    continue
                for p in list(paths):
                    # `module X = Lib` makes X.Mod a path to Lib.Mod.
                    if p.startswith(target + ".") and target in self.libs:
                        new = alias + p[len(target):]
                        if new not in paths:
                            paths.add(new)
                            changed = True
        return paths


def find_callers(mods):
    libs = {m.lib for m in mods}
    # Re-exported sub-modules: `module Bitset = Bitset` in failure.mli
    # makes Overlay.Failure.Bitset a path to Overlay.Bitset.
    by_lib_name = {(m.lib, m.name): m for m in mods}
    reexports = {}
    for m in mods:
        for sub, target in m.aliases.items():
            t = by_lib_name.get((m.lib, target))
            if t:
                reexports.setdefault(id(t), []).append(m)
    callers = {}  # (module path, name) -> set of caller kinds
    files = [(f, "caller") for f in source_files(CALLER_DIRS)] + [
        (f, "test") for f in source_files(["test"])
    ]
    for path, kind in files:
        with open(path, encoding="utf-8") as fh:
            code = strip_ocaml(fh.read())
        scope = Scope(path, code, libs)
        words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", code))
        for mod in mods:
            if scope.lib == mod.lib and scope.own == mod.name:
                continue
            if mod.name == mod.lib and scope.lib == mod.lib:
                continue
            paths = scope.paths_to(mod)
            for parent in reexports.get(id(mod), []):
                for p in scope.paths_to(parent):
                    for sub, target in parent.aliases.items():
                        if target == mod.name:
                            paths.add(p + "." + sub)
            if not any(p.split(".")[-1] in words for p in paths):
                continue
            opens = bool(paths & scope.opened)
            alt = "|".join(re.escape(p).replace(r"\.", r"\s*\.\s*") for p in sorted(paths))
            qualified = set(
                m.group(1)
                for m in re.finditer(r"(?<![A-Za-z0-9_'.])(?:" + alt + r")\s*\.\s*(" + IDENT + ")", code)
            )
            for name, _, _ in mod.values:
                if name in qualified or (opens and name in words):
                    callers.setdefault((mod.path, name), set()).add(kind)
    return callers


def audit_exports(mods):
    callers = find_callers(mods)
    orphans = 0
    test_only = 0
    total = 0
    for mod in mods:
        for name, line, doc in mod.values:
            total += 1
            kinds = callers.get((mod.path, name), set())
            if "caller" in kinds or MARKER in " ".join(doc.split()):
                continue
            orphans += 1
            if "test" in kinds:
                test_only += 1
            print(f"{mod.mli}:{line} {mod.path}.{name}")
    print(
        f"exports-audit: {total} exports, {orphans} without a caller or a "
        f"'{MARKER}' marker ({orphans - test_only} with no caller outside "
        f"their module, {test_only} called only from test/)",
        file=sys.stderr,
    )
    return orphans


def resolve(mods, dotted):
    """True when dotted (e.g. "Table.build" or "Overlay.Table.build")
    names an export; None when its module part is no library module."""
    parts = dotted.split(".")
    name, path = parts[-1], parts[:-1]
    candidates = []
    for mod in mods:
        full = mod.path.split(".")
        if path == full or path == [mod.name]:
            candidates.append(mod)
    # Re-exported sub-modules (Overlay.Failure.Bitset).
    for mod in mods:
        for sub, target in mod.aliases.items():
            if path and path[-1] == sub and (len(path) == 1 or path[-2] == mod.name):
                candidates += [m for m in mods if m.lib == mod.lib and m.name == target]
    if not candidates:
        return None
    return any(m.exported(name) for m in candidates)


def audit_references(mods):
    names = {m.name for m in mods} | {m.lib for m in mods}
    ref = re.compile(r"(?<![A-Za-z0-9_'.])((?:[A-Z][A-Za-z0-9_]*\.)+)(" + IDENT + r")(?![A-Za-z0-9_'])")
    dangling = 0
    checked = 0

    def check(path, text, pattern):
        nonlocal dangling, checked
        for m in pattern.finditer(text):
            mods_part = m.group(1).rstrip(".")
            if mods_part.split(".")[-1] not in names:
                continue
            dotted = mods_part + "." + m.group(2)
            ok = resolve(mods, dotted)
            if ok is None:
                continue
            checked += 1
            if not ok:
                dangling += 1
                print(f"{path}:{line_of(text, m.start())} {dotted}")

    # A library's modules: a single-module library is its own.
    lib_modules = {}
    for m in mods:
        lib_modules.setdefault(m.lib, set()).add(m.name)
    lib_path = re.compile(r"(?<![A-Za-z0-9_'.])([A-Z][A-Za-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)")

    def check_libraries(path, text):
        nonlocal dangling, checked
        for m in lib_path.finditer(text):
            lib, seg = m.group(1), m.group(2)
            if lib not in lib_modules:
                continue
            checked += 1
            if seg not in lib_modules[lib]:
                dangling += 1
                print(f"{path}:{line_of(text, m.start())} {lib}.{seg}")

    for doc in DOCS:
        with open(doc, encoding="utf-8") as f:
            text = f.read()
        check(doc, text, ref)
        check_libraries(doc, text)
    odoc = re.compile(r"\{!(?:val:|type:|field:)?((?:[A-Z][A-Za-z0-9_]*\.)+)(" + IDENT + r")\}")
    bare = re.compile(r"\{!(?:val:|type:|field:)?(" + IDENT + r")\}")
    for mod in mods:
        with open(mod.mli, encoding="utf-8") as f:
            text = f.read()
        check(mod.mli, text, odoc)
        check_libraries(mod.mli, text)
        for m in bare.finditer(text):
            checked += 1
            if not mod.exported(m.group(1)):
                dangling += 1
                print(f"{mod.mli}:{line_of(text, m.start())} {m.group(1)}")
    print(f"exports-audit: {checked} API references checked, {dangling} dangling", file=sys.stderr)
    return dangling


def main():
    if not os.path.isdir("lib"):
        print("exports_audit.py: run from the repository root", file=sys.stderr)
        return 2
    mods = load_modules()
    bad = audit_exports(mods)
    bad += audit_references(mods)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
