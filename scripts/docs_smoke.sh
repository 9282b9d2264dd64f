#!/bin/sh
# Docs-drift audit: the user-facing docs (README.md, EXPERIMENTS.md,
# DESIGN.md) must not reference dhtlab subcommands or flags that the
# binary no longer accepts, nor repository files that no longer exist.
# Everything is checked against the real --help output of the built
# binary, so renaming a flag without updating the walkthroughs fails CI.
#
# Run from the repository root, after `dune build`.
set -eu

BIN=_build/default/bin/dhtlab.exe
DOCS="README.md EXPERIMENTS.md DESIGN.md"
fail=0

err() {
  echo "docs-smoke: $*" >&2
  fail=1
}

[ -x "$BIN" ] || { echo "docs-smoke: $BIN missing (run dune build first)" >&2; exit 1; }
for doc in $DOCS; do
  [ -f "$doc" ] || { echo "docs-smoke: $doc missing" >&2; exit 1; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# --- collect ground truth from the binary ----------------------------------
TERM=dumb "$BIN" --help=plain >"$work/help_root.txt" 2>&1

# Subcommands as cmdliner lists them: indented "name [OPTION]..." lines
# in the COMMANDS section (plus group commands like "trace COMMAND").
sed -n '/^COMMANDS/,/^COMMON OPTIONS/p' "$work/help_root.txt" \
  | grep -oE '^       [a-z-]+' | tr -d ' ' | sort -u >"$work/subcommands.txt"

: >"$work/help_all.txt"
cat "$work/help_root.txt" >>"$work/help_all.txt"
while IFS= read -r sub; do
  TERM=dumb "$BIN" "$sub" --help=plain >>"$work/help_all.txt" 2>&1 || true
done <"$work/subcommands.txt"
# Nested group commands (trace report/export-chrome).
for nested in "trace report" "trace export-chrome"; do
  # shellcheck disable=SC2086
  TERM=dumb "$BIN" $nested --help=plain >>"$work/help_all.txt" 2>&1 || true
done

# Every flag any dhtlab command accepts, e.g. "--trials", "-j".
grep -oE '(^|[^a-zA-Z0-9-])--[a-z][a-z0-9-]*' "$work/help_all.txt" \
  | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u >"$work/real_flags.txt"

# --- 1. documented subcommands exist ---------------------------------------
# Docs invoke the tool on command lines shaped like
#   [ENV=…] dune exec bin/dhtlab.exe -- <subcommand> …   or
#   dhtlab <subcommand> …
# The first word after the invocation is the subcommand.
grep -hE '(dune exec bin/dhtlab\.exe --|(^|[` ])dhtlab) [a-z]' $DOCS \
  | sed -E 's/^.*(dune exec bin\/dhtlab\.exe -- |dhtlab )//' \
  | awk '{ print $1 }' | grep -E '^[a-z][a-z-]*$' | sort -u \
  | while IFS= read -r sub; do
      if ! grep -qx "$sub" "$work/subcommands.txt"; then
        echo "$sub"
      fi
    done >"$work/bad_subs.txt"
if [ -s "$work/bad_subs.txt" ]; then
  err "documented subcommands unknown to dhtlab: $(tr '\n' ' ' <"$work/bad_subs.txt")"
fi

# --- 2. documented flags exist ---------------------------------------------
# Flags in the docs that belong to other tools, not dhtlab.
ALLOW="--deps-only --with-test --smoke --manifest --metrics"

grep -hoE -- '--[a-z][a-z0-9.-]*' $DOCS | sort -u >"$work/doc_flags.txt"
while IFS= read -r flag; do
  case " $ALLOW " in *" $flag "*) continue ;; esac
  if ! grep -qx -- "$flag" "$work/real_flags.txt"; then
    err "documented flag $flag not accepted by any dhtlab command"
  fi
done <"$work/doc_flags.txt"

# --- 3. referenced repository files exist ----------------------------------
# Paths the docs tell the reader to open or run: scripts, Makefile
# targets' scripts, markdown cross-references, dune targets.
grep -hoE '(scripts/[a-z_]+\.sh|[A-Z]+[A-Z_]*\.md|bench/[a-z_]+\.ml|bin/[a-z_]+\.(ml|exe)|lib/[a-z_/]+\.(ml|mli))' $DOCS \
  | sort -u | while IFS= read -r path; do
      case "$path" in
        *.exe) src="$(dirname "$path")/$(basename "$path" .exe).ml" ;;
        *) src="$path" ;;
      esac
      if [ ! -e "$src" ] && [ ! -e "_build/default/$path" ]; then
        echo "$path"
      fi
    done >"$work/bad_paths.txt"
if [ -s "$work/bad_paths.txt" ]; then
  err "documented paths missing from the repository: $(tr '\n' ' ' <"$work/bad_paths.txt")"
fi

# --- 4. Makefile targets named in docs exist -------------------------------
# Only command contexts count ("`make x`" or a line starting with
# "make x" / "$ make x"), not prose like "make this hold".
grep -hoE '(^ *\$? *|`)make [a-z][a-z-]*' $DOCS \
  | sed -E 's/^[ $]*//; s/^`//; s/^make //' | sort -u \
  | while IFS= read -r target; do
      if ! grep -qE "^$target:" Makefile; then
        echo "$target"
      fi
    done >"$work/bad_targets.txt"
if [ -s "$work/bad_targets.txt" ]; then
  err "documented make targets missing: $(tr '\n' ' ' <"$work/bad_targets.txt")"
fi

# --- 5. every geometry is documented ----------------------------------------
# Rcm.Geometry.all, as `dhtlab geometries --names` prints it, is the
# ground truth: every geometry in it must appear in the README
# geometry table and in EXPERIMENTS.md, so adding a constructor
# without documenting it fails CI.
"$BIN" geometries --names >"$work/geometries.txt"
[ -s "$work/geometries.txt" ] || err "dhtlab geometries --names returned nothing"
while IFS= read -r geom; do
  for doc in README.md EXPERIMENTS.md; do
    if ! grep -qE "(^|[^a-z-])$geom([^a-z-]|$)" "$doc"; then
      err "geometry '$geom' undocumented in $doc"
    fi
  done
done <"$work/geometries.txt"

# --- 6. API references resolve ----------------------------------------------
# Every Module.name in the docs and every {!Module.name} in lib/*/*.mli
# names an export (the same scan also audits the exports themselves).
python3 scripts/exports_audit.py >"$work/exports.txt" 2>"$work/exports.err" || {
  cat "$work/exports.txt" >&2
  err "scripts/exports_audit.py failed: $(tail -n 1 "$work/exports.err")"
}

if [ "$fail" -ne 0 ]; then
  echo "docs-smoke: FAILED" >&2
  exit 1
fi
echo "docs-smoke: ok ($(wc -l <"$work/doc_flags.txt" | tr -d ' ') documented flags, $(wc -l <"$work/subcommands.txt" | tr -d ' ') subcommands checked)"
