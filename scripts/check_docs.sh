#!/usr/bin/env bash
# Documentation drift gate (run by scripts/ci.sh).
#
# Two invariants, both enforced by grepping the code rather than a manually
# maintained list, so a new knob or counter cannot land undocumented:
#
#   1. every OMP_*/OMP4RS_*/MINIMPI_* environment variable the workspace
#      reads appears in docs/ENVIRONMENT.md, and every such name the current
#      documentation mentions (README.md, docs/*.md, the verify skill) is
#      read by the workspace, so a deleted knob cannot linger (a trailing
#      `_*`, as in `OMP4RS_TRACE_*`, names a family: some variable read by
#      the code must start with that prefix). History files (CHANGES.md,
#      EXPERIMENTS.md, EXPERIMENTS_HISTORY.md, ROADMAP.md) are exempt: they
#      record knobs that are gone on purpose;
#   2. every omp4rs.*/minipy.* counter the workspace publishes appears in
#      docs/OBSERVABILITY.md, and every such counter the document names is
#      published by the workspace (the dynamic minipy.vm.fallback.<reason>
#      family is checked by its literal prefix and exempt from the reverse
#      check).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. environment variables ---------------------------------------------
# Readers use std::env::var / the icv.rs helpers env_usize / env_bool; the
# variable name is always a string literal right after the open paren.
env_vars=$(grep -rhoE '(var|env_usize|env_bool)\(\s*"(OMP4RS|OMP|MINIMPI)_[A-Z0-9_]+"' \
        crates/ --include='*.rs' \
    | grep -oE '"(OMP4RS|OMP|MINIMPI)_[A-Z0-9_]+"' | tr -d '"' | sort -u)

for v in $env_vars; do
    if ! grep -q "$v" docs/ENVIRONMENT.md; then
        echo "check_docs: env var $v is read by the code but missing from docs/ENVIRONMENT.md" >&2
        fail=1
    fi
done

doc_files=(README.md docs/*.md .claude/skills/verify/SKILL.md)
for f in "${doc_files[@]}"; do
    doc_vars=$(grep -oE '\b(OMP4RS|OMP|MINIMPI)_[A-Z0-9_]*[A-Z0-9](_\*)?' "$f" | sort -u)
    for v in $doc_vars; do
        case "$v" in
        *_\*) grep -qE "^${v%\*}" <<<"$env_vars" && continue ;;
        *) grep -qxF "$v" <<<"$env_vars" && continue ;;
        esac
        echo "check_docs: env var $v is documented in $f but not read by the code" >&2
        fail=1
    done
done

# --- 2. counters -----------------------------------------------------------
counters=$(grep -rhoE '"(omp4rs|minipy)\.[a-z_]+\.[a-z_.]+"' \
        crates/ --include='*.rs' | tr -d '"' | sort -u)

for c in $counters; do
    # minipy.vm.fallback. is a dynamic per-reason family; the prefix itself
    # must be documented, individual reasons need not be.
    if ! grep -qF "$c" docs/OBSERVABILITY.md; then
        echo "check_docs: counter $c is published by the code but missing from docs/OBSERVABILITY.md" >&2
        fail=1
    fi
done

# Names in the document: a dotted omp4rs./minipy. identifier in backticks
# (a trailing `.*` or `.<reason>` marks a family, not a counter).
doc_ctrs=$(grep -oE '`(omp4rs|minipy)\.[a-z_]+\.[a-z_.]*[a-z_]`' docs/OBSERVABILITY.md \
    | tr -d '`' | sort -u)
for c in $doc_ctrs; do
    case "$c" in minipy.vm.fallback.*) continue ;; esac
    if ! grep -qxF "$c" <<<"$counters"; then
        echo "check_docs: counter $c is documented in docs/OBSERVABILITY.md but not published by the code" >&2
        fail=1
    fi
done

count_env=$(echo "$env_vars" | wc -w)
count_ctr=$(echo "$counters" | wc -w)
if [ "$count_env" -lt 10 ] || [ "$count_ctr" -lt 10 ]; then
    # The greps returning almost nothing means the extraction patterns broke,
    # not that the code stopped reading the environment.
    echo "check_docs: extraction looks broken (env=$count_env counters=$count_ctr)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_docs: OK ($count_env env vars, $count_ctr counters all documented)"
