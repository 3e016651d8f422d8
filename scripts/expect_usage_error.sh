#!/usr/bin/env bash
#
# Run nova_cli on malformed input and require a clean usage error: exit
# code exactly 1 (not a signal, an OOM kill or a simulator-bug exit 2)
# and no crash bundle left behind.
#
# Usage: scripts/expect_usage_error.sh NOVA_CLI WORK_DIR [ARGS...]
#
# WORK_DIR is emptied first; nova_cli runs inside it, so a crash bundle
# written to the default path would land there.

set -u
cli=$1
work=$2
shift 2
rm -rf "$work"
mkdir -p "$work"
cd "$work" || exit 2

"$cli" "$@" >stdout.txt 2>stderr.txt
rc=$?
if [ "$rc" -ne 1 ]; then
    echo "expected exit code 1, got $rc for: nova_cli $*" >&2
    cat stderr.txt >&2
    exit 1
fi
if [ -e nova_crash.txt ]; then
    echo "a crash bundle was written for: nova_cli $*" >&2
    exit 1
fi
echo "ok: nova_cli $* -> $(tail -n 1 stderr.txt)"
