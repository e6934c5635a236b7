#!/usr/bin/env bash
# The repo benchmark, one command. Run from the root of the repo:
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --smoke              the same with 1 s runs (never a committed number)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; the form BENCHMARK.json's command takes
#
# Builds the package here (offline, own lock file; own target directory
# unless CARGO_TARGET_DIR is set), then runs each workload in a fresh
# process. The last line of each run is the JSON result object.
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release"

# The end-to-end binary must build; nothing runs without it.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin mmt-benchmark >&2 || exit 1

# The layer probes are built second and may fail: an API change in a
# probed layer must not take the end-to-end metrics down with it.
layers=(--layers-bin "$bin/layers")
if ! err="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin layers 2>&1)"; then
    echo "$err" >&2
    layers=(--layers-error "layers binary failed to build: $(echo "$err" | grep -m1 '^error' || echo 'see stderr')")
fi

common=(--out-dir "$here/out" "${layers[@]}")
smoke=()
pass=()
one=0
for a in "$@"; do
    case "$a" in
    --smoke) smoke=(--seconds 1) ;;
    --workload) one=1; pass+=("$a") ;;
    *) pass+=("$a") ;;
    esac
done

if [ "$one" = 1 ]; then
    exec "$bin/mmt-benchmark" "${common[@]}" "${pass[@]}" "${smoke[@]}"
fi

echo "host: $(nproc) cores, net.core.rmem_default=$(cat /proc/sys/net/core/rmem_default 2>/dev/null || echo '?')"
rc=0
for trace in 0 1; do
    for w in $("$bin/mmt-benchmark" --list); do
        echo "=== $w (trace $trace) ==="
        "$bin/mmt-benchmark" "${common[@]}" --workload "$w" --trace "$trace" "${pass[@]}" "${smoke[@]}" || rc=1
    done
done
exit $rc
