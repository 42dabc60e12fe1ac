#!/usr/bin/env bash
# AddressSanitizer (LeakSanitizer comes with it) over the crates that hold
# the workspace's `unsafe` — the log slab, the locks, the allocator and
# arena, the persistence hooks — and the integration tests that drive them
# hardest. ASan checks bounds, use-after-free and leaks on every path the
# tests reach; it does not see data races.
#
# Needs a nightly toolchain with the sanitizer runtimes. `--target` keeps
# build scripts and proc macros uninstrumented; RUSTDOCFLAGS carries the
# flag too, or the doctests fail to link. The flags re-fingerprint every
# crate, so the build gets its own target directory.
#
#   ci/sanitize.sh          # the lane, then reader_vs_resize 10x in release
#   REPEATS=50 ci/sanitize.sh
set -euo pipefail

TARGET=x86_64-unknown-linux-gnu
REPEATS="${REPEATS:-10}"
export RUSTFLAGS="-Zsanitizer=address"
export RUSTDOCFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/sanitize}"

cargo +nightly test --target "$TARGET" --lib --tests \
  -p prep-nr -p prep-sync -p prep-pmem -p prep-uc -p prep-shard -p prep-seqds
cargo +nightly test --target "$TARGET" -p prep-integration \
  --test allocator_swap --test crash_recovery --test sharded_crash

# Readers racing reallocation on every seqds type: the test that faults
# on an unlocked read path, repeated because a race is a matter of luck.
for i in $(seq 1 "$REPEATS"); do
  echo "reader_vs_resize, release, run $i of $REPEATS"
  cargo +nightly test -q --release --target "$TARGET" -p prep-integration \
    --test reader_vs_resize
done
