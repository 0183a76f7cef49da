#!/usr/bin/env bash
# Fails when an AVX2 SIMD kernel, or the frame loop that hands its counts to
# those kernels, calls libgcc's software popcount.
#
# A portable x86-64 build has no popcount instruction, so std::popcount
# compiles to a call to __popcountdi2 unless the function carries a popcnt
# target. This check disassembles the built objects and rejects a call to
# __popcount[sd]i2 in:
#   - any function of src/common/simd.cpp whose name contains "avx2" (the
#     AVX2 kernels, compiled with target("avx2,popcnt"));
#   - sj::sim::Engine::run_frame (engine.cpp.o) and NocState::send_ps_masked,
#     send_spike_masked and commit_cycle (fabric.cpp.o), which leave every
#     count to the simd:: kernels.
# The scalar reference kernels may call it.
#
# Usage: tools/check_avx2_popcount.sh [build_dir]
#   (checks <build_dir>/CMakeFiles/sj.dir/src/..., default build)
# Exit status: 0 clean; 1 a software popcount was found; 2 an object or a
# checked function is missing, or the build is -march=native.
set -euo pipefail

SRC=${1:-build}/CMakeFiles/sj.dir/src
SIMD=$SRC/common/simd.cpp.o
ENGINE=$SRC/sim/engine.cpp.o
FABRIC=$SRC/noc/fabric.cpp.o
for obj in "$SIMD" "$ENGINE" "$FABRIC"; do
  [[ -f "$obj" ]] || { echo "check_avx2_popcount: $obj not found" >&2; exit 2; }
done

# scan OBJ REGEX: prints the name of every function of OBJ whose mangled
# name matches REGEX, reports each software popcount call in one of them on
# stderr, and exits 1 if there was such a call. -r prints relocations, which
# is where an object file names its callees.
scan() {
  objdump -dr --no-show-raw-insn "$1" | awk -v re="$2" '
    /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 2, length($2) - 3); hit = fn ~ re; if (hit) print fn; next }
    hit && /__popcount[sd]i2/ { print "software popcount in " fn ": " $0 > "/dev/stderr"; bad = 1 }
    END { exit bad }'
}

bad=0
kernels=$(scan "$SIMD" 'avx2') || bad=1
loop=$(scan "$ENGINE" '^_ZNK2sj3sim6Engine9run_frame') || bad=1
noc=$(scan "$FABRIC" '^_ZN2sj3noc8NocState(14send_ps_masked|17send_spike_masked|12commit_cycle)') || bad=1

if [[ -z "$kernels" ]]; then
  # A -march=native build inlines the kernels into their dispatchers.
  echo "check_avx2_popcount: no avx2 functions in $SIMD (portable build expected)"
  exit 2
fi
for fn in _ZNK2sj3sim6Engine9run_frame _ZN2sj3noc8NocState14send_ps_masked \
          _ZN2sj3noc8NocState17send_spike_masked _ZN2sj3noc8NocState12commit_cycle; do
  grep -q "^$fn" <<<"$loop"$'\n'"$noc" || {
    echo "check_avx2_popcount: $fn not found (renamed?)" >&2
    exit 2
  }
done
(( bad == 0 )) || exit 1
echo "check_avx2_popcount: $(wc -l <<<"$kernels") avx2 functions, run_frame and" \
     "NocState::send_ps_masked/send_spike_masked/commit_cycle: none calls __popcount[sd]i2"
