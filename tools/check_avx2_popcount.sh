#!/usr/bin/env bash
# Fails when an AVX2 SIMD kernel calls libgcc's software popcount.
#
# A portable x86-64 build has no popcount instruction, so std::popcount
# compiles to a call to __popcountdi2 unless the function carries a popcnt
# target. The AVX2 kernels in src/common/simd.cpp are compiled with
# target("avx2,popcnt"); this check disassembles the built object and
# rejects any function whose name contains "avx2" that still calls the
# software routine. The scalar reference kernels may call it.
#
# Usage: tools/check_avx2_popcount.sh [build_dir]
#   (checks <build_dir>/CMakeFiles/sj.dir/src/common/simd.cpp.o, default build)
set -euo pipefail

OBJ=${1:-build}/CMakeFiles/sj.dir/src/common/simd.cpp.o
[[ -f "$OBJ" ]] || { echo "check_avx2_popcount: $OBJ not found" >&2; exit 2; }

# -r prints relocations, which is where an object file names its callees.
objdump -dr --no-show-raw-insn "$OBJ" | awk -v obj="$OBJ" '
  /^[0-9a-f]+ <.*>:$/ { fn = $2; if (fn ~ /avx2/) kernels++; next }
  fn ~ /avx2/ && /__popcount[sd]i2/ { print "software popcount in " fn ": " $0; bad = 1 }
  END {
    if (kernels == 0) {
      # A -march=native build inlines the kernels into their dispatchers.
      print "check_avx2_popcount: no avx2 functions in " obj " (portable build expected)"
      exit 2
    }
    if (bad) exit 1
    print "check_avx2_popcount: " kernels " avx2 functions, none calls __popcountdi2"
  }'
