#!/usr/bin/env bash
# Tier-1 verification, runnable anywhere the toolchain exists (mirrors
# .github/workflows/ci.yml for environments without Actions).  Builds and
# tests Debug and Release with -Wall -Wextra -Werror.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

for cfg in Release Debug; do
  echo "=== ${cfg} ==="
  build="build-ci-${cfg,,}"
  cmake -B "${build}" -S . \
        -DCMAKE_BUILD_TYPE="${cfg}" \
        -DNITHO_WERROR=ON
  cmake --build "${build}" -j "${jobs}"
  ctest --test-dir "${build}" --output-on-failure -j "${jobs}"
done

echo "=== Scalar fallback (NITHO_NO_SIMD) ==="
cmake --preset scalar
cmake --build --preset scalar -j "${jobs}"
ctest --preset scalar -j "${jobs}"

echo "=== ThreadSanitizer (serve / autotune / engine / common / nn / nitho / opc / serialize / rollout / obs / simd) ==="
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}" --target test_serve test_autotune test_engine test_common test_nn test_nitho test_opc test_serialize test_rollout test_obs test_simd
ctest --preset tsan -j 1

echo "=== Lint: bit-identity protocol + gate-config self-tests ==="
python3 tools/lint_bit_identity.py --root .
python3 tools/lint_bit_identity.py --self-test
python3 bench/check_baselines.py --lint-config

echo "=== Repository benchmark: build + tiny smoke pass of every workload ==="
# Builds perfbench/ against the library sources (Release, into
# .bench_build/) and runs each workload's bit-equality and metric checks.
python3 perfbench/tests/test_perfbench.py

echo "=== AddressSanitizer + UBSan (full suite) ==="
cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ctest --preset asan -j "${jobs}"

echo "=== UndefinedBehaviorSanitizer (full suite) ==="
cmake --preset ubsan
cmake --build --preset ubsan -j "${jobs}"
ctest --preset ubsan -j "${jobs}"

echo "=== Thread-safety analysis (clang -Wthread-safety, whole tree) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset tsa
  cmake --build --preset tsa -j "${jobs}"
  ctest --preset tsa -j "${jobs}"   # negative_compile_* cases
else
  echo "clang++ not found; skipping (the analysis is clang-only and runs"
  echo "in the CI thread-safety job — install clang to run it locally)."
fi

echo "CI OK: both configurations built warning-clean, all suites passed"
echo "(including the scalar-only kernel arms), the threaded suites are"
echo "TSan-clean, the suite is ASan- and UBSan-clean, and the bit-identity linter"
echo "and its self-tests are green, and the benchmark builds and passes its"
echo "own checks."
