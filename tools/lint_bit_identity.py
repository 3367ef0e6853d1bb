#!/usr/bin/env python3
"""Bit-identity-protocol linter (DESIGN.md §14.4).

The serving stack's correctness story leans on a floating-point protocol the
compiler cannot check by itself (PRs 2-9, DESIGN.md §13): no FMA anywhere,
no fast-math flags leaking into any target, ordered reductions only, and a
per-arm bit-identity test for every SIMD kernel.  This linter turns each of
those conventions into a CI failure:

  R1 fma-call            std::fma / fmaf / fmal / __builtin_fma* calls in
                         src/ — contracted multiply-add rounds once where
                         the protocol requires twice.
  R2 fast-math-drift     -ffast-math, -funsafe-math-optimizations, -Ofast,
                         -ffp-contract=fast|on, or `#pragma STDC
                         FP_CONTRACT ON` in src/ or the build config; also
                         requires the root CMakeLists.txt to keep the
                         project-wide -ffp-contract=off pin.
  R3 unordered-reduction std::reduce / std::transform_reduce /
                         std::execution::par* in src/ — their summation
                         order is unspecified, so results are not
                         reproducible bit for bit.
  R4 simd-arm-coverage   every `<kernel>_sse2` / `<kernel>_avx2` arm
                         defined in src/common/simd.cpp must have its
                         dispatcher exercised in tests/test_simd.cpp
                         (which must drive arms via for_each_vector_arm).
  R5 prerev-outside-fft  bitrev_table() / *_many_prerev /
                         *_columns_prerev / *_columns_gather calls in src/
                         outside src/fft/ — the bit-reversed placement, and
                         the bit-reversed row tables the gathered column
                         pass reads instead, live once, in fft/pruned.hpp;
                         callers use band_inverse, band_intensity and
                         crop_forward.  Tests are exempt.
  R6 dead-simd-kernel    every kernel (`void` function) declared in
                         src/common/simd.hpp must have a caller in src/
                         outside simd.{hpp,cpp} — a kernel only tests and
                         benches call is three arms of dead code.

Matching is regex AST-lite over comment- and string-stripped sources — no
libclang dependency.  To extend: add a Rule to RULES (R1-R3 style token
rules), or grow check_simd_coverage for structural checks; add a fixture
pair under tools/lint_fixtures/ and list the expectation in SELF_TESTS so
--self-test proves the new rule both fires and stays quiet.

Usage:
  lint_bit_identity.py --root <repo>   # lint the tree (CI + ctest)
  lint_bit_identity.py --self-test     # prove the rules fire on seeded
                                       # violations and stay quiet on clean
                                       # fixtures
Exit status: 0 clean, 1 violations (or a self-test expectation failed).
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".inl"}


def strip_cpp(text):
    """Removes comments and string/char literals, preserving line structure.

    Newlines inside block comments survive so violation line numbers stay
    exact; everything else stripped becomes a space so token boundaries
    cannot fuse.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            out.append(" ")
        elif ch == '"' or ch == "'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append(" ")
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Rule:
    def __init__(self, rule_id, pattern, message, strip=True,
                 exempt_dir=None):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.strip = strip  # comment/string-strip before matching (C++ only)
        # src/ subdirectory the rule does not apply to (None: all of src/).
        self.exempt_dir = exempt_dir


# Token rules over src/.  R2's flag tokens also run over the build config
# (CMakeLists.txt / CMakePresets.json / *.cmake), unstripped — cmake
# comments start with '#', which strip_cpp would not touch anyway, and a
# fast-math flag in a commented-out line is still one edit from live.
RULES = [
    Rule("R1 fma-call",
         r"\b(?:std\s*::\s*)?fma[fl]?\s*\(|__builtin_fma\w*\s*\(",
         "FMA rounds mul+add once; the bit-identity protocol requires "
         "two roundings (DESIGN.md §13.1)"),
    Rule("R2 fast-math-drift",
         r"-ffast-math|-funsafe-math-optimizations|-Ofast\b"
         r"|-ffp-contract=(?:fast|on)\b",
         "fast-math / contraction flags break cross-arm and cross-build "
         "bit-identity"),
    Rule("R2 fast-math-drift",
         r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON",
         "re-enabling FP contraction locally defeats the project-wide "
         "-ffp-contract=off pin",
         strip=False),
    Rule("R3 unordered-reduction",
         r"\bstd\s*::\s*(?:transform_)?reduce\s*\("
         r"|\bstd\s*::\s*execution\s*::\s*par\w*",
         "unspecified reduction order is not reproducible bit for bit; "
         "use the ordered chunked reduction (litho::reduce_ordered / "
         "DESIGN.md §6.3)"),
    Rule("R5 prerev-outside-fft",
         r"\bbitrev_table\s*\(|\b\w+_(?:many|columns)_prerev\s*\("
         r"|\b\w+_columns_gather\s*\(",
         "the bit-reversed placement and row tables are written once, in "
         "src/fft/pruned.hpp; use band_inverse / band_intensity / "
         "crop_forward (DESIGN.md §6.3)",
         exempt_dir="fft"),
]

FLAG_RULE_IDS = {"R2 fast-math-drift"}

ARM_DEF_RE = re.compile(r"\b(\w+?)_(?:sse2|avx2)(?:_t)?\s*\(")
# A kernel declaration in simd.hpp.  Every kernel returns void; the
# dispatch controls (arm_name, force_arm, ...) return their state.
KERNEL_DECL_RE = re.compile(r"\bvoid\s+(\w+)\s*\(")


def base_kernel_name(name):
    """cmul1/cmul2/cmul4 -> cmul: helper lanes collapse onto their kernel."""
    return re.sub(r"\d+$", "", name)


def lint_text(path, text, rules, violations):
    stripped = None
    for rule in rules:
        subject = text
        if rule.strip and path.suffix in CPP_SUFFIXES:
            if stripped is None:
                stripped = strip_cpp(text)
            subject = stripped
        for m in rule.pattern.finditer(subject):
            line = subject.count("\n", 0, m.start()) + 1
            violations.append(
                f"{path}:{line}: [{rule.rule_id}] `{m.group(0).strip()}` "
                f"— {rule.message}")


def check_simd_coverage(simd_cpp, test_simd_cpp, violations,
                        label="src/common/simd.cpp"):
    simd_src = strip_cpp(simd_cpp.read_text())
    test_src = strip_cpp(test_simd_cpp.read_text())
    if "for_each_vector_arm" not in test_src:
        violations.append(
            f"{test_simd_cpp}:1: [R4 simd-arm-coverage] the per-arm driver "
            "for_each_vector_arm is gone — without it no kernel is pinned "
            "on every arm")
        return
    kernels = sorted({base_kernel_name(m.group(1))
                      for m in ARM_DEF_RE.finditer(simd_src)})
    for kernel in kernels:
        if not re.search(rf"\b{re.escape(kernel)}\s*\(", test_src):
            violations.append(
                f"{label}:1: [R4 simd-arm-coverage] kernel `{kernel}` has "
                f"sse2/avx2 arms but no per-arm bit-identity test in "
                f"{test_simd_cpp.name} (drive it under for_each_vector_arm)")


def check_dead_kernels(simd_hpp, caller_files, violations,
                       label="src/common/simd.hpp"):
    kernels = sorted(set(KERNEL_DECL_RE.findall(
        strip_cpp(simd_hpp.read_text()))))
    callers = "\n".join(strip_cpp(p.read_text(errors="replace"))
                        for p in caller_files)
    for kernel in kernels:
        if not re.search(rf"\b{re.escape(kernel)}\s*\(", callers):
            violations.append(
                f"{label}:1: [R6 dead-simd-kernel] kernel `{kernel}` has no "
                f"caller in src/ outside simd.{{hpp,cpp}} — delete its arms, "
                f"dispatch and per-arm test")


def lint_tree(root):
    root = pathlib.Path(root)
    violations = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in CPP_SUFFIXES:
            sub = path.relative_to(src).parts[0]
            rules = [r for r in RULES if r.exempt_dir != sub]
            lint_text(path, path.read_text(errors="replace"), rules,
                      violations)
    flag_rules = [r for r in RULES if r.rule_id in FLAG_RULE_IDS]
    config_files = [root / "CMakeLists.txt", root / "CMakePresets.json"]
    config_files += sorted(root.rglob("*.cmake"))
    for path in config_files:
        # Skip build trees and the linter's own seeded-violation fixtures.
        if any(p.startswith("build") or p == "lint_fixtures"
               for p in path.parts):
            continue
        if path.is_file():
            lint_text(path, path.read_text(errors="replace"), flag_rules,
                      violations)
    cml = root / "CMakeLists.txt"
    if cml.is_file() and "-ffp-contract=off" not in cml.read_text():
        violations.append(
            f"{cml}:1: [R2 fast-math-drift] the project-wide "
            "-ffp-contract=off pin is missing — scalar arms may silently "
            "contract mul+add into FMA")
    simd_cpp = root / "src" / "common" / "simd.cpp"
    test_simd = root / "tests" / "test_simd.cpp"
    if simd_cpp.is_file() and test_simd.is_file():
        check_simd_coverage(simd_cpp, test_simd, violations)
    simd_hpp = root / "src" / "common" / "simd.hpp"
    if simd_hpp.is_file():
        callers = [p for p in sorted(src.rglob("*"))
                   if p.suffix in CPP_SUFFIXES
                   and p not in (simd_hpp, simd_cpp)]
        check_dead_kernels(simd_hpp, callers, violations)
    return violations


# (fixture, expected rule id or None-for-clean).  Fixtures live in
# tools/lint_fixtures/; the self-test proves every rule both fires on its
# seeded violation and stays quiet where it must.
SELF_TESTS = [
    ("fma_violation.cpp", "R1 fma-call"),
    ("fast_math_flag.cmake", "R2 fast-math-drift"),
    ("fp_contract_pragma.cpp", "R2 fast-math-drift"),
    ("unordered_reduction.cpp", "R3 unordered-reduction"),
    ("comment_mention_clean.cpp", None),
    ("prerev_gather.cpp", "R5 prerev-outside-fft"),
    ("prerev_columns.cpp", "R5 prerev-outside-fft"),
    ("prerev_row_table.cpp", "R5 prerev-outside-fft"),
    ("prerev_gather_clean.cpp", None),
]


def run_self_test():
    failures = []
    for name, expected in SELF_TESTS:
        path = FIXTURES / name
        violations = []
        rules = RULES
        lint_text(path, path.read_text(), rules, violations)
        hit_ids = {v.split("[")[1].split("]")[0] for v in violations}
        if expected is None:
            if violations:
                failures.append(f"{name}: expected clean, got {violations}")
        elif expected not in hit_ids:
            failures.append(
                f"{name}: expected [{expected}] to fire, got {hit_ids or 'nothing'}")

    # R4: a kernel with vector arms but no per-arm test must be flagged...
    violations = []
    check_simd_coverage(FIXTURES / "missing_arm_simd.cpp",
                        FIXTURES / "missing_arm_test_simd.cpp", violations,
                        label="missing_arm_simd.cpp")
    if not any("[R4 simd-arm-coverage]" in v and "`frobnicate`" in v
               for v in violations):
        failures.append(
            f"missing_arm fixture: expected [R4] on `frobnicate`, got "
            f"{violations or 'nothing'}")
    # ...and the covered kernel in the same fixture must NOT be flagged.
    if any("`waxpy`" in v for v in violations):
        failures.append("missing_arm fixture: covered kernel waxpy flagged")

    # R6: a declared kernel with no library caller must be flagged; the
    # called kernel and the non-void dispatch control must not be.
    violations = []
    check_dead_kernels(FIXTURES / "dead_kernel_simd.hpp",
                       [FIXTURES / "dead_kernel_caller.cpp"], violations,
                       label="dead_kernel_simd.hpp")
    if not any("[R6 dead-simd-kernel]" in v and "`smear`" in v
               for v in violations):
        failures.append(
            f"dead_kernel fixture: expected [R6] on `smear`, got "
            f"{violations or 'nothing'}")
    if any("`blend`" in v or "`arm_label`" in v for v in violations):
        failures.append(
            f"dead_kernel fixture: live kernel or control flagged: "
            f"{violations}")

    # The real tree must currently be green, so CI cannot go red on the
    # lint job without an actual protocol regression.
    tree = lint_tree(REPO_ROOT)
    if tree:
        failures.append("repository tree is not lint-clean:\n  " +
                        "\n  ".join(tree))

    if failures:
        print("lint_bit_identity self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint_bit_identity self-test OK "
          f"({len(SELF_TESTS) + 4} expectations)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(REPO_ROOT),
                    help="repository root to lint (default: this repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rules against the seeded fixtures")
    args = ap.parse_args()
    if args.self_test:
        return run_self_test()
    violations = lint_tree(args.root)
    if violations:
        print(f"lint_bit_identity: {len(violations)} violation(s):",
              file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print("lint_bit_identity: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
