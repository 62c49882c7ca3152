#!/usr/bin/env python3
"""Project-invariant linter for the cdst tree.

Checks the conventions the compiler cannot: the Status discipline at the
session API boundary, the single thread-spawn site, seeded-RNG determinism,
a clock-free fair scheduler, allocation discipline in the solver hot paths,
the raw-mutex ban that keeps every lock visible to Clang's thread-safety
analysis, suppression hygiene, and public-header self-containment.

Rules (each has a stable id, used by the allow directive):

  api-throw     No `throw` in src/api/ — sessions return Status, never
                throw. Bare rethrows (`throw;`) are always allowed.
  raw-thread    No std::thread/std::jthread/pthread_create outside
                src/util/thread_pool.{h,cpp}: one spawn site keeps lifetime
                and shutdown reasoning in one place.
  rng           No rand()/srand()/std::random_device in src|bench|examples:
                results must be deterministic given the documented seeds
                (use util/rng.h).
  sched-pure    No clock (steady_clock, system_clock, high_resolution_clock,
                now()) and no random number source (<random>, util/rng.h,
                rand(), std::random_device, std::mt19937...) in
                src/serve/scheduler.{h,cpp}: the pick order must stay a
                function of the add/remove/set_runnable/pick history only,
                which is what makes served runs reproducible.
  naked-new     No naked new/delete expressions in the hot paths (src/core,
                src/graph): allocation goes through containers or
                make_unique so the scratch-recycling invariants hold.
  raw-mutex     No std::mutex/condition_variable/lock_guard/unique_lock/
                scoped_lock outside src/util/thread_annotations.h: all
                locking goes through cdst::Mutex/MutexLock/CondVar so the
                -Wthread-safety analysis sees every acquisition.
  nolint-reason Every NOLINT must name its check and carry a reason:
                `NOLINT(<check>): <reason>` (same for NOLINTNEXTLINE).
  tsan-supp     Every suppression entry in tsan.supp must be preceded by a
                justification comment.
  header-self   Every header under src/ compiles on its own
                (g++ -fsyntax-only), so include order can never matter.
  status-origin Status::ResourceExhausted / Status::DeadlineExceeded may only
                be constructed in api/status.h and the helpers in
                api/scratch_pool.h: these codes carry hard semantics (budget
                truly exhausted, deadline truly expired), so every origin
                must flow through the audited helpers. This covers all of
                src/ including the serving core (src/serve/), whose admission
                rejects and deadline expirations are the highest-traffic
                consumers of both codes.
  fault-site    Every CDST_FAULT_POINT site name in src/ must appear in the
                fault-sweep manifest (tests/fault_injection_test.cpp), so no
                injection site can exist that the sweep never exercises.
  wire-format   Every `from_bytes` definition in src/ must validate the
                message header (wire::expect_header or a helper wrapping it)
                before reading any field, so corrupt or foreign bytes are
                rejected by magic/version, never mis-parsed field by field.
  intrinsics-only-in-simd-header
                No vendor SIMD intrinsics (_mm*_ calls, __m128/__m256/__m512
                types, *intrin.h includes) outside src/util/simd.h: kernels
                express their arithmetic through Vec4d so exactly one file
                dispatches on the ISA and the scalar twin can never drift.

Suppressing a finding inline:

    // cdst-lint: allow(<rule>) <reason>

on the offending line, or as a whole-line comment directly above it (the
directive then covers the first code line after the comment block). The
reason is mandatory; a bare allow is itself a violation.

Usage:
    scripts/check_invariants.py            lint the repo (exit 1 on findings)
    scripts/check_invariants.py --self-test  run the fixture-tree self-test
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

ALLOW_RE = re.compile(r"//\s*cdst-lint:\s*allow\((?P<rule>[\w-]+)\)\s*(?P<reason>.*)")

# ---------------------------------------------------------------------------
# Source model: one scanned file, with comments/strings stripped for the
# code-pattern rules and the original text kept for directive/comment rules.


class SourceFile:
    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.lines = text.splitlines()
        self.code_lines = strip_comments_and_strings(text).splitlines()
        # rule -> set of 1-based line numbers covered by an allow directive
        self.allowed: dict[str, set[int]] = {}
        self.bad_directives: list[int] = []
        self._collect_directives()

    def _collect_directives(self) -> None:
        pending: list[tuple[str, int]] = []  # (rule, directive line)
        for i, line in enumerate(self.lines, start=1):
            stripped = line.strip()
            m = ALLOW_RE.search(line)
            if m:
                if not m.group("reason").strip():
                    self.bad_directives.append(i)
                    continue
                rule = m.group("rule")
                self.allowed.setdefault(rule, set()).add(i)
                if stripped.startswith("//"):
                    pending.append((rule, i))
                continue
            if stripped.startswith("//") or not stripped:
                continue  # comment block continues; directive still pending
            for rule, _ in pending:
                self.allowed.setdefault(rule, set()).add(i)
            pending = []

    def is_allowed(self, rule: str, line_no: int) -> bool:
        return line_no in self.allowed.get(rule, set())


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line layout
    so the rule regexes never fire inside documentation or literals."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules. Each yields (rel_path, line_no, rule_id, message).

THROW_RE = re.compile(r"\bthrow\b")
RETHROW_RE = re.compile(r"\bthrow\s*;")
THREAD_RE = re.compile(r"std::j?thread\b|\bpthread_create\b")
RNG_RE = re.compile(r"\b(?:s?rand)\s*\(|std::random_device\b")
SCHED_FILES = ("src/serve/scheduler.h", "src/serve/scheduler.cpp")
SCHED_IMPURE_RE = re.compile(
    r"\b(?:steady|system|high_resolution)_clock\b|\bnow\s*\("
    r"|\bs?rand\s*\(|\bstd::random_device\b|\bstd::(?:mt19937|minstd_rand"
    r"|default_random_engine|ranlux)\w*\b|\bRng\b"
    r"|#\s*include\s*[<\"](?:random|chrono|ctime|time\.h|util/rng\.h)[>\"]"
)
NEW_RE = re.compile(r"\bnew\s+[A-Za-z_:<(]|\bnew\s*\[")
DELETE_RE = re.compile(r"\bdelete\s*\[?\]?\s*[A-Za-z_*(]")
MUTEX_RE = re.compile(
    r"std::(?:shared_|recursive_|timed_)?mutex\b|std::condition_variable"
    r"(?:_any)?\b|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b"
)
NOLINT_RE = re.compile(r"\bNOLINT(?:NEXTLINE|BEGIN|END)?\b")
NOLINT_OK_RE = re.compile(r"\bNOLINT(?:NEXTLINE)?\([\w\-.,: ]+\):\s*\S")
STATUS_ORIGIN_RE = re.compile(
    r"Status::(?:ResourceExhausted|DeadlineExceeded)\s*\("
)
# Files allowed to construct the origin-restricted statuses: the factory
# itself and the audited budget/deadline helpers.
STATUS_ORIGIN_FILES = ("src/api/status.h", "src/api/scratch_pool.h")
FAULT_POINT_RE = re.compile(r'CDST_FAULT_POINT\(\s*"([^"]+)"')
FAULT_MANIFEST = "tests/fault_injection_test.cpp"
INTRINSIC_RE = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
    r"|#\s*include\s*<(?:imm|x86|[a-z]+mm)intrin\.h>"
)
# The one file allowed to contain vendor intrinsics (the Vec4d dispatch).
SIMD_HEADER = "src/util/simd.h"
FROM_BYTES_DEF_RE = re.compile(r"\bfrom_bytes\s*\(")
WIRE_READ_RE = re.compile(
    r"\.\s*(?:u8|u16|u32|u64|f64)\s*\(|\bread_vec\b|\bread_str\b"
)
EXPECT_HEADER_RE = re.compile(r"\bexpect_header")


def scan_line_rule(src, rule, pattern, message, skip=None):
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        if not pattern.search(line):
            continue
        if skip is not None and skip(line):
            continue
        if src.is_allowed(rule, i):
            continue
        findings.append((src.rel, i, rule, message))
    return findings


def rule_api_throw(src: SourceFile):
    if not src.rel.startswith("src/api/"):
        return []
    return scan_line_rule(
        src,
        "api-throw",
        THROW_RE,
        "`throw` in the session API layer: return a Status instead "
        "(bare `throw;` rethrows are exempt)",
        skip=lambda line: RETHROW_RE.search(line) and not re.search(
            r"\bthrow\s+[^;]", line
        ),
    )


def rule_raw_thread(src: SourceFile):
    if src.rel in ("src/util/thread_pool.h", "src/util/thread_pool.cpp"):
        return []
    return scan_line_rule(
        src,
        "raw-thread",
        THREAD_RE,
        "thread spawned outside util/thread_pool: route work through "
        "cdst::ThreadPool so lifetime/shutdown stay centralized",
    )


def rule_rng(src: SourceFile):
    return scan_line_rule(
        src,
        "rng",
        RNG_RE,
        "unseeded/libc RNG breaks run-to-run determinism: use util/rng.h "
        "with a documented seed",
    )


def rule_sched_pure(src: SourceFile):
    if src.rel not in SCHED_FILES:
        return []
    findings = []
    for i, (code, raw) in enumerate(zip(src.code_lines, src.lines), start=1):
        # Includes name their header inside a string literal, which the
        # stripped code blanks out, so they are matched on the raw line.
        text = raw if raw.lstrip().startswith("#") else code
        if not SCHED_IMPURE_RE.search(text) or src.is_allowed("sched-pure", i):
            continue
        findings.append(
            (
                src.rel,
                i,
                "sched-pure",
                "clock or random source in the fair scheduler: the pick "
                "order must be a function of the call history only",
            )
        )
    return findings


def rule_naked_new(src: SourceFile):
    if not (src.rel.startswith("src/core/") or src.rel.startswith("src/graph/")):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        hit = NEW_RE.search(line) or DELETE_RE.search(line)
        if not hit:
            continue
        # Deleted special members (`= delete`) and placement-new-free code
        # dominate; only flag actual allocation expressions.
        if re.search(r"=\s*delete\s*[;,)]?", line) and not NEW_RE.search(line):
            continue
        if src.is_allowed("naked-new", i):
            continue
        findings.append(
            (
                src.rel,
                i,
                "naked-new",
                "naked new/delete in a hot path: use containers or "
                "make_unique so the scratch-recycling invariants hold",
            )
        )
    return findings


def rule_raw_mutex(src: SourceFile):
    if not src.rel.startswith("src/"):
        return []
    if src.rel == "src/util/thread_annotations.h":
        return []
    return scan_line_rule(
        src,
        "raw-mutex",
        MUTEX_RE,
        "raw std mutex/lock type: use cdst::Mutex/MutexLock/CondVar "
        "(util/thread_annotations.h) so -Wthread-safety sees the lock",
    )


def rule_nolint_reason(src: SourceFile):
    findings = []
    for i, line in enumerate(src.lines, start=1):
        if not NOLINT_RE.search(line):
            continue
        if NOLINT_OK_RE.search(line):
            continue
        if src.is_allowed("nolint-reason", i):
            continue
        findings.append(
            (
                src.rel,
                i,
                "nolint-reason",
                "NOLINT without `(<check>): <reason>`: name the check and "
                "justify the suppression (NOLINTBEGIN/END blocks are banned)",
            )
        )
    return findings


def rule_status_origin(src: SourceFile):
    if not src.rel.startswith("src/") or src.rel in STATUS_ORIGIN_FILES:
        return []
    return scan_line_rule(
        src,
        "status-origin",
        STATUS_ORIGIN_RE,
        "kResourceExhausted/kDeadlineExceeded constructed outside the "
        "audited helpers: use detail::resource_exhausted_status / "
        "detail::deadline_exceeded_status (api/scratch_pool.h)",
    )


def rule_wire_format(src: SourceFile):
    """Walks each `from_bytes` definition body and flags a wire read that
    precedes the header validation. Declarations (`;` before `{`) are
    skipped; the body is delimited by brace depth on the stripped code."""
    if not src.rel.startswith("src/"):
        return []
    findings = []
    lines = src.code_lines
    n = len(lines)
    i = 0
    while i < n:
        if not FROM_BYTES_DEF_RE.search(lines[i]):
            i += 1
            continue
        # Find whether this is a definition: the first `{` or `;` after the
        # match decides (declarations end in `;`).
        j, col = i, lines[i].index("from_bytes")
        body_start = None
        while j < n:
            text = lines[j][col:] if j == i else lines[j]
            brace, semi = text.find("{"), text.find(";")
            if brace != -1 and (semi == -1 or brace < semi):
                body_start = (j, (col if j == i else 0) + brace + 1)
                break
            if semi != -1:
                break
            j += 1
        if body_start is None:
            i += 1
            continue
        # Scan the body: the first header check or wire read wins.
        depth = 1
        row, pos = body_start
        saw_header = False
        while row < n and depth > 0:
            text = lines[row][pos:]
            if not saw_header and EXPECT_HEADER_RE.search(text):
                saw_header = True
            if not saw_header:
                m = WIRE_READ_RE.search(text)
                if m and not src.is_allowed("wire-format", row + 1):
                    findings.append(
                        (
                            src.rel,
                            row + 1,
                            "wire-format",
                            "from_bytes reads a field before validating the "
                            "message header: check magic+version via "
                            "wire::expect_header (or a helper wrapping it) "
                            "first",
                        )
                    )
                    break
            depth += text.count("{") - text.count("}")
            row += 1
            pos = 0
        i = max(i + 1, row)
    return findings


def rule_intrinsics(src: SourceFile):
    if src.rel == SIMD_HEADER:
        return []
    return scan_line_rule(
        src,
        "intrinsics-only-in-simd-header",
        INTRINSIC_RE,
        "vendor SIMD intrinsic outside util/simd.h: express the kernel "
        "through Vec4d so one file dispatches on the ISA and the scalar "
        "twin stays bit-identical",
    )


def rule_bad_directive(src: SourceFile):
    return [
        (
            src.rel,
            i,
            "allow-reason",
            "cdst-lint allow directive without a reason",
        )
        for i in src.bad_directives
    ]


LINE_RULES = [
    rule_api_throw,
    rule_raw_thread,
    rule_rng,
    rule_sched_pure,
    rule_naked_new,
    rule_raw_mutex,
    rule_nolint_reason,
    rule_status_origin,
    rule_wire_format,
    rule_intrinsics,
    rule_bad_directive,
]


def check_fault_sites(root: Path):
    """Every CDST_FAULT_POINT("name") under src/ must appear (as the quoted
    site string) in the fault-sweep manifest, so arming "every known site"
    in the sweep really is every site that exists. Site names live inside
    string literals, so this scans the raw text, not the stripped code."""
    findings = []
    manifest_path = root / FAULT_MANIFEST
    manifest = manifest_path.read_text() if manifest_path.exists() else ""
    for path in scanned_files(root):
        rel = path.relative_to(root).as_posix()
        if not rel.startswith("src/"):
            continue
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            for m in FAULT_POINT_RE.finditer(line):
                site = m.group(1)
                if f'"{site}"' not in manifest:
                    findings.append(
                        (
                            rel,
                            i,
                            "fault-site",
                            f'fault site "{site}" missing from the sweep '
                            f"manifest ({FAULT_MANIFEST}): every injection "
                            "site must be exercised by the fault sweep",
                        )
                    )
    return findings


def check_tsan_supp(root: Path):
    findings = []
    supp = root / "tsan.supp"
    if not supp.exists():
        return findings
    prev_was_comment = False
    for i, line in enumerate(supp.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            prev_was_comment = False
            continue
        if stripped.startswith("#"):
            prev_was_comment = True
            continue
        if not prev_was_comment:
            findings.append(
                (
                    "tsan.supp",
                    i,
                    "tsan-supp",
                    "suppression entry without a justification comment "
                    "directly above it",
                )
            )
        prev_was_comment = False
    return findings


def check_headers_self_contained(root: Path, headers, jobs=None):
    if jobs is None:
        jobs = max(4, (os.cpu_count() or 4))
    """Compiles each header alone; a header that depends on its includer's
    includes fails here before it fails a refactor."""
    findings = []
    gxx = shutil.which("g++") or shutil.which("clang++")
    if gxx is None:
        print("warning: no C++ compiler found; skipping header-self rule",
              file=sys.stderr)
        return findings

    def compile_one(header: Path):
        cmd = [
            gxx,
            "-std=c++20",
            "-fsyntax-only",
            "-x",
            "c++",
            f"-I{root / 'src'}",
            str(header),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()
            detail = tail[0] if tail else "compile failed"
            return (
                str(header.relative_to(root)),
                1,
                "header-self",
                f"header is not self-contained: {detail}",
            )
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for result in pool.map(compile_one, headers):
            if result is not None:
                findings.append(result)
    return findings


# ---------------------------------------------------------------------------
# Driver


def scanned_files(root: Path):
    for tree in ("src", "bench", "examples"):
        base = root / tree
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".hpp", ".cpp", ".cc"):
                yield path


def run_lint(root: Path, with_headers: bool = True):
    findings = []
    headers = []
    for path in scanned_files(root):
        rel = path.relative_to(root).as_posix()
        src = SourceFile(path, rel, path.read_text())
        for rule in LINE_RULES:
            findings.extend(rule(src))
        if path.suffix in (".h", ".hpp") and rel.startswith("src/"):
            headers.append(path)
    findings.extend(check_tsan_supp(root))
    findings.extend(check_fault_sites(root))
    if with_headers:
        findings.extend(check_headers_self_contained(root, headers))
    return sorted(findings)


def self_test() -> int:
    """Asserts each rule fires on the fixture tree's known-bad files and
    stays silent on the known-clean ones."""
    fixture = REPO_ROOT / "scripts" / "testdata" / "check_invariants"
    if not fixture.is_dir():
        print(f"self-test fixture tree missing: {fixture}", file=sys.stderr)
        return 1
    findings = run_lint(fixture, with_headers=True)
    by_file: dict[str, set[str]] = {}
    for rel, _line, rule, _msg in findings:
        by_file.setdefault(rel, set()).add(rule)

    expectations = {
        "src/api/bad_throw.cpp": {"api-throw"},
        "src/api/allowed_throw.cpp": set(),
        "src/core/bad_hot_path.cpp": {"naked-new", "rng"},
        "src/util/bad_locking.cpp": {"raw-mutex", "raw-thread"},
        "src/grid/bad_nolint.h": {"nolint-reason", "allow-reason"},
        "src/grid/bad_header.h": {"header-self"},
        "src/grid/clean.h": set(),
        "src/api/clean.cpp": set(),
        "src/core/bad_status_origin.cpp": {"status-origin"},
        "src/serve/bad_status_origin.cpp": {"status-origin"},
        "src/serve/clean_admission.cpp": set(),
        "src/serve/scheduler.cpp": {"sched-pure"},
        "src/serve/clean_clock_user.cpp": set(),
        "src/serve/scheduler.h": {"sched-pure"},
        "src/io/bad_wire.cpp": {"wire-format"},
        "src/io/clean_wire.cpp": set(),
        "src/util/bad_fault_site.cpp": {"fault-site"},
        "src/util/clean_fault_site.cpp": set(),
        "src/util/bad_intrinsics.cpp": {"intrinsics-only-in-simd-header"},
        "src/util/simd.h": set(),
        "tsan.supp": {"tsan-supp"},
    }

    failures = 0
    for rel, expected in expectations.items():
        got = by_file.pop(rel, set())
        if got != expected:
            print(
                f"self-test FAIL {rel}: expected rules {sorted(expected)}, "
                f"got {sorted(got)}",
                file=sys.stderr,
            )
            failures += 1
    for rel, got in by_file.items():
        print(
            f"self-test FAIL: unexpected findings in {rel}: {sorted(got)}",
            file=sys.stderr,
        )
        failures += 1
    if failures == 0:
        print(f"self-test OK: {len(expectations)} fixtures, "
              f"{len(findings)} expected findings")
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixture tree and check rule coverage")
    parser.add_argument("--no-headers", action="store_true",
                        help="skip the header self-containment compiles")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to lint (default: the repo root)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = run_lint(args.root, with_headers=not args.no_headers)
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"\n{len(findings)} invariant violation(s).", file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
