#!/usr/bin/env python3
"""Project-invariant linter for the RSR wire/codec layer.

Enforces the four contracts generic tools (clang-tidy, -Wconversion) cannot
express, because they are about *this* library's poison-propagation and
bounded-work discipline rather than the C++ language:

  reader-check   Every function that calls a ByteReader getter
                 (GetU8/GetVarint64/GetBitRun/...) must consult the reader's
                 sticky error state (status()/failed()/
                 FinishAndCheckConsumed()) or explicitly poison it
                 (Invalidate()) before returning — a getter's return value
                 is meaningless unless the caller checks or propagates the
                 poison flag.

  bounds-check   Every function that parses a count off the wire — any
                 name, not only `ReadFrom`/`Read*` decode bodies: protocol
                 code parses message counts inline — must bound each
                 width/count field before that field drives an allocation
                 or a loop. Concretely: a variable assigned from a
                 count-ish getter (GetVarint64/GetU16/GetU32/GetU64) must
                 appear in a comparison, a std::min/clamp, a
                 ByteReader::CountFits check, or an Invalidate-guarded
                 validation before it is used in resize/reserve/assign/
                 new[]/vector(n) or as a loop bound. A corrupt count that
                 sizes a multi-GB allocation is the bug class this kills.

  bounded-peel   No unbounded `while` in any *Peel*/*Decode* routine: each
                 while loop must reference an extraction cap (an identifier
                 matching max_*/\*_cap/cap/budget) in its condition or body,
                 so a corrupted table oscillating between states cuts out
                 instead of spinning forever.

  zero-alloc     Functions annotated `// RSR_ZERO_ALLOC` (the warm paths
                 pinned dynamically by tests/alloc_counter.h) must not
                 allocate directly: no new/malloc/make_unique/make_shared,
                 no local container declarations, and no growth calls
                 (push_back/resize/...) except on pooled storage — class
                 members (trailing-underscore receivers), `static
                 thread_local` locals, or an explicitly annotated scratch
                 parameter. The static rule and the dynamic alloc_counter
                 test name the same contract.

Suppression: append `// RSR_LINT_OK(<rule>): <justification>` to the
offending line (or the line above it). Suppressions without a justification
text are themselves an error. See docs/STATIC_ANALYSIS.md.

Implementation is a regex/heuristic hybrid over a brace-balanced function
scanner; if the `clang.cindex` Python bindings are importable they are used
to *refine* function boundary detection, but the container ships without
them, so the regex path is the one that must stay trustworthy (it is
unit-tested by tests/lint_invariants_test.py against known-good and
known-bad fixtures per rule).

Usage:
  ci/lint_invariants.py [--root DIR] [paths...]
  (no paths: lints src/ under --root, default repo root)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = ("reader-check", "bounds-check", "bounded-peel", "zero-alloc")

# ByteReader getters (util/serialize.h). GetBytes included: it writes into a
# caller buffer but still silently no-ops on a poisoned reader. GetBitRun
# included: it skips its unpacker on a short buffer or bad padding, leaving
# the caller's cells unfilled, and only the sticky state says so.
READER_GETTERS = (
    "GetU8|GetU16|GetU32|GetU64|GetVarint64|GetVarint128|"
    "GetSignedVarint64|GetBytes|GetBitRun"
)
GETTER_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:->|\.)\s*(?:%s)\s*\(" % READER_GETTERS
)
# Count-shaped getters whose values size allocations/loops when decoding.
COUNT_GETTERS = "GetU16|GetU32|GetU64|GetVarint64"
COUNT_ASSIGN_RE = re.compile(
    r"\b(?:(?:const\s+)?(?:auto|size_t|uint16_t|uint32_t|uint64_t|int|"
    r"int64_t|std::size_t)\s+)?([A-Za-z_]\w*)\s*=\s*"
    r"[A-Za-z_]\w*\s*(?:->|\.)\s*(?:%s)\s*\(" % COUNT_GETTERS
)
SUPPRESS_RE = re.compile(r"//\s*RSR_LINT_OK\((?P<rule>[a-z-]+)\)\s*:\s*(?P<why>\S.*)")
SUPPRESS_BARE_RE = re.compile(r"//\s*RSR_LINT_OK\b")
ZERO_ALLOC_RE = re.compile(r"//\s*RSR_ZERO_ALLOC\b")
BOUNDED_RE = re.compile(r"//\s*RSR_BOUNDED\s*:")
LINE_COMMENT_RE = re.compile(r"//.*$")

# A heuristic function-signature matcher: return type-ish tokens followed by
# a (possibly qualified) name and an argument list, then an opening brace on
# the same or a following line. Good enough for this codebase's Google-style
# layout; fixtures pin the cases that matter.
FUNC_SIG_RE = re.compile(
    r"""^[A-Za-z_][\w:<>,*&\s]*?           # return type tokens
        \b(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_~]\w*)*)\s*
        \((?P<args>[^;{}]*)\)              # argument list (no body yet)
        (?:\s*const)?(?:\s*noexcept)?(?:\s*override)?\s*
        (?:->\s*[\w:<>,*&\s]+)?\s*
        \{""",
    re.VERBOSE,
)

KEYWORD_NONFUNCS = {
    "if", "for", "while", "switch", "return", "catch", "do", "else",
    "sizeof", "alignof", "static_assert", "decltype", "new",
}


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Function:
    name: str        # unqualified name (Iblt::ReadFrom -> ReadFrom)
    qualname: str
    sig_line: int    # 1-based line of the signature
    body_start: int  # index into lines of the line containing '{'
    body_end: int    # index of the line containing the matching '}'
    lines: list = field(default_factory=list)  # (1-based lineno, text)


def strip_strings_and_comments(line: str, in_block_comment: bool):
    """Blanks string/char literals and comments, preserving length-ish
    structure. Returns (code, still_in_block_comment). Line comments are
    kept out of `code` but suppressions are matched on the raw line."""
    out = []
    i, n = 0, len(line)
    in_str = in_chr = False
    while i < n:
        c = line[i]
        if in_block_comment:
            if line.startswith("*/", i):
                in_block_comment = False
                i += 2
            else:
                i += 1
            continue
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
            i += 1
            continue
        if in_chr:
            if c == "\\":
                i += 2
                continue
            if c == "'":
                in_chr = False
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        if c == '"':
            in_str = True
            out.append('""')
            i += 1
            continue
        if c == "'":
            # Distinguish char literal from digit separator (1'000'000):
            # a digit separator is preceded and followed by alnum.
            prev_c = line[i - 1] if i > 0 else ""
            next_c = line[i + 1] if i + 1 < n else ""
            if prev_c.isalnum() and next_c.isalnum():
                i += 1
                continue
            in_chr = True
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def parse_functions(lines: list[str]):
    """Yield Function records via brace balancing over comment-stripped
    code. `lines` is the raw file content split into lines."""
    code_lines = []
    in_block = False
    for raw in lines:
        code, in_block = strip_strings_and_comments(raw, in_block)
        code_lines.append(code)

    funcs = []
    i = 0
    n = len(lines)
    while i < n:
        # Accumulate up to 4 lines to catch signatures wrapped across lines.
        for span in (1, 2, 3, 4):
            if i + span > n:
                break
            chunk = " ".join(code_lines[i + k].strip() for k in range(span))
            m = FUNC_SIG_RE.match(chunk)
            if not m:
                continue
            name = m.group("name").split("::")[-1]
            if name in KEYWORD_NONFUNCS:
                continue
            # Find the line the opening brace actually lands on.
            brace_line = i
            depth = 0
            opened = False
            j = i
            while j < n:
                for c in code_lines[j]:
                    if c == "{":
                        depth += 1
                        opened = True
                        brace_line = j
                    elif c == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                j += 1
            if not opened:
                break
            func = Function(
                name=name,
                qualname=m.group("name"),
                sig_line=i + 1,
                body_start=i,
                body_end=min(j, n - 1),
            )
            func.lines = [
                (k + 1, lines[k]) for k in range(i, func.body_end + 1)
            ]
            funcs.append(func)
            i = func.body_end
            break
        i += 1
    return funcs


def refine_with_libclang(path, lines, funcs):
    """If clang.cindex is importable, re-derive function extents from the
    AST and merge (union) with the regex scan. Absence of the bindings is
    the expected container state; any import or parse error falls back
    silently to the regex result, which is the tested contract."""
    try:
        import clang.cindex  # noqa: F401
    except Exception:
        return funcs
    try:
        index = clang.cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20"])
    except Exception:
        return funcs
    seen = {(f.name, f.sig_line) for f in funcs}
    for cur in tu.cursor.walk_preorder():
        if cur.kind.name not in (
            "FUNCTION_DECL", "CXX_METHOD", "FUNCTION_TEMPLATE"
        ):
            continue
        if not cur.is_definition() or cur.location.file is None:
            continue
        if os.path.abspath(cur.location.file.name) != os.path.abspath(path):
            continue
        start, end = cur.extent.start.line, cur.extent.end.line
        key = (cur.spelling, start)
        if key in seen:
            continue
        func = Function(
            name=cur.spelling,
            qualname=cur.spelling,
            sig_line=start,
            body_start=start - 1,
            body_end=min(end - 1, len(lines) - 1),
        )
        func.lines = [(k + 1, lines[k]) for k in range(func.body_start,
                                                       func.body_end + 1)]
        funcs.append(func)
    return funcs


def suppressed(lines_by_no, lineno, rule):
    """True if `lineno` (1-based) or the line above carries a justified
    RSR_LINT_OK for this rule. A bare/empty-justification marker never
    suppresses (check_suppressions reports it)."""
    for cand in (lineno, lineno - 1):
        raw = lines_by_no.get(cand, "")
        m = SUPPRESS_RE.search(raw)
        if m and m.group("rule") == rule:
            return True
    return False


def body_code(func, lines_code):
    """(lineno, stripped-code) pairs for the function body."""
    return [(no, lines_code[no - 1]) for no, _ in func.lines]


# ---- Rule: reader-check -----------------------------------------------------

CHECK_METHODS_RE_T = (
    r"\b{recv}\s*(?:->|\.)\s*(?:status|failed|FinishAndCheckConsumed|"
    r"Invalidate)\s*\("
)
# Passing the reader on (by pointer/reference) propagates the poison to a
# callee that is itself subject to this rule — `Foo(r, ...)`, `Foo(&r, ...)`,
# `obj.Load(r)` all count. Assigning from it does not, and neither does the
# function's own signature (the callee name is captured so the caller can
# reject self-matches).
PROPAGATE_RE_T = r"\b([A-Za-z_]\w*)\s*\([^()]*[&]?\b{recv}\b"


def rule_reader_check(func, lines_raw_by_no, lines_code, findings, path):
    body = body_code(func, lines_code)
    receivers = {}
    for no, code in body:
        for m in GETTER_CALL_RE.finditer(code):
            receivers.setdefault(m.group(1), no)
    if not receivers:
        return
    text = "\n".join(code for _, code in body)
    for recv, first_no in sorted(receivers.items()):
        if recv in ("w", "writer") or recv.endswith("writer"):
            continue  # heuristic: writers share no getter names anyway
        if re.search(CHECK_METHODS_RE_T.format(recv=re.escape(recv)), text):
            continue
        propagated = any(
            m.group(1) != func.name and m.group(1) not in KEYWORD_NONFUNCS
            for m in re.finditer(
                PROPAGATE_RE_T.format(recv=re.escape(recv)), text)
        )
        if propagated:
            continue
        if suppressed(lines_raw_by_no, first_no, "reader-check"):
            continue
        findings.append(Finding(
            path, first_no, "reader-check",
            f"function '{func.qualname}' reads from ByteReader '{recv}' but "
            f"never checks {recv}.status()/failed()/FinishAndCheckConsumed() "
            f"or passes '{recv}' on — getter results are garbage on a "
            f"poisoned reader",
        ))


# ---- Rule: bounds-check -----------------------------------------------------

ALLOC_USE_RE_T = (
    r"(?:\.|->)\s*(?:resize|reserve|assign)\s*\([^)]*\b{var}\b"
    r"|new\s+[\w:]+\s*\[[^\]]*\b{var}\b"
    r"|std::vector\s*<[^>]*>\s+\w+\s*\(\s*{var}\b"
)
LOOP_USE_RE_T = (
    r"\bfor\s*\([^;]*;[^;]*\b{var}\b"
    r"|\bwhile\s*\([^)]*\b{var}\b"
)
VALIDATE_RE_T = (
    r"\bif\s*\([^{{]*\b{var}\b\s*(?:[<>!=]=?|&&|\|\|)"
    r"|\bif\s*\([^{{]*[<>!=]=?\s*{var}\b"
    r"|std::min\s*(?:<[^>]*>)?\s*\([^)]*\b{var}\b"
    r"|std::clamp\s*\([^)]*\b{var}\b"
    r"|std::max\s*(?:<[^>]*>)?\s*\([^)]*\b{var}\b"
    r"|RSR_CHECK[A-Z_]*\s*\([^)]*\b{var}\b"
    r"|\bCountFits\s*\([^)]*\b{var}\b"
)


def rule_bounds_check(func, lines_raw_by_no, lines_code, findings, path):
    body = body_code(func, lines_code)
    assigned = []  # (var, lineno_of_assignment, body_index)
    for idx, (no, code) in enumerate(body):
        m = COUNT_ASSIGN_RE.search(code)
        if m:
            assigned.append((m.group(1), no, idx))
    for var, no, idx in assigned:
        validate_re = re.compile(VALIDATE_RE_T.format(var=re.escape(var)))
        alloc_re = re.compile(ALLOC_USE_RE_T.format(var=re.escape(var)))
        loop_re = re.compile(LOOP_USE_RE_T.format(var=re.escape(var)))
        validated = False
        for no2, code2 in body[idx + 1:]:
            if validate_re.search(code2):
                validated = True
                continue
            use = alloc_re.search(code2) or loop_re.search(code2)
            if use and not validated:
                if suppressed(lines_raw_by_no, no2, "bounds-check"):
                    break
                findings.append(Finding(
                    path, no2, "bounds-check",
                    f"'{var}' (parsed from the wire at line {no} in "
                    f"'{func.qualname}') sizes an allocation or loop before "
                    f"any bounds validation — a corrupt stream chooses the "
                    f"allocation size",
                ))
                break


# ---- Rule: bounded-peel -----------------------------------------------------

PEEL_FUNC_NAME_RE = re.compile(r"Peel|Decode")
CAP_IDENT_RE = re.compile(r"\bmax_\w+|\w+_cap\b|\bcap\b|\bbudget\w*\b")


def rule_bounded_peel(func, lines_raw_by_no, lines_code, findings, path):
    if not PEEL_FUNC_NAME_RE.search(func.name):
        return
    body = body_code(func, lines_code)
    i = 0
    while i < len(body):
        no, code = body[i]
        m = re.search(r"\bwhile\s*\(", code)
        if not m or re.search(r"\bdo\b", code):
            i += 1
            continue
        # Collect the loop: from the while line to its matching close brace
        # (or the end of a brace-less single statement).
        depth = 0
        opened = False
        j = i
        loop_lines = []
        while j < len(body):
            no_j, code_j = body[j]
            loop_lines.append((no_j, code_j))
            for c in code_j:
                if c == "{":
                    depth += 1
                    opened = True
                elif c == "}":
                    depth -= 1
            if opened and depth <= 0:
                break
            if not opened and j > i and code_j.rstrip().endswith(";"):
                break
            j += 1
        loop_text = "\n".join(c for _, c in loop_lines)
        raw_above = lines_raw_by_no.get(no - 1, "")
        raw_here = lines_raw_by_no.get(no, "")
        bounded = (
            CAP_IDENT_RE.search(loop_text)
            or BOUNDED_RE.search(raw_above)
            or BOUNDED_RE.search(raw_here)
        )
        if not bounded and not suppressed(lines_raw_by_no, no, "bounded-peel"):
            findings.append(Finding(
                path, no, "bounded-peel",
                f"while-loop in peel/decode routine '{func.qualname}' "
                f"references no extraction cap (max_*/cap/budget) — a "
                f"corrupted table can oscillate forever; bound it or "
                f"annotate // RSR_BOUNDED: <why it terminates>",
            ))
        i = j + 1


# ---- Rule: zero-alloc -------------------------------------------------------

DIRECT_ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"      # placement-new `new (ptr)` is not an allocation
    r"|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bstrdup\s*\("
    r"|std::make_unique\b|std::make_shared\b"
)
GROWTH_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:\.\w+|->\w+)*?)\s*(?:\.|->)\s*"
    r"(push_back|emplace_back|emplace|resize|reserve|assign|insert|append)"
    r"\s*\("
)
LOCAL_CONTAINER_RE = re.compile(
    r"^\s*(?:const\s+)?std::(?:vector|string|deque|map|unordered_map|set|"
    r"unordered_set|list|basic_string)\s*<?"
)


def zero_alloc_annotated(func, lines_raw_by_no):
    for cand in range(max(1, func.sig_line - 3), func.sig_line + 1):
        if ZERO_ALLOC_RE.search(lines_raw_by_no.get(cand, "")):
            return True
    return False


def rule_zero_alloc(func, lines_raw_by_no, lines_code, findings, path):
    if not zero_alloc_annotated(func, lines_raw_by_no):
        return
    body = body_code(func, lines_code)
    # Pooled storage recognized inside the body: `static thread_local` locals
    # declared here, class members (trailing-underscore convention), and
    # fields reached through a scratch/pool parameter or local reference.
    pooled = set()
    for no, code in body:
        m = re.search(r"\bstatic\s+thread_local\b([^;]*);", code)
        if not m:
            continue
        # Strip template argument lists so their commas don't split the
        # declarator list, then take the last identifier of each declarator
        # (`static thread_local std::vector<int64_t> a, b, c;` pools a, b, c).
        decl = re.sub(r"<[^<>]*>", "", m.group(1))
        for chunk in decl.split(","):
            chunk = re.split(r"[={(]", chunk)[0]
            names = re.findall(r"\b([A-Za-z_]\w*)\b", chunk)
            if names:
                pooled.add(names[-1])
    for no, code in body[1:]:  # skip the signature line itself
        if DIRECT_ALLOC_RE.search(code):
            if not suppressed(lines_raw_by_no, no, "zero-alloc"):
                findings.append(Finding(
                    path, no, "zero-alloc",
                    f"direct allocation in RSR_ZERO_ALLOC function "
                    f"'{func.qualname}' — this path is pinned alloc-free by "
                    f"tests/alloc_counter.h",
                ))
            continue
        if LOCAL_CONTAINER_RE.search(code) and "&" not in code.split("=")[0] \
                and "*" not in code.split("=")[0]:
            if "static" not in code and not suppressed(
                    lines_raw_by_no, no, "zero-alloc"):
                findings.append(Finding(
                    path, no, "zero-alloc",
                    f"local container constructed in RSR_ZERO_ALLOC function "
                    f"'{func.qualname}' — use pooled (member or "
                    f"static thread_local) storage",
                ))
            continue
        for m in GROWTH_CALL_RE.finditer(code):
            recv = m.group(1)
            root = re.split(r"\.|->", recv)[0]
            is_pooled = (
                root in pooled
                or root.endswith("_")            # member convention
                or re.search(r"scratch|pool", root, re.IGNORECASE)
                or re.search(r"scratch|pool", recv, re.IGNORECASE)
            )
            if is_pooled:
                continue
            if suppressed(lines_raw_by_no, no, "zero-alloc"):
                continue
            findings.append(Finding(
                path, no, "zero-alloc",
                f"container growth '{recv}.{m.group(2)}()' on non-pooled "
                f"storage in RSR_ZERO_ALLOC function '{func.qualname}'",
            ))


# ---- Suppression hygiene ----------------------------------------------------

def check_suppressions(path, lines, findings):
    for idx, raw in enumerate(lines):
        if SUPPRESS_BARE_RE.search(raw):
            m = SUPPRESS_RE.search(raw)
            if not m:
                findings.append(Finding(
                    path, idx + 1, "suppression",
                    "malformed RSR_LINT_OK: must be "
                    "'// RSR_LINT_OK(<rule>): <justification>'",
                ))
            elif m.group("rule") not in RULES:
                findings.append(Finding(
                    path, idx + 1, "suppression",
                    f"RSR_LINT_OK names unknown rule "
                    f"'{m.group('rule')}' (known: {', '.join(RULES)})",
                ))


# ---- Driver -----------------------------------------------------------------

def lint_file(path, use_libclang=True):
    with open(path, encoding="utf-8") as f:
        content = f.read()
    lines = content.splitlines()
    lines_raw_by_no = {i + 1: ln for i, ln in enumerate(lines)}
    code_lines = []
    in_block = False
    for raw in lines:
        code, in_block = strip_strings_and_comments(raw, in_block)
        code_lines.append(code)

    funcs = parse_functions(lines)
    if use_libclang:
        funcs = refine_with_libclang(path, lines, funcs)

    findings = []
    for func in funcs:
        rule_reader_check(func, lines_raw_by_no, code_lines, findings, path)
        rule_bounds_check(func, lines_raw_by_no, code_lines, findings, path)
        rule_bounded_peel(func, lines_raw_by_no, code_lines, findings, path)
        rule_zero_alloc(func, lines_raw_by_no, code_lines, findings, path)
    check_suppressions(path, lines, findings)
    return findings


def collect_paths(root, explicit):
    if explicit:
        out = []
        for p in explicit:
            if os.path.isdir(p):
                for dirpath, _, names in os.walk(p):
                    out.extend(
                        os.path.join(dirpath, n) for n in names
                        if n.endswith((".cc", ".h"))
                    )
            else:
                out.append(p)
        return sorted(out)
    src = os.path.join(root, "src")
    out = []
    for dirpath, _, names in os.walk(src):
        out.extend(
            os.path.join(dirpath, n) for n in names
            if n.endswith((".cc", ".h"))
        )
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--no-libclang", action="store_true",
                    help="force the pure-regex path (the tested contract)")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args(argv)

    paths = collect_paths(args.root, args.paths)
    if not paths:
        print("lint_invariants: no input files", file=sys.stderr)
        return 2
    all_findings = []
    for path in paths:
        try:
            all_findings.extend(
                lint_file(path, use_libclang=not args.no_libclang))
        except OSError as e:
            print(f"lint_invariants: {path}: {e}", file=sys.stderr)
            return 2
    for f in all_findings:
        print(f.format())
    if all_findings:
        print(f"lint_invariants: {len(all_findings)} finding(s) in "
              f"{len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(paths)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
