#!/usr/bin/env python3
"""rdfsr_lint: repo-specific invariants no generic linter knows.

Rules
-----
layer-dag      The include graph must respect the layer DAG
                   util -> rdf -> schema -> rules -> eval
                        -> {gen, reduction, ilp} -> core -> api
               (ilp depends only on util). A file in src/<layer>/ may include
               project headers only from the layers listed in ALLOWED_DEPS.
facade-only    examples/*.cpp and tools/rdfsr_cli.cc are facade consumers:
               their project includes are restricted to api/rdfsr.h, gen/*,
               and util/* (the contract stated in CMakeLists.txt; previously
               enforced only by code review).
float-compare  No floating-point comparison against a non-zero float literal
               (or any epsilon literal like 1e-9) on the exact-rational
               solver path: src/core/, src/ilp/, src/util/rational.*.
               Exact-zero tests (== 0.0, != 0.0) are allowed — they are
               sparsity checks, exact in IEEE 754. Sigma/theta decisions must
               go through util::Rational / eval's integer counts.
thread-rand    No bare std::thread / std::jthread / rand() / srand() outside
               src/util/. Concurrency goes through util::ThreadPool (one
               tested shutdown/exception story; TSan suite covers it) and
               randomness through util/rng.h (deterministic, seedable).
lock-wrapper   No raw std::mutex / std::lock_guard / std::condition_variable
               (or any <mutex>/<shared_mutex> primitive) outside src/util/.
               Locking goes through util::Mutex / util::MutexLock /
               util::CondVar (util/mutex.h) so shared state stays inside the
               Clang thread-safety capability model (RDFSR_THREAD_SAFETY=ON).
raw-mmap       No mmap / munmap / madvise outside src/util/. Files are mapped
               through util::MappedFile (util/mapped_file.h), read-only and
               private: MADV_DONTNEED on a written or anonymous mapping
               discards data, so the read-only wrapper is its one caller.
atomic-ref     No bare std::atomic / std::atomic_ref outside src/util/ unless
               the site carries `lint:allow(atomic-ref: <phase contract>)`
               stating the owned-by-phase protocol (who writes during which
               barrier-separated phase, and which join publishes the result).
               Lock-free claims are invisible to the thread-safety analysis,
               so the written contract is the static story reviewers get.
cancel-poll    A function that accepts a util::CancellationToken or
               util::Deadline parameter and contains a for/while loop must
               poll it (ShouldStop/stop_requested/expired/... or a
               PeriodicCheck) or forward it to a callee — a token accepted
               and then ignored is a cancellation bug waiting for a big
               input. Scope: src/ outside src/util/.
compile-db     With --compile-commands <path>, every src/**/*.cc translation
               unit must appear in the compile database; a missing entry
               means clang-tidy and the thread-safety CI job silently skip
               that file.

Suppressions: append `// lint:allow(<rule>[: reason])` to the offending line,
or put it in a comment-only line directly above it. Suppressions are
themselves linted: an allow() naming an unknown rule, or one that suppresses
nothing, is an error (keeps waivers from rotting), and an atomic-ref waiver
with no reason text is itself a violation — the phase contract is the point.

Exit status: 0 clean, 1 violations, 2 usage/internal error.

Self-test: `rdfsr_lint.py --self-test` runs every rule against the known-bad
fixtures in tools/lint/testdata/ (each must be flagged, the good fixture must
not) and compiles the discarded-Result fixture expecting the [[nodiscard]]
rejection. Registered in ctest as rdfsr_lint and rdfsr_lint_selftest.
"""

import argparse
import bisect
import json
import os
import re
import subprocess
import sys

# --- configuration -----------------------------------------------------------

RULES = ("layer-dag", "facade-only", "float-compare", "thread-rand",
         "lock-wrapper", "raw-mmap", "atomic-ref", "cancel-poll",
         "compile-db")

# Layer -> layers whose headers it may include (itself always allowed).
ALLOWED_DEPS = {
    "util": {"util"},
    "rdf": {"rdf", "util"},
    "schema": {"schema", "rdf", "util"},
    "rules": {"rules", "schema", "rdf", "util"},
    "eval": {"eval", "rules", "schema", "rdf", "util"},
    "gen": {"gen", "eval", "rules", "schema", "rdf", "util"},
    "reduction": {"reduction", "rules", "schema", "rdf", "util"},
    "ilp": {"ilp", "util"},
    "core": {"core", "ilp", "eval", "rules", "schema", "rdf", "util"},
    "api": {"api", "core", "ilp", "eval", "rules", "schema", "rdf", "util"},
}

# Facade consumers and the include prefixes they may use.
FACADE_ALLOWED = ("api/rdfsr.h", "gen/", "util/")

# Files covered by the float-compare rule, relative to the repo root.
FLOAT_COMPARE_SCOPE = ("src/core/", "src/ilp/", "src/util/rational.")

SOURCE_EXTS = (".cc", ".h", ".cpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)(?::([^)]*))?\)")
FLOAT_LIT = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fF]?"
# A comparison operator with a float literal on either side. The left-context
# classes keep <, > from matching templates/includes/shifts (<<, >>, ->).
FLOAT_CMP_RE = re.compile(
    r"(?:==|!=|<=|>=|(?<![<>=&|^\-<])[<>](?!=))\s*(" + FLOAT_LIT + r")"
    r"|(" + FLOAT_LIT + r")\s*(?:==|!=|<=|>=|<(?!<)|>(?!>))"
)
EXACT_ZERO_RE = re.compile(r"^0*\.?0*[fF]?$")
THREAD_RAND_RE = re.compile(r"std::j?thread\b|(?<![\w.:])s?rand\s*\(")
LOCK_WRAPPER_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b"
)
# A call of the mapping syscalls; a member call (.mmap( / ->mmap() is not one.
RAW_MMAP_RE = re.compile(
    r"(?<![.>\w])(?:::)?(?:mmap(?:64)?|munmap|madvise|posix_madvise)\s*\(")
ATOMIC_RE = re.compile(r"std::atomic(?:_ref)?\s*<")
# A named CancellationToken/Deadline *parameter*: the name is followed by `,`
# or `)` (possibly after a default argument), which locals/members/returns
# never are. util:: is optional — in-namespace code drops the qualifier.
TOKEN_PARAM_RE = re.compile(
    r"\b(?:util::)?(?:CancellationToken|Deadline)\b(?:\s+const)?"
    r"\s*&?\s*(\w+)\s*(?:=[^,()]*)?([,)])"
)
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
POLL_RE = re.compile(
    r"\b(?:ShouldStop|stop_requested|expired|cancelled|can_trip|status)\s*\("
    r"|\bPeriodicCheck\b"
)


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line, in_block_comment):
    """Blanks out //, /* */ comment text and string/char literal contents.

    Returns (code_text, still_in_block_comment). Keeps column positions by
    replacing stripped characters with spaces.
    """
    out = []
    i, n = 0, len(line)
    state = "block" if in_block_comment else "code"
    quote = ""
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                out.append(" " * (n - i))
                i = n
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = "quote"
                quote = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "quote":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        else:  # block comment
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            i += 1
    return "".join(out), state == "block"


def layer_of(include):
    head = include.split("/", 1)[0]
    return head if head in ALLOWED_DEPS else None


def check_cancel_poll(rel, code_lines, allows_by_line, used_allows, violations):
    """Whole-file pass: every function definition taking a named
    CancellationToken/Deadline parameter and containing a loop must poll the
    token or at least mention the parameter (forwarding it counts — the
    callee then owns the polling obligation)."""
    text = "\n".join(code_lines)
    line_starts = [0]
    for code in code_lines:
        line_starts.append(line_starts[-1] + len(code) + 1)

    flagged_bodies = set()
    for m in TOKEN_PARAM_RE.finditer(text):
        name = m.group(1)
        # Walk to the closing paren of the parameter list.
        if m.group(2) == ")":
            close = m.end() - 1
        else:
            depth = 0
            close = None
            for i in range(m.end(), len(text)):
                c = text[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    if depth == 0:
                        close = i
                        break
                    depth -= 1
            if close is None:
                continue
        # Scan the declaration trailer: `{` means definition; `;` (pure
        # declaration) or `=` (defaulted/deleted, or this was actually an
        # initializer) means nothing to check. Balanced parens cover
        # noexcept(...) and attribute macros; the character class covers
        # cv-qualifiers, ref-qualifiers, and trailing return types.
        i = close + 1
        body_start = None
        while i < len(text):
            c = text[i]
            if c == "{":
                body_start = i
                break
            if c in ";=":
                break
            if c == "(":
                depth = 1
                i += 1
                while i < len(text) and depth:
                    if text[i] == "(":
                        depth += 1
                    elif text[i] == ")":
                        depth -= 1
                    i += 1
                continue
            if c.isspace() or c.isalnum() or c in "_:<>,&*[]-":
                i += 1
                continue
            break
        if body_start is None or body_start in flagged_bodies:
            continue
        depth = 0
        body_end = len(text)
        for i in range(body_start, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    body_end = i + 1
                    break
        body = text[body_start:body_end]
        if not LOOP_RE.search(body):
            continue
        if POLL_RE.search(body):
            continue
        if re.search(r"\b" + re.escape(name) + r"\b", body):
            continue  # forwarded/stored: the callee owns the poll obligation
        flagged_bodies.add(body_start)
        sig_line = bisect.bisect_right(line_starts, m.start())
        allows = allows_by_line[sig_line] if sig_line < len(allows_by_line) else {}
        if "cancel-poll" in allows:
            used_allows.add((allows["cancel-poll"][0], "cancel-poll"))
            continue
        violations.append(Violation(
            "cancel-poll", rel, sig_line,
            f'function takes cancellation parameter "{name}" and loops but '
            "never polls or forwards it — big inputs would ignore the "
            "deadline (poll via PeriodicCheck/ShouldStop or pass it down)"))


def lint_file(root, rel, violations):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.readlines()
    except OSError as e:
        violations.append(Violation("internal", rel, 0, f"unreadable: {e}"))
        return

    unix_rel = rel.replace(os.sep, "/")
    src_layer = None
    if unix_rel.startswith("src/"):
        parts = unix_rel.split("/")
        if len(parts) >= 3 and parts[1] in ALLOWED_DEPS:
            src_layer = parts[1]
    facade_consumer = unix_rel.startswith("examples/") or unix_rel == "tools/rdfsr_cli.cc"
    float_scope = any(unix_rel.startswith(p) for p in FLOAT_COMPARE_SCOPE)
    thread_scope = not unix_rel.startswith("src/util/")
    cancel_scope = unix_rel.startswith("src/") and thread_scope

    in_block = False
    used_allows = set()
    declared_allows = {}  # (lineno, rule) -> rule name is known
    pending_allows = {}  # rule -> (lineno, reason) from comment-only line above
    code_lines = []  # stripped code text, for the whole-file cancel-poll pass
    allows_by_line = [{}]  # 1-based: effective allows visible on each line
    for lineno, raw in enumerate(raw_lines, start=1):
        line_allows = {}
        for m in ALLOW_RE.finditer(raw):
            declared_allows[(lineno, m.group(1))] = m.group(1) in RULES
            line_allows[m.group(1)] = (lineno, m.group(2) or "")

        was_in_block = in_block
        code, in_block = strip_comments_and_strings(raw.rstrip("\n"), in_block)

        effective_allows = dict(pending_allows)
        effective_allows.update(line_allows)
        # A comment-only allow line suppresses on the next code line instead.
        pending_allows = line_allows if not code.strip() else {}
        code_lines.append(code)
        allows_by_line.append(effective_allows)

        def report(rule, message, _ln=lineno, _allows=effective_allows,
                   require_reason=False):
            if rule in _allows:
                allow_line, reason = _allows[rule]
                used_allows.add((allow_line, rule))
                if require_reason and not reason.strip():
                    violations.append(Violation(
                        rule, rel, allow_line,
                        f"lint:allow({rule}) waiver must state the "
                        "owned-by-phase contract (which phase owns the data "
                        "and which barrier/join publishes it)"))
                return
            violations.append(Violation(rule, rel, _ln, message))

        # Matched against the raw line: the include path is a string literal,
        # which strip_comments_and_strings blanks out of `code`.
        inc = INCLUDE_RE.match(raw) if not was_in_block else None
        if inc:
            include = inc.group(1)
            target = layer_of(include)
            if src_layer is not None and target is not None:
                if target not in ALLOWED_DEPS[src_layer]:
                    report(
                        "layer-dag",
                        f'layer "{src_layer}" must not include "{include}" '
                        f'(allowed: {", ".join(sorted(ALLOWED_DEPS[src_layer]))})',
                    )
            if facade_consumer and (target is not None or include.startswith("api/")):
                if not any(
                    include == p if not p.endswith("/") else include.startswith(p)
                    for p in FACADE_ALLOWED
                ):
                    report(
                        "facade-only",
                        f'facade consumer includes internal header "{include}" '
                        f"(allowed: {', '.join(FACADE_ALLOWED)})",
                    )

        if float_scope:
            for m in FLOAT_CMP_RE.finditer(code):
                lit = m.group(1) or m.group(2)
                if lit is not None and EXACT_ZERO_RE.match(lit):
                    continue  # exact-zero sparsity test
                report(
                    "float-compare",
                    f"floating-point comparison against {lit} on the "
                    "exact-rational solver path (use util::Rational / "
                    "integer counts, or lint:allow with a reason)",
                )

        if thread_scope:
            m = THREAD_RAND_RE.search(code)
            if m:
                report(
                    "thread-rand",
                    f'bare "{m.group(0).strip()}" outside src/util/ '
                    "(use util::ThreadPool / util/rng.h)",
                )
            m = LOCK_WRAPPER_RE.search(code)
            if m:
                report(
                    "lock-wrapper",
                    f'raw "{m.group(0)}" outside src/util/ (use util::Mutex '
                    "/ util::MutexLock / util::CondVar from util/mutex.h so "
                    "the thread-safety analysis sees the capability)",
                )
            m = RAW_MMAP_RE.search(code)
            if m:
                report(
                    "raw-mmap",
                    f'raw "{m.group(0).rstrip("(").strip()}" outside '
                    "src/util/ (map files through util::MappedFile: "
                    "MADV_DONTNEED on a written or anonymous mapping "
                    "discards data)",
                )
            m = ATOMIC_RE.search(code)
            if m:
                report(
                    "atomic-ref",
                    f'bare "{m.group(0).rstrip("<").strip()}" outside '
                    "src/util/ without an owned-by-phase contract — add "
                    "lint:allow(atomic-ref: <who owns it during which phase, "
                    "which join publishes it>) or guard the state with "
                    "util::Mutex",
                    require_reason=True,
                )

    if cancel_scope:
        check_cancel_poll(rel, code_lines, allows_by_line, used_allows,
                          violations)

    for (lineno, rule), known in sorted(declared_allows.items()):
        if not known:
            violations.append(
                Violation("lint-allow", rel, lineno, f'allow() names unknown rule "{rule}"')
            )
        elif (lineno, rule) not in used_allows:
            violations.append(
                Violation(
                    "lint-allow", rel, lineno,
                    f'stale lint:allow({rule}): suppresses nothing on this line',
                )
            )


def collect_files(root):
    rels = []
    for top in ("src", "tools", "examples", "tests", "bench"):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            if "testdata" in dirpath.split(os.sep):
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rels.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(rels)


def check_compile_db(root, db_path, violations):
    """compile-db rule: every src/**/*.cc must be a translation unit in the
    compile database — clang-tidy and the thread-safety job key off it, and
    a file CMake forgot is a file those gates silently never check."""
    if not os.path.isfile(db_path):
        # Tolerated: the lint must stay runnable straight from a checkout,
        # before any build directory exists.
        print(f"rdfsr_lint: note: no compile database at {db_path}; "
              "skipping the compile-db coverage check")
        return
    try:
        with open(db_path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        violations.append(Violation(
            "compile-db", os.path.relpath(db_path, root), 0,
            f"unreadable compile database: {e}"))
        return
    covered = set()
    for entry in entries:
        fname = entry.get("file", "")
        if not os.path.isabs(fname):
            fname = os.path.join(entry.get("directory", ""), fname)
        covered.add(os.path.normpath(fname))
    for rel in collect_files(root):
        unix_rel = rel.replace(os.sep, "/")
        if not unix_rel.startswith("src/") or not unix_rel.endswith(".cc"):
            continue
        if os.path.normpath(os.path.join(root, rel)) not in covered:
            violations.append(Violation(
                "compile-db", rel, 0,
                "translation unit missing from compile_commands.json — "
                "clang-tidy and the thread-safety build would silently skip "
                "it (add it to a CMake target)"))


def run_lint(root, compile_db=None):
    violations = []
    for rel in collect_files(root):
        lint_file(root, rel, violations)
    if compile_db is not None:
        check_compile_db(root, compile_db, violations)
    return violations


# --- self-test ---------------------------------------------------------------

# fixture (relative to testdata/) -> set of rules it must trip.
FIXTURE_EXPECTATIONS = {
    "src/eval/bad_layering.cc": {"layer-dag"},
    "examples/bad_facade.cpp": {"facade-only"},
    "src/core/bad_float_compare.cc": {"float-compare"},
    "src/core/bad_thread.cc": {"thread-rand"},
    "src/core/bad_cancel_poll.cc": {"cancel-poll"},
    "src/core/bad_atomic_ref.cc": {"atomic-ref"},
    "src/core/bad_lock_wrapper.cc": {"lock-wrapper"},
    "src/core/bad_raw_mmap.cc": {"raw-mmap"},
    "src/core/good_sample.cc": set(),
}


def self_test(repo_root):
    testdata = os.path.join(repo_root, "tools", "lint", "testdata")
    failures = []

    for rel, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        violations = []
        lint_file(testdata, rel, violations)
        got = {v.rule for v in violations}
        if got != expected:
            failures.append(
                f"{rel}: expected rules {sorted(expected)}, got {sorted(got)}:\n  "
                + "\n  ".join(str(v) for v in violations)
            )
        else:
            print(f"self-test OK: {rel} -> {sorted(got) or ['clean']}")

    # The discarded-Result fixture must be rejected by the compiler: Status and
    # Result<T> are [[nodiscard]], and CI promotes the warning to an error.
    cxx = os.environ.get("CXX", "c++")
    base = [cxx, "-std=c++20", "-fsyntax-only", "-Werror=unused-result",
            "-I", os.path.join(repo_root, "src")]
    bad = os.path.join(testdata, "nodiscard", "discard_result.cc")
    good = os.path.join(testdata, "nodiscard", "checked_result.cc")
    try:
        r = subprocess.run(base + [bad], capture_output=True, text=True)
        if r.returncode == 0:
            failures.append("discard_result.cc compiled clean; expected "
                            "[[nodiscard]] rejection")
        elif "nodiscard" not in r.stderr and "unused-result" not in r.stderr:
            failures.append(f"discard_result.cc failed for the wrong reason:\n{r.stderr}")
        else:
            print("self-test OK: discarded Result<T>/Status rejected by compiler")
        r = subprocess.run(base + [good], capture_output=True, text=True)
        if r.returncode != 0:
            failures.append(f"checked_result.cc should compile clean:\n{r.stderr}")
        else:
            print("self-test OK: checked Result<T> accepted")
    except FileNotFoundError:
        failures.append(f"compiler not found: {cxx}")

    if failures:
        print("\nSELF-TEST FAILURES:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("lint self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from this file)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against its known-bad fixtures")
    parser.add_argument("--compile-commands", default=None, metavar="PATH",
                        help="compile_commands.json to check src/ coverage "
                             "against (skipped with a note if absent)")
    args = parser.parse_args()

    script_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    root = os.path.abspath(args.root) if args.root else script_root

    if args.self_test:
        return self_test(root)

    compile_db = (os.path.abspath(args.compile_commands)
                  if args.compile_commands else None)
    violations = run_lint(root, compile_db)
    for v in violations:
        print(v)
    if violations:
        print(f"\nrdfsr_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("rdfsr_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
