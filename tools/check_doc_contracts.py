#!/usr/bin/env python3
"""CI doc-drift gate: public API surfaces must carry contract comments.

Three rules, checked over the repo's headers:

  1. Every namespace-scope class/struct/enum *definition* in any header
     under src/ must be documented: a `//` comment block directly above
     it, or a mention by name in the file's leading comment block (the
     repo's idiom for a header's primary type). Forward declarations are
     not definitions and are exempt.

  2. In the concurrency-contract headers (CONTRACT_HEADERS below) every
     public member function must be documented: a comment directly above
     it, or membership in a contiguous run of declarations whose head is
     commented (the accessor-cluster idiom), or a trailing comment on its
     own line. Constructors, destructors, operators, friend/using
     declarations, and defaulted/deleted signatures are exempt. Nested
     public type definitions need a comment too.

  3. Each contract header must reference CONCURRENCY.md at least once, so
     the authoritative contract document cannot be silently orphaned by
     an API rewrite.

Exits non-zero listing every violation. No third-party dependencies: the
parser is a deliberately small line/brace state machine that understands
exactly as much C++ as the repo's style produces (clang-format, comments
on their own lines, no function-try-blocks in headers).
"""

import os
import re
import sys

CONTRACT_HEADERS = {
    "src/document.h",
    "src/goddag/overlay.h",
    "src/xquery/engine.h",
    "src/corpus/corpus.h",
    "src/goddag/persist.h",
    "src/goddag/snapshot.h",
    "src/xpath/axes.h",
    "src/xquery/plan_cache.h",
    "src/xquery/planner.h",
}

TYPE_DEF_RE = re.compile(
    r"(?:^|[\s>])(class|struct|enum(?:\s+(?:class|struct))?)\s+(\w[\w:]*)"
)
ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")


def strip_code(line):
    """Remove string/char literals and trailing // comment from a line.

    Returns (code, had_trailing_comment). Good enough for headers: the
    repo has no multi-line raw strings in .h files.
    """
    out = []
    i = 0
    had_comment = False
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            had_comment = True
            break
        if c in ("\"", "'"):
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), had_comment


def strip_block_comments(text):
    """Replace /* ... */ spans with spaces, preserving newlines."""
    return re.sub(
        r"/\*.*?\*/",
        lambda m: re.sub(r"[^\n]", " ", m.group(0)),
        text,
        flags=re.S,
    )


class Scope:
    def __init__(self, kind, name="", access="", visible=False):
        self.kind = kind  # "namespace" | "class" | "other"
        self.name = name
        self.access = access  # current access specifier for class scopes
        self.visible = visible  # class reachable through public sections


def is_exempt(decl, class_name):
    """Signatures that need no individual contract comment."""
    d = " ".join(decl.split())
    if re.match(r"^(template\s*<[^>]*>\s*)?(friend|using|typedef)\b", d):
        return True
    if "operator" in d:
        return True
    if "= default" in d or "= delete" in d:
        return True
    # Constructors and destructors: the class comment is their contract.
    if class_name and re.search(
        r"(^|[\s:])~?%s\s*\(" % re.escape(class_name), d
    ):
        return True
    # Macro invocations (all-caps callables like GTEST/benchmark helpers).
    if re.match(r"^[A-Z][A-Z0-9_]*\s*\(", d):
        return True
    return False


def check_header(path, rel, is_contract):
    violations = []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if is_contract and "CONCURRENCY.md" not in text:
        violations.append(
            (rel, 1, "contract header never references CONCURRENCY.md")
        )
    text = strip_block_comments(text)

    # The file's leading comment block: the contiguous // lines before the
    # first non-comment, non-blank line. A namespace-scope type named
    # there is considered documented (the repo's primary-type idiom).
    leading = []
    for raw in text.splitlines():
        s = raw.strip()
        if s.startswith("//"):
            leading.append(s)
        elif s:
            break
    leading_comment = "\n".join(leading)

    def named_in_header(name):
        return re.search(r"\b%s\b" % re.escape(name.split("::")[-1]),
                         leading_comment) is not None

    scopes = [Scope("namespace", visible=True)]  # file scope
    pending = ""  # declaration text accumulated since the last ; { }
    pending_line = 0  # line the pending declaration started on
    pending_doc = False  # was the element above it a comment / doc'd run?
    last_doc = False  # comment or documented-run state before cursor
    skip_depth = 0  # inside a function body / initializer brace

    def at_namespace_scope():
        return all(s.kind == "namespace" for s in scopes)

    def enclosing_class():
        for s in reversed(scopes):
            if s.kind == "class":
                return s
        return None

    def decl_checkable():
        """Is a completed pending declaration subject to rule 2?"""
        if not is_contract:
            return False
        cls = scopes[-1] if scopes[-1].kind == "class" else None
        return (
            cls is not None
            and cls.visible
            and cls.access == "public"
            and "(" in pending
        )

    def flush_decl(lineno, trailing_comment):
        nonlocal last_doc
        if decl_checkable():
            cls = scopes[-1]
            if not is_exempt(pending, cls.name):
                if not (pending_doc or trailing_comment):
                    name = " ".join(pending.split())[:60]
                    violations.append(
                        (rel, pending_line,
                         "undocumented public method: %s" % name)
                    )
                    last_doc = False
                    return
        # A documented declaration extends the run; an unchecked one
        # (field, exempt signature) is neutral and keeps the run alive.
        last_doc = True

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        code, had_comment = strip_code(raw)
        code_s = code.strip()

        if skip_depth > 0:
            skip_depth += code_s.count("{") - code_s.count("}")
            if skip_depth == 0:
                # The body belonged to the pending declaration: complete it.
                flush_decl(lineno, False)
                pending = ""
            continue

        if not stripped:
            if not pending:
                last_doc = False
            continue
        if stripped.startswith("//"):
            last_doc = True
            continue
        if stripped.startswith("#"):
            if not pending:
                last_doc = False
            continue

        m = ACCESS_RE.match(code_s)
        if m and scopes[-1].kind == "class":
            scopes[-1].access = m.group(1)
            last_doc = False
            pending = ""
            continue

        if not pending and code_s:
            pending_line = lineno
            pending_doc = last_doc

        i = 0
        while i < len(code_s):
            c = code_s[i]
            if c == "{":
                decl = pending + " " + code_s[:i]
                tm = TYPE_DEF_RE.search(decl)
                opens_type = tm is not None and "(" not in decl.split(
                    tm.group(1), 1
                )[0]
                if decl.strip().startswith("namespace") or re.search(
                    r"(^|\s)namespace(\s|$)", decl.split("{")[0]
                ) and not opens_type:
                    scopes.append(Scope("namespace", visible=True))
                elif opens_type:
                    kind, name = tm.group(1), tm.group(2)
                    if at_namespace_scope():
                        if not pending_doc and not named_in_header(name):
                            violations.append(
                                (rel, pending_line,
                                 "undocumented %s %s" % (kind, name))
                            )
                    elif (
                        is_contract
                        and scopes[-1].kind == "class"
                        and scopes[-1].visible
                        and scopes[-1].access == "public"
                        and not pending_doc
                    ):
                        violations.append(
                            (rel, pending_line,
                             "undocumented nested public %s %s"
                             % (kind, name))
                        )
                    parent_visible = (
                        at_namespace_scope()
                        or (scopes[-1].kind == "class"
                            and scopes[-1].visible
                            and scopes[-1].access == "public")
                    )
                    if kind == "enum":
                        scopes.append(Scope("other"))
                    else:
                        scopes.append(Scope(
                            "class",
                            name=name.split("::")[-1],
                            access="private" if kind == "class" else "public",
                            visible=parent_visible,
                        ))
                    last_doc = False
                else:
                    # Function body, initializer list, array init, lambda:
                    # skip to the matching close brace.
                    rest = code_s[i:]
                    depth = 0
                    j = 0
                    for j, ch in enumerate(rest):
                        if ch == "{":
                            depth += 1
                        elif ch == "}":
                            depth -= 1
                            if depth == 0:
                                break
                    if depth == 0:
                        flush_decl(lineno, had_comment)
                        pending = ""
                        code_s = code_s[i + j + 1:]
                        i = 0
                        continue
                    skip_depth = depth
                    pending = decl
                    break
                pending = ""
                code_s = code_s[i + 1:]
                i = 0
                continue
            if c == "}":
                if len(scopes) > 1:
                    scopes.pop()
                pending = ""
                last_doc = False
                code_s = code_s[i + 1:]
                i = 0
                continue
            if c == ";":
                pending = pending + " " + code_s[:i]
                flush_decl(lineno, had_comment)
                pending = ""
                code_s = code_s[i + 1:]
                i = 0
                continue
            i += 1
        else:
            if code_s:
                pending = (pending + " " + code_s) if pending else code_s

    return violations


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    violations = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if not fn.endswith(".h"):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            violations.extend(check_header(path, rel, rel in CONTRACT_HEADERS))
    missing = [h for h in CONTRACT_HEADERS
               if not os.path.exists(os.path.join(root, h))]
    for h in sorted(missing):
        violations.append((h, 1, "contract header missing from the tree"))
    if not os.path.exists(os.path.join(root, "CONCURRENCY.md")):
        violations.append(("CONCURRENCY.md", 1, "contract document missing"))

    if violations:
        print("doc-contract violations (%d):" % len(violations))
        for rel, line, msg in violations:
            print("  %s:%d: %s" % (rel, line, msg))
        return 1
    print("doc-contracts: OK (%d contract headers, src/**/*.h scanned)"
          % len(CONTRACT_HEADERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
