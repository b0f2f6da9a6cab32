#!/usr/bin/env python3
"""ADLP protocol-conformance static analyzer.

Three project-specific passes over the C++ tree, each encoding an invariant
the protocol's security argument depends on but that no generic tool checks:

  parser-bounds        Every function in the wire-parsing TUs (src/wire,
                       src/adlp/{wire_msgs,sync_msgs,epoch,remote_log,
                       log_entry}) must bounds-check an untrusted byte span
                       (a size()/empty() comparison, or a length validated
                       by wire::Reader::Take) before any subscript, subspan,
                       front/back, memcpy, or std::copy on it.

  blocking-under-lock  No Send/Receive/Connect/Accept/sleep_for/
                       WaitCommitted-class call (configurable blocklist) may
                       appear lexically inside a MutexLock scope or a
                       REQUIRES-annotated function. MutexLock's relock
                       window (lock.Unlock() ... lock.Lock()) is modelled:
                       blocking calls inside the window are fine. CondVar
                       Wait/WaitUntil/WaitFor are deliberately not listed —
                       they release the lock while blocked.

  wire-kinds           Every kKind* wire constant must be registered in
                       tools/wire_kinds.txt (sorted, unique — staleness is
                       an error in both directions), carry a unique value,
                       and have all four of: a serializer, a parser, a
                       dispatch path (direct reference in a dispatch
                       function, or a serializer/parser that the dispatch
                       function calls), and fuzz coverage (the kind or one
                       of its serializer/parser functions referenced under
                       tests/fuzz/).

Frontends: the analysis itself is token-level; what a frontend provides is
the function inventory (name, extent, body tokens). `--frontend=clang` uses
Python clang.cindex (version-pinned in CI via --expect-clang-version) for
macro-aware, compiler-grade function discovery; `--frontend=lex` is a
dependency-free C++ scanner so the analyzer runs (and its tests run)
anywhere, including containers without libclang. `auto` prefers clang when
importable. Both frontends must agree on the probe fixtures — the ctest
suite runs the lex frontend always and the clang frontend when available.

Waivers: a finding is suppressed by a comment on the same or preceding
line:

    // analyzer: allow(<pass-name>): <justification>

The justification is mandatory; a waiver without one is itself reported.

Exit status: number of passes that produced findings (waiver-syntax
problems count against the pass being waived); 10 on usage/environment
errors, so a missing frontend can never be mistaken for a clean tree.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

PASS_NAMES = ("parser-bounds", "blocking-under-lock", "wire-kinds")

# Files whose functions must satisfy the parser-bounds invariant: every TU
# that decodes attacker-controlled bytes. Relative-path globs against the
# analysis root.
BOUNDS_GLOBS = [
    "src/wire/*",
    "src/adlp/wire_msgs*",
    "src/adlp/sync_msgs*",
    "src/adlp/epoch*",
    "src/adlp/remote_log*",
    "src/adlp/log_entry*",
]

# Span-producing types whose parameters/locals are treated as untrusted.
SPAN_TYPES = {"BytesView", "Bytes", "span"}

# Methods/calls that read raw bytes out of a span and therefore demand a
# prior bounds check on it.
RISKY_METHODS = {"subspan", "front", "back"}

# Calls that may not appear while a MutexLock is held. Deliberately absent:
# CondVar Wait/WaitUntil/WaitFor (they release the lock while blocked).
DEFAULT_BLOCKLIST = {
    "Send", "Receive", "Connect", "Accept", "TcpConnect", "TryTcpConnect",
    "RoundTrip", "sleep_for", "sleep_until", "WaitCommitted",
    "DrainCommitted", "WaitClosed", "join",
}

# Functions that route raw frames to per-kind handling. A kind has dispatch
# coverage if one of these references it directly or calls a
# serializer/parser that does.
DISPATCH_FUNCS = {"HandleSyncRequest", "IngestFrame", "OnAckFrame"}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "throw",
    "new", "delete", "operator", "static_assert", "alignas", "alignof",
    "decltype", "assert",
}

# Tokens allowed between a definition's `)` and its `{` (plus attribute
# macros, which carry their own parenthesized arguments).
SIGNATURE_QUALIFIERS = {"const", "noexcept", "override", "final", "try", "&",
                        "&&", "->"}
ATTRIBUTE_MACROS = {
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "GUARDED_BY", "noexcept",
}


@dataclass
class Token:
    line: int
    text: str


@dataclass
class Function:
    name: str           # unqualified
    qualified: str      # Class::Name when known
    file: str           # path relative to the analysis root
    line: int
    sig: list[Token]    # parameter-list tokens (between the outer parens)
    body: list[Token]   # tokens between the braces, exclusive


@dataclass
class Finding:
    file: str
    line: int
    pass_name: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.pass_name}] {self.message}"


# --------------------------------------------------------------------------
# Tokenizer (shared: the lex frontend runs it on whole files; both frontends
# produce Token streams the passes consume).

_TOKEN_RE = re.compile(
    r"""
      (?P<comment> //[^\n]* | /\*.*?\*/ )
    | (?P<string>  "(?:[^"\\\n]|\\.)*" | '(?:[^'\\\n]|\\.)*' )
    | (?P<id>      [A-Za-z_]\w* )
    | (?P<num>     \.?\d(?:[\w.]|[eEpP][+-])* )
    | (?P<punct>   :: | -> | && | \|\| | [{}()\[\];,<>=!+\-*/%&|^~.:?#] )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """C++ lexer, comments and strings elided (line numbers preserved)."""
    tokens: list[Token] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        if m.lastgroup in ("comment", "string"):
            continue
        tokens.append(Token(line, m.group()))
    return tokens


def match_forward(tokens: list[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the bracket opened at i (or -1)."""
    depth = 0
    for j in range(i, len(tokens)):
        if tokens[j].text == open_:
            depth += 1
        elif tokens[j].text == close:
            depth -= 1
            if depth == 0:
                return j
    return -1


# --------------------------------------------------------------------------
# Lex frontend: function discovery by brace/paren structure.


def _skip_to_body(tokens: list[Token], close_paren: int) -> int:
    """From a definition's closing `)`, return the index of its body `{`.

    Skips cv/ref qualifiers, noexcept(...), trailing return types,
    thread-safety attribute macros, and constructor member-init lists.
    Returns -1 if this isn't a definition (declaration, expression, ...).
    """
    i = close_paren + 1
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == "{":
            return i
        if t in SIGNATURE_QUALIFIERS:
            i += 1
            continue
        if t in ATTRIBUTE_MACROS or (t.isidentifier() and t.isupper()):
            # Attribute macro, with or without arguments.
            if i + 1 < n and tokens[i + 1].text == "(":
                end = match_forward(tokens, i + 1, "(", ")")
                if end < 0:
                    return -1
                i = end + 1
            else:
                i += 1
            continue
        if t == ":":
            # Constructor member-init list: id ( ... ) or id { ... },
            # comma-separated, then the body brace.
            i += 1
            while i < n:
                if tokens[i].text == "{":
                    # Either an init `name{...}` (preceded by an id) or the
                    # body. The body brace follows `)`/`}` of an init or the
                    # `:` directly only via an id — disambiguate: a body
                    # brace is preceded by `)` `}` or an initializer comma
                    # walk. Simplest: if the previous token is an
                    # identifier, this brace belongs to `name{...}`.
                    if i > 0 and tokens[i - 1].text.isidentifier():
                        end = match_forward(tokens, i, "{", "}")
                        if end < 0:
                            return -1
                        i = end + 1
                        continue
                    return i
                if tokens[i].text == "(":
                    end = match_forward(tokens, i, "(", ")")
                    if end < 0:
                        return -1
                    i = end + 1
                    continue
                if tokens[i].text == "<":
                    end = match_forward(tokens, i, "<", ">")
                    if end < 0:
                        return -1
                    i = end + 1
                    continue
                i += 1
            return -1
        if t.isidentifier():
            # e.g. `-> Bytes` trailing return pieces.
            i += 1
            continue
        if t in ("<", "::", ">", ",", "*", "&"):
            i += 1
            continue
        return -1
    return -1


def lex_functions(tokens: list[Token], rel_path: str) -> list[Function]:
    functions: list[Function] = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].text != "(":
            i += 1
            continue
        # Candidate parameter list: the token before must be an identifier
        # that is not a control keyword.
        if i == 0 or not tokens[i - 1].text.isidentifier():
            i += 1
            continue
        name = tokens[i - 1].text
        if name in CONTROL_KEYWORDS or name in ATTRIBUTE_MACROS or (
                name.isupper() and len(name) > 1):
            i += 1
            continue
        close = match_forward(tokens, i, "(", ")")
        if close < 0:
            i += 1
            continue
        body_open = _skip_to_body(tokens, close)
        if body_open < 0:
            i += 1
            continue
        body_close = match_forward(tokens, body_open, "{", "}")
        if body_close < 0:
            i += 1
            continue
        # Qualified name: walk back over `Class ::` pairs.
        qualified = name
        j = i - 2
        while j >= 1 and tokens[j].text == "::" and \
                tokens[j - 1].text.isidentifier():
            qualified = tokens[j - 1].text + "::" + qualified
            j -= 2
        functions.append(Function(
            name=name,
            qualified=qualified,
            file=rel_path,
            line=tokens[i - 1].line,
            sig=tokens[i + 1:close],
            body=tokens[body_open + 1:body_close],
        ))
        i = body_open + 1  # descend: lambdas/local structs are re-scanned
    return functions


# --------------------------------------------------------------------------
# Clang frontend: same Function inventory via clang.cindex.


def load_cindex(libclang: str | None):
    import clang.cindex as ci  # raises ImportError when unavailable
    if libclang:
        ci.Config.set_library_file(libclang)
    return ci


def clang_version(ci) -> str:
    try:
        raw = ci.conf.lib.clang_getClangVersion()
        return ci.conf.lib.clang_getCString(raw).decode() \
            if not isinstance(raw, str) else raw
    except Exception:  # noqa: BLE001 — version string is best-effort
        return "unknown"


def clang_functions(ci, path: Path, rel_path: str,
                    args: list[str]) -> list[Function]:
    index = ci.Index.create()
    tu = index.parse(str(path), args=args)
    fatal = [d for d in tu.diagnostics if d.severity >= d.Fatal]
    if fatal:
        raise RuntimeError(f"{path}: {fatal[0].spelling}")
    kinds = {
        ci.CursorKind.FUNCTION_DECL,
        ci.CursorKind.CXX_METHOD,
        ci.CursorKind.CONSTRUCTOR,
        ci.CursorKind.DESTRUCTOR,
        ci.CursorKind.FUNCTION_TEMPLATE,
    }
    functions: list[Function] = []
    for cur in tu.cursor.walk_preorder():
        if cur.kind not in kinds or not cur.is_definition():
            continue
        if cur.location.file is None or cur.location.file.name != str(path):
            continue
        toks = [Token(t.location.line, t.spelling)
                for t in tu.get_tokens(extent=cur.extent)
                if t.kind != ci.TokenKind.COMMENT]
        # Split into signature and body at the first top-level '{' that
        # follows the parameter list.
        opens = [k for k, t in enumerate(toks) if t.text == "("]
        if not opens:
            continue
        close = match_forward(toks, opens[0], "(", ")")
        if close < 0:
            continue
        body_open = _skip_to_body(toks, close)
        if body_open < 0:
            continue
        body_close = match_forward(toks, body_open, "{", "}")
        if body_close < 0:
            continue
        parent = cur.semantic_parent
        qualified = cur.spelling
        if parent is not None and parent.kind in (
                ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
            qualified = f"{parent.spelling}::{cur.spelling}"
        functions.append(Function(
            name=cur.spelling,
            qualified=qualified,
            file=rel_path,
            line=cur.location.line,
            sig=toks[opens[0] + 1:close],
            body=toks[body_open + 1:body_close],
        ))
    return functions


# --------------------------------------------------------------------------
# Waivers.

_WAIVER_RE = re.compile(
    r"//\s*analyzer:\s*allow\(\s*([\w-]+)\s*\)\s*:?\s*(.*)")


@dataclass
class Waivers:
    # (pass_name, line) -> justification text ('' when missing)
    entries: dict[tuple[str, int], str] = field(default_factory=dict)

    def covers(self, pass_name: str, line: int) -> bool:
        # scan_waivers resolves each waiver to the code line it covers.
        return (pass_name, line) in self.entries


def scan_waivers(text: str, rel_path: str) -> tuple[Waivers, list[Finding]]:
    waivers = Waivers()
    findings: list[Finding] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = _WAIVER_RE.search(line)
        if not m:
            continue
        pass_name, justification = m.group(1), m.group(2).strip()
        if pass_name not in PASS_NAMES:
            findings.append(Finding(
                rel_path, lineno, "waiver",
                f"waiver names unknown pass '{pass_name}' "
                f"(known: {', '.join(PASS_NAMES)})"))
            continue
        # A comment-only waiver line (possibly continued over further //
        # comment lines) covers the first code line after the comment
        # block; a trailing waiver covers its own line.
        target = lineno
        if line.lstrip().startswith("//"):
            target = lineno + 1
            while target <= len(lines) and \
                    lines[target - 1].lstrip().startswith("//"):
                target += 1
            # Continuation lines may carry the justification.
            probe = lineno + 1
            while not justification and probe < target:
                justification = lines[probe - 1].lstrip().lstrip("/").strip()
                probe += 1
        if not justification:
            findings.append(Finding(
                rel_path, lineno, pass_name,
                "waiver without justification — say why this is safe"))
            continue
        waivers.entries[(pass_name, target)] = justification
    return waivers, findings


# --------------------------------------------------------------------------
# Pass 1: parser-bounds.


def _sig_span_params(sig: list[Token]) -> set[str]:
    """Parameter names whose declared type is a byte span."""
    params: set[str] = set()
    for k, tok in enumerate(sig):
        if tok.text not in SPAN_TYPES:
            continue
        # Skip template args (`std::span<const uint8_t> name`), cv/ref.
        j = k + 1
        if j < len(sig) and sig[j].text == "<":
            end = match_forward(sig, j, "<", ">")
            if end < 0:
                continue
            j = end + 1
        while j < len(sig) and sig[j].text in ("const", "&", "&&", "*"):
            j += 1
        if j < len(sig) and sig[j].text.isidentifier():
            params.add(sig[j].text)
    return params


def _body_span_locals(body: list[Token]) -> tuple[set[str], set[str]]:
    """(span locals, validated locals) declared inside the body.

    A local is *validated* when its initializer runs through
    wire::Reader::Take — Take(n) throws unless n bytes remain, so the
    resulting view's length is known-good by construction.
    """
    spans: set[str] = set()
    validated: set[str] = set()
    for k, tok in enumerate(body):
        if tok.text not in SPAN_TYPES:
            continue
        j = k + 1
        if j < len(body) and body[j].text == "<":
            end = match_forward(body, j, "<", ">")
            if end < 0:
                continue
            j = end + 1
        while j < len(body) and body[j].text in ("const", "&", "&&", "*"):
            j += 1
        if j >= len(body) or not body[j].text.isidentifier():
            continue
        name = body[j].text
        if j + 1 >= len(body) or body[j + 1].text not in ("=", "(", "{"):
            continue
        spans.add(name)
        # Scan the initializer (to the statement's `;`) for Take(.
        stmt_end = j + 1
        while stmt_end < len(body) and body[stmt_end].text != ";":
            stmt_end += 1
        init = body[j + 1:stmt_end]
        if any(t.text == "Take" for t in init):
            validated.add(name)
    return spans, validated


def pass_parser_bounds(fn: Function) -> list[Finding]:
    tainted = _sig_span_params(fn.sig)
    locals_, validated = _body_span_locals(fn.body)
    tainted |= locals_
    tainted -= validated
    if not tainted:
        return []

    findings: list[Finding] = []
    checked: set[str] = set()
    body = fn.body
    n = len(body)

    def flag(line: int, var: str, what: str) -> None:
        findings.append(Finding(
            fn.file, line, "parser-bounds",
            f"{what} on untrusted span '{var}' in {fn.qualified}() without "
            f"a prior {var}.size()/{var}.empty() check"))

    for k, tok in enumerate(body):
        name = tok.text
        if name in tainted and k + 2 < n and body[k + 1].text == ".":
            method = body[k + 2].text
            if method in ("size", "empty"):
                checked.add(name)
                continue
            if method in RISKY_METHODS and name not in checked:
                flag(tok.line, name, f".{method}()")
                checked.add(name)  # one finding per variable per reason
                continue
        if name in tainted and k + 1 < n and body[k + 1].text == "[" \
                and name not in checked:
            flag(tok.line, name, "subscript")
            checked.add(name)
            continue
        if name in ("memcpy", "copy") and k + 1 < n \
                and body[k + 1].text == "(":
            end = match_forward(body, k + 1, "(", ")")
            if end < 0:
                continue
            args = body[k + 2:end]
            for a in args:
                if a.text in tainted and a.text not in checked:
                    flag(tok.line, a.text, f"{name}()")
                    checked.add(a.text)
    return findings


# --------------------------------------------------------------------------
# Pass 2: blocking-under-lock.


def collect_requires(files: dict[str, str]) -> set[str]:
    """Unqualified function names declared with REQUIRES(...).

    Scanned over raw text (headers included) because the annotation usually
    sits on the in-class declaration, not the out-of-line definition.
    """
    names: set[str] = set()
    decl_re = re.compile(
        r"(\w+)\s*\([^;{}()]*\)\s*(?:const\s*)?(?:noexcept\s*)?"
        r"REQUIRES\s*\(", re.DOTALL)
    for text in files.values():
        for m in decl_re.finditer(text):
            names.add(m.group(1))
    return names


@dataclass
class _LockState:
    var: str
    depth: int
    suspended: bool = False


def pass_blocking_under_lock(fn: Function, blocklist: set[str],
                             requires: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    _scan_lock_region(fn, fn.body, fn.name in requires, blocklist, findings)
    return findings


def _scan_lock_region(fn: Function, body: list[Token], always_locked: bool,
                      blocklist: set[str],
                      findings: list[Finding]) -> None:
    n = len(body)
    locks: list[_LockState] = []
    depth = 0
    k = 0
    while k < n:
        t = body[k].text
        if t == "thread" and k + 1 < n and body[k + 1].text == "(":
            # std::thread's callable runs on the spawned thread, not under
            # any lock held here — analyze its argument region with fresh
            # lock state instead of inheriting ours. (Lambdas passed to
            # ordinary functions/algorithms run inline and keep the outer
            # state.)
            end = match_forward(body, k + 1, "(", ")")
            if end > 0:
                _scan_lock_region(fn, body[k + 2:end], False, blocklist,
                                  findings)
                k = end + 1
                continue
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            locks = [s for s in locks if s.depth <= depth]
        elif t == "MutexLock" and k + 1 < n and \
                body[k + 1].text.isidentifier() and k + 2 < n and \
                body[k + 2].text == "(":
            locks.append(_LockState(var=body[k + 1].text, depth=depth))
            k += 3
            continue
        elif t.isidentifier() and k + 2 < n and body[k + 1].text == "." and \
                body[k + 2].text in ("Unlock", "Lock"):
            for s in locks:
                if s.var == t:
                    s.suspended = body[k + 2].text == "Unlock"
            k += 3
            continue
        elif t in blocklist and k + 1 < n and body[k + 1].text == "(":
            held = [s.var for s in locks if not s.suspended]
            if held:
                findings.append(Finding(
                    fn.file, body[k].line, "blocking-under-lock",
                    f"blocking call {t}() in {fn.qualified}() while "
                    f"MutexLock '{held[-1]}' is held"))
            elif always_locked:
                findings.append(Finding(
                    fn.file, body[k].line, "blocking-under-lock",
                    f"blocking call {t}() in {fn.qualified}(), which is "
                    f"REQUIRES-annotated (caller holds the lock)"))
        k += 1


# --------------------------------------------------------------------------
# Pass 3: wire-kinds four-way registry.

_KIND_DEF_RE = re.compile(r"\b(kKind\w+)\s*=\s*(\d+)")


def pass_wire_kinds(root: Path, functions: list[Function],
                    files: dict[str, str],
                    waiver_map: dict[str, Waivers]) -> list[Finding]:
    findings: list[Finding] = []

    # 1. Inventory: definitions (file, line, value) of every kKind constant.
    defs: dict[str, tuple[str, int, int]] = {}
    for rel, text in files.items():
        if not rel.startswith("src/"):
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in _KIND_DEF_RE.finditer(line):
                name, value = m.group(1), int(m.group(2))
                if name in defs:
                    findings.append(Finding(
                        rel, lineno, "wire-kinds",
                        f"{name} defined twice (also {defs[name][0]}:"
                        f"{defs[name][1]})"))
                else:
                    defs[name] = (rel, lineno, value)

    # 2. Registry staleness, both directions; sorted + unique.
    reg_path = root / "tools" / "wire_kinds.txt"
    if not reg_path.is_file():
        findings.append(Finding(
            "tools/wire_kinds.txt", 1, "wire-kinds",
            "registry file missing — list every kKind* constant, sorted"))
        return findings
    reg_lines = [ln.strip() for ln in reg_path.read_text().splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
    if reg_lines != sorted(reg_lines):
        findings.append(Finding(
            "tools/wire_kinds.txt", 1, "wire-kinds",
            "registry must be sorted (LC_ALL=C sort order)"))
    seen: set[str] = set()
    for idx, entry in enumerate(reg_lines, start=1):
        if entry in seen:
            findings.append(Finding(
                "tools/wire_kinds.txt", idx, "wire-kinds",
                f"duplicate registry entry {entry}"))
        seen.add(entry)
        if entry not in defs:
            findings.append(Finding(
                "tools/wire_kinds.txt", idx, "wire-kinds",
                f"stale registry entry {entry}: no such kKind constant in "
                f"src/"))
    for name, (rel, lineno, _value) in sorted(defs.items()):
        if name not in seen:
            findings.append(Finding(
                rel, lineno, "wire-kinds",
                f"{name} missing from tools/wire_kinds.txt — register it "
                f"(sorted)"))

    # 3. Unique wire values across the whole protocol.
    by_value: dict[int, str] = {}
    for name, (rel, lineno, value) in sorted(defs.items()):
        if value in by_value:
            findings.append(Finding(
                rel, lineno, "wire-kinds",
                f"{name} reuses wire value {value} (already "
                f"{by_value[value]}) — kinds share one tag namespace"))
        else:
            by_value[value] = name

    # 4. Four-way coverage, from the function inventory.
    refs: dict[str, set[str]] = {name: set() for name in defs}
    for fn in functions:
        body_ids = {t.text for t in fn.body}
        for name in defs:
            if name in body_ids:
                refs[name].add(fn.qualified)

    dispatch_bodies = [fn for fn in functions if fn.name in DISPATCH_FUNCS]
    dispatch_called: set[str] = set()
    for fn in dispatch_bodies:
        dispatch_called |= {t.text for t in fn.body}

    fuzz_text = "\n".join(text for rel, text in files.items()
                          if rel.startswith("tests/fuzz/"))

    def unqual(q: str) -> str:
        return q.rsplit("::", 1)[-1]

    for name, (rel, lineno, _value) in sorted(defs.items()):
        referers = refs[name]
        serializers = {q for q in referers
                       if unqual(q).startswith("Serialize")}
        parsers = {q for q in referers
                   if unqual(q).startswith(("Parse", "Deserialize"))}
        missing: list[str] = []
        if not serializers:
            missing.append("a Serialize* function referencing it")
        if not parsers:
            missing.append("a Parse*/Deserialize* function referencing it")
        direct_dispatch = any(unqual(q) in DISPATCH_FUNCS for q in referers)
        via_call = any(unqual(q) in dispatch_called
                       for q in serializers | parsers)
        if not (direct_dispatch or via_call):
            missing.append(
                f"a dispatch path ({'/'.join(sorted(DISPATCH_FUNCS))})")
        fuzz_hit = name in fuzz_text or any(
            unqual(q) in fuzz_text for q in serializers | parsers)
        if not fuzz_hit:
            missing.append("fuzz coverage under tests/fuzz/")
        if missing:
            waivers = waiver_map.get(rel)
            if waivers and waivers.covers("wire-kinds", lineno):
                continue
            findings.append(Finding(
                rel, lineno, "wire-kinds",
                f"{name} lacks " + "; ".join(missing)))
    return findings


# --------------------------------------------------------------------------
# Driver.


def discover_files(root: Path) -> dict[str, str]:
    """rel-path -> text for every C++ file the passes look at."""
    out: dict[str, str] = {}
    for pattern in ("src/**/*.cpp", "src/**/*.h", "tests/fuzz/*.cpp",
                    "tests/fuzz/*.h"):
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root).as_posix()
            out[rel] = path.read_text(errors="replace")
    return out


def compile_args(root: Path, build_dir: Path | None) -> list[str]:
    """Clang frontend parse flags, from compile_commands.json when present."""
    args = ["-xc++", "-std=c++20", f"-I{root / 'src'}"]
    cc_path = None
    for candidate in ([build_dir] if build_dir else []) + [root / "build"]:
        if candidate and (candidate / "compile_commands.json").is_file():
            cc_path = candidate / "compile_commands.json"
            break
    if cc_path:
        try:
            entries = json.loads(cc_path.read_text())
            for entry in entries:
                cmd = entry.get("command", "")
                for piece in cmd.split():
                    if piece.startswith("-I") and piece not in args:
                        args.append(piece)
                if "-Isrc" in cmd:
                    break
        except (json.JSONDecodeError, OSError):
            pass
    return args


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="ADLP protocol-conformance analyzer")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="analysis root (a repo checkout or a probe "
                             "fixture mirroring its layout)")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build dir holding compile_commands.json "
                             "(clang frontend flags)")
    parser.add_argument("--frontend", choices=("auto", "lex", "clang"),
                        default="auto")
    parser.add_argument("--require-clang", action="store_true",
                        help="hard-fail when clang.cindex is unavailable "
                             "instead of falling back to the lex frontend")
    parser.add_argument("--libclang", default=None,
                        help="explicit libclang shared-library path")
    parser.add_argument("--expect-clang-version", default=None,
                        help="substring the clang frontend's version string "
                             "must contain (CI pins this)")
    parser.add_argument("--passes", default=",".join(PASS_NAMES),
                        help="comma-separated subset of passes to run")
    parser.add_argument("--blocklist-extra", default="",
                        help="comma-separated extra blocking-call names")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    args = parser.parse_args(argv)

    selected = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in selected:
        if p not in PASS_NAMES:
            print(f"unknown pass '{p}' (known: {', '.join(PASS_NAMES)})",
                  file=sys.stderr)
            return 10

    root = args.root.resolve()
    if not root.is_dir():
        print(f"--root {root} is not a directory", file=sys.stderr)
        return 10
    files = discover_files(root)
    if not files:
        print(f"no C++ sources under {root}", file=sys.stderr)
        return 10

    # Frontend resolution.
    ci = None
    if args.frontend in ("auto", "clang"):
        try:
            ci = load_cindex(args.libclang)
        except (ImportError, OSError) as exc:
            if args.frontend == "clang" or args.require_clang:
                print(f"clang frontend unavailable: {exc}", file=sys.stderr)
                return 10
            ci = None
    if args.require_clang and ci is None:
        print("clang frontend unavailable (--require-clang)",
              file=sys.stderr)
        return 10
    if ci is not None and args.expect_clang_version:
        version = clang_version(ci)
        if args.expect_clang_version not in version:
            print(f"libclang version mismatch: expected "
                  f"'{args.expect_clang_version}' in '{version}'",
                  file=sys.stderr)
            return 10

    # Function inventory.
    functions: list[Function] = []
    parse_args = compile_args(root, args.build_dir) if ci else []
    for rel, text in files.items():
        if ci is not None and rel.endswith(".cpp"):
            try:
                functions.extend(
                    clang_functions(ci, root / rel, rel, parse_args))
                continue
            except RuntimeError as exc:
                print(f"clang parse failed, lexing instead: {exc}",
                      file=sys.stderr)
        functions.extend(lex_functions(tokenize(text), rel))

    # Waivers (and their own findings).
    waiver_map: dict[str, Waivers] = {}
    waiver_findings: list[Finding] = []
    for rel, text in files.items():
        waivers, bad = scan_waivers(text, rel)
        waiver_map[rel] = waivers
        waiver_findings.extend(bad)

    findings: list[Finding] = []

    if "parser-bounds" in selected:
        for fn in functions:
            if not any(fnmatch.fnmatch(fn.file, g) for g in BOUNDS_GLOBS):
                continue
            for f in pass_parser_bounds(fn):
                if not waiver_map[f.file].covers("parser-bounds", f.line):
                    findings.append(f)

    if "blocking-under-lock" in selected:
        blocklist = set(DEFAULT_BLOCKLIST)
        blocklist |= {b.strip() for b in args.blocklist_extra.split(",")
                      if b.strip()}
        requires = collect_requires(files)
        for fn in functions:
            if not fn.file.startswith("src/"):
                continue
            for f in pass_blocking_under_lock(fn, blocklist, requires):
                if not waiver_map[f.file].covers("blocking-under-lock",
                                                f.line):
                    findings.append(f)

    if "wire-kinds" in selected:
        findings.extend(pass_wire_kinds(root, functions, files, waiver_map))

    relevant_waiver_findings = [
        f for f in waiver_findings
        if f.pass_name in selected or f.pass_name == "waiver"]
    findings.extend(relevant_waiver_findings)
    findings.sort(key=lambda f: (f.file, f.line, f.pass_name, f.message))

    if args.json:
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())

    failed_passes = {f.pass_name for f in findings}
    if not findings:
        frontend = "clang" if ci is not None else "lex"
        print(f"adlp_analyze: clean ({frontend} frontend, "
              f"{len(functions)} functions, "
              f"passes: {', '.join(selected)})", file=sys.stderr)
    return len(failed_passes)


if __name__ == "__main__":
    sys.exit(main())
