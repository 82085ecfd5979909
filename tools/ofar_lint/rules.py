"""Discipline rules over the semantic model.

Reachability: every function whose effective annotation is
OFAR_PARALLEL_PHASE is a root; the walk follows calls (receiver-typed
where possible, virtual dispatch over the class hierarchy) into
unannotated functions. On that parallel-reachable region the analyzer
enforces:

  serial-call        call into an OFAR_SERIAL_ONLY function (or a method
                     of a serial-only class, e.g. Stats::on_delivered)
  unstaged-trace     invoking the tracer_ callback (or any serial-only
                     std::function member) instead of staging the event
  serial-write       write to an OFAR_SERIAL_ONLY data member
  cross-shard-write  write to a member with no shard-ownership annotation
                     from parallel-phase code
  off-lane-rng       RNG draw whose stream is not a bound lane (not a
                     parameter, not OFAR_LANE_RNG state/accessor)

Checked in every function body, resolving typedef / using chains:

  unordered-iter     range-for over a type that expands to a std::
                     unordered_* container

Checked over every token of every file (declarations, initializers and
bodies alike), because each construct breaks "results are a pure function
of (config, seed)" wherever it appears:

  libc-rng             calls of rand() / srand() / random(); all
                       randomness flows through common/rng.hpp seeded
                       from SimConfig
  random-device        std::random_device (hardware entropy)
  wall-clock           real-time clock read (std::chrono clocks, aliased
                       ones included, calls of time() and clock(),
                       gettimeofday, clock_gettime) outside src/stats/
  unordered-container  any std::unordered_* container: its iteration order
                       varies across libstdc++ versions and runs
  raw-thread           std::thread / std::jthread / std::async outside
                       src/common/parallel, whose phase barriers are what
                       make shard-ordered commits possible
  trace-emit           any `tracer_(` call: trace events must be staged
                       per shard and flushed in shard order; reviewed
                       serial-phase sites carry a waiver

A finding on a line carrying `// lint: allow(<rule>)` is suppressed.
"""

import re

from .model import Finding, LANE_RNG, PARALLEL_PHASE, SERIAL_ONLY, \
    SHARD_LOCAL

# Container/stream methods that mutate the receiver.
MUTATING_METHODS = {
    "push_back", "emplace_back", "pop_back", "clear", "resize", "erase",
    "insert", "emplace", "assign", "reserve", "swap", "push", "pop",
    "shrink_to_fit", "append",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

_CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "catch", "assert", "alignof", "decltype", "static_cast",
                  "const_cast", "reinterpret_cast", "dynamic_cast",
                  "noexcept"}

_UNORDERED_RE = re.compile(r"unordered_(?:map|set|multimap|multiset)")
_CLOCK_RE = re.compile(
    r"steady_clock|system_clock|high_resolution_clock|gettimeofday|"
    r"clock_gettime")

_LIBC_RNG = {"rand", "srand", "random"}
_LIBC_CLOCKS = {"time", "clock"}
_RAW_THREADS = {"thread", "jthread", "async"}
# Keywords that may directly precede a call expression; any other
# identifier before `name(` makes it a declaration (`long time() const;`).
_EXPR_KEYWORDS = {"return", "else", "case", "throw", "co_return", "co_yield",
                  "do", "sizeof", "new", "delete", "not", "and", "or"}

# Path prefixes exempt from a file-wide rule: telemetry may timestamp its
# records with real time, which never feeds back into the simulation;
# common/parallel is the one place allowed to own threads (it is the layer
# raw-thread funnels everyone else into).
EXEMPT = {
    "wall-clock": ("src/stats/",),
    "raw-thread": ("src/common/parallel",),
}

RULES = ("serial-call", "unstaged-trace", "serial-write",
         "cross-shard-write", "off-lane-rng", "unordered-iter",
         "wall-clock", "libc-rng", "random-device", "unordered-container",
         "raw-thread", "trace-emit")

_WRAPPERS = ("unique_ptr", "shared_ptr", "vector", "deque", "array",
             "optional", "span")


def _strip_type(program, type_text):
    """Reduces a declared type to its core class name: drops const/refs,
    resolves aliases, unwraps smart pointers and containers one level."""
    t = program.resolve_alias(type_text or "")
    t = t.replace("const ", " ").replace("&", " ").replace("*", " ")
    t = t.strip()
    m = re.match(r"(?:std\s*::\s*)?(\w+)\s*<\s*(.*?)\s*>?\s*$", t)
    if m and m.group(1) in _WRAPPERS:
        inner = m.group(2).split(",")[0]
        return _strip_type(program, inner)
    # Last identifier of a qualified name, template args stripped.
    t = t.split("<")[0]
    parts = [p for p in re.split(r"::|\s+", t) if p]
    return parts[-1] if parts else ""


class Analyzer:
    def __init__(self, program):
        self.p = program
        self.findings = []
        self._reported = set()

    # -- entry point -----------------------------------------------------

    def run(self):
        roots = []
        for defs in self.p.functions.values():
            for fn in defs:
                if self.p.fn_annotation(fn) == PARALLEL_PHASE:
                    roots.append(fn)
        visited = set()
        for fn in sorted(roots, key=lambda f: (f.file, f.line)):
            self._walk(fn, chain=fn.qualname, visited=visited)
        for defs in self.p.functions.values():
            for fn in defs:
                self._check_everywhere(fn)
        for path, toks in sorted(self.p.files.items()):
            self._check_file(path, toks)
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    # -- reachability ----------------------------------------------------

    def _walk(self, fn, chain, visited):
        key = (fn.file, fn.line)
        if key in visited:
            return
        visited.add(key)
        self._check_parallel_body(fn, chain)
        for callee, line in self._calls(fn):
            for target in callee:
                ann = self.p.fn_annotation(target)
                if ann == SERIAL_ONLY:
                    continue  # reported by _check_parallel_body
                self._walk(target, f"{chain} -> {target.qualname}",
                           visited)

    def _calls(self, fn):
        """Resolved callees of fn's non-excluded body regions:
        [(candidate FunctionDefs, line)]."""
        out = []
        body = fn.body
        texts = [t.text for t in body]
        for i, tok in enumerate(body):
            if tok.text != "(" or i == 0:
                continue
            name_tok = body[i - 1]
            name = name_tok.text
            if not (name and (name[0].isalpha() or name[0] == "_")):
                continue
            if name in _CALL_KEYWORDS:
                continue
            recv_cls, known = self._receiver_class(fn, texts, i - 1)
            targets = self._resolve(fn, name, recv_cls, known)
            if targets:
                out.append((targets, name_tok.line))
        return out

    def _receiver_class(self, fn, texts, name_index):
        """Class of the receiver of the call whose name is at name_index.
        Returns (class_name_or_None, certain). certain=False means the
        receiver is syntactically absent (an implicit this / free call);
        an unresolvable explicit receiver returns (None, True)."""
        j = name_index - 1
        if j < 0 or texts[j] not in (".", "->", "::"):
            return None, False
        sep = texts[j]
        j -= 1
        # Walk back over postfix: ident, (...)  [...] chains.
        base = None
        while j >= 0:
            t = texts[j]
            if t in ("]", ")"):
                depth = 0
                while j >= 0:
                    if texts[j] in ("]", ")"):
                        depth += 1
                    elif texts[j] in ("[", "("):
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
                continue
            if t and (t[0].isalpha() or t[0] == "_"):
                base = t
                prev = texts[j - 1] if j >= 1 else ""
                if prev in (".", "->", "::"):
                    j -= 2
                    continue
                break
            break
        if base is None:
            return None, True
        if base == "this":
            return fn.cls or None, True
        if sep == "::" and base in self.p.classes:
            return base, True
        t = fn.local_types.get(base) or fn.param_types.get(base)
        if t is None and fn.cls:
            ci_type = self._member_type(fn.cls, base)
            t = ci_type
        if t is None and base in self.p.classes:
            return base, True
        if t is None:
            return None, True
        cls = _strip_type(self.p, t)
        return (cls if cls in self.p.classes else None), True

    def _member_type(self, cls, member):
        seen = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            ci = self.p.classes.get(c)
            if ci is None:
                continue
            if member in ci.member_types:
                return ci.member_types[member]
            stack.extend(ci.bases)
        return None

    def _resolve(self, fn, name, recv_cls, certain):
        """FunctionDefs a call may dispatch to."""
        if recv_cls is not None:
            classes = self.p.derived_of(recv_cls)
            out = []
            for c in classes:
                out.extend(self.p.functions.get(f"{c}::{name}", []))
            return out
        if certain:
            return []  # explicit but unresolvable receiver: skip
        # Implicit receiver: same-class hierarchy (and derived overrides),
        # then free functions.
        out = []
        if fn.cls:
            hier = set()
            stack = [fn.cls]
            while stack:
                c = stack.pop()
                if c in hier:
                    continue
                hier.add(c)
                ci = self.p.classes.get(c)
                if ci:
                    stack.extend(ci.bases)
            for c in list(hier):
                hier |= self.p.derived_of(c)
            for c in hier:
                out.extend(self.p.functions.get(f"{c}::{name}", []))
        if not out:
            out = list(self.p.functions.get(name, []))
        return out

    # -- parallel-region checks ------------------------------------------

    def _emit(self, rule, file, line, message, chain=""):
        if rule in self.p.waivers.get((file, line), set()):
            return
        key = (rule, file, line)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(Finding(rule=rule, file=file, line=line,
                                     message=message, context=chain))

    def _check_parallel_body(self, fn, chain):
        body = fn.body
        texts = [t.text for t in body]
        n = len(body)
        for i, tok in enumerate(body):
            t = tok.text
            if not (t and (t[0].isalpha() or t[0] == "_")):
                continue
            prev = texts[i - 1] if i > 0 else ""
            nxt = texts[i + 1] if i + 1 < n else ""
            # ---- serial-only / unresolved-annotation calls ----
            # Runs for explicit-receiver calls too (`net.do_injection()`,
            # `stats_.on_delivered(...)`): _check_call resolves the
            # receiver's class itself.
            if nxt == "(" and t not in _CALL_KEYWORDS:
                self._check_call(fn, chain, body, texts, i)
                # fallthrough: `tracer_(...)`-style functor calls on
                # members are handled below via member classification
            if prev in (".", "->", "::"):
                # Not a base identifier — except `this->x`, where x is
                # the member expression's base for our purposes.
                if not (prev == "->" and i >= 2 and texts[i - 2] == "this"):
                    continue
            # ---- member-expression classification ----
            if fn.cls is None:
                continue
            ann = self._member_ann(fn.cls, t)
            if ann is None and t != "this":
                continue
            base = t
            base_line = tok.line
            if base == "this":
                continue  # bare `this` use; `this->x` scans x as base
            # An Rng-typed member has no innocuous use in parallel code:
            # a draw mutates it, and passing it by reference hands a
            # shared stream to a concurrent callee. Flag any appearance
            # unless the stream is lane-bound — except inside
            # OFAR_LANE_RNG accessors, which ARE the sanctioned seam
            # that maps a lane to its stream (route_rng).
            if self._is_rng_member(fn.cls, base):
                if self.p.fn_annotation(fn) != LANE_RNG:
                    self._check_rng_use(fn, chain, base, ann, base_line)
                continue
            # Walk the postfix chain to find what happens to it.
            j = i + 1
            last_method = None
            while j < n:
                tj = texts[j]
                if tj == "[":
                    depth = 0
                    while j < n:
                        if texts[j] == "[":
                            depth += 1
                        elif texts[j] == "]":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    j += 1
                    continue
                if tj in (".", "->") and j + 1 < n:
                    last_method = texts[j + 1]
                    j += 2
                    continue
                break
            op = texts[j] if j < n else ""
            # Functor invocation: `tracer_(...)` — base directly called.
            if op == "(" and last_method is None:
                mtype = self.p.resolve_alias(
                    self._member_type(fn.cls, base) or "")
                if "function" in mtype:
                    if ann == SERIAL_ONLY:
                        self._emit(
                            "unstaged-trace", fn.file, base_line,
                            f"`{base}` (serial-only trace callback) "
                            "invoked from a parallel phase; stage the "
                            "event in ShardState::traces and let "
                            "commit_shard_staging flush it in shard "
                            "order", chain)
                    continue
            wrote = (
                op in ASSIGN_OPS or op in ("++", "--")
                or (i > 0 and texts[i - 1] in ("++", "--"))
                or (last_method in MUTATING_METHODS and op == "(")
            )
            if not wrote:
                continue
            if ann == SERIAL_ONLY:
                self._emit(
                    "serial-write", fn.file, base_line,
                    f"write to serial-only member `{base}` from "
                    "parallel-phase code; stage the effect in ShardState "
                    "and commit it serially in shard order "
                    "(DESIGN.md §10)", chain)
            elif ann in (SHARD_LOCAL, LANE_RNG):
                pass  # shard-owned / lane-owned: parallel-legal
            else:
                self._emit(
                    "cross-shard-write", fn.file, base_line,
                    f"write to member `{base}` which carries no "
                    "shard-ownership annotation; mark it "
                    "OFAR_SHARD_LOCAL if a shard owns it, or stage the "
                    "write for the serial commit", chain)

    def _member_ann(self, cls, name):
        """Annotation of `name` if it is a member of cls's hierarchy
        (\"\" = member but unannotated), else None."""
        seen = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            ci = self.p.classes.get(c)
            if ci is None:
                continue
            if name in ci.members:
                return ci.members[name] or ci.annotation
            stack.extend(ci.bases)
        return None

    def _is_rng_member(self, cls, name):
        t = self._member_type(cls, name)
        return t is not None and _strip_type(self.p, t) == "Rng"

    def _check_rng_use(self, fn, chain, base, ann, line):
        if ann == LANE_RNG:
            return
        self._emit(
            "off-lane-rng", fn.file, line,
            f"use of RNG stream `{base}` in parallel-phase code (drawn "
            "from or passed by reference); route()-time randomness must "
            "come from the bound lane (route_rng(lane) / an "
            "OFAR_LANE_RNG stream) or concurrent shards share a stream "
            "and results depend on thread timing", chain)

    def _check_call(self, fn, chain, body, texts, name_index):
        name = texts[name_index]
        line = body[name_index].line
        recv_cls, certain = self._receiver_class(fn, texts, name_index)
        # Calls through an OFAR_LANE_RNG accessor are sanctioned draws:
        # route_rng(lane).pick(...) — the accessor call itself is checked
        # here; the chained method call has receiver "(...)" (skipped).
        targets = self._resolve(fn, name, recv_cls, certain)
        for target in targets:
            ann = self.p.fn_annotation(target)
            if ann == SERIAL_ONLY:
                what = target.qualname
                self._emit(
                    "serial-call", fn.file, line,
                    f"call to serial-only `{what}` from parallel-phase "
                    "code; serial effects must be staged in ShardState "
                    "and committed in shard-ascending order "
                    "(DESIGN.md §10)", chain)
        if not targets and name not in MUTATING_METHODS:
            # Annotated method declaration without a parsed definition:
            # fall back to the declaration table. For an explicit
            # receiver the class-level annotation counts too (a method of
            # a serial-only class is serial); for an implicit receiver
            # only an explicit per-method declaration in the enclosing
            # hierarchy counts, so unrelated free calls never misfire.
            ann = ""
            owner = recv_cls
            if recv_cls is not None:
                ann = self.p.method_annotation(recv_cls, name)
            elif not certain and fn.cls:
                ann = self._declared_method_ann(fn.cls, name)
                owner = fn.cls
            if ann == SERIAL_ONLY:
                self._emit(
                    "serial-call", fn.file, line,
                    f"call to serial-only `{owner}::{name}` from "
                    "parallel-phase code; serial effects must be staged "
                    "in ShardState and committed in shard-ascending "
                    "order (DESIGN.md §10)", chain)

    def _declared_method_ann(self, cls, name):
        """Per-method annotation from in-class declarations only (walks
        bases; no class-level fallback)."""
        seen = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            ci = self.p.classes.get(c)
            if ci is None:
                continue
            if name in ci.methods:
                return ci.methods[name]
            stack.extend(ci.bases)
        return ""

    # -- whole-program checks (aliases make these semantic) ---------------

    def _check_everywhere(self, fn):
        body = fn.body
        texts = [t.text for t in body]
        n = len(body)
        for i, tok in enumerate(body):
            t = tok.text
            # unordered-iter: range-for over an (aliased) unordered type.
            if t == "for" and i + 1 < n and texts[i + 1] == "(":
                close = self._match_from(texts, i + 1, "(", ")")
                group = texts[i + 2:close]
                if ":" in group:
                    c = group.index(":")
                    if "::" not in group[max(0, c - 1):c + 1]:
                        expr = group[c + 1:]
                        if self._is_unordered_expr(fn, expr):
                            self._emit(
                                "unordered-iter", fn.file, tok.line,
                                "range-for over a std::unordered_* "
                                "container (resolved through its "
                                "typedef/alias); iteration order varies "
                                "across libstdc++ versions and ASLR "
                                "runs — iterate a dense-id vector or "
                                "sort first")

    def _match_from(self, texts, open_index, op, cl):
        depth = 0
        for i in range(open_index, len(texts)):
            if texts[i] == op:
                depth += 1
            elif texts[i] == cl:
                depth -= 1
                if depth == 0:
                    return i
        return len(texts)

    def _is_unordered_expr(self, fn, expr):
        """True when the range expression's type resolves to unordered."""
        if not expr:
            return False
        # Direct spelling or alias used as a temporary.
        joined = " ".join(expr)
        if _UNORDERED_RE.search(joined):
            return True
        base = expr[0]
        if not (base and (base[0].isalpha() or base[0] == "_")):
            return False
        t = fn.local_types.get(base) or fn.param_types.get(base)
        if t is None and fn.cls:
            t = self._member_type(fn.cls, base)
        if t is None:
            t = self.p.aliases.get(base)
        if t is None:
            return False
        resolved = self.p.resolve_alias(t)
        return bool(_UNORDERED_RE.search(resolved))


    # -- file-wide determinism bans ---------------------------------------

    def _check_file(self, path, toks):
        texts = [t.text for t in toks]
        n = len(texts)

        def emit(rule, line, message):
            if not path.startswith(EXEMPT.get(rule, ())):
                self._emit(rule, path, line, message)

        for i, tok in enumerate(toks):
            t = tok.text
            if not (t and (t[0].isalpha() or t[0] == "_")):
                continue
            prev = texts[i - 1] if i > 0 else ""
            nxt = texts[i + 1] if i + 1 < n else ""
            # `std::name` and `::name` are the library's; `x.name`,
            # `x->name` and `Cls::name` are some other entity's member, and
            # `Type name(` declares something of that name.
            member = prev in (".", "->") or (
                prev == "::" and i >= 2 and texts[i - 2] != "std"
                and (texts[i - 2][0].isalpha() or texts[i - 2][0] == "_"))
            declared = bool(prev) and (prev[0].isalpha() or prev[0] == "_") \
                and prev not in _EXPR_KEYWORDS
            not_libc = member or declared
            std_name = prev == "::" and i >= 2 and texts[i - 2] == "std"
            if t in _LIBC_RNG and nxt == "(" and not not_libc:
                emit("libc-rng", tok.line,
                     f"C library RNG `{t}()`; use common/rng.hpp seeded "
                     "from SimConfig")
            elif t == "random_device":
                emit("random-device", tok.line,
                     "hardware entropy source (std::random_device); use "
                     "common/rng.hpp seeded from SimConfig")
            elif _UNORDERED_RE.fullmatch(t):
                emit("unordered-container", tok.line,
                     f"`{t}`: iteration order is not deterministic across "
                     "libstdc++ versions and runs; use a vector indexed by "
                     "dense ids (or sort before iterating)")
            elif t in _RAW_THREADS and std_name and not (
                    t == "thread" and nxt == "::" and i + 2 < n
                    and texts[i + 2] == "hardware_concurrency"):
                emit("raw-thread", tok.line,
                     f"raw threading primitive std::{t}; all simulation "
                     "parallelism must go through common/parallel "
                     "(ShardPool / parallel_for), whose phase barriers are "
                     "what make shard-ordered commits possible")
            elif t == "tracer_" and nxt == "(" and (
                    prev not in (".", "->")
                    or (prev == "->" and i >= 2 and texts[i - 2] == "this")):
                emit("trace-emit", tok.line,
                     "direct TraceEvent emission: trace events must be "
                     "staged in ShardState::traces and flushed by "
                     "commit_shard_staging in shard order, or the trace "
                     "stream stops being bit-identical across sim_threads "
                     "(DESIGN.md §11); reviewed serial-phase sites carry "
                     "`// lint: allow(trace-emit)`")
            elif self._is_clock_read(texts, i, not_libc):
                emit("wall-clock", tok.line,
                     f"wall-clock read (`{t}` resolves to a real-time "
                     "clock); simulation decisions must use "
                     "Network::now() — telemetry timestamps belong in "
                     "src/stats/")

    def _is_clock_read(self, texts, i, not_libc):
        """True when texts[i] starts a real-time clock read: a chrono clock
        (or an alias of one) used as `Clock::` / `Clock(`, or a call of the
        C library's time() / clock()."""
        t = texts[i]
        nxt = texts[i + 1] if i + 1 < len(texts) else ""
        if t in _LIBC_CLOCKS:
            return nxt == "(" and not not_libc
        if _CLOCK_RE.search(t) is None:
            if t not in self.p.aliases or \
                    _CLOCK_RE.search(self.p.resolve_alias(t)) is None:
                return False
        return nxt in ("::", "(")


def analyze(program):
    return Analyzer(program).run()
