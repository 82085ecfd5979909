"""Dependency-free semantic frontend.

A pragmatic recursive-descent pass over the token stream (lexer.py) that
recovers exactly the structure rules.py needs — it is NOT a C++ parser:

  * namespaces / class definitions (bases, member + method annotations);
  * typedef / using aliases (for unordered-container and clock resolution
    through names);
  * function definitions with tokenized bodies, parameter names/types and
    best-effort local variable types;
  * the whole token stream of every file, for the file-wide bans.

Anything it cannot classify it skips — unknown constructs degrade into
missed edges (possible false negatives), never into crashes.
"""

import os

from . import lexer
from .model import (MACRO_TO_ANNOTATION, ClassInfo, FunctionDef, Program,
                    Token)

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "else", "do", "case",
    "break", "continue", "goto", "new", "delete", "sizeof", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "throw", "co_return",
    "template", "typename", "using", "namespace", "public", "private",
    "protected", "friend", "static", "constexpr", "const", "inline",
    "virtual", "override", "final", "noexcept", "explicit", "operator",
    "enum", "class", "struct", "union", "auto", "void", "bool", "char",
    "short", "int", "long", "float", "double", "unsigned", "signed",
    "true", "false", "nullptr", "this", "default", "mutable", "extern",
    "alignas",
}

_ACCESS = {"public", "private", "protected"}


def _strip_leading(toks):
    """Drops access labels, template<> heads and leading [[attributes]]."""
    i = 0
    while i < len(toks):
        t = toks[i][0]
        if t in _ACCESS and i + 1 < len(toks) and toks[i + 1][0] == ":":
            i += 2
            continue
        if t == "template" and i + 1 < len(toks) and toks[i + 1][0] == "<":
            depth = 0
            j = i + 1
            while j < len(toks):
                if toks[j][0] == "<":
                    depth += 1
                elif toks[j][0] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j][0] == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                j += 1
            i = j + 1
            continue
        if t == "[" and i + 1 < len(toks) and toks[i + 1][0] == "[":
            j = i + 2
            depth = 2
            while j < len(toks) and depth > 0:
                if toks[j][0] == "[":
                    depth += 1
                elif toks[j][0] == "]":
                    depth -= 1
                j += 1
            i = j
            continue
        break
    return toks[i:]


def _find_annotation(toks):
    for t, _ in toks:
        if t in MACRO_TO_ANNOTATION:
            return MACRO_TO_ANNOTATION[t]
    return ""


def _type_text(toks):
    return " ".join(t for t, _ in toks
                    if t not in MACRO_TO_ANNOTATION and t not in
                    ("const", "constexpr", "static", "mutable", "inline"))


_DECL_QUALS = {"const", "noexcept", "override", "final", "=", "0", "&",
               "&&", "default", "delete"}


def _is_method_decl(names):
    """Distinguishes a method declaration from a member whose type merely
    contains parentheses (`std::function<void(const Ev&)> cb_;`): a method
    decl ends with `)` once trailing qualifiers are stripped; a member
    decl ends with its name (or an array extent)."""
    if "(" not in names:
        return False
    k = len(names) - 1
    while k >= 0 and names[k] in _DECL_QUALS:
        k -= 1
    return k >= 0 and names[k] == ")"


class _FileParser:
    def __init__(self, program, relpath):
        self.program = program
        self.relpath = relpath

    # -- declaration scanning --------------------------------------------

    def parse(self, toks):
        self._parse_scope(toks, 0, len(toks), cls=None)

    def _parse_scope(self, toks, start, end, cls):
        i = start
        while i < end:
            t = toks[i][0]
            if t in (";", "}"):
                i += 1
                continue
            decl, j, kind = self._scan_decl(toks, i, end)
            if kind == "{":
                close = lexer.match_brace(toks, j)
                self._handle_braced(decl, toks, j, close, cls)
                i = close + 1
            else:
                self._handle_statement(decl, cls)
                i = j + 1

    def _scan_decl(self, toks, i, end):
        """Collects declaration tokens from i until an unparenthesised ';'
        or body-opening '{'; braced initializers after '=' are consumed
        into the declaration."""
        decl = []
        paren = 0
        seen_assign = False
        j = i
        while j < end:
            t = toks[j][0]
            if t in ("(", "["):
                paren += 1
            elif t in (")", "]"):
                paren -= 1
            elif t == "=" and paren == 0:
                seen_assign = True
            if t == ";" and paren == 0:
                return decl, j, ";"
            if t == "{" and paren == 0:
                if seen_assign:
                    close = lexer.match_brace(toks, j)
                    decl.extend(toks[j:close + 1])
                    j = close + 1
                    seen_assign = False
                    continue
                return decl, j, "{"
            decl.append(toks[j])
            j += 1
        return decl, end, ";"

    # -- handlers --------------------------------------------------------

    def _handle_braced(self, decl, toks, open_brace, close, cls):
        d = _strip_leading(decl)
        if not d:
            return
        head = d[0][0]
        if head == "namespace":
            self._parse_scope(toks, open_brace + 1, close, cls=None)
            return
        if head == "extern":
            self._parse_scope(toks, open_brace + 1, close, cls=cls)
            return
        if head == "enum":
            return
        if head in ("class", "struct", "union") and "(" not in \
                [x[0] for x in d]:
            self._handle_class(d, toks, open_brace, close, outer=cls)
            return
        # Inline `struct X { ... } member_;`? (handled as class above; the
        # trailing member name after '}' is lost — acceptable.)
        if "(" in [x[0] for x in d]:
            self._handle_function(d, toks, open_brace, close, cls)

    def _handle_class(self, d, toks, open_brace, close, outer):
        # d: class/struct [macro] Name [final] [: bases]
        annotation = _find_annotation(d)
        name = None
        k = 1
        names = [x[0] for x in d]
        while k < len(names):
            t = names[k]
            if t in MACRO_TO_ANNOTATION or t == "alignas":
                k += 1
                continue
            if t == "[":  # attribute already stripped at head only
                k += 1
                continue
            if t[0].isalpha() or t[0] == "_":
                name = t
                break
            k += 1
        if name is None:
            return
        bases = []
        if ":" in names[k:]:
            c = k + names[k:].index(":")
            base_toks = names[c + 1:]
            depth = 0
            cur = []
            for t in base_toks:
                if t == "<":
                    depth += 1
                elif t in (">", ">>"):
                    depth -= 2 if t == ">>" else 1
                elif t == "," and depth <= 0:
                    if cur:
                        bases.append(cur[-1])
                    cur = []
                    continue
                if depth <= 0 and (t[0].isalpha() or t[0] == "_") and \
                        t not in ("public", "private", "protected",
                                  "virtual", "final"):
                    cur.append(t)
            if cur:
                bases.append(cur[-1])
        ci = self.program.classes.setdefault(
            name, ClassInfo(name=name, file=self.relpath,
                            line=d[0][1]))
        ci.bases = bases or ci.bases
        if annotation:
            ci.annotation = annotation
        self._parse_class_body(toks, open_brace + 1, close, ci)

    def _parse_class_body(self, toks, start, end, ci):
        i = start
        while i < end:
            t = toks[i][0]
            if t in (";", "}"):
                i += 1
                continue
            decl, j, kind = self._scan_decl(toks, i, end)
            d = _strip_leading(decl)
            names = [x[0] for x in d]
            if kind == "{":
                close = lexer.match_brace(toks, j)
                if d and d[0][0] in ("class", "struct", "union") and \
                        "(" not in names:
                    self._handle_class(d, toks, j, close, outer=ci)
                elif d and d[0][0] == "enum":
                    pass
                elif _is_method_decl(names):
                    self._handle_function(d, toks, j, close, ci)
                elif d:
                    # Member with braced init (type may contain parens).
                    self._record_member(d, ci)
                i = close + 1
                continue
            # Statement declaration at class scope.
            if d:
                if names[0] == "using" and "=" in names:
                    self._record_alias_using(d)
                elif names[0] == "typedef":
                    self._record_alias_typedef(d)
                elif names[0] == "friend":
                    pass
                elif _is_method_decl(names):
                    self._record_method_decl(d, ci)
                else:
                    self._record_member(d, ci)
            i = j + 1

    def _record_method_decl(self, d, ci):
        annotation = _find_annotation(d)
        names = [x[0] for x in d]
        try:
            p = names.index("(")
        except ValueError:
            return
        if p == 0:
            return
        name = names[p - 1]
        if not (name[0].isalpha() or name[0] == "_") or name == "operator":
            return
        if annotation:
            ci.methods[name] = annotation

    def _record_member(self, d, ci):
        annotation = _find_annotation(d)
        names = [x[0] for x in d]
        # Name: identifier before '=', '{' (init) or end.
        stop = len(names)
        for marker in ("=", "{"):
            if marker in names:
                stop = min(stop, names.index(marker))
        k = stop - 1
        # skip trailing array extents `name[4]`
        while k >= 0 and names[k] in ("]", "["):
            k -= 1
        while k >= 0 and not (names[k][0].isalpha() or names[k][0] == "_"):
            k -= 1
        if k <= 0:
            return
        name = names[k]
        if name in _KEYWORDS or name in MACRO_TO_ANNOTATION:
            return
        ci.members[name] = annotation
        ci.member_types[name] = _type_text(d[:k])

    # -- functions -------------------------------------------------------

    def _handle_function(self, d, toks, open_brace, close, cls):
        annotation = _find_annotation(d)
        names = [x[0] for x in d]
        # First top-level '(' delimits the declarator.
        try:
            p = names.index("(")
        except ValueError:
            return
        if p == 0:
            return
        name = names[p - 1]
        if not (name[0].isalpha() or name[0] == "_"):
            return
        if name in ("operator",) or name in _KEYWORDS - {"operator"}:
            return
        owner = cls.name if cls is not None else ""
        # Out-of-line definitions: `Type Cls::name(...)`.
        if p >= 3 and names[p - 2] == "::":
            owner = names[p - 3]
        qual = f"{owner}::{name}" if owner else name
        fn = FunctionDef(name=name, qualname=qual, cls=owner,
                         annotation=annotation, file=self.relpath,
                         line=d[0][1])
        # Parameters: tokens of the first paren group in d.
        depth = 0
        group = []
        for tk in d[p:]:
            if tk[0] == "(":
                depth += 1
                if depth == 1:
                    continue
            elif tk[0] == ")":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1:
                group.append(tk)
        self._parse_params(group, fn)
        fn.body = [Token(text=t, line=ln) for t, ln in toks[open_brace + 1:
                                                           close]]
        _collect_local_types(fn)
        self.program.functions.setdefault(qual, []).append(fn)

    def _parse_params(self, group, fn):
        depth = 0
        cur = []
        parts = []
        for t, ln in group:
            if t in ("<", "(", "["):
                depth += 1
            elif t in (">", ")", "]"):
                depth -= 1
            elif t == ">>":
                depth -= 2
            elif t == "," and depth <= 0:
                parts.append(cur)
                cur = []
                continue
            cur.append(t)
        if cur:
            parts.append(cur)
        for part in parts:
            if not part or part == ["void"]:
                continue
            stop = part.index("=") if "=" in part else len(part)
            k = stop - 1
            while k >= 0 and not (part[k][0].isalpha() or part[k][0] == "_"):
                k -= 1
            if k < 0:
                continue
            name = part[k]
            if name in _KEYWORDS:
                continue
            fn.params.append(name)
            fn.param_types[name] = " ".join(part[:k])

    # -- statements at namespace scope -----------------------------------

    def _handle_statement(self, decl, cls):
        d = _strip_leading(decl)
        if not d:
            return
        names = [x[0] for x in d]
        if names[0] == "using":
            if "=" in names and "namespace" not in names:
                self._record_alias_using(d)
            return
        if names[0] == "typedef":
            self._record_alias_typedef(d)
            return
        if "(" in names:
            # Free-function declaration carrying an annotation macro
            # (e.g. evaluate_ugal_paths in ugal.hpp).
            annotation = _find_annotation(d)
            if annotation:
                p = names.index("(")
                if p >= 1:
                    name = names[p - 1]
                    if name[0].isalpha() or name[0] == "_":
                        self.program.free_fn_annotations[name] = annotation

    def _record_alias_using(self, d):
        names = [x[0] for x in d]
        try:
            eq = names.index("=")
        except ValueError:
            return
        if eq < 2:
            return
        alias = names[eq - 1]
        target = " ".join(names[eq + 1:])
        self.program.aliases[alias] = target

    def _record_alias_typedef(self, d):
        names = [x[0] for x in d]
        if len(names) < 3:
            return
        alias = names[-1]
        k = len(names) - 1
        while k >= 0 and not (names[k][0].isalpha() or names[k][0] == "_"):
            k -= 1
        if k <= 0:
            return
        alias = names[k]
        target = " ".join(names[1:k])
        self.program.aliases[alias] = target


def _match(texts, open_index, op, cl):
    depth = 0
    for i in range(open_index, len(texts)):
        if texts[i] == op:
            depth += 1
        elif texts[i] == cl:
            depth -= 1
            if depth == 0:
                return i
    return len(texts) - 1


def _collect_local_types(fn):
    """Best-effort `Type name` local declarations, so receiver types of
    locals resolve (e.g. `Router& r = routers_[x]` -> Router)."""
    texts = [t.text for t in fn.body]
    n = len(texts)
    i = 0
    while i < n - 1:
        t = texts[i]
        if not (t and (t[0].isalpha() or t[0] == "_")) or t in _KEYWORDS \
                and t not in ("auto", "const"):
            i += 1
            continue
        # Optionally `const`, then a type chain Id(::Id)*(<...>)?, then
        # (&|*)*, then the declared name, then one of = ; { ( ,
        j = i
        if texts[j] == "const":
            j += 1
        start_type = j
        if j >= n or not (texts[j][0].isalpha() or texts[j][0] == "_"):
            i += 1
            continue
        j += 1
        while j + 1 < n and texts[j] == "::" and \
                (texts[j + 1][0].isalpha() or texts[j + 1][0] == "_"):
            j += 2
        if j < n and texts[j] == "<":
            j = _match(texts, j, "<", ">") + 1
        type_end = j
        while j < n and texts[j] in ("&", "*", "&&", "const"):
            j += 1
        if j >= n or not (texts[j][0].isalpha() or texts[j][0] == "_") or \
                texts[j] in _KEYWORDS:
            i += 1
            continue
        name = texts[j]
        if j + 1 < n and texts[j + 1] in ("=", ";", "{", ":") and \
                texts[start_type] not in ("return", "delete", "else"):
            type_text = " ".join(texts[start_type:type_end])
            if type_text not in ("", "auto", "const"):
                fn.local_types.setdefault(name, type_text)
            i = j + 1
            continue
        i += 1


def load_program(root, files):
    """Parses `files` (relative to root) into a Program."""
    program = Program()
    for rel in files:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        lexer.collect_waivers(text, rel, program.waivers)
        toks = lexer.strip_and_tokenize(text)
        program.files[rel] = [Token(text=t, line=ln) for t, ln in toks]
        _FileParser(program, rel).parse(toks)
    return program
