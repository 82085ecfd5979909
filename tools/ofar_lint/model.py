"""Semantic model built by the ofar_lint frontend.

The frontend reduces the C++ sources to:

  * classes: name -> ClassInfo (bases, member annotations, class-level
    annotation);
  * functions: qualified name -> [FunctionDef] (annotations + the token
    stream of the body);
  * aliases: typedef/using chains, for receiver-type and clock
    resolution through names;
  * files: path -> the whole token stream, for the bans that apply to
    every declaration and statement alike.

rules.py then walks the call graph from the parallel-phase roots and
applies the discipline checks to every reachable body, and the
determinism bans to every file.
"""

from dataclasses import dataclass, field

# Annotation spellings: the frontend reads the macro names of
# src/common/phase.hpp and maps them to these.
PARALLEL_PHASE = "parallel_phase"
SERIAL_ONLY = "serial_only"
SHARD_LOCAL = "shard_local"
LANE_RNG = "lane_rng"

MACRO_TO_ANNOTATION = {
    "OFAR_PARALLEL_PHASE": PARALLEL_PHASE,
    "OFAR_SERIAL_ONLY": SERIAL_ONLY,
    "OFAR_SHARD_LOCAL": SHARD_LOCAL,
    "OFAR_LANE_RNG": LANE_RNG,
}


@dataclass
class Token:
    text: str
    line: int


@dataclass
class ClassInfo:
    name: str                      # qualified, e.g. "Network"
    bases: list = field(default_factory=list)   # base class names
    annotation: str = ""           # class-level phase annotation ("" = none)
    # member variable name -> annotation ("" when declared unannotated)
    members: dict = field(default_factory=dict)
    # member variable name -> declared type text
    member_types: dict = field(default_factory=dict)
    # method name -> annotation, from in-class declarations (merged into
    # out-of-line definitions and inherited by overrides)
    methods: dict = field(default_factory=dict)
    file: str = ""
    line: int = 0


@dataclass
class FunctionDef:
    name: str                      # unqualified, e.g. "route"
    qualname: str                  # "OfarPolicy::route" or free-function name
    cls: str = ""                  # owning class ("" for free functions)
    annotation: str = ""           # phase annotation from decl or definition
    file: str = ""
    line: int = 0
    param_types: dict = field(default_factory=dict)   # parameter name -> type
    body: list = field(default_factory=list)          # [Token]
    # local variable name -> declared type text (best effort)
    local_types: dict = field(default_factory=dict)


@dataclass
class Program:
    classes: dict = field(default_factory=dict)    # name -> ClassInfo
    functions: dict = field(default_factory=dict)  # qualname -> [FunctionDef]
    aliases: dict = field(default_factory=dict)    # alias name -> target text
    # free function name -> annotation, from annotated declarations
    free_fn_annotations: dict = field(default_factory=dict)
    # path -> [Token] of the whole file (comments and literals stripped)
    files: dict = field(default_factory=dict)

    def resolve_alias(self, type_text, _depth=0):
        """Follows typedef/using chains; returns the fully expanded text."""
        if _depth > 16 or not type_text:
            return type_text
        # Resolve the last identifier-ish component if it is an alias.
        key = type_text.split("<")[0].split("::")[-1].strip().lstrip("&* ")
        target = self.aliases.get(key)
        if target is None or target == type_text:
            return type_text
        return self.resolve_alias(target, _depth + 1)

    def method_annotation(self, cls_name, method):
        """Effective annotation of `method` of `cls_name`: its own in-class
        declaration, inherited from a base-class declaration of the same
        name (virtual overrides), or the class-level annotation."""
        seen = set()
        stack = [cls_name]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            ci = self.classes.get(c)
            if ci is None:
                continue
            if method in ci.methods:
                return ci.methods[method]
            if ci.annotation:
                return ci.annotation
            stack.extend(ci.bases)
        return ""

    def fn_annotation(self, fn):
        """Effective annotation of a FunctionDef (definition site, in-class
        declaration, base-class override chain, or free-fn declaration)."""
        if fn.annotation:
            return fn.annotation
        if fn.cls:
            return self.method_annotation(fn.cls, fn.name)
        return self.free_fn_annotations.get(fn.name, "")

    def derived_of(self, base):
        """base + every class transitively derived from it."""
        out = {base}
        changed = True
        while changed:
            changed = False
            for name, ci in self.classes.items():
                if name not in out and any(b in out for b in ci.bases):
                    out.add(name)
                    changed = True
        return out


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    context: str = ""     # e.g. the reachability chain

    def format(self):
        out = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.context:
            out += f"\n    (reached via {self.context})"
        return out
