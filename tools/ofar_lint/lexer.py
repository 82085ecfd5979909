"""Line-tracking C++ tokenizer for the builtin frontend.

Produces identifier/number/punctuation tokens with source lines attached,
with comments and string/char literals stripped (string literals become a
single `""` token so grammar shapes survive). Preprocessor directive
lines are dropped.
"""

import re

# Multi-char operators, longest first, so `->` never splits into `-` `>`.
_PUNCT = [
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",
]

_TOKEN_RE = re.compile(
    "|".join(re.escape(p) for p in _PUNCT)
    + r"|[A-Za-z_][A-Za-z0-9_]*|[0-9][0-9a-fA-FxX'.uUlLfF]*|\S"
)


def strip_and_tokenize(text):
    """Returns a list of (token_text, line) pairs."""
    tokens = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    break
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
        if c == '"':
            # Raw strings: R"delim(...)delim"
            if i >= 1 and text[i - 1] == "R" and tokens and \
                    tokens[-1][0] == "R":
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    if end < 0:
                        break
                    line += text.count("\n", i, end)
                    tokens[-1] = ('""', tokens[-1][1])
                    i = end + len(m.group(1)) + 2
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(('""', line))
            line += text.count("\n", i, min(j + 1, n))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(("''", line))
            i = j + 1
            continue
        if c == "#":
            # Drop the directive line (honouring backslash continuations).
            j = i
            while True:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    line += 1
                    j = k + 1
                    continue
                j = k
                break
            i = j
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            i += 1
            continue
        tokens.append((m.group(0), line))
        i = m.end()
    return tokens


def match_brace(tokens, open_index):
    """Index of the brace matching tokens[open_index] (a '{'), or len."""
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def match_paren(tokens, open_index):
    """Index of the ')' matching tokens[open_index] (a '('), or len."""
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)
