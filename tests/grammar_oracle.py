"""Frozen reference parser for U-Net grammar strings.

A verbatim copy of the tokenizer and recursive-descent parser
``jahsband.grammar`` used before its tokenizer became one regex scan: the
tokenizer walks the text one character at a time. The tests compare
``jahsband.grammar.parse`` with this module's :func:`parse` on valid and
mutated strings, so a change in a derivation, an error class or an error
position shows up.
"""

from __future__ import annotations

import re

from jahsband.grammar import Derivation, Grammar, NotInLanguageError, ParseError


_TOKEN = re.compile(r"[(),]|[A-Za-z0-9][A-Za-z0-9_.\-]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(), pos))
        pos = match.end()
    return tokens


def parse(grammar: Grammar, text: str) -> Derivation:
    """Parse a function-composition string back into a derivation.

    Raises :class:`ParseError` for malformed input and
    :class:`NotInLanguageError` for well-formed strings the grammar cannot
    derive (e.g. a block count beyond the rule's cap).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    furthest = 0

    def match(nt: str, i: int) -> tuple[Derivation, int] | None:
        nonlocal furthest
        for ai, alt in enumerate(grammar.productions[nt]):
            children: list = []
            j = i
            ok = True
            for sym in alt:
                if grammar.is_nonterminal(sym):
                    res = match(sym, j)
                    if res is None:
                        ok = False
                        break
                    node, j = res
                    children.append(node)
                else:
                    if j < len(tokens) and tokens[j][0] == sym:
                        children.append(sym)
                        j += 1
                    else:
                        furthest = max(furthest, j)
                        ok = False
                        break
            if ok:
                return (nt, ai, tuple(children)), j
        return None

    result = match(grammar.start, 0)
    if result is None:
        pos = tokens[min(furthest, len(tokens) - 1)][1]
        raise NotInLanguageError("no derivation matches", pos)
    node, end = result
    if end != len(tokens):
        raise NotInLanguageError("trailing input", tokens[end][1])
    return node
