"""Literal lifting: an ad-hoc SELECT as the ``?`` statement it equals.

Ad-hoc reads typed by hand differ from each other mostly in their constants
(``... WHERE amount > 41.3 AND id <> -17``).  :func:`lift_literals` turns
such a text into its *template* -- the same text with those constants
replaced by ``?`` markers -- and the lifted values, so the connection can
key the plan cache on the template and run one cached plan with the values
as its parameters.  A client that runs the template text itself with ``?``
parameters shares that plan.

A text qualifies only as a single SELECT over exactly one FROM table (no
join, no subquery, no set operation, no CTE) that carries no parameter
markers of its own.  Only its WHERE clause is lifted, and in it only a
number or string that is

* the right operand of a comparison (``= == <> != < <= > >=``), possibly
  through a unary minus;
* a bound of ``BETWEEN ... AND ...``; or
* an item of an ``IN (...)`` list;

unless it is followed by ``( . ::`` or an arithmetic operator (then it is
part of a larger expression), or the other side of its comparison is a
literal too (so ``WHERE 1 = 0`` still folds).  Everything outside WHERE --
select-list items, GROUP BY and ORDER BY ordinals, LIMIT and OFFSET --
keeps its literal, and so do typed literals (``DATE '...'``) and CAST or
function arguments, which never sit in those positions.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

from ..errors import ConversionError
from ..types import infer_type_of_value
from .lexer import Token, TokenType
from .parser import _COMPARISON_OPS, _parse_number

__all__ = ["Template", "lift_literals"]


class Template(NamedTuple):
    """A lifted statement: ``text`` with a ``?`` per lifted literal, the
    matching ``tokens`` (positions still index the original text), the
    lifted ``values`` in marker order, and the one FROM ``table``."""

    text: str
    tokens: List[Token]
    values: Tuple[Any, ...]
    table: str


#: Keywords that end the WHERE clause of a single-table SELECT.
_CLAUSE_END = frozenset(("GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET"))
#: A literal followed by one of these is an operand of a larger expression.
_BOUND_FOLLOWERS = frozenset(("(", ".", "::", "+", "-", "*", "/", "%", "||"))
#: Marks of literal tokens (see :func:`_marks`).
_LITERALS = frozenset(("#", "'", "NULL", "TRUE", "FALSE"))
_MARK = {TokenType.IDENTIFIER: "ident", TokenType.NUMBER: "#",
         TokenType.STRING: "'", TokenType.PARAMETER: "?"}


def _marks(tokens: List[Token]) -> List[str]:
    """One string per token: a keyword's or operator's text, or a mark of
    its kind (``ident``, ``#`` number, ``'`` string, ``?``, ``""`` EOF).
    The marks never collide, so the passes below compare plain strings."""
    return [_MARK.get(token.type) or token.text for token in tokens]


def _subject_is_literal(marks: List[str], keyword: int) -> bool:
    """Whether the operand before ``BETWEEN`` / ``IN`` at ``keyword`` (past
    an optional ``NOT``) is a literal."""
    before = keyword - 1
    if marks[before] == "NOT":
        before -= 1
    return marks[before] in _LITERALS


def _token_end(token: Token) -> int:
    """Source offset just past a NUMBER or STRING token."""
    if token.type is TokenType.NUMBER:
        return token.position + len(token.text)
    # Quotes around the text, and every quote inside it was doubled.
    return token.position + len(token.text) + 2 + token.text.count("'")


def _type_of(value: Any) -> Any:
    """The type a literal ``value`` binds to; None beyond BIGINT."""
    try:
        return infer_type_of_value(value)
    except ConversionError:
        return None


def _where_region(marks: List[str]) -> Optional[Tuple[int, int, int]]:
    """``(first, end, table)``: the token range of the WHERE condition of a
    qualifying statement and the index of its table, or None when the
    statement does not qualify or has no WHERE."""
    if marks[0] != "SELECT" or "?" in marks or marks.count("SELECT") != 1 \
            or marks.count("FROM") != 1:
        return None
    count = len(marks) - 1  # without EOF
    while count and marks[count - 1] == ";":
        count -= 1
    if ";" in marks[:count]:
        return None
    table = marks.index("FROM") + 1
    if marks[table] != "ident":
        return None
    index = table + 1
    if marks[index] == "AS":
        index += 1
    if marks[index] == "ident":
        index += 1
    if marks[index] != "WHERE":
        return None  # no WHERE, or a join, a second table, a function ...
    end = index + 1
    depth = 0
    while end < count:
        mark = marks[end]
        if mark == "(":
            depth += 1
        elif mark == ")":
            depth -= 1
        elif depth == 0 and mark in _CLAUSE_END:
            break
        end += 1
    return index + 1, end, table


def lift_literals(sql: str, tokens: List[Token]) -> Optional[Template]:
    """The template of ``sql`` (already lexed into ``tokens``), or None when
    the statement does not qualify or has no literal to lift."""
    marks = _marks(tokens)
    region = _where_region(marks)
    if region is None:
        return None
    first, end, table = region
    #: Per open parenthesis: whether it opens an IN list.
    parens: List[bool] = []
    #: Parenthesis depths of BETWEENs still waiting for their AND, each with
    #: whether its bounds may be lifted.
    betweens: List[Tuple[int, bool]] = []
    #: Token index of each BETWEEN's AND -> whether its bound may be lifted.
    between_ands = {}
    spans: List[Tuple[int, int, Any]] = []  # first token, literal, value
    for index in range(first, end):
        mark = marks[index]
        if mark == "(":
            parens.append(marks[index - 1] == "IN"
                          and not _subject_is_literal(marks, index - 1))
            continue
        if mark == ")":
            if parens:
                parens.pop()
            continue
        if mark == "BETWEEN":
            betweens.append((len(parens),
                             not _subject_is_literal(marks, index)))
            continue
        if mark == "AND":
            if betweens and betweens[-1][0] == len(parens):
                between_ands[index] = betweens.pop()[1]
            continue
        if mark != "#" and mark != "'":
            continue
        follower = marks[index + 1]
        if follower in _BOUND_FOLLOWERS:
            continue
        start = index - 1 if mark == "#" and marks[index - 1] == "-" \
            else index
        anchor = marks[start - 1]
        if anchor in _COMPARISON_OPS:
            liftable = marks[start - 2] not in _LITERALS
        elif anchor == "BETWEEN":
            liftable = betweens[-1][1] if betweens else False
        elif start - 1 in between_ands:
            liftable = between_ands[start - 1]
        elif anchor == "(" or anchor == ",":
            liftable = bool(parens) and parens[-1] \
                and (follower == "," or follower == ")")
        else:
            liftable = False
        if not liftable:
            continue
        token = tokens[index]
        if mark == "'":
            value: Any = token.text
        else:
            # A literal the binder rejects stays, to fail as it does; so
            # does a negation that types unlike its literal (-2147483648).
            number = _parse_number(token.text)
            value = -number if start != index else number
            if _type_of(value) is None or _type_of(value) != _type_of(number):
                continue
        spans.append((start, index, value))
    if not spans:
        return None
    text_parts: List[str] = []
    template_tokens: List[Token] = []
    source = next_token = 0
    for start, index, _ in spans:
        position = tokens[start].position
        text_parts += (sql[source:position], "?")
        source = _token_end(tokens[index])
        template_tokens += tokens[next_token:start]
        template_tokens.append(Token(TokenType.PARAMETER, "?", position))
        next_token = index + 1
    text_parts.append(sql[source:])
    template_tokens += tokens[next_token:]
    return Template("".join(text_parts).strip(), template_tokens,
                    tuple(value for _, _, value in spans), tokens[table].text)
