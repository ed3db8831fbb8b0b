"""Recursive-descent SQL parser.

Supports the SQL surface the paper's workloads require: analytical SELECTs
(joins, aggregation, HAVING, ORDER BY/LIMIT, DISTINCT, set operations,
subqueries, CTEs), the ETL statements (bulk INSERT/UPDATE/DELETE, COPY
FROM/TO for CSV), DDL (CREATE/DROP TABLE/VIEW, CTAS), transaction control,
CHECKPOINT, PRAGMA, and EXPLAIN.

Grammar is expressed directly in the method structure; precedence climbing
handles expressions:

    OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < add(+,-,||) <
    mul(*,/,%) < unary(-,+) < postfix(::cast) < primary
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..errors import ParserError
from . import ast
from .lexer import Token, TokenType, tokenize

__all__ = ["Parser", "parse", "parse_one"]

_COMPARISON_OPS = {"=", "==", "<>", "!=", "<", "<=", ">", ">="}
_TYPE_START = {"IDENTIFIER"}  # type names are identifiers after CAST ... AS


def parse(sql: str, tokens: Optional[List[Token]] = None,
          ) -> List[ast.Statement]:
    """Parse a SQL script into a list of statements.

    ``tokens`` are ``sql``'s tokens when the caller lexed it already (they
    may be a literal template's, see :mod:`repro.sql.template`); ``sql``
    then only feeds error messages.
    """
    return Parser(sql, tokens).parse_statements()


def parse_one(sql: str) -> ast.Statement:
    """Parse exactly one statement (trailing semicolons allowed)."""
    statements = parse(sql)
    if len(statements) != 1:
        raise ParserError(f"Expected exactly one statement, found {len(statements)}")
    return statements[0]


class Parser:
    def __init__(self, sql: str, tokens: Optional[List[Token]] = None) -> None:
        self.sql = sql
        self.tokens = list(tokens) if tokens is not None else tokenize(sql)
        self.index = 0
        self._parameter_count = 0
        #: Parameter styles seen so far ("qmark"/"named"); mixing is an error.
        self._parameter_styles: set = set()

    # -- token helpers ---------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParserError:
        token = token or self.current
        snippet = self.sql[max(0, token.position - 20):token.position + 20]
        return ParserError(f"{message} at position {token.position} (near {snippet!r})",
                           token.position)

    def expect_keyword(self, keyword: str) -> Token:
        if not self.current.is_keyword(keyword):
            raise self.error(f"Expected {keyword}")
        return self.advance()

    def expect_operator(self, operator: str) -> Token:
        if not self.current.is_operator(operator):
            raise self.error(f"Expected {operator!r}")
        return self.advance()

    def accept_keyword(self, *keywords: str) -> Optional[Token]:
        if self.current.is_keyword(*keywords):
            return self.advance()
        return None

    def accept_operator(self, *operators: str) -> Optional[Token]:
        if self.current.is_operator(*operators):
            return self.advance()
        return None

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return token.text
        # Allow non-reserved keywords as identifiers in a pinch.
        if token.type is TokenType.KEYWORD and token.text in (
            "FIRST", "LAST", "TEMP", "TEMPORARY", "KEY", "HEADER", "DELIMITER",
        ):
            self.advance()
            return token.text.lower()
        raise self.error(f"Expected {what}")

    # -- entry points -------------------------------------------------------
    def parse_statements(self) -> List[ast.Statement]:
        statements = []
        while not self.current.type is TokenType.EOF:
            if self.accept_operator(";"):
                continue
            statements.append(self.parse_statement())
            if not self.current.type is TokenType.EOF:
                self.expect_operator(";")
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self.current
        if token.is_keyword("SELECT", "WITH") or token.is_operator("("):
            return self.parse_select_statement()
        if token.is_keyword("INSERT"):
            return self.parse_insert()
        if token.is_keyword("UPDATE"):
            return self.parse_update()
        if token.is_keyword("DELETE"):
            return self.parse_delete()
        if token.is_keyword("CREATE"):
            return self.parse_create()
        if token.is_keyword("DROP"):
            return self.parse_drop()
        if token.is_keyword("BEGIN", "START"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.TransactionStatement("begin", token.position)
        if token.is_keyword("COMMIT"):
            self.advance()
            return ast.TransactionStatement("commit", token.position)
        if token.is_keyword("ROLLBACK"):
            self.advance()
            return ast.TransactionStatement("rollback", token.position)
        if token.is_keyword("CHECKPOINT"):
            self.advance()
            statement = ast.CheckpointStatement(token.position)
            return statement
        if token.is_keyword("PRAGMA"):
            return self.parse_pragma()
        if token.is_keyword("COPY"):
            return self.parse_copy()
        if token.is_keyword("EXPLAIN"):
            self.advance()
            analyze = bool(self.accept_keyword("ANALYZE"))
            statement = ast.ExplainStatement(self.parse_statement(),
                                             token.position)
            statement.analyze = analyze
            return statement
        raise self.error("Unrecognized statement")

    # -- SELECT -------------------------------------------------------------------
    def parse_select_statement(self) -> ast.Statement:
        """A query expression: CTEs, set operations, ORDER BY/LIMIT."""
        position = self.current.position
        ctes: List[Tuple[str, ast.Statement]] = []
        if self.accept_keyword("WITH"):
            while True:
                name = self.expect_identifier("CTE name")
                self.expect_keyword("AS")
                self.expect_operator("(")
                cte_select = self.parse_select_statement()
                self.expect_operator(")")
                ctes.append((name, cte_select))
                if not self.accept_operator(","):
                    break
        node = self.parse_set_op_tree()
        # ORDER BY / LIMIT apply to the whole set-op tree.
        order_by = self.parse_order_by()
        limit, offset = self.parse_limit_offset()
        if order_by or limit is not None or offset is not None:
            if isinstance(node, ast.SelectStatement) and not node.order_by \
                    and node.limit is None and node.offset is None:
                node.order_by = order_by
                node.limit = limit
                node.offset = offset
            elif isinstance(node, ast.SetOpStatement):
                node.order_by = order_by
                node.limit = limit
                node.offset = offset
            else:
                raise self.error("Conflicting ORDER BY/LIMIT clauses")
        if ctes:
            node.ctes = ctes + list(node.ctes)
        node.position = position
        return node

    def parse_set_op_tree(self) -> ast.Statement:
        left = self.parse_select_core()
        while True:
            token = self.current
            if token.is_keyword("UNION", "EXCEPT", "INTERSECT"):
                op = token.text.lower()
                self.advance()
                all_ = bool(self.accept_keyword("ALL"))
                if not all_:
                    self.accept_keyword("DISTINCT")
                right = self.parse_select_core()
                left = ast.SetOpStatement(op, all_, left, right, token.position)
            else:
                return left

    def parse_select_core(self) -> ast.Statement:
        """One SELECT block, or a parenthesized query expression."""
        if self.current.is_operator("("):
            self.advance()
            inner = self.parse_select_statement()
            self.expect_operator(")")
            return inner
        position = self.expect_keyword("SELECT").position
        statement = ast.SelectStatement(position)
        if self.accept_keyword("DISTINCT"):
            statement.distinct = True
        else:
            self.accept_keyword("ALL")
        # Select list.
        while True:
            expression = self.parse_expression()
            alias = None
            if self.accept_keyword("AS"):
                alias = self.expect_identifier("column alias")
            elif self.current.type is TokenType.IDENTIFIER:
                alias = self.advance().text
            statement.select_list.append((expression, alias))
            if not self.accept_operator(","):
                break
        if self.accept_keyword("FROM"):
            statement.from_clause = self.parse_table_ref()
        if self.accept_keyword("WHERE"):
            statement.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            while True:
                statement.group_by.append(self.parse_expression())
                if not self.accept_operator(","):
                    break
        if self.accept_keyword("HAVING"):
            statement.having = self.parse_expression()
        return statement

    def parse_order_by(self) -> List[ast.OrderByItem]:
        items: List[ast.OrderByItem] = []
        if self.current.is_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                ascending = True
                if self.accept_keyword("ASC"):
                    ascending = True
                elif self.accept_keyword("DESC"):
                    ascending = False
                nulls_first: Optional[bool] = None
                if self.accept_keyword("NULLS"):
                    if self.accept_keyword("FIRST"):
                        nulls_first = True
                    else:
                        self.expect_keyword("LAST")
                        nulls_first = False
                items.append(ast.OrderByItem(expression, ascending, nulls_first))
                if not self.accept_operator(","):
                    break
        return items

    def parse_limit_offset(self):
        limit = offset = None
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expression()
        if self.accept_keyword("OFFSET"):
            offset = self.parse_expression()
        return limit, offset

    # -- FROM clause ------------------------------------------------------------------
    def parse_table_ref(self) -> ast.TableRef:
        left = self.parse_single_table_ref()
        while True:
            token = self.current
            if token.is_operator(","):
                self.advance()
                right = self.parse_single_table_ref()
                left = ast.JoinRef(left, right, "cross", position=token.position)
            elif token.is_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                right = self.parse_single_table_ref()
                left = ast.JoinRef(left, right, "cross", position=token.position)
            elif token.is_keyword("JOIN", "INNER", "LEFT", "RIGHT", "FULL"):
                join_type = "inner"
                if token.is_keyword("LEFT"):
                    join_type = "left"
                    self.advance()
                    self.accept_keyword("OUTER")
                elif token.is_keyword("RIGHT"):
                    join_type = "right"
                    self.advance()
                    self.accept_keyword("OUTER")
                elif token.is_keyword("FULL"):
                    join_type = "full"
                    self.advance()
                    self.accept_keyword("OUTER")
                elif token.is_keyword("INNER"):
                    self.advance()
                self.expect_keyword("JOIN")
                right = self.parse_single_table_ref()
                condition = None
                using_columns = None
                if self.accept_keyword("ON"):
                    condition = self.parse_expression()
                elif self.accept_keyword("USING"):
                    self.expect_operator("(")
                    using_columns = []
                    while True:
                        using_columns.append(self.expect_identifier("column name"))
                        if not self.accept_operator(","):
                            break
                    self.expect_operator(")")
                else:
                    raise self.error("JOIN requires ON or USING")
                left = ast.JoinRef(left, right, join_type, condition, using_columns,
                                   token.position)
            else:
                return left

    def parse_single_table_ref(self) -> ast.TableRef:
        token = self.current
        if token.is_operator("("):
            self.advance()
            subquery = self.parse_select_statement()
            self.expect_operator(")")
            alias, column_aliases = self.parse_table_alias()
            return ast.SubqueryRef(subquery, alias, column_aliases, token.position)
        if token.type is TokenType.STRING:
            # Bare 'file.csv' in FROM scans the file directly (paper §2:
            # "the database can directly scan existing files (e.g. CSV)").
            self.advance()
            alias, _ = self.parse_table_alias()
            return ast.TableFunctionRef(
                "read_csv", [ast.Literal(token.text, token.position)], alias,
                token.position,
            )
        name = self.expect_identifier("table name")
        if self.current.is_operator("("):
            self.advance()
            args: List[ast.Expression] = []
            if not self.current.is_operator(")"):
                while True:
                    args.append(self.parse_expression())
                    if not self.accept_operator(","):
                        break
            self.expect_operator(")")
            alias, _ = self.parse_table_alias()
            return ast.TableFunctionRef(name, args, alias, token.position)
        alias, _ = self.parse_table_alias()
        return ast.BaseTableRef(name, alias, token.position)

    def parse_table_alias(self):
        alias = None
        column_aliases = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().text
        if alias is not None and self.current.is_operator("("):
            self.advance()
            column_aliases = []
            while True:
                column_aliases.append(self.expect_identifier("column alias"))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        return alias, column_aliases

    # -- DML -------------------------------------------------------------------------
    def parse_insert(self) -> ast.InsertStatement:
        position = self.expect_keyword("INSERT").position
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns = None
        if self.current.is_operator("("):
            self.advance()
            columns = []
            while True:
                columns.append(self.expect_identifier("column name"))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        if self.accept_keyword("VALUES"):
            values = []
            while True:
                self.expect_operator("(")
                row = []
                while True:
                    row.append(self.parse_expression())
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
                values.append(row)
                if not self.accept_operator(","):
                    break
            return ast.InsertStatement(table, columns, values, None, position)
        select = self.parse_select_statement()
        return ast.InsertStatement(table, columns, None, select, position)

    def parse_update(self) -> ast.UpdateStatement:
        position = self.expect_keyword("UPDATE").position
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_identifier("column name")
            self.expect_operator("=")
            assignments.append((column, self.parse_expression()))
            if not self.accept_operator(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.UpdateStatement(table, assignments, where, position)

    def parse_delete(self) -> ast.DeleteStatement:
        position = self.expect_keyword("DELETE").position
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.DeleteStatement(table, where, position)

    # -- DDL ------------------------------------------------------------------------
    def parse_create(self) -> ast.Statement:
        position = self.expect_keyword("CREATE").position
        or_replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        self.accept_keyword("TEMPORARY", "TEMP")
        if self.accept_keyword("VIEW"):
            name = self.expect_identifier("view name")
            self.expect_keyword("AS")
            select_start = self.current.position
            select = self.parse_select_statement()
            select_end = (self.current.position
                          if self.current.type is not TokenType.EOF else len(self.sql))
            sql = self.sql[select_start:select_end].strip()
            return ast.CreateViewStatement(name, select, sql, or_replace, position)
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            if not self.current.is_keyword("EXISTS"):
                raise self.error("Expected EXISTS")
            self.advance()
            if_not_exists = True
        name = self.expect_identifier("table name")
        if self.accept_keyword("AS"):
            select = self.parse_select_statement()
            return ast.CreateTableStatement(name, [], if_not_exists, select, position)
        self.expect_operator("(")
        columns = []
        while True:
            columns.append(self.parse_column_spec())
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        return ast.CreateTableStatement(name, columns, if_not_exists, None, position)

    def parse_column_spec(self) -> ast.ColumnSpec:
        name = self.expect_identifier("column name")
        type_name = self.parse_type_name()
        nullable = True
        default = None
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.current.is_keyword("NULL"):
                self.advance()
                nullable = True
            elif self.accept_keyword("DEFAULT"):
                default = self.parse_expression()
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                nullable = False  # PRIMARY KEY implies NOT NULL; no index built
            elif self.current.is_keyword("UNIQUE"):
                self.advance()
            else:
                break
        return ast.ColumnSpec(name, type_name, nullable, default)

    def parse_type_name(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENTIFIER:
            raise self.error("Expected a type name")
        self.advance()
        name = token.text
        # DOUBLE PRECISION-style two-word names.
        if self.current.type is TokenType.IDENTIFIER and \
                self.current.text.upper() in ("PRECISION", "VARYING"):
            self.advance()
        # Parenthesized width: VARCHAR(32), DECIMAL(10, 2).
        if self.current.is_operator("("):
            depth = 0
            parts = [name]
            while True:
                token = self.advance()
                parts.append(token.text)
                if token.is_operator("("):
                    depth += 1
                elif token.is_operator(")"):
                    depth -= 1
                    if depth == 0:
                        break
                elif token.type is TokenType.EOF:
                    raise self.error("Unterminated type parameter list")
            name = "".join(parts)
        return name

    def parse_drop(self) -> ast.DropStatement:
        position = self.expect_keyword("DROP").position
        if self.accept_keyword("VIEW"):
            kind = "view"
        else:
            self.expect_keyword("TABLE")
            kind = "table"
        if_exists = False
        if self.accept_keyword("IF"):
            if not self.current.is_keyword("EXISTS"):
                raise self.error("Expected EXISTS")
            self.advance()
            if_exists = True
        name = self.expect_identifier(f"{kind} name")
        return ast.DropStatement(kind, name, if_exists, position)

    # -- misc statements ------------------------------------------------------------
    def parse_pragma(self) -> ast.PragmaStatement:
        position = self.expect_keyword("PRAGMA").position
        name = self.expect_identifier("pragma name")
        value: Any = None
        if self.accept_operator("="):
            token = self.current
            if token.type is TokenType.NUMBER:
                self.advance()
                value = _parse_number(token.text)
            elif token.type is TokenType.STRING:
                self.advance()
                value = token.text
            elif token.is_keyword("TRUE"):
                self.advance()
                value = True
            elif token.is_keyword("FALSE"):
                self.advance()
                value = False
            elif token.type is TokenType.IDENTIFIER:
                self.advance()
                value = token.text
            else:
                raise self.error("Expected a PRAGMA value")
        elif self.current.is_operator("("):
            self.advance()
            token = self.advance()
            value = token.text if token.type is not TokenType.NUMBER \
                else _parse_number(token.text)
            self.expect_operator(")")
        return ast.PragmaStatement(name, value, position)

    def parse_copy(self) -> ast.CopyStatement:
        position = self.expect_keyword("COPY").position
        select = None
        table = None
        if self.current.is_operator("("):
            self.advance()
            select = self.parse_select_statement()
            self.expect_operator(")")
        else:
            table = self.expect_identifier("table name")
        if self.accept_keyword("FROM"):
            direction = "from"
        else:
            self.expect_keyword("TO")
            direction = "to"
        path_token = self.current
        if path_token.type is not TokenType.STRING:
            raise self.error("Expected a quoted file path")
        self.advance()
        options = self.parse_copy_options()
        return ast.CopyStatement(table, path_token.text, direction, options,
                                 select, position)

    def parse_copy_options(self) -> dict:
        options: dict = {}
        if self.accept_operator("("):
            while True:
                token = self.current
                if token.is_keyword("HEADER"):
                    self.advance()
                    if self.current.type in (TokenType.KEYWORD, TokenType.IDENTIFIER) \
                            and self.current.text.upper() in ("TRUE", "FALSE"):
                        options["header"] = self.advance().text.upper() == "TRUE"
                    else:
                        options["header"] = True
                elif token.is_keyword("DELIMITER"):
                    self.advance()
                    value = self.current
                    if value.type is not TokenType.STRING:
                        raise self.error("DELIMITER requires a quoted string")
                    self.advance()
                    options["delimiter"] = value.text
                elif token.type is TokenType.IDENTIFIER:
                    name = self.advance().text.lower()
                    if self.current.type is TokenType.STRING:
                        options[name] = self.advance().text
                    elif self.current.type is TokenType.NUMBER:
                        options[name] = _parse_number(self.advance().text)
                    elif self.current.is_keyword("TRUE", "FALSE"):
                        options[name] = self.advance().text == "TRUE"
                    else:
                        options[name] = True
                else:
                    raise self.error("Bad COPY option")
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        return options

    # -- expressions --------------------------------------------------------------
    def parse_expression(self) -> ast.Expression:
        return self.parse_or()

    def parse_or(self) -> ast.Expression:
        left = self.parse_and()
        while self.current.is_keyword("OR"):
            token = self.advance()
            left = ast.BinaryOp("or", left, self.parse_and(), token.position)
        return left

    def parse_and(self) -> ast.Expression:
        left = self.parse_not()
        while self.current.is_keyword("AND"):
            token = self.advance()
            left = ast.BinaryOp("and", left, self.parse_not(), token.position)
        return left

    def parse_not(self) -> ast.Expression:
        if self.current.is_keyword("NOT"):
            token = self.advance()
            return ast.UnaryOp("not", self.parse_not(), token.position)
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expression:
        left = self.parse_additive()
        while True:
            token = self.current
            if token.type is TokenType.OPERATOR and token.text in _COMPARISON_OPS:
                self.advance()
                op = {"==": "=", "!=": "<>"}.get(token.text, token.text)
                right = self.parse_additive()
                left = ast.BinaryOp(op, left, right, token.position)
                continue
            negated = False
            lookahead = token
            if token.is_keyword("NOT") and self.peek().is_keyword(
                    "IN", "BETWEEN", "LIKE", "ILIKE"):
                self.advance()
                negated = True
                lookahead = self.current
            if lookahead.is_keyword("IS"):
                self.advance()
                is_negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = ast.IsNull(left, is_negated, lookahead.position)
                continue
            if lookahead.is_keyword("IN"):
                self.advance()
                self.expect_operator("(")
                if self.current.is_keyword("SELECT", "WITH"):
                    subquery = self.parse_select_statement()
                    self.expect_operator(")")
                    left = ast.InSubquery(left, subquery, negated, lookahead.position)
                else:
                    items = []
                    while True:
                        items.append(self.parse_expression())
                        if not self.accept_operator(","):
                            break
                    self.expect_operator(")")
                    left = ast.InList(left, items, negated, lookahead.position)
                continue
            if lookahead.is_keyword("BETWEEN"):
                self.advance()
                low = self.parse_additive()
                self.expect_keyword("AND")
                high = self.parse_additive()
                left = ast.Between(left, low, high, negated, lookahead.position)
                continue
            if lookahead.is_keyword("LIKE", "ILIKE"):
                case_insensitive = lookahead.text == "ILIKE"
                self.advance()
                pattern = self.parse_additive()
                escape = None
                if self.current.is_keyword("ESCAPE"):
                    self.advance()
                    escape = self.parse_additive()
                left = ast.LikeExpr(left, pattern, negated, case_insensitive,
                                    lookahead.position, escape=escape)
                continue
            if negated:
                raise self.error("Expected IN, BETWEEN, or LIKE after NOT")
            return left

    def parse_additive(self) -> ast.Expression:
        left = self.parse_multiplicative()
        while self.current.is_operator("+", "-", "||"):
            token = self.advance()
            op = {"+": "+", "-": "-", "||": "concat"}[token.text]
            left = ast.BinaryOp(op, left, self.parse_multiplicative(), token.position)
        return left

    def parse_multiplicative(self) -> ast.Expression:
        left = self.parse_unary()
        while self.current.is_operator("*", "/", "%"):
            token = self.advance()
            left = ast.BinaryOp(token.text, left, self.parse_unary(), token.position)
        return left

    def parse_unary(self) -> ast.Expression:
        token = self.current
        if token.is_operator("-"):
            self.advance()
            return ast.UnaryOp("-", self.parse_unary(), token.position)
        if token.is_operator("+"):
            self.advance()
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expression:
        expression = self.parse_primary()
        while self.current.is_operator("::"):
            token = self.advance()
            type_name = self.parse_type_name()
            expression = ast.CastExpr(expression, type_name, token.position)
        return expression

    def parse_primary(self) -> ast.Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(_parse_number(token.text), token.position)
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.text, token.position)
        if token.type is TokenType.PARAMETER:
            self.advance()
            name = None if token.text == "?" else token.text[1:]
            self._parameter_styles.add("qmark" if name is None else "named")
            if len(self._parameter_styles) > 1:
                raise ParserError(
                    "Cannot mix '?' and ':name' parameter styles in one "
                    "SQL string", token.position)
            parameter = ast.Parameter(self._parameter_count, token.position,
                                      name=name)
            self._parameter_count += 1
            return parameter
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None, token.position)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True, token.position)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False, token.position)
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_keyword("CAST"):
            self.advance()
            self.expect_operator("(")
            operand = self.parse_expression()
            self.expect_keyword("AS")
            type_name = self.parse_type_name()
            self.expect_operator(")")
            return ast.CastExpr(operand, type_name, token.position)
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_operator("(")
            subquery = self.parse_select_statement()
            self.expect_operator(")")
            return ast.ExistsExpr(subquery, False, token.position)
        if token.is_operator("*"):
            self.advance()
            return ast.Star(None, token.position)
        if token.is_operator("("):
            self.advance()
            if self.current.is_keyword("SELECT", "WITH"):
                subquery = self.parse_select_statement()
                self.expect_operator(")")
                return ast.ScalarSubquery(subquery, token.position)
            expression = self.parse_expression()
            self.expect_operator(")")
            return expression
        if token.type is TokenType.IDENTIFIER:
            return self.parse_identifier_expression()
        # Soft keywords (FIRST, LAST, ...) may still name functions/columns.
        if token.type is TokenType.KEYWORD and token.text in (
                "FIRST", "LAST", "KEY", "HEADER", "DELIMITER", "REPLACE",
                "LEFT", "RIGHT"):
            token = Token(TokenType.IDENTIFIER, token.text.lower(),
                          token.position)
            self.tokens[self.index] = token
            return self.parse_identifier_expression()
        raise self.error("Expected an expression")

    def parse_identifier_expression(self) -> ast.Expression:
        token = self.advance()
        parts = [token.text]
        # Function call?
        if self.current.is_operator("(") and len(parts) == 1:
            self.advance()
            distinct = bool(self.accept_keyword("DISTINCT"))
            args: List[ast.Expression] = []
            if not self.current.is_operator(")"):
                while True:
                    if self.current.is_operator("*"):
                        star = self.advance()
                        args.append(ast.Star(None, star.position))
                    else:
                        args.append(self.parse_expression())
                    if not self.accept_operator(","):
                        break
            self.expect_operator(")")
            if self.current.is_keyword("OVER"):
                if distinct:
                    raise self.error("DISTINCT is not supported in window "
                                     "functions")
                return self.parse_over_clause(token, args)
            return ast.FunctionCall(token.text, args, distinct, token.position)
        # Dotted path: table.column or table.*
        while self.current.is_operator("."):
            self.advance()
            if self.current.is_operator("*"):
                self.advance()
                return ast.Star(parts[-1], token.position)
            parts.append(self.expect_identifier("column name"))
        return ast.ColumnRef(parts, token.position)

    def parse_over_clause(self, function_token: Token,
                          args: List[ast.Expression]) -> ast.Expression:
        """``OVER (PARTITION BY ... ORDER BY ...)`` after a function call."""
        self.expect_keyword("OVER")
        self.expect_operator("(")
        partition_by: List[ast.Expression] = []
        if self.accept_keyword("PARTITION"):
            self.expect_keyword("BY")
            while True:
                partition_by.append(self.parse_expression())
                if not self.accept_operator(","):
                    break
        order_by = self.parse_order_by()
        self.expect_operator(")")
        return ast.WindowExpr(function_token.text, args, partition_by,
                              order_by, function_token.position)

    def parse_case(self) -> ast.Expression:
        token = self.expect_keyword("CASE")
        operand = None
        if not self.current.is_keyword("WHEN"):
            operand = self.parse_expression()
        whens = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((condition, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expression()
        self.expect_keyword("END")
        return ast.Case(operand, whens, else_result, token.position)


def _parse_number(text: str):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
