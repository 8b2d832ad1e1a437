"""Tiny arithmetic expression grammar for custom metric charts, with exact derivatives.

Accepted: numeric literals, the variables x and y, pi, + - * / ^ (power),
unary minus, and the calls sin, cos, sinh, cosh, exp.  A string is parsed
through a whitelisted Python AST into an expression tree, so no arbitrary
code can sneak in through a chart definition string.  Trees are nested
tuples ``(op, *operands)`` over float constants and variable names; the
grammar is closed under d/dx and d/dy (``derivative``), with ``log``
entering only through the power rule.  Constants, zeros and ones fold as
the tree is built, so repeated derivatives stay small; a parsed constant that
does not fold to a finite real (``10^400``, ``1/0``) is an ExpressionError, and so is a parsed tree
more than 450 levels deep, or a derived one deeper than ``derivative`` or ``compile_trees`` can recurse.
``compile_trees`` turns several trees into one numpy-vectorized callable
that evaluates each shared subexpression once.
"""

from __future__ import annotations

import ast
import math
import operator
import sys

import numpy as np

__all__ = ["ExpressionError", "Symbolic", "compile_expression", "compile_trees", "derivative", "parse_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh, "exp": np.exp}
_CALLS = {**_FUNCTIONS, "log": np.log}  # log only arises from differentiating a^b
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# Folding applies the same operations the compiled code evaluates, the numpy calls with warnings off.
_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": operator.pow, "neg": operator.neg, **{k: np.errstate(all="ignore")(f) for k, f in _CALLS.items()}}


class ExpressionError(ValueError):
    """The expression uses something outside the documented grammar."""


def _tree(node: ast.AST):
    """The folded expression tree of a parsed node, rejecting anything outside the grammar."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or not abs(node.value) <= sys.float_info.max:
            raise ExpressionError(f"literal {node.value!r} is not a finite number")
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return math.pi
        if node.id not in ("x", "y"):
            raise ExpressionError(f"unknown name {node.id!r}")
        return node.id
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        op, args = _BINOPS[type(node.op)], (_tree(node.left), _tree(node.right))
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ExpressionError(f"unary {type(node.op).__name__} not allowed")
        if isinstance(node.op, ast.UAdd):
            return _tree(node.operand)
        op, args = "neg", (_tree(node.operand),)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sin, cos, sinh, cosh, exp calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError("grammar functions take exactly one argument")
        op, args = node.func.id, (_tree(node.args[0]),)
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed")
    tree = _node(op, *args)
    if isinstance(tree, tuple) and all(isinstance(a, float) for a in args):
        raise ExpressionError(f"constant {op!r} of {', '.join(map(repr, args))} is not a finite real number")
    return tree


def _node(op: str, *args):
    """Build (op, *args), folding constants, zeros and ones.

    Folding never raises: a constant operation that raises or gives a
    non-finite or complex value stays a node, which the parser rejects and a
    derivative evaluates (raising or warning) at call time.  0 * a = 0,
    0 / a = 0 and a^0 = 1 hold symbolically.
    """
    if all(isinstance(a, float) for a in args):
        try:
            value = _APPLY[op](*args)
            if isinstance(value, (float, np.floating)) and math.isfinite(value):
                return float(value)
        except ArithmeticError:
            pass
    a = args[0]
    b = args[1] if len(args) > 1 else None
    if op == "+" and (a == 0.0 or b == 0.0):
        return b if a == 0.0 else a
    if op == "-" and b == 0.0:
        return a
    if op == "-" and a == 0.0:
        return _node("neg", b)
    if op == "*" and (a == 0.0 or b == 0.0):
        return 0.0
    if op == "*" and (a == 1.0 or b == 1.0):
        return b if a == 1.0 else a
    if op == "/" and (a == 0.0 or b == 1.0):
        return a
    if op == "^" and b == 1.0:
        return a
    if op == "^" and b == 0.0:
        return 1.0
    if op == "neg" and isinstance(a, tuple) and a[0] == "neg":
        return a[1]
    return (op, *args)


def _lift(op: str, reflected: bool = False):
    def method(self, other) -> Symbolic:
        b = other.tree if isinstance(other, Symbolic) else float(other)
        return Symbolic(_node(op, b, self.tree) if reflected else _node(op, self.tree, b))
    return method


class Symbolic:
    """A tree whose + - * / and unary minus fold through _node in operand order, so formula text returns its tree."""

    def __init__(self, tree):
        self.tree = tree

    __add__, __radd__, __sub__, __rsub__ = _lift("+"), _lift("+", True), _lift("-"), _lift("-", True)
    __mul__, __rmul__, __truediv__, __rtruediv__ = _lift("*"), _lift("*", True), _lift("/"), _lift("/", True)
    __neg__ = lambda self: Symbolic(_node("neg", self.tree))  # noqa: E731


def parse_expression(source: str):
    """Parse a grammar string into a folded expression tree, at most 450 levels deep."""
    text = source.replace("^", "**").replace("·", "*")
    try:
        tree = _tree(ast.parse(text, mode="eval").body)
    except SyntaxError as exc:
        shown = source if len(source) <= 80 else source[:80] + "…"
        raise ExpressionError(f"cannot parse {shown!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:  # nesting past what CPython's parser or _tree recurse through
        raise ExpressionError("expression nests too deeply to parse") from exc
    depth, level = 0, [tree]
    while level:  # counted level by level, so the count never recurses
        depth += 1
        # compile_trees takes two frames per level on CPython 3.11 (its list comprehension is one), so under the
        # default limit of 1000 frames a chart's fields compile to depth 480 from a pytest test 33 frames deep,
        # and fail at 490; 450 keeps a 400-term metric (its fields 410 deep) and 60 frames of headroom.
        if depth > 450:
            raise ExpressionError("expression nests more than 450 levels deep")
        level = [a for t in level if isinstance(t, tuple) for a in t[1:]]
    return tree


def derivative(tree, var: str):
    """The exact partial derivative of an expression tree with respect to var."""
    try:
        return _derivative(tree, var)
    except RecursionError as exc:  # a derivative of a derivative may nest deeper than any parsed tree
        raise ExpressionError("the derivative nests too deeply to build") from exc


def _derivative(tree, var: str):
    if isinstance(tree, float):
        return 0.0
    if isinstance(tree, str):
        return 1.0 if tree == var else 0.0
    op, a = tree[0], tree[1]
    da = _derivative(a, var)
    if op in ("+", "-"):
        return _node(op, da, _derivative(tree[2], var))
    if op == "*":
        b = tree[2]
        return _node("+", _node("*", da, b), _node("*", a, _derivative(b, var)))
    if op == "/":
        b = tree[2]
        numerator = _node("-", _node("*", da, b), _node("*", a, _derivative(b, var)))
        return _node("/", numerator, _node("^", b, 2.0))
    if op == "^":
        b = tree[2]
        power_rule = _node("*", _node("*", b, _node("^", a, _node("-", b, 1.0))), da)
        exponent_rule = _node("*", _node("*", tree, _node("log", a)), _derivative(b, var))
        return _node("+", power_rule, exponent_rule)
    if op == "neg":
        return _node("neg", da)
    if op == "exp":
        outer = tree
    elif op == "log":
        outer = _node("/", 1.0, a)
    elif op == "cos":
        outer = _node("neg", _node("sin", a))
    else:
        outer = _node({"sin": "cos", "sinh": "cosh", "cosh": "sinh"}[op], a)
    return _node("*", outer, da)


def compile_trees(trees, variables=("x", "y")):
    """One callable of the variables, in order, returning the tuple of every tree's value.

    Each distinct subtree is evaluated once per call.  Constant trees come
    back as Python floats, not broadcast to the argument shape.
    """
    lines: list[str] = []
    # A subtree is looked up by identity, then by its operator and its children's names: a lookup by the tuple
    # itself would hash its whole subtree, so compiling would take time quadratic in the depth.
    by_id: dict[int, str] = {}
    by_key: dict[tuple, str] = {}

    def ref(t) -> str:
        if isinstance(t, float):
            return f"({t!r})"
        if isinstance(t, str):
            return t
        if id(t) not in by_id:
            args = [ref(a) for a in t[1:]]
            key = (t[0], *args)
            if key not in by_key:
                if t[0] in _BINOPS.values():
                    expr = f"{args[0]} {'**' if t[0] == '^' else t[0]} {args[1]}"
                elif t[0] == "neg":
                    expr = f"-{args[0]}"
                else:
                    expr = f"{t[0]}({args[0]})"
                by_key[key] = f"_t{len(by_key)}"
                lines.append(f"    {by_key[key]} = {expr}\n")
            by_id[id(t)] = by_key[key]
        return by_id[id(t)]

    try:
        outputs = ", ".join(ref(t) for t in trees)
    except RecursionError as exc:  # the chart's second derivatives may nest deeper than any parsed tree
        raise ExpressionError("expression nests too deeply to compile") from exc
    source = f"def _evaluate({', '.join(variables)}):\n{''.join(lines)}    return ({outputs},)\n"
    namespace = {"__builtins__": {}, **_CALLS}
    exec(compile(source, "<chart-expression>", "exec"), namespace)
    evaluate = namespace["_evaluate"]
    return lambda *args: evaluate(*(np.asarray(a, dtype=float) for a in args))


def compile_expression(source: str):
    """Compile a grammar string into a vectorized callable of x and y."""
    evaluate = compile_trees((parse_expression(source),))

    def fn(*args):
        out = np.asarray(evaluate(*args)[0], dtype=float)
        # constants must still broadcast to the argument shape
        shape = np.broadcast(*args).shape if args else ()
        if out.ndim == 0 and shape:
            out = np.full(shape, float(out))
        return out

    return fn
