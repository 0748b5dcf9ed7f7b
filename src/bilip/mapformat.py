"""Canonical text format for map expressions.

A map expression serializes to a single line of nested constructor
calls with keyword arguments, e.g.::

    disk_replication(map=twist(profile=cubic(knots=[0,0.55,1],...),
                               plane=[0,1], dim=2))

Numbers are written with 17 significant digits so float64 values
round-trip exactly; the emitted argument order is fixed, making the
format canonical: equal expressions serialize to equal strings.

No constructor is named here. Every node class declares its
constructor name (``tag``) and its ordered ``(keyword, attribute)``
pairs (``fields``), as described in :mod:`bilip.maps`, and both the
writer and the parser read only those declarations.
"""

import inspect
import re
from operator import attrgetter

import numpy as np

from .errors import MapFormatError
from . import maps as M
from . import pl as plmod
from .profiles import CubicProfile


def _fmt_num(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _fmt_value(v):
    if v is None:
        return "none"
    if hasattr(type(v), "tag"):
        return map_to_text(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    return _fmt_num(v)


def map_to_text(m):
    """Serialize a map expression to its canonical one-line text.

    Fields are written in declared order; a field whose value is None
    is left out.
    """
    cls = type(m)
    if "tag" not in vars(cls):
        raise MapFormatError(f"cannot serialize {cls.__name__}")
    values = ((key, attrgetter(attr)(m)) for key, attr in cls.fields)
    body = ",".join(f"{key}={_fmt_value(v)}" for key, v in values if v is not None)
    return f"{cls.tag}({body})"


# =====================================================================
# Parsing
# =====================================================================

def _constructors(roots):
    """Tag -> (fields, constructor, its parameters) for every class
    under ``roots`` that declares its own tag."""
    classes = list(roots)
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    table = {}
    for cls in classes:
        if "tag" in vars(cls):
            make = getattr(cls, "from_fields", cls)
            table[cls.tag] = (cls.fields, make,
                              list(inspect.signature(make).parameters.values()))
    return table


_CONSTRUCTORS = _constructors((M.MapExpr, M.SphereMap, M.DiskMap, M.SpiralProfile,
                               CubicProfile, plmod.PLMap))


def _build(name, kw):
    """Call the constructor tagged ``name`` with its declared fields in
    order; a missing keyword takes the constructor's default. A value
    the constructor refuses (a TypeError or ValueError, the library's own
    value errors included) is a format error that names the node."""
    if name not in _CONSTRUCTORS:
        raise MapFormatError(f"unknown constructor {name!r}")
    fields, make, params = _CONSTRUCTORS[name]
    args = []
    for (key, _), param in zip(fields, params):
        if key in kw:
            args.append(kw[key])
        elif param.default is not param.empty:
            args.append(param.default)
        else:
            raise MapFormatError(f"{name} needs argument {key!r}")
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{name}: {exc}") from exc


_MAX_NESTING = 100  # deeper text would exhaust the stack of the recursive parser or writer

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[-+]?[0-9][^,()\[\]\s]*|[(),=\[\]])")


class _Parser:
    def __init__(self, text):
        self.tokens = []
        pos = 0
        while pos < len(text):
            mobj = _TOKEN.match(text, pos)
            if mobj is None:
                if text[pos:].strip():
                    raise MapFormatError(f"bad token at {text[pos:pos + 20]!r}")
                break
            self.tokens.append(mobj.group(1))
            pos = mobj.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise MapFormatError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise MapFormatError(f"expected {tok!r}, got {got!r}")

    def parse_value(self):
        tok = self.peek()
        if tok == "[":
            return self.parse_list()
        if re.match(r"^[A-Za-z_]", tok or ""):
            name = self.next()
            if self.peek() == "(":
                return self.parse_call(name)
            if name == "true":
                return True
            if name == "false":
                return False
            if name == "none":
                return None
            raise MapFormatError(f"unknown bare word {name!r}")
        tok = self.next()
        try:
            # -0 is how the writer spells the float -0.0
            if re.fullmatch(r"[-+]?[0-9]+", tok) and tok != "-0":
                return int(tok)
            return float(tok)
        except ValueError as exc:
            raise MapFormatError(f"bad number {tok!r}") from exc

    def parse_list(self):
        self.expect("[")
        items = []
        if self.peek() == "]":
            self.next()
            return items
        while True:
            items.append(self.parse_value())
            tok = self.next()
            if tok == "]":
                return items
            if tok != ",":
                raise MapFormatError(f"expected ',' or ']' in list, got {tok!r}")

    def parse_call(self, name):
        self.expect("(")
        kwargs = {}
        if self.peek() == ")":
            self.next()
        else:
            while True:
                key = self.next()
                self.expect("=")
                kwargs[key] = self.parse_value()
                tok = self.next()
                if tok == ")":
                    break
                if tok != ",":
                    raise MapFormatError(f"expected ',' or ')', got {tok!r}")
        return _build(name, kwargs)


def parse_map(text, expect=M.MapExpr):
    """Parse canonical map text back into a node of class ``expect``
    (a map expression unless told otherwise, e.g. ``pl.PLMap``)."""
    parser = _Parser(text)
    depth = np.cumsum([(t in ("(", "[")) - (t in (")", "]")) for t in parser.tokens])
    if depth.max(initial=0) > _MAX_NESTING:
        raise MapFormatError(f"map text nests calls and lists over {_MAX_NESTING} deep")
    name = parser.next()
    value = parser.parse_call(name)
    if parser.peek() is not None:
        raise MapFormatError(f"trailing input after expression: {parser.peek()!r}")
    if not isinstance(value, expect):
        raise MapFormatError(f"{name!r} is not a {expect.__name__}")
    return value


def load_map(path, expect=M.MapExpr):
    """Read a canonical map text file (comments with # allowed) holding
    a node of class ``expect``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MapFormatError(f"no map expression found in {path}")
    return parse_map(" ".join(lines), expect)


def save_map(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(map_to_text(m) + "\n")
