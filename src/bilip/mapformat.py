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

The parser splits the text into tokens in one pass and reads them
with one recursive reader. A number starts with a digit after an
optional sign; it is an int when all digits (``-0`` is the float -0.0).
An undeclared or repeated keyword, any character outside the grammar
and nesting over 100 deep are format errors.
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


def _build(name, args):
    """Call the constructor tagged ``name`` with its declared fields in
    order, given ``args``, the (keyword, value) pairs of the text; a
    missing keyword takes the constructor's default, and an undeclared
    or repeated one is refused. A value the constructor refuses (a
    TypeError or ValueError, the library's own value errors included)
    is a format error that names the node."""
    if name not in _CONSTRUCTORS:
        raise MapFormatError(f"unknown constructor {name!r}")
    fields, make, params = _CONSTRUCTORS[name]
    kw = {}
    for key, value in args:
        if key in kw:
            raise MapFormatError(f"{name} repeats argument {key!r}")
        kw[key] = value
    for key in kw.keys() - {key for key, _ in fields}:
        raise MapFormatError(f"{name} has no argument {key!r}")
    for (key, _), param in zip(fields, params):
        if key not in kw and param.default is param.empty:
            raise MapFormatError(f"{name} needs argument {key!r}")
    try:
        return make(*(kw.get(key, param.default) for (key, _), param in zip(fields, params)))
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{name}: {exc}") from exc


_MAX_NESTING = 100  # deeper text would exhaust the stack of the recursive parser or writer

# a name, a number, a delimiter, or any other character, which no rule reads
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[-+]?[0-9][^,()\[\]\s]*|[(),=\[\]]|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")
_NUMBER_START = frozenset("+-0123456789")
_INT = re.compile(r"[-+]?[0-9]+")
_WORDS = {"true": True, "false": False, "none": None}
_DEPTH = np.zeros(256, dtype=np.int64)  # nesting step of each byte
_DEPTH[[ord("("), ord("[")]], _DEPTH[[ord(")"), ord("]")]] = 1, -1


def _refuse(tok, wanted):
    """Refuse the token ``tok`` where ``wanted`` belongs."""
    raise MapFormatError(f"expected {wanted}, got {tok!r}" if tok
                         else "unexpected end of input")


def _read(toks, i):
    """The value whose first token is ``toks[i]`` and the index of the
    token after it. ``toks`` ends in an empty token, which no value
    reads past."""
    tok = toks[i]
    if tok[:1] in _NUMBER_START:
        try:
            # -0 is how the writer spells the float -0.0
            return int(tok) if _INT.fullmatch(tok) and tok != "-0" else float(tok), i + 1
        except ValueError as exc:
            raise MapFormatError(f"bad number {tok!r}") from exc
    if tok == "[":
        return _sequence(toks, i + 1, "]", _read)
    if tok[:1] in _NAME_START:
        if toks[i + 1] == "(":
            args, i = _sequence(toks, i + 2, ")", _keyword)
            return _build(tok, args), i
        if tok in _WORDS:
            return _WORDS[tok], i + 1
        raise MapFormatError(f"unknown bare word {tok!r}")
    _refuse(tok, "a value")


def _keyword(toks, i):
    """The (keyword, value) pair whose keyword is ``toks[i]``."""
    if toks[i][:1] not in _NAME_START:
        _refuse(toks[i], "a keyword")
    if toks[i + 1] != "=":
        _refuse(toks[i + 1], "'='")
    value, j = _read(toks, i + 2)
    return (toks[i], value), j


def _sequence(toks, i, close, item):
    """The items that ``item`` reads from ``toks[i]`` on, separated by
    commas up to the token ``close``, and the index after ``close``."""
    items = []
    while toks[i] != close:
        if items:
            if toks[i] != ",":
                _refuse(toks[i], f"',' or {close!r}")
            i += 1
        value, i = item(toks, i)
        items.append(value)
    return items, i + 1


def parse_map(text, expect=M.MapExpr):
    """Parse canonical map text back into a node of class ``expect``
    (a map expression unless told otherwise, e.g. ``pl.PLMap``)."""
    depth = np.cumsum(_DEPTH[np.frombuffer(text.encode("utf-8", "replace"), np.uint8)])
    if depth.max(initial=0) > _MAX_NESTING:
        raise MapFormatError(f"map text nests calls and lists over {_MAX_NESTING} deep")
    toks = _TOKEN.findall(text) + [""]
    value, i = _read(toks, 0)
    if toks[i]:
        raise MapFormatError(f"trailing input after expression: {toks[i]!r}")
    if not isinstance(value, expect):
        raise MapFormatError(f"{toks[0]!r} is not a {expect.__name__}")
    return value


def load_map(path, expect=M.MapExpr):
    """Read a canonical map text file (comments with # allowed) holding
    a node of class ``expect``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()[:1] not in ("", "#")]
    if not lines:
        raise MapFormatError(f"no map expression found in {path}")
    return parse_map(" ".join(lines), expect)


def save_map(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(map_to_text(m) + "\n")
