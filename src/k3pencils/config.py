"""Line-oriented text format for curve graphs and classes.

The format is deliberately small.  Three directives, one per line:

    curve <name> [self=<int>]
    edge <a> <b> [mult=<int>]
    class <name> = +<curve> -<curve> ...

Blank lines and anything after "#" are skipped.  Class terms must be
signed; repeating a term accumulates its coefficient, so "+M1 +M1 +M1"
means 3*M1.  A class may be extended by a later line with the same
name.  Errors carry the 1-based line number of the offending line.
"""

from .lattices import CurveGraph


class ConfigError(ValueError):
    pass


class ConfigFile:
    """Parsed contents: a curve graph and named classes."""

    def __init__(self):
        self.graph = CurveGraph()
        self.classes = {}


def _int_arg(token, key, lineno):
    prefix = key + "="
    if not token.startswith(prefix):
        raise ConfigError("line %d: expected %s<int>, got %r"
                          % (lineno, prefix, token))
    try:
        return int(token[len(prefix):])
    except ValueError:
        raise ConfigError("line %d: bad integer in %r" % (lineno, token))


def _parse_curve(cfg, args, lineno):
    if not args or len(args) > 2:
        raise ConfigError("line %d: usage: curve <name> [self=<int>]"
                          % lineno)
    self_int = -2
    if len(args) == 2:
        self_int = _int_arg(args[1], "self", lineno)
    try:
        cfg.graph.add_curve(args[0], self_int)
    except ValueError as exc:
        raise ConfigError("line %d: %s" % (lineno, exc))


def _parse_edge(cfg, args, lineno):
    if len(args) not in (2, 3):
        raise ConfigError("line %d: usage: edge <a> <b> [mult=<int>]"
                          % lineno)
    mult = 1
    if len(args) == 3:
        mult = _int_arg(args[2], "mult", lineno)
    try:
        cfg.graph.add_edge(args[0], args[1], mult)
    except ValueError as exc:
        raise ConfigError("line %d: %s" % (lineno, exc))


def _parse_class(cfg, args, lineno):
    if len(args) < 3 or args[1] != "=":
        raise ConfigError("line %d: usage: class <name> = +<curve> ..."
                          % lineno)
    name = args[0]
    coeffs = cfg.classes.setdefault(name, {})
    for term in args[2:]:
        sign = {"+": 1, "-": -1}.get(term[0])
        if sign is None or len(term) < 2:
            raise ConfigError("line %d: class term %r needs a sign"
                              % (lineno, term))
        curve = term[1:]
        if curve not in cfg.graph.curves:
            raise ConfigError("line %d: unknown curve %r" % (lineno, curve))
        coeffs[curve] = coeffs.get(curve, 0) + sign


_DIRECTIVES = {
    "curve": _parse_curve,
    "edge": _parse_edge,
    "class": _parse_class,
}


def parse_config(text):
    cfg = ConfigFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        handler = _DIRECTIVES.get(parts[0])
        if handler is None:
            raise ConfigError("line %d: unknown directive %r"
                              % (lineno, parts[0]))
        handler(cfg, parts[1:], lineno)
    return cfg


def _term(curve, coeff):
    if coeff == 0:
        # terms that cancel: keeps the curve in the class, as parsed
        return "+%s -%s" % (curve, curve)
    sign = "+" if coeff > 0 else "-"
    return " ".join([sign + curve] * abs(coeff))


def emit_config(cfg):
    """Config text that parses back to an equivalent ConfigFile."""
    lines = []
    for name, s in cfg.graph.curves.items():
        lines.append("curve %s" % name if s == -2
                     else "curve %s self=%d" % (name, s))
    for key in sorted(cfg.graph.edges, key=sorted):
        a, b = sorted(key)
        mult = cfg.graph.edges[key]
        lines.append("edge %s %s" % (a, b) if mult == 1
                     else "edge %s %s mult=%d" % (a, b, mult))
    for name, coeffs in cfg.classes.items():
        terms = [_term(c, k) for c, k in coeffs.items()]
        lines.append("class %s = %s" % (name, " ".join(terms)))
    return "\n".join(lines) + "\n" if lines else ""
