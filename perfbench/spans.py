"""Parent-linked spans around the public functions of each deltafield module.

The wrappers are installed from outside the library: every namespace of the
package that holds a traced function gets the wrapper (``solver`` imports
``energy`` and friends by name, so patching ``deltafield.functional`` alone
would miss every solver call), and ``RadialGrid`` methods are patched on the
class.  Spans are kept in memory and reduced to per-layer figures by
``Tracer.layer_stats``.  ``uninstall`` puts every original object back.
"""

import functools
import sys
import time

# Traced functions, by module.  Each is reported as "<module>.<function>".
FUNCTIONS = {
    "cli": ("parse_config", "main"),
    "solver": ("scalar_ground_state", "initial_path", "newton_refine", "mountain_pass"),
    "functional": (
        "energy",
        "gradient_vector",
        "gradient_norm",
        "riesz_representative",
        "hessian_blocks",
        "arrow_solve",
        "verify",
    ),
    "field": ("load_profile", "save_profile"),
    "nonlinearity": ("G_eval", "g_signed", "dg_signed"),
    "greens": ("green_value", "xi"),
}

# RadialGrid methods patched on the class, with the layer name they report.
GRID_METHODS = {
    "__init__": "field.RadialGrid",
    "green": "field.green",
    "nodal_at_gauss": "field.nodal_at_gauss",
    "scatter_to_nodes": "field.scatter_to_nodes",
    "mass_inner": "field.mass_inner",
}

MARK = "__perfbench_original__"


def layer_names():
    """Every traced layer name, in report order."""
    names = []
    for mod, funcs in FUNCTIONS.items():
        if mod == "field":
            names.extend(GRID_METHODS.values())
        names.extend("%s.%s" % (mod, f) for f in funcs)
    return names


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "deltafield" or name.startswith("deltafield."))
    ]


def patched_objects():
    """Names in the package (and RadialGrid attributes) that hold a wrapper."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append("%s.%s" % (mod.__name__, attr))
    field = sys.modules.get("deltafield.field")
    if field is not None:
        for attr, val in vars(field.RadialGrid).items():
            if hasattr(val, MARK):
                found.append("RadialGrid.%s" % attr)
    return found


class Tracer:
    """Records one span per call of a wrapped function.

    A span is [name, parent index, start, end, ok, outermost]: ``ok`` is False
    when the call raised, ``outermost`` is False when a span of the same name
    is already open (so inclusive time is not counted twice).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = open_.get(name, 0)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
                span[4] = True
                return out
            finally:
                span[3] = clock()
                open_[name] = depth
                stack.pop()

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        """Patch every namespace of the (already imported) package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import deltafield.cli  # noqa: F401  (loads every traced module)

        modules = _package_modules()
        for mod_name, funcs in FUNCTIONS.items():
            home = sys.modules["deltafield." + mod_name]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(orig, "%s.%s" % (mod_name, fname))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        grid_cls = sys.modules["deltafield.field"].RadialGrid
        for meth, name in GRID_METHODS.items():
            orig = grid_cls.__dict__[meth]
            self._restore.append((grid_cls, meth, orig))
            setattr(grid_cls, meth, self._wrap(orig, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_stats(self):
        """{name: {calls, busy_s, self_s, ok, kernel_children}} over all spans.

        busy_s is inclusive time of outermost spans; self_s subtracts the time
        covered by child spans.  ``kernel_children`` counts spans that have a
        ``greens.green_value`` child, which is how a ``field.green`` cache
        miss shows (a hit evaluates no kernel).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        evaluates_kernel = [False] * len(spans)
        for name, parent, t0, t1, _ok, _outer in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name == "greens.green_value":
                    evaluates_kernel[parent] = True
        stats = {}
        for i, (name, _parent, t0, t1, ok, outer) in enumerate(spans):
            s = stats.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "ok": 0, "kernel_children": 0}
            )
            s["calls"] += 1
            if outer:
                s["busy_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child_time[i]
            s["ok"] += bool(ok)
            s["kernel_children"] += evaluates_kernel[i]
        return stats
