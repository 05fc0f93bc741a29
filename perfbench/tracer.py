"""In-memory span tracer that wraps the ovlomax package from outside.

``Tracer.install()`` replaces every public function of each traced module,
and every public method (plain, class or static) of the classes defined
there, with a timing wrapper.  Each wrapper is rebound wherever the package
holds a reference: module globals (``study`` imports names from
``estimators``) and function values of module-level dicts (``overlap``
dispatches through one).  ``uninstall()`` puts every original object back.

A span is ``(name_index, start_ns, end_ns, parent_index, raised)``; spans
stay in a list until the caller asks for them.  A span's self time is its
duration minus the durations of its direct children, so self times of all
spans under one root add up to the root's duration.

Properties and dunder methods (dataclass ``__init__``/``__post_init__``
validation) are not wrapped: their time counts as self time of whichever
traced function called them.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("_seeds", "dist_core", "sampling", "estimators", "overlap", "study", "reports", "cli")


class Tracer:
    def __init__(self, package: str = "ovlomax", modules=MODULES, hooks=None,
                 clock=time.perf_counter_ns):
        self.package = package
        self.clock = clock
        self.modules = tuple(modules)
        # qualified name ("study.run_study") -> callable(args, kwargs, result)
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers: dict[int, object] = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        idx = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(qualname)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[me] = (idx, t0, clock(), parent, True)
                stack.pop()
                raise
            spans[me] = (idx, t0, clock(), parent, False)
            stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _targets(self):
        """(layer, name, function) for every public function and
        (class, layer, name, raw attribute) for every public method."""
        funcs, methods = [], []
        for layer in self.modules:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs.append((layer, name, obj))
                elif inspect.isclass(obj):
                    for attr, raw in sorted(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            methods.append((obj, layer, attr, raw))
        return funcs, methods

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        funcs, methods = self._targets()
        for layer, name, fn in funcs:
            self._wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for cls, layer, name, raw in methods:
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, layer, qual))
            else:
                new = self._wrap(raw, layer, qual)
            self._undo.append((cls, name, raw))
            setattr(cls, name, new)
        # rebind every reference the package holds to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                new = self._wrappers.get(id(obj))
                if new is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = self._wrappers.get(id(val))
                        if new is not None:
                            self._undo.append((obj, key, val))
                            obj[key] = new

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: calls, self time (ns) and calls that raised."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _idx, t0, t1, parent, _err in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in self.modules}
        for k, (idx, t0, t1, _parent, err) in enumerate(spans):
            rec = out[self.layer_of[idx]]
            rec["calls"] += 1
            rec["self_ns"] += (t1 - t0) - child_ns[k]
            rec["errors"] += err
        return out

    def root_ns(self) -> int:
        """Total duration of root spans (those with no traced parent)."""
        return sum(t1 - t0 for _i, t0, t1, parent, _e in self.spans if parent < 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,raised\n")
            for k, (idx, t0, t1, parent, err) in enumerate(self.spans):
                fh.write(f"{k},{self.names[idx]},{t0},{t1},{parent},{int(err)}\n")
