"""Span recorder for the traced run, kept outside the program under test.

`Tracer` wraps every public function of every module of a package, and
every public plain method of the classes those modules define, with a
span: name, start, end, parent span and config id, plus the tracemalloc
peak reached inside it. Each wrapper is placed in every module namespace
of the package that holds the original, so calls through
`from .svd import full_svd` are traced too, and functions added or
renamed later are picked up without editing this file. Spans stay in
memory; the caller writes them out once at the end.

A span's name is `<layer>.<function>`; the layer is the module name,
except that `functions` (function evaluation) belongs to `grids`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
import time
import tracemalloc
from collections import defaultdict

LAYER_OF_MODULE = {"functions": "grids"}
DIGESTED = "svd.full_svd"
DIGEST_SPAN = "trace.digest"
DECOMPOSITION_SPECTRA = ("mode_spectra", "spectra")


class Span:
    __slots__ = ("id", "name", "parent", "config", "start", "end", "base", "peak",
                 "tensor_bytes", "attrs")

    def as_list(self) -> list:
        return [self.id, self.name, self.parent, self.config, self.start, self.end,
                self.peak - self.base, self.tensor_bytes, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls()
        (span.id, span.name, span.parent, span.config, span.start, span.end,
         extra, span.tensor_bytes, span.attrs) = row
        span.base, span.peak = 0, extra
        return span


class Recorder:
    """Properly nested spans of one thread, with per-span tracemalloc peaks."""

    def __init__(self):
        self.spans = []
        self.config = None
        self._stack = []

    def open(self, name: str, attrs=None) -> Span:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, peak)
        tracemalloc.reset_peak()
        span = Span()
        span.id = len(self.spans)
        span.name = name
        span.parent = self._stack[-1].id if self._stack else None
        span.config = self.config
        span.base = span.peak = current
        span.tensor_bytes = 0
        span.attrs = attrs
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, span.peak)


def _layer(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return LAYER_OF_MODULE.get(short, short)


def public_callables(package) -> list:
    """(span name, owner class or None, attribute, function) for the package."""
    found = []
    names = set()
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        layer = _layer(module.__name__)
        members = sorted(vars(module).items())
        for attr, obj in members:
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{layer}.{attr}", None, attr, obj))
                names.add(f"{layer}.{attr}")
        for attr, cls in members:
            if attr.startswith("_") or not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for method, fn in sorted(vars(cls).items()):
                if method.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{method}"
                if name in names:
                    name = f"{layer}.{cls.__name__}.{method}"
                names.add(name)
                found.append((name, cls, method, fn))
    return found


def _tensor_bytes(objs, tensor_type) -> int:
    for obj in objs:
        if isinstance(obj, tensor_type):
            return int(obj.values.nbytes)
        inner = getattr(obj, "tensor", None)
        if isinstance(inner, tensor_type):
            return int(inner.values.nbytes)
    return 0


def _decomposition_attrs(result):
    """Kept ranks and computed singular triplets of a returned decomposition."""
    for field in DECOMPOSITION_SPECTRA:
        spectra = getattr(result, field, None)
        if spectra is not None and hasattr(result, "ranks"):
            return {"kept": int(sum(result.ranks)),
                    "computed": int(sum(len(s) for s in spectra if s is not None))}
    return None


class Tracer:
    """Installs span wrappers into a package for the length of a `traced` block."""

    def __init__(self, package, tensor_type):
        self.recorder = Recorder()
        self.package = package
        self.tensor_type = tensor_type
        self.targets = public_callables(package)
        self._wrappers = {fn: self._wrap(name, fn) for name, _, _, fn in self.targets}
        self._undo = []

    def _digest(self, args, kwargs):
        mat = args[0] if args else next(iter(kwargs.values()), None)
        if not hasattr(mat, "flags"):
            return None
        rec = self.recorder
        span = rec.open(DIGEST_SPAN)
        try:
            data = memoryview(mat).cast("B") if mat.flags.c_contiguous else mat.tobytes()
            digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        finally:
            rec.close(span)
        return {"shape": list(mat.shape), "digest": digest}

    def _wrap(self, name: str, fn):
        rec = self.recorder
        tensor_type = self.tensor_type
        digested = name == DIGESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = self._digest(args, kwargs) if digested else None
            span = rec.open(name, attrs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.close(span)
                span.tensor_bytes = _tensor_bytes(args + (result,), tensor_type)
                extra = _decomposition_attrs(result)
                if extra:
                    span.attrs = extra

        return traced

    def _install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")]
        for _, owner, attr, fn in self.targets:
            if owner is not None:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrappers[fn])
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced(self, config_id):
        """Trace every call into the package, and its memory, inside the block."""
        self.recorder.config = config_id
        self._install()
        tracemalloc.start()
        try:
            yield self.recorder
        finally:
            tracemalloc.stop()
            self._uninstall()
            self.recorder.config = None


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its child spans."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def outermost_decompositions(spans) -> list:
    """Spans that returned a decomposition and are not nested in another one."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if not (s.attrs and "kept" in s.attrs):
            continue
        parent = by_id.get(s.parent)
        nested = False
        while parent is not None:
            if parent.attrs and "kept" in parent.attrs:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            out.append(s)
    return out


def svd_counts(spans) -> dict:
    """Computed operation count, bytes and repeated inputs of the SVD calls.

    For an r x c input with k = min(r, c) and l = max(r, c), a thin SVD
    is counted as 6 l k^2 + 20 k^3 operations and as 8 (r c + r k + k +
    k c) bytes read and written. Both are computed from shapes, not
    measured. A call repeats when a matrix of the same shape and content
    digest was factorized earlier in the same config.
    """
    ops = nbytes = repeats = calls = 0
    seen = set()
    for s in spans:
        if s.name != DIGESTED or not s.attrs or "shape" not in s.attrs:
            continue
        r, c = s.attrs["shape"]
        k, l = min(r, c), max(r, c)
        ops += 6 * l * k * k + 20 * k ** 3
        nbytes += 8 * (r * c + r * k + k + k * c)
        key = (s.config, r, c, s.attrs["digest"])
        repeats += key in seen
        seen.add(key)
        calls += 1
    return {"ops": ops, "bytes": nbytes, "repeats": repeats, "calls": calls}


def peak_ratio(spans, name: str) -> float:
    """Tracemalloc peak above the span's start, over the tensor's bytes.

    Per config the last span of that name counts, which is the call whose
    result the experiment reports (a rank probe before it does not), and
    the largest ratio over configs is returned.
    """
    last = {s.config: (s.peak - s.base) / s.tensor_bytes
            for s in spans if s.name == name and s.tensor_bytes}
    return max(last.values(), default=0.0)
