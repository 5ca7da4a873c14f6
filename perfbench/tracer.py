"""In-memory span tracer for the traced benchmark run.

The tracer wraps callables at module (or class) attributes, which is where
the package's layers look each other up at call time, records one span per
call and puts every original back on ``restore``. Nothing is patched until
``wrap`` is called, so an untraced run never pays for it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    # True when a span of the same name is already open above this one; such
    # spans are left out of busy totals so that nesting is not counted twice.
    nested: bool
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i].name == name for i in self._stack)
        self.spans.append(Span(name, self.clock(), parent, nested))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration_s

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        on_result: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` may be a function of the call's arguments; ``on_result`` sees
        each result and may add to ``counts``.
        """
        original = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args: object, **kwargs: object) -> object:
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_everywhere(
        self,
        modules: list[ModuleType],
        home: ModuleType,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        on_result: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> None:
        """Wrap ``home.attr`` in every module that imported it by name."""
        original = getattr(home, attr)
        for module in modules:
            if vars(module).get(attr) is original:
                self.wrap(module, attr, name, on_result)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def busy_ms(self) -> Counter:
        """Per span name, the wall time of its outermost spans, in ms."""
        out: Counter = Counter()
        for s in self.spans:
            if not s.nested:
                out[s.name] += s.duration_s * 1000.0
        return out

    def self_ms(self) -> Counter:
        """Per span name, span time minus time in its child spans, in ms."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.self_s * 1000.0
        return out

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def top_level_s(self) -> float:
        """Summed duration of the spans opened with no span around them."""
        return sum(s.duration_s for s in self.spans if s.parent is None)
