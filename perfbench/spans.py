"""In-memory spans, self-time arithmetic and reversible wrapping.

The traced pass wraps public callables of `blockmae` from outside the
package.  Each wrapper opens a span (name, start, end, parent, step id)
in a `Recorder`; a `Patcher` installs the wrappers and puts every
original object back afterwards.  Nothing here changes the arithmetic
of a wrapped call: wrappers only read the clock and pass arguments and
results through.
"""

import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "step")

    def __init__(self, name, start, end, parent, step):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.step = step

    @property
    def duration(self):
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.step]


class Recorder:
    """Spans of one thread, kept in memory until the pass ends.

    `step` is the id of the training step the recorder is inside, or
    None; every span records the step id current when it opened.
    `counts` holds counters recorded at the same boundaries as spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.step = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.step))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `after(args, kwargs, result)` may add counts."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    children = {}
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            clipped = (max(sp.start, parent.start), min(sp.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(sp.parent, []).append(clipped)
    return [sp.duration - _covered(children.get(i, ())) for i, sp in enumerate(spans)]


class Patcher:
    """Sets attributes and restores the saved originals, newest first."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        # Read the class dict, not getattr, so a plain function is saved
        # and put back rather than a bound method.
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, make):
        """Replace owner.attr with make(original)."""
        self.set(owner, attr, make(owner.__dict__[attr]))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def namespace_snapshot(modules):
    """Every name of each module and of each class it defines, by object."""
    snap = {}
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            snap[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    snap[(mod.__name__, f"{name}.{attr}")] = member
    return snap


_MISSING = object()


def changed_names(before, modules):
    """Names whose object differs from `before`, or that appeared or vanished."""
    after = namespace_snapshot(modules)
    keys = set(before) | set(after)
    return sorted(f"{m}.{n}" for m, n in keys
                  if before.get((m, n), _MISSING) is not after.get((m, n), _MISSING))
