import numpy as np
import pytest


class ConstantRng:
    """Stand-in stream returning fixed values; lets tests pin beta or the
    normal draw exactly (including values like 1.0 that a real [0,1)
    stream never produces)."""

    def __init__(self, uniform_value=0.5, normal_value=0.0, integer_value=0):
        self.uniform_value = uniform_value
        self.normal_value = normal_value
        self.integer_value = integer_value

    def uniform(self, size=None):
        if size is None:
            return float(self.uniform_value)
        return np.full(size, float(self.uniform_value))

    def normal(self, size=None):
        if size is None:
            return float(self.normal_value)
        return np.full(size, float(self.normal_value))

    def integers(self, low, high, size=None):
        value = np.minimum(np.maximum(self.integer_value, low), np.asarray(high) - 1)
        if size is not None:
            return np.full(size, int(value))
        return value.astype(int) if np.ndim(value) else int(value)


def _bounds(low, high):
    """Integer-draw bounds in a form that compares with ==, arrays included."""
    return np.asarray(low).tolist(), np.asarray(high).tolist()


class RecordingRng:
    """Wraps a real stream and keeps a tape of every draw: its kind, its
    size, the bounds of an integer draw, and the values drawn."""

    def __init__(self, inner):
        self.inner = inner
        self.tape = []

    def _record(self, kind, size, bounds, value):
        stored = value if np.isscalar(value) else np.array(value, copy=True)
        self.tape.append((kind, size, bounds, stored))
        return value

    def uniform(self, size=None):
        return self._record("uniform", size, None, self.inner.uniform(size))

    def normal(self, size=None):
        return self._record("normal", size, None, self.inner.normal(size))

    def integers(self, low, high, size=None):
        return self._record("integers", size, _bounds(low, high),
                            self.inner.integers(low, high, size))


class ReplayRng:
    """Plays a RecordingRng tape back, checking the call sequence matches:
    kind, size and integer bounds of every call."""

    def __init__(self, tape):
        self._tape = list(tape)
        self._pos = 0

    def _next(self, kind, size, bounds=None):
        call = f"{kind}(size={size}, bounds={bounds})"
        if self._pos >= len(self._tape):
            raise AssertionError(f"tape exhausted at call {call}")
        got_kind, got_size, got_bounds, value = self._tape[self._pos]
        assert (got_kind, got_size, got_bounds) == (kind, size, bounds), (
            f"call {self._pos}: expected {got_kind}(size={got_size}, bounds={got_bounds}), "
            f"replayed {call}"
        )
        self._pos += 1
        return value if np.isscalar(value) else np.array(value, copy=True)

    def uniform(self, size=None):
        return self._next("uniform", size)

    def normal(self, size=None):
        return self._next("normal", size)

    def integers(self, low, high, size=None):
        return self._next("integers", size, _bounds(low, high))

    def assert_exhausted(self):
        assert self._pos == len(self._tape), (
            f"{len(self._tape) - self._pos} recorded draws were never replayed"
        )


@pytest.fixture
def constant_rng():
    return ConstantRng


class InlinePool:
    """The harness's process pool, run in this process so that patched
    module attributes are seen and calls can be counted."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_pool(monkeypatch):
    import litefwa.harness

    monkeypatch.setattr(litefwa.harness, "ProcessPoolExecutor", InlinePool)
