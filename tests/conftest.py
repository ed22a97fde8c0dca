from types import SimpleNamespace

import numpy as np
import pytest

import litefwa.lfwa as lfwa


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


def in_box(space, x):
    """Whether a position, or every row of a batch, lies in ``space``'s closed box."""
    return bool(np.all((space.lower <= x) & (x <= space.upper)))


# The operators lfwa_step calls through the lfwa module, looked up at call time.
LFWA_OPERATORS = ("explosion_intensity", "average_intensity", "explosion_radius",
                  "generate_explosion_sparks", "gaussian_mutation", "map_into_bounds",
                  "select_next_generation")


def traced_step(state, objective, config, rng):
    """One ``lfwa_step`` with its seven operators wrapped for the call.

    Returns the new state and a record of the generation read off the
    operators' arguments and results: ``spark_counts``, ``mean_intensity``,
    ``radii``, the raw and mapped explosion sparks, the Gaussian mutants'
    parent rows (``gaussian_inputs``), raw rows and mapped rows, and the
    ``selected`` candidate indices. Every operator must be called once, so
    an operator the step stops calling through the module fails here.
    ``gaussian_mutation`` draws through a recording stream: each mutant's
    draws open with its parent index, so the parents are the first integer
    draw and every integer draw that follows a normal.
    """
    originals = {name: getattr(lfwa, name) for name in LFWA_OPERATORS}
    calls = {name: [] for name in LFWA_OPERATORS}
    mutation_tape = RecordingRng(rng)

    def recording(name):
        def wrapper(*args):
            if name == "gaussian_mutation":
                args = (*args[:-1], mutation_tape)
            result = originals[name](*args)
            calls[name].append((args, result))
            return result
        return wrapper

    try:
        for name in LFWA_OPERATORS:
            setattr(lfwa, name, recording(name))
        new_state = lfwa.lfwa_step(state, objective, config, rng)
    finally:
        for name, original in originals.items():
            setattr(lfwa, name, original)

    ((_, counts),) = calls["explosion_intensity"]
    ((_, mean_intensity),) = calls["average_intensity"]
    ((_, radii),) = calls["explosion_radius"]
    ((_, raw_sparks),) = calls["generate_explosion_sparks"]
    (((raw, _, _), mapped),) = calls["map_into_bounds"]
    ((_, selected),) = calls["select_next_generation"]
    (((fireworks, count, _), mutants),) = calls["gaussian_mutation"]
    tape = [(kind, value) for kind, _, _, value in mutation_tape.tape]
    parents = [value for i, (kind, value) in enumerate(tape)
               if kind == "integers" and (i == 0 or tape[i - 1][0] == "normal")]
    assert count == config.gaussian_spark_count == len(parents) == len(mutants)
    n = len(raw_sparks)
    assert np.array_equal(raw[n:], mutants)
    return new_state, SimpleNamespace(
        spark_counts=counts,
        mean_intensity=mean_intensity,
        radii=radii,
        explosion_sparks_raw=raw_sparks,
        explosion_sparks_mapped=mapped[:n],
        gaussian_inputs=fireworks[parents],
        gaussian_sparks_raw=raw[n:],
        gaussian_sparks_mapped=mapped[n:],
        selected=selected,
    )
