"""Independent straight-line transcription of one optimizer generation.

Everything here is recomputed with plain scalar Python (math module, no
vectorized shortcuts) for the 1-d case, consuming random draws from a
recorded tape in the engine's documented order, one call per batch:

  1. one uniform block of shape (sum of counts, 1): the displacement
     betas, firework by firework
  2. per Gaussian mutant: parent index, n, the single dimension swap as
     the scalar draw integers(0, 1), one normal
  3. one uniform block with one beta per violated coordinate, explosion
     sparks first, then mutants (no call when nothing is out of bounds)
  4. selection: the M - 1 partial Fisher-Yates swaps, as one scalar draw
     integers(j, pool) per swap when M - 1 is at most SCALAR_SWAPS_MAX,
     otherwise as one integer draw with low [0, .., M-2]

The tape replay checks the kind, size and integer bounds of every call, so
a change to how draws are batched fails here even when the values agree.
The result is a dictionary of every intermediate quantity, compared by the
tests against what ``conftest.traced_step`` reads off the engine's
operators during the same generation.
"""

import math

from litefwa.core import XI

# The engine draws a shuffle of at most this many swaps as scalar calls.
SCALAR_SWAPS_MAX = 10


def straight_line_generation(fireworks, pbest, core, evaluate, lower, upper, config, rng):
    """One generation for dimension 1, transcribed directly from the update
    rules. ``fireworks``/``pbest`` are lists of (position, fitness) scalar
    pairs, ``core`` one such pair; ``rng`` replays a recorded tape."""
    m = len(fireworks)

    # explosion intensity: ceil(M ** ((f_max - f_i) / (f_max - f_min + xi))),
    # with xi machine epsilon
    fits = [f for (_, f) in fireworks]
    f_max = max(fits)
    f_min = min(fits)
    counts = [math.ceil(m ** ((f_max - f) / (f_max - f_min + XI))) for f in fits]

    # average intensity
    s_avg = sum(counts) / m

    # explosion radius: below-average intensity follows the slot's best,
    # the rest follow the core firework
    radii = []
    for i in range(m):
        if counts[i] < s_avg:
            radii.append(pbest[i][0] - fireworks[i][0])
        else:
            radii.append(core[0] - fireworks[i][0])

    # displacement: one uniform block for every spark, spark = x + beta * radius
    total = sum(counts)
    betas = [float(row[0]) for row in rng.uniform(size=(total, 1))]
    raw_sparks = []
    for i in range(m):
        for _ in range(counts[i]):
            raw_sparks.append(fireworks[i][0] + betas[len(raw_sparks)] * radii[i])

    # Gaussian mutants: parent pick, n = 1 (single dimension), the
    # one-swap dimension shuffle, then one shared factor
    parents = []
    raw_mutants = []
    for _ in range(config.gaussian_spark_count):
        parent = rng.integers(0, m)
        parents.append(parent)
        n = rng.integers(1, 2)
        assert n == 1
        assert rng.integers(0, 1) == 0  # the single-dimension swap
        factor = rng.normal() + 1.0
        raw_mutants.append(fireworks[parent][0] * factor)

    # mapping: violated coordinates are redrawn as lower + beta * width,
    # one beta per violation in order, all from one draw
    def violated(value):
        return value < lower or value > upper

    n_violations = sum(violated(v) for v in raw_sparks + raw_mutants)
    map_betas = [float(b) for b in rng.uniform(size=n_violations)] if n_violations else []

    def mapped(value):
        if violated(value):
            return lower + map_betas.pop(0) * (upper - lower)
        return value

    mapped_sparks = [mapped(s) for s in raw_sparks]
    mapped_mutants = [mapped(g) for g in raw_mutants]

    # candidate set in order: fireworks, pbest, core, sparks, mutants
    candidates = (
        list(fireworks)
        + list(pbest)
        + [core]
        + [(s, evaluate(s)) for s in mapped_sparks]
        + [(g, evaluate(g)) for g in mapped_mutants]
    )

    # Elite-Random selection: strict-minimum elite first, the rest drawn
    # without replacement via a partial Fisher-Yates shuffle
    elite = 0
    for i in range(1, len(candidates)):
        if candidates[i][1] < candidates[elite][1]:
            elite = i
    pool = [i for i in range(len(candidates)) if i != elite]
    if m - 1 <= SCALAR_SWAPS_MAX:
        swaps = [rng.integers(j, len(pool)) for j in range(m - 1)]
    else:
        swaps = rng.integers(list(range(m - 1)), len(pool))
    for j in range(m - 1):
        swap = int(swaps[j])
        pool[j], pool[swap] = pool[swap], pool[j]
    selected = [candidates[elite]] + [candidates[i] for i in pool[: m - 1]]

    # per-slot history update, then the core as the best history entry
    new_pbest = [
        selected[i] if selected[i][1] < pbest[i][1] else pbest[i] for i in range(m)
    ]
    core_idx = 0
    for i in range(1, m):
        if new_pbest[i][1] < new_pbest[core_idx][1]:
            core_idx = i

    return {
        "spark_counts": counts,
        "selected_indices": [elite] + pool[: m - 1],
        "mean_intensity": s_avg,
        "radii": radii,
        "raw_sparks": raw_sparks,
        "mapped_sparks": mapped_sparks,
        "gaussian_parents": parents,
        "raw_mutants": raw_mutants,
        "mapped_mutants": mapped_mutants,
        "selected": selected,
        "pbest": new_pbest,
        "core": new_pbest[core_idx],
    }
