"""Seed derivation and the design-grouped study engine.

The engine's unit of work is a slab of design groups.  A slab derives every
replication's seed and initial PCG64 state in one array pass, restarts one
generator per stream by writing the state's words in place, draws in row
blocks, ranks ranked sets on the uniforms and assesses all its groups in
one call.  These tests hold it to the plain definition: the SplitMix64 fold
written out on Python ints, a fresh ``np.random.PCG64(seed)`` per
replication (``_seeds.stream``, which seeds through numpy), ranked sets
sorted by ``np.sort`` on each replication's own uniforms (never by the
engine's comparator networks), ``T = -alpha * log(u)`` averaged inline, and
one kernel call per cell, at every block size.
Numpy scalar integer arithmetic warns on overflow, so every test here turns
warnings into errors.
"""

import pickle
import re

import numpy as np
import pytest

from conftest import recorded_pools

from ovlomax import StudyConfig, emit_figure_data, run_study, study
from ovlomax import _seeds
from ovlomax.estimators import METHOD_BAYES, METHOD_RSS, assess, corrected_ratio
from ovlomax.overlap import MEASURES, overlap_value
from ovlomax.sampling import RssDesign, SrsDesign

pytestmark = pytest.mark.filterwarnings("error")

MASK = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def reference_seed(*parts):
    """SplitMix64 fold on Python ints, each part reduced mod 2**64."""

    def mix(x):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
        return x ^ (x >> 31)

    state = 0
    for p in parts:
        state = mix((state + 0x9E3779B97F4A7C15 + int(p)) & MASK)
    return state


class TestFold:
    @pytest.mark.parametrize("parts", [(0,), (7,), (-1,), (2**64,), (2**70 + 5, -3, 7),
                                       (11, 0, 0), (11, 0, 1), (2**64 - 1, 1, 296, 9)])
    def test_scalar_fold_matches_reference(self, parts):
        got = _seeds.derive_seeds(*parts)
        assert got.shape == (1,) and got.dtype == np.uint64
        assert int(got[0]) == reference_seed(*parts)

    def test_array_fold_matches_scalar_fold_elementwise(self):
        cells = np.arange(-3, 4)
        reps = np.array([0, 1, 2, 2**40, 2**63 - 1])
        seeds = _seeds.derive_seeds(-1, 2**70 + 3, cells[:, None], reps)
        assert seeds.shape == (cells.size, reps.size) and seeds.dtype == np.uint64
        for i, c in enumerate(cells.tolist()):
            for j, r in enumerate(reps.tolist()):
                want = int(_seeds.derive_seeds(-1, 2**70 + 3, c, r)[0])
                assert int(seeds[i, j]) == want == reference_seed(-1, 2**70 + 3, c, r)

    def test_wide_and_negative_parts_wrap_mod_2_64(self):
        assert _seeds.derive_seeds(-1) == _seeds.derive_seeds(2**64 - 1)
        assert _seeds.derive_seeds(2**64 + 5, 3) == _seeds.derive_seeds(5, 3)


def public_state(bitgen):
    """``bitgen.state`` with its 128-bit words split like a row of ``pcg64_states``."""
    state = bitgen.state
    words = state["state"]
    return ([words["state"] & MASK, words["state"] >> 64, words["inc"] & MASK, words["inc"] >> 64],
            state["has_uint32"], state["uinteger"])


class TestPcg64States:
    def test_states_equal_a_freshly_seeded_pcg64(self):
        rng = np.random.default_rng(20261018)
        seeds = rng.integers(0, 2**64, size=1000, dtype=np.uint64).tolist() + EDGE_SEEDS
        words = _seeds.pcg64_states(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words.tolist()):
            assert public_state(np.random.PCG64(seed)) == (row, 0, 0), seed

    def test_states_follow_c_order(self):
        seeds = np.array([[5, 2**40], [0, 2**64 - 1]], dtype=np.uint64)
        words = _seeds.pcg64_states(seeds)
        assert words.shape == (4, 4)
        assert np.array_equal(words, _seeds.pcg64_states(seeds.reshape(-1)))
        for row, seed in zip(words, seeds.reshape(-1).tolist()):
            assert np.array_equal(row, _seeds.pcg64_states(np.uint64(seed))[0])

    @pytest.mark.parametrize("parts", [(0,), (-1,), (2**65 + 1,), (3, 0, 7, 2)])
    def test_stream_draws_like_a_freshly_seeded_generator(self, parts):
        want = np.random.Generator(np.random.PCG64(reference_seed(*parts)))
        got = _seeds.stream(*parts)
        assert np.array_equal(got.random(17), want.random(17))
        assert np.array_equal(got.integers(0, 2**32, 5), want.integers(0, 2**32, 5))

    def test_fill_uniforms_restarts_every_row(self):
        states = _seeds.pcg64_states(_seeds.derive_seeds(4, 0, 2, np.arange(3)))
        gen = np.random.Generator(np.random.PCG64(0))
        gen.integers(0, 2**32, 3, dtype=np.uint32)  # a generator already drawn from
        out = np.empty((3, 6))
        _seeds.fill_uniforms(out, states, gen)
        for rep in range(3):
            assert np.array_equal(out[rep], _seeds.stream(4, 0, 2, rep).random(6))

    @pytest.mark.parametrize("length", [1, 32, 2000])
    @pytest.mark.parametrize("advanced", [True, False])
    def test_fill_uniforms_rows_equal_fresh_generators(self, length, advanced):
        seeds = [*EDGE_SEEDS, *np.random.default_rng(length).integers(0, 2**64, 10, np.uint64)]
        words = _seeds.pcg64_states(np.array(seeds, dtype=np.uint64))
        gen = np.random.Generator(np.random.PCG64(0))
        if advanced:  # a generator that has drawn doubles restarts all the same
            gen.random(length + 3)
        out = np.empty((1, length))
        for seed, row in zip(seeds, words):
            _seeds.fill_uniforms(out, row[None], gen)
            fresh = np.random.Generator(np.random.PCG64(seed))
            assert np.array_equal(out[0], fresh.random(length)), seed
            assert public_state(gen.bit_generator) == public_state(fresh.bit_generator), seed

    def test_probe_recognises_this_numpy(self):
        assert _seeds._word_order() in ((0, 1, 2, 3), (1, 0, 3, 2)), np.__version__

    def test_unrecognised_layout_is_refused(self, monkeypatch):
        # the probe reads its words back in an order no known build holds
        held = _seeds._state_words
        monkeypatch.setattr(_seeds, "_state_words", lambda bitgen: held(bitgen)[::-1])
        words = _seeds.pcg64_states(_seeds.derive_seeds(7, 1, np.arange(3)))
        message = (rf"^numpy {re.escape(np.__version__)}: "
                   "PCG64 holds its state words in an unrecognised order")
        _seeds._word_order.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=message):
                _seeds._word_order()
            with pytest.raises(RuntimeError, match=message):
                _seeds.fill_uniforms(np.empty((3, 5)), words, np.random.Generator(np.random.PCG64(0)))
        finally:
            _seeds._word_order.cache_clear()  # the next call probes the real layout again


def reference_cell(cfg, namespace, cell_index, cell):
    """One cell as the definition reads: a fresh stream per replication,
    ranked sets sorted on its uniforms, set i of each cycle keeping its i-th
    order statistic, rank-major, the shape estimates as the mean (or
    the sum over n + 1) of T = -alpha * log(u), which is log(1 + 1/x) of the
    draw x at u, and one assessment of the cell's own ratios."""
    R, r1, r2, m, method = cell
    if method == METHOD_RSS:
        designs = (RssDesign(r1, m), RssDesign(r2, m))
    else:
        designs = (SrsDesign(r1 * m), SrsDesign(r2 * m))
        if designs[1].n < 3:
            return None
    draws = [d.n * (d.r if method == METHOD_RSS else 1) for d in designs]
    reps = cfg.replications
    uniforms = np.empty((reps, sum(draws)))
    for rep in range(reps):
        _seeds.stream(cfg.master_seed, namespace, cell_index, rep).random(out=uniforms[rep])
    alphas = []
    shapes = (R, 1.0)
    for alpha, design, u in zip(shapes, designs, np.split(uniforms, [draws[0]], axis=1)):
        if method == METHOD_RSS:
            r, m = design.r, design.m
            ordered = np.sort(u.reshape(reps, m, r, r), axis=-1)
            u = ordered[:, :, np.arange(r), np.arange(r)].transpose(0, 2, 1).reshape(reps, -1)
        t = -alpha * np.log(np.maximum(u, np.finfo(float).tiny))
        alphas.append(np.sum(t, axis=1) / (design.n + 1) if method == METHOD_BAYES
                      else np.mean(t, axis=1))
    ratios = corrected_ratio(alphas[0] / alphas[1], method, *designs, cfg.formula_source)
    block = assess(ratios, method, *designs, cfg.formula_source, 1.0 - cfg.level_alpha0)
    out = {}
    for meas, a in block.items():
        truth = float(overlap_value(meas, R))
        err = a.point - truth
        out[meas] = {
            "signed_bias": float(np.mean(err)),
            "mse": float(np.mean(err**2)),
            "coverage": float(np.mean((a.lo <= truth) & (truth <= a.hi))),
            "ci_length": float(np.mean(a.hi - a.lo)),
            "coverage_corrected": float(
                np.mean((a.lo_corrected <= truth) & (truth <= a.hi_corrected))),
            "ci_length_corrected": float(np.mean(a.hi_corrected - a.lo_corrected)),
        }
    return out


CONFIGS = {
    "one_R": dict(r_values=(0.5,), set_sizes=((2, 3), (3, 2)), cycles=(2,),
                  replications=7, master_seed=3),
    "several_R": dict(r_values=(0.1, 0.5, 0.9, 1.0, 1.7), set_sizes=((2, 2), (4, 3)),
                      cycles=(2, 3), replications=6, master_seed=2**40 + 1,
                      formula_source="as-published"),
    "skipped_group": dict(r_values=(0.25, 0.8), set_sizes=((2, 1), (2, 2)), cycles=(2,),
                          replications=5, master_seed=9),
    # sets of 5 go through a comparator network, sets of 6 through the sort
    "network_and_sort": dict(r_values=(0.3, 1.4), set_sizes=((5, 6),), cycles=(1, 2),
                             replications=5, master_seed=12),
}


# block bytes: the minimum (one row per draw block, one group per slab), and
# a size that cuts draw blocks (300 uniforms) across cells and puts a few
# groups in a slab (75 replications)
BUDGETS = {"minimum": 1, "small": 2400}


def assert_cells_equal_reference(name, namespace):
    cfg = StudyConfig(**CONFIGS[name])
    cells = study._enumerate_cells(cfg)
    groups, refused = study._design_groups(cfg, cells)
    assert sorted([i for g, *_ in groups for i in g] + list(refused)) == list(range(len(cells)))
    for indices, *_ in groups:
        members = [cells[i] for i in indices]
        assert len({c[1:] for c in members}) == 1
        assert [c[0] for c in members] == list(cfg.r_values)
    aggs, skipped = study._cell_outcomes(cfg, cells, namespace)
    assert skipped == refused
    assert aggs.shape == (len(cells), len(MEASURES), len(study._AGGREGATES))
    for idx, cell in enumerate(cells):
        want = reference_cell(cfg, namespace, idx, cell)
        if want is None:
            assert isinstance(skipped[idx], str)
            assert np.isnan(aggs[idx]).all()
        else:
            assert idx not in skipped
            assert aggs[idx].tolist() == [[want[meas][name] for name in study._AGGREGATES]
                                          for meas in MEASURES], cell
    assert len(skipped) == (2 * len(cfg.r_values) if name == "skipped_group" else 0)


def count_seeding(monkeypatch):
    """Lists that record the seeds of each fold and the rows of each hash."""
    folds, hashes = [], []
    derive, hash_seeds = _seeds.derive_seeds, _seeds.pcg64_states

    def counted_derive(*parts):
        seeds = derive(*parts)
        folds.append(seeds.size)
        return seeds

    def counted_hash(seeds):
        words = hash_seeds(seeds)
        hashes.append(len(words))
        return words

    monkeypatch.setattr(_seeds, "derive_seeds", counted_derive)
    monkeypatch.setattr(_seeds, "pcg64_states", counted_hash)
    return folds, hashes


def arrays_in(obj):
    """Every ndarray in a task or a result, through containers and configs."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, StudyConfig):
        yield from arrays_in(list(vars(obj).values()))
    elif isinstance(obj, dict):
        yield from arrays_in([*obj, *obj.values()])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)


class TestGroupedEngine:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("namespace", [0, 1])
    def test_groups_equal_per_cell_reference_bit_for_bit(self, name, namespace):
        assert_cells_equal_reference(name, namespace)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("namespace", [0, 1])
    def test_every_block_budget_equals_reference(self, name, namespace, budget, monkeypatch):
        monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS[budget])
        assert_cells_equal_reference(name, namespace)

    # rows of each draw block, and groups of each _aggregate call: one call
    # per slab of the several_R study (12 groups of 5 cells x 6 replications)
    @pytest.mark.parametrize("budget", ["shipped", "small", "minimum"])
    def test_budgets_cut_draw_blocks_and_stacks(self, budget, monkeypatch):
        if budget in BUDGETS:
            monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS[budget])
        rows, stacks = [], []
        fill, aggregate = _seeds.fill_uniforms, study._aggregate

        def counted_fill(out, words, gen):
            rows.append(len(out))
            fill(out, words, gen)

        def counted_aggregate(cfg, blocks, r_values):
            stacks.append(len(blocks))
            return aggregate(cfg, blocks, r_values)

        monkeypatch.setattr(_seeds, "fill_uniforms", counted_fill)
        monkeypatch.setattr(study, "_aggregate", counted_aggregate)
        cfg = StudyConfig(**CONFIGS["several_R"])
        cells = study._enumerate_cells(cfg)
        study._cell_outcomes(cfg, cells, 0)
        groups = len(study._design_groups(cfg, cells)[0])
        if budget == "minimum":
            assert rows == [1] * len(cells) * cfg.replications
            assert stacks == [1] * groups
        elif budget == "small":  # blocks of at most 300 uniforms, two groups a slab
            blocks = []
            for r1, r2, m, method in dict.fromkeys(cell[1:] for cell in cells):
                draws = (r1 * r1 + r2 * r2) * m if method == METHOD_RSS else (r1 + r2) * m
                step = max(1, 300 // draws)
                blocks += [min(step, 30 - lo) for lo in range(0, 30, step)]
            assert rows == blocks
            assert stacks == [2] * (groups // 2)
        else:  # a small study: one draw block per group, one slab in all
            assert rows == [len(cfg.r_values) * cfg.replications] * groups
            assert stacks == [groups]

    def test_designs_are_derived_once_per_group(self, monkeypatch):
        cfg = StudyConfig(**CONFIGS["several_R"])
        cells = study._enumerate_cells(cfg)
        groups = [cells[indices[0]][1:] for indices, *_ in study._design_groups(cfg, cells)[0]]
        calls, designs = [], study._designs

        def counted(*design):
            calls.append(design)
            return designs(*design)

        monkeypatch.setattr(study, "_designs", counted)
        study._cell_outcomes(cfg, cells, 0)
        assert calls == groups

    # rows of each slab of the several_R study: 12 design groups of 5 cells
    # x 6 replications, at the shipped budget, the small one and the minimum
    @pytest.mark.parametrize("budget, slabs", [("shipped", [360]), ("small", [60] * 6),
                                               ("minimum", [30] * 12)])
    def test_seeding_is_one_pass_per_slab(self, budget, slabs, monkeypatch):
        if budget in BUDGETS:
            monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS[budget])
        folds, hashes = count_seeding(monkeypatch)
        cfg = StudyConfig(**CONFIGS["several_R"])
        cells = study._enumerate_cells(cfg)
        study._cell_outcomes(cfg, cells, 0)
        assert folds == hashes == slabs

    @pytest.mark.parametrize("budget", ["shipped", "minimum"])
    def test_refused_groups_are_never_seeded(self, budget, monkeypatch):
        # the skipped_group study refuses its srs and bayes groups at (2, 1)
        # before any slab forms: only the accepted cells' replications are
        # folded and hashed
        if budget in BUDGETS:
            monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS[budget])
        folds, hashes = count_seeding(monkeypatch)
        cfg = StudyConfig(**CONFIGS["skipped_group"])
        cells = study._enumerate_cells(cfg)
        _aggs, skipped = study._cell_outcomes(cfg, cells, 0)
        accepted = len(cells) - len(skipped)
        assert sum(folds) == sum(hashes) == accepted * cfg.replications == 40

    def test_skipped_group_reported_per_cell(self):
        res = run_study(StudyConfig(**CONFIGS["skipped_group"]))
        assert {(s["R"], s["method"], s["r2"]) for s in res.skipped} == {
            (R, method, 1) for R in (0.25, 0.8) for method in ("srs", "bayes")
        }
        assert len(res.rows) == 3 * (2 * 3 + 2)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_two_workers_equal_one(self, name):
        # at the minimum budget every config has four or more slabs, run over
        # a real pool of two workers
        cfg = StudyConfig(**CONFIGS[name])
        one = run_study(cfg, workers=1)
        with recorded_pools(BUDGETS["minimum"]) as pools:
            two = run_study(cfg, workers=2)
        assert pools == [2]
        assert one.rows == two.rows
        assert one.csv_corrected == two.csv_corrected
        assert one.skipped == two.skipped
        assert one.metadata == two.metadata

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_pool_starts_no_more_workers_than_slabs(self, workers, monkeypatch):
        # a pool that records its size and runs each task here: no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS["minimum"])  # a slab per group
        monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
        cfg = StudyConfig(**CONFIGS["several_R"])
        cells = study._enumerate_cells(cfg)
        assert len(study._slabs(cfg, study._design_groups(cfg, cells)[0])) == 12
        pooled = run_study(cfg, workers=workers)
        assert sizes == [min(workers, 12)]
        assert pooled.csv_corrected == run_study(cfg).csv_corrected

    @pytest.mark.parametrize("workers", [2, 64])
    def test_one_slab_starts_no_pool(self, workers, monkeypatch):
        # the several_R study and its figure grid are one slab each at the
        # shipped budget: both run here, whatever the worker count
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} workers started")

        slabs, run_slab = [], study._run_slab

        def counted(cfg, slab, namespace):
            slabs.append(namespace)
            return run_slab(cfg, slab, namespace)

        cfg = StudyConfig(**CONFIGS["several_R"])
        one = run_study(cfg).csv_corrected, emit_figure_data(cfg)
        monkeypatch.setattr(study, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(study, "_run_slab", counted)
        assert (run_study(cfg, workers).csv_corrected, emit_figure_data(cfg, workers)) == one
        assert slabs == [0, 1]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_pool_tasks_carry_indices_in_and_aggregates_out(self, name, monkeypatch):
        # a pool that runs each task here, on pickled copies of what a worker
        # process would receive and send back
        tasks, results, sizes = [], [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    tasks.append(pickle.loads(pickle.dumps(args)))
                    results.append(fn(*tasks[-1]))
                    yield pickle.loads(pickle.dumps(results[-1]))

        # a slab per design group: four or more slabs in every config
        monkeypatch.setattr(study, "_BLOCK_BYTES", BUDGETS["minimum"])
        cfg = StudyConfig(**CONFIGS[name])
        cells = study._enumerate_cells(cfg)
        one, skipped_one = study._cell_outcomes(cfg, cells, 1)
        monkeypatch.setattr(study, "ProcessPoolExecutor", InlinePool)
        two, skipped_two = study._cell_outcomes(cfg, cells, 1, workers=2)
        assert two.tobytes() == one.tobytes() and skipped_two == skipped_one
        slabs = study._slabs(cfg, study._design_groups(cfg, cells)[0])
        assert [task[1] for task in tasks] == slabs
        assert len(slabs) >= 4 and sizes == [2]
        shape = (len(MEASURES), len(study._AGGREGATES))
        for task, block in zip(tasks, results, strict=True):
            # (cfg, slab of (indices, method, designs), namespace): no array, no cell list
            assert not list(arrays_in(task))
            assert [type(item) for item in task] == [StudyConfig, list, int]
            assert task[0] == cfg and task[2] == 1
            for indices, method, designs in task[1]:
                assert all(type(i) is int for i in indices)
                assert (method, *designs) == (cells[indices[0]][4],
                                              *study._designs(*cells[indices[0]][1:]))
            # the one array out is the aggregates of the slab's cells
            assert type(block) is np.ndarray
            assert block.shape == (sum(len(indices) for indices, *_ in task[1]), *shape)

    def test_seed_column_is_the_cell_seed(self):
        cfg = StudyConfig(**CONFIGS["several_R"])
        res = run_study(cfg)
        cells = study._enumerate_cells(cfg)
        seeds = {cell: int(_seeds.derive_seeds(cfg.master_seed, 0, idx)[0])
                 for idx, cell in enumerate(cells)}
        for row in res.rows:
            cell = next(c for c in cells if c[1:] == (row.r1, row.r2, row.m, row.method)
                        and study._round6(c[0]) == row.R)
            assert row.seed == seeds[cell]
