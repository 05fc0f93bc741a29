"""Seed derivation and the design-grouped study engine.

The engine derives every replication's seed and PCG64 state in array passes
and restarts one generator per stream.  These tests hold it to the plain
definition: the SplitMix64 fold written out on Python ints, a fresh
``np.random.PCG64(seed)`` per replication, and one kernel call per cell.
Numpy scalar integer arithmetic warns on overflow, so every test here turns
warnings into errors.
"""

import numpy as np
import pytest

from ovlomax import StudyConfig, run_study, study
from ovlomax import _seeds
from ovlomax.estimators import METHOD_RSS, assess, corrected_ratio, shape_estimates
from ovlomax.dist_core import InverseLomax
from ovlomax.overlap import overlap_value
from ovlomax.sampling import RssDesign, SrsDesign, rss_retained

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
        got = _seeds.derive_seed(*parts)
        assert type(got) is int
        assert got == reference_seed(*parts)

    def test_array_fold_matches_scalar_fold_elementwise(self):
        cells = np.arange(-3, 4)
        reps = np.array([0, 1, 2, 2**40, 2**63 - 1])
        seeds = _seeds.derive_seeds(-1, 2**70 + 3, cells[:, None], reps)
        assert seeds.shape == (cells.size, reps.size) and seeds.dtype == np.uint64
        for i, c in enumerate(cells.tolist()):
            for j, r in enumerate(reps.tolist()):
                want = _seeds.derive_seed(-1, 2**70 + 3, c, r)
                assert int(seeds[i, j]) == want == reference_seed(-1, 2**70 + 3, c, r)

    def test_wide_and_negative_parts_wrap_mod_2_64(self):
        assert _seeds.derive_seed(-1) == _seeds.derive_seed(2**64 - 1)
        assert _seeds.derive_seed(2**64 + 5, 3) == _seeds.derive_seed(5, 3)


class TestPcg64States:
    def test_states_equal_a_freshly_seeded_pcg64(self):
        rng = np.random.default_rng(20261018)
        seeds = rng.integers(0, 2**64, size=1000, dtype=np.uint64).tolist() + EDGE_SEEDS
        states = _seeds.pcg64_states(np.array(seeds, dtype=np.uint64))
        assert len(states) == len(seeds)
        for seed, (state, inc) in zip(seeds, states):
            want = np.random.PCG64(seed).state["state"]
            assert (state, inc) == (want["state"], want["inc"]), seed

    def test_states_follow_c_order(self):
        seeds = np.array([[5, 2**40], [0, 2**64 - 1]], dtype=np.uint64)
        assert _seeds.pcg64_states(seeds) == _seeds.pcg64_states(seeds.reshape(-1))

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


def reference_cell(cfg, namespace, cell_index, cell):
    """One cell as the definition reads: a fresh stream per replication and
    one assessment of the cell's own ratios."""
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
    dists = (InverseLomax(R * cfg.alpha2), InverseLomax(cfg.alpha2))
    for dist, design, u in zip(dists, designs, np.split(uniforms, [draws[0]], axis=1)):
        x = dist.from_uniform(u)
        if method == METHOD_RSS:
            x = rss_retained(x, design).reshape(reps, design.n)
        alphas.append(shape_estimates(method, x))
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
}


class TestGroupedEngine:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("namespace", [0, 1])
    def test_groups_equal_per_cell_reference_bit_for_bit(self, name, namespace):
        cfg = StudyConfig(**CONFIGS[name])
        cells = study._enumerate_cells(cfg)
        groups = study._design_groups(cells)
        assert sorted(i for g in groups for i in g) == list(range(len(cells)))
        skipped = 0
        for indices in groups:
            members = [cells[i] for i in indices]
            assert len({c[1:] for c in members}) == 1
            assert [c[0] for c in members] == list(cfg.r_values)
            outcomes = study._run_group(cfg, namespace, indices, members)
            for idx, cell, outcome in zip(indices, members, outcomes):
                want = reference_cell(cfg, namespace, idx, cell)
                if want is None:
                    assert "skipped" in outcome
                    skipped += 1
                else:
                    assert outcome["measures"] == want, cell
        assert skipped == (2 * len(cfg.r_values) if name == "skipped_group" else 0)

    def test_skipped_group_reported_per_cell(self):
        res = run_study(StudyConfig(**CONFIGS["skipped_group"]))
        assert {(s["R"], s["method"], s["r2"]) for s in res.skipped} == {
            (R, method, 1) for R in (0.25, 0.8) for method in ("srs", "bayes")
        }
        assert len(res.rows) == 3 * (2 * 3 + 2)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_two_workers_equal_one(self, name):
        cfg = StudyConfig(**CONFIGS[name])
        one, two = run_study(cfg, workers=1), run_study(cfg, workers=2)
        assert one.rows == two.rows
        assert one.rows_corrected == two.rows_corrected
        assert one.skipped == two.skipped
        assert one.metadata == two.metadata

    def test_seed_column_is_the_cell_seed(self):
        cfg = StudyConfig(**CONFIGS["several_R"])
        res = run_study(cfg, namespace=1)
        cells = study._enumerate_cells(cfg)
        seeds = {cell: _seeds.derive_seed(cfg.master_seed, 1, idx)
                 for idx, cell in enumerate(cells)}
        for row in res.rows:
            cell = next(c for c in cells if c[1:] == (row.r1, row.r2, row.m, row.method)
                        and study._round6(c[0]) == row.R)
            assert row.seed == seeds[cell]
