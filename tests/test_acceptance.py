"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and logs a
single pass/fail line to the terminal summary.  Monte Carlo checks run on
pinned seeds so the suite is deterministic.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import ACCEPTANCE_LINES, curvature, recorded_pools, slope
from quadrature import ovl_by_quadrature

from ovlomax import (
    InverseLomax,
    RssDesign,
    SrsDesign,
    StudyConfig,
    assess,
    build_estimate_report,
    bundled_counts,
    corrected_ratio,
    discrepancy_report,
    draw_rss,
    draw_srs,
    emit_rows_csv,
    harmonic,
    overlap_value,
    ratio_variance_factor,
    run_study,
    shape_estimates,
)
from ovlomax.overlap import MEASURES, _terms
from ovlomax.estimators import _assess_designs


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{tag}] {desc}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_closed_form_vs_quadrature():
    grid = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 5.0, 10.0)
    t0 = time.perf_counter()
    worst = 0.0
    for r in grid:
        f1, f2 = InverseLomax(r), InverseLomax(1.0)
        for meas in MEASURES:
            gap = abs(float(overlap_value(meas, r)) - ovl_by_quadrature(f1, f2, meas))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(
        1,
        f"closed form vs quadrature <= 1e-6 on 10-point ratio grid, under 2 s",
        worst <= 1e-6 and elapsed < 2.0,
        f"max gap {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_structural_properties():
    grid = np.logspace(-2.0, 2.0, 200)
    problems = []
    for meas in MEASURES:
        vals = np.asarray(overlap_value(meas, grid), dtype=float)
        if not (np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-15)):
            problems.append(f"{meas} leaves [0, 1]")
        recip = np.asarray(overlap_value(meas, 1.0 / grid), dtype=float)
        if np.max(np.abs(vals - recip)) > 1e-12:
            problems.append(f"{meas} reciprocity off by {np.max(np.abs(vals - recip)):.2e}")
        below = vals[grid < 1.0]
        above = vals[grid > 1.0]
        if not (np.all(np.diff(below) > 0.0) and np.all(np.diff(above) < 0.0)):
            problems.append(f"{meas} not piecewise monotone")
        if abs(float(overlap_value(meas, 1.0)) - 1.0) > 1e-15:
            problems.append(f"{meas} != 1 at equal shapes")
    report(
        2,
        "bounds, reciprocity (1e-12), piecewise monotonicity on 200-point grid",
        not problems,
        "; ".join(problems),
    )


def test_criterion_03_transform_and_estimator_laws():
    rng = np.random.default_rng(26030)
    alpha = 0.7
    d = InverseLomax(alpha)

    x = draw_srs(d, SrsDesign(100000), rng)
    t = np.log1p(1.0 / x)
    pval = stats.kstest(t, "expon", args=(0.0, alpha)).pvalue
    problems = []
    if pval <= 0.001:
        problems.append(f"KS p-value {pval:.2e}")

    reps = 10000
    for n in (5, 10, 40):
        xmat = draw_srs(d, SrsDesign(n * reps), rng).reshape(reps, n)
        ahat = np.log1p(1.0 / xmat).mean(axis=1)
        # the vectorized estimate must agree with the scalar pipeline
        assert ahat[0] == pytest.approx(float(shape_estimates("srs", xmat[0])), rel=1e-12)
        assert ahat[0] * n / (n + 1) == pytest.approx(
            float(shape_estimates("bayes", xmat[0])), rel=1e-12
        )
        # the exact laws: Gamma(n, alpha/n) and Gamma(n, alpha/(n+1))
        for name, law, est in (
            ("srs", stats.gamma(n, scale=alpha / n), ahat),
            ("bayes", stats.gamma(n, scale=alpha / (n + 1)), ahat * n / (n + 1)),
        ):
            mean, variance = float(law.mean()), float(law.var())
            m, v = float(est.mean()), float(est.var(ddof=1))
            se_mean = math.sqrt(variance / reps)
            # Var(s^2) for a Gamma(shape k) sample: sigma^4 (6/k)/N + 2 sigma^4/(N-1)
            se_var = variance * math.sqrt(6.0 / n / reps + 2.0 / (reps - 1))
            if abs(m - mean) > 4.0 * se_mean:
                problems.append(f"{name} mean off at n={n}: {abs(m - mean) / se_mean:.1f} se")
            if abs(v - variance) > 4.0 * se_var:
                problems.append(f"{name} var off at n={n}: {abs(v - variance) / se_var:.1f} se")
    report(
        3,
        "log-life transform is exponential (KS); shape-estimate moments match "
        "their gamma laws within 4 se",
        not problems,
        "; ".join(problems),
    )


def test_criterion_04_ratio_law():
    rng = np.random.default_rng(26040)
    n1 = n2 = 20
    alpha2 = 1.3
    big_r = 0.5
    alpha1 = big_r * alpha2
    reps = 100000

    x1 = draw_srs(InverseLomax(alpha1), SrsDesign(n1 * reps), rng).reshape(reps, n1)
    x2 = draw_srs(InverseLomax(alpha2), SrsDesign(n2 * reps), rng).reshape(reps, n2)
    a1 = np.log1p(1.0 / x1).mean(axis=1)
    a2 = np.log1p(1.0 / x2).mean(axis=1)
    rhat = a1 / a2
    femp = (alpha2 / alpha1) * rhat

    mean, variance, g2 = (float(x) for x in stats.f.stats(2 * n1, 2 * n2, moments="mvk"))
    problems = []
    se_mean = math.sqrt(variance / reps)
    if abs(float(femp.mean()) - mean) > 4.0 * se_mean:
        problems.append(f"F mean off: {abs(femp.mean() - mean) / se_mean:.1f} se")
    se_var = variance * math.sqrt(g2 / reps + 2.0 / (reps - 1))
    if abs(float(femp.var(ddof=1)) - variance) > 4.0 * se_var:
        problems.append(f"F var off: {abs(femp.var(ddof=1) - variance) / se_var:.1f} se")

    rstar = rhat * (n2 - 1) / n2
    if abs(float(rstar.mean()) - big_r) > 0.01 * big_r:
        problems.append(f"corrected ratio mean {rstar.mean():.5f} vs {big_r}")
    target = big_r**2 * ratio_variance_factor("srs", SrsDesign(n1), SrsDesign(n2))
    rel = abs(float(rstar.var(ddof=1)) / target - 1.0)
    if rel > 0.05:
        problems.append(f"corrected ratio var off by {rel:.1%}")
    report(
        4,
        "scaled shape ratio matches its exact F law (4 se); corrected ratio mean "
        "within 1% and variance within 5% at n=20",
        not problems,
        "; ".join(problems),
    )


def test_criterion_05_ranked_set_variance():
    rng = np.random.default_rng(26050)
    alpha = 1.3
    d = InverseLomax(alpha)
    problems = []
    for r, m in ((2, 10000), (3, 10000), (5, 4000)):
        s = draw_rss(d, RssDesign(r, m), rng)
        tmat = np.log1p(1.0 / s.values)
        cyc = tmat.mean(axis=0)
        assert float(cyc.mean()) == pytest.approx(
            float(shape_estimates("rss", s.values.reshape(-1))), rel=1e-12)
        # cycles are iid, so Var(estimate) = Var(cycle mean)/m exactly
        emp = float(cyc.var(ddof=1)) / m
        target = alpha**2 * harmonic(r) / (m * r**2)
        rel = abs(emp / target - 1.0)
        if rel > 0.05:
            problems.append(f"(r={r}, m={m}) off by {rel:.1%}")

    for r in range(1, 11):
        for m in (1, 5, 40):
            rss_var = harmonic(r) / (m * r**2)
            srs_var = 1.0 / (m * r)
            if rss_var > srs_var + 1e-15:
                problems.append(f"ranked variance exceeds simple at r={r}, m={m}")
    report(
        5,
        "ranked-set estimate variance within 5% of its formula; never above the "
        "simple-random variance at equal size",
        not problems,
        "; ".join(problems),
    )


def test_criterion_06_delta_method():
    problems = []
    fd_grid = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 5.0)
    for meas in MEASURES:
        for r in fd_grid:
            h = 1e-5 * r
            fd1 = (float(overlap_value(meas, r + h)) - float(overlap_value(meas, r - h))) / (2 * h)
            if abs(slope(meas, r) - fd1) > 1e-8 * max(1.0, abs(fd1)):
                problems.append(f"grad({meas}, {r})")
            fd2 = (slope(meas, r + h) - slope(meas, r - h)) / (2 * h)
            if abs(curvature(meas, r) - fd2) > 1e-8 * max(1.0, abs(fd2)):
                problems.append(f"curvature({meas}, {r})")

    # empirical MSE of the plug-in estimate vs the analytic value; the shape
    # estimates are drawn from their exact gamma laws, which criterion 3
    # verifies against the full sampling pipeline
    rng = np.random.default_rng(26060)
    n = 160
    reps = 200000
    d1, d2 = SrsDesign(n), SrsDesign(n)
    for big_r in (0.5, 0.8):
        # delta-method MSE (variance plus squared bias) of each measure
        _point, variance, bias, *_ = _assess_designs([([big_r], "srs", d1, d2)], "derived", 0.95)
        analytic = (variance + bias * bias)[:, 0].tolist()
        a1 = rng.gamma(shape=n, scale=big_r / n, size=reps)
        a2 = rng.gamma(shape=n, scale=1.0 / n, size=reps)
        rstar = (a1 / a2) * (n - 1) / n
        for meas, ana in zip(MEASURES, analytic):
            truth = float(overlap_value(meas, big_r))
            pts = np.asarray(overlap_value(meas, rstar), dtype=float)
            emp = float(np.mean((pts - truth) ** 2))
            rel = abs(emp / ana - 1.0)
            if rel > 0.15:
                problems.append(f"mse({meas}, R={big_r}) off by {rel:.1%}")

    n_small = 20
    a1 = rng.gamma(shape=n_small, scale=0.5 / n_small, size=reps)
    a2 = rng.gamma(shape=n_small, scale=1.0 / n_small, size=reps)
    rstar = (a1 / a2) * (n_small - 1) / n_small
    emp_bias = float(np.mean(np.asarray(overlap_value("rho", rstar)) - overlap_value("rho", 0.5)))
    design = SrsDesign(n_small)
    ana_bias = float(assess([0.5], "srs", design, design)["rho"].bias[0])
    if math.copysign(1.0, emp_bias) != math.copysign(1.0, ana_bias):
        problems.append(f"bias sign mismatch: empirical {emp_bias:.2e} vs analytic {ana_bias:.2e}")
    report(
        6,
        "derivatives match finite differences (1e-8); empirical MSE within 15% of "
        "analytic at n=160; bias sign agrees for rho at R=0.5",
        not problems,
        "; ".join(problems),
    )


def _exact_interval_coverage(meas: str, big_r: float, n: int) -> float:
    """True coverage probability of the plain plug-in interval.

    The interval hit is a deterministic event in the scaled F variable that
    drives the corrected ratio, so integrating the indicator against the F
    density gives the coverage with no simulation at all.
    """
    law = stats.f(2 * n, 2 * n)
    x = np.linspace(1e-6, float(law.ppf(1.0 - 1e-10)), 400001)
    w = law.pdf(x)
    rstar = big_r * (n - 1) / n * x
    c = ratio_variance_factor("srs", SrsDesign(n), SrsDesign(n))
    z = 1.959963984540054
    g = np.asarray(overlap_value(meas, rstar), dtype=float)
    e, _c = _terms(rstar)
    half = z * np.sqrt(e[MEASURES.index(meas)] ** 2 * c)
    truth = float(overlap_value(meas, big_r))
    return float(np.trapezoid(w * (np.abs(g - truth) <= half), x))


def test_criterion_07_coverage():
    """This criterion is a documented honest failure.

    The stated band cannot hold for every cell: the hit event depends only on
    the exact F law of the ratio, and integrating that law (see the helper
    above) puts the true coverage of the plain interval at 0.886 for rho and
    0.882 for lambda at R=0.8, below the 0.90 floor.  Near-total overlap
    (truth 0.994 and 0.952 there) makes the linearization too coarse at this
    sample size.  The simulation is held to agreement with the exact law, so
    the failure reported is the band, never the implementation.
    """
    rng = np.random.default_rng(26070)
    n = 160
    reps = 2000
    t0 = time.perf_counter()
    problems = []
    for big_r in (0.5, 0.8):
        d1, d2 = InverseLomax(big_r * 1.0), InverseLomax(1.0)
        truth = {meas: float(overlap_value(meas, big_r)) for meas in MEASURES}
        hits = {meas: 0 for meas in MEASURES}
        design = SrsDesign(n)
        for _ in range(reps):
            a1 = float(shape_estimates("srs", draw_srs(d1, design, rng)))
            a2 = float(shape_estimates("srs", draw_srs(d2, design, rng)))
            rhat = corrected_ratio(a1 / a2, "srs", design, design)
            for meas, a in assess([rhat], "srs", design, design).items():
                hits[meas] += 1 if a.lo[0] <= truth[meas] <= a.hi[0] else 0
        for meas in MEASURES:
            cov = hits[meas] / reps
            exact = _exact_interval_coverage(meas, big_r, n)
            # the simulated pipeline must agree with the exact hit probability
            se = math.sqrt(exact * (1.0 - exact) / reps)
            assert abs(cov - exact) <= 4.0 * se, (
                f"simulation disagrees with the exact hit law for {meas} at "
                f"R={big_r}: {cov:.4f} vs {exact:.4f}"
            )
            if not (0.90 <= cov <= 0.975):
                problems.append(
                    f"coverage({meas}, R={big_r}) = {cov:.3f} "
                    f"(exact probability of this interval is {exact:.3f}, "
                    "so the floor is unattainable here)"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.0f} s")
    report(
        7,
        "nominal 95% intervals cover within [0.90, 0.975] at n=160, under 2 min",
        not problems,
        "; ".join(problems) or f"{elapsed:.1f} s",
    )


def test_criterion_08_real_data():
    d1, d2 = bundled_counts()
    srs = build_estimate_report(d1.values, d2.values, "srs")
    problems = []
    checks = (
        ("rho", srs.measure("rho").point, 0.995, 0.01),
        ("delta", srs.measure("delta").point, 0.906, 0.05),
        ("lambda", srs.measure("lambda").point, 0.938, 0.05),
        ("ratio", srs.ratio_raw, 0.81, 0.01),
    )
    for name, got, want, tol in checks:
        if abs(got - want) > tol:
            problems.append(f"{name} = {got:.4f}, wanted {want} +/- {tol}")
    recs = list(csv.reader(io.StringIO(discrepancy_report())))
    ratio_rows = [r for r in recs if r[:2] == ["real_data", "ratio"]]
    if len(ratio_rows) != 1 or float(ratio_rows[0][2]) != 0.493:
        problems.append("printed ratio 0.493 not recorded in the discrepancy report")
    report(
        8,
        "bundled-data estimates land in the published bands; the divergent "
        "printed ratio is recorded, not matched",
        not problems,
        "; ".join(problems),
    )


def test_criterion_09_discrepancy_report():
    from ovlomax.reports import _bundled_text

    first = discrepancy_report()
    problems = []
    if first != discrepancy_report():
        problems.append("report is not deterministic")
    recs = list(csv.reader(io.StringIO(first)))
    if recs[0] != ["table", "cell", "printed_value", "computed_value", "abs_diff"]:
        problems.append("unexpected header")
    body = recs[1:]
    if any(len(r) != 5 or r[2] == "" for r in body):
        problems.append("incomplete rows")

    fixtures = json.loads(_bundled_text("published_tables.json"))
    expected_eff = sum(
        len(block[R][meas]) * len(block[R][meas][0])
        for block in fixtures["efficiency"].values()
        for R in block
        for meas in block[R]
    )
    eff_rows = [r for r in body if r[0].startswith("efficiency")]
    real_rows = [r for r in body if r[0] == "real_data"]
    expected_real = 2 + 1 + len(fixtures["real_data"]["estimates"]) + 3 * 3 * 4
    if len(eff_rows) != expected_eff:
        problems.append(f"{len(eff_rows)} efficiency rows, expected {expected_eff}")
    if len(real_rows) != expected_real:
        problems.append(f"{len(real_rows)} real-data rows, expected {expected_real}")
    report(
        9,
        "discrepancy report covers every transcribed cell and is deterministic",
        not problems,
        "; ".join(problems),
    )


def test_criterion_10_determinism():
    from importlib.resources import files

    cfg_text = files("ovlomax.data").joinpath("configs/smoke.json").read_text(encoding="utf-8")
    cfg = StudyConfig.from_json(cfg_text)
    first = run_study(cfg, figures=True)
    second = run_study(cfg)
    # a slab per design group: six study slabs and three figure slabs, all
    # run over one real pool of two workers
    with recorded_pools(1) as pools:
        parallel = run_study(cfg, workers=2, figures=True)
    problems = []
    if pools != [2]:
        problems.append(f"pools of {pools} workers started, expected one of 2")
    if emit_rows_csv(first.rows) != emit_rows_csv(second.rows):
        problems.append("sequential rerun differs")
    if emit_rows_csv(first.rows) != emit_rows_csv(parallel.rows):
        problems.append("parallel run differs")
    if first.csv_corrected != parallel.csv_corrected:
        problems.append("corrected rows differ under parallelism")
    if first.figure_csv != parallel.figure_csv:
        problems.append("figure data differs under parallelism")
    report(
        10,
        "simulation output is byte-identical across reruns and worker counts",
        not problems,
        "; ".join(problems),
    )
