"""End-to-end acceptance battery.

One test per acceptance item, so ``pytest -v`` gives one pass/fail line
each. These run the toolkit at realistic sizes; the hundred-replicate
model-selection study in test 02 is the longest of them.
"""

import json
import math
import time

import numpy as np

from ctfactor import (
    CtConfig,
    FactorParams,
    HIGHDIM_PRESETS,
    SimSpec,
    Structure,
    build_graph,
    cli,
    consistency_bound,
    ct_run,
    data_rng,
    fit_mle,
    gen_independent_cluster,
    gen_ucc_violation,
    hamming_distance,
    implied_correlation,
    implied_covariance,
    independent_maximal_cliques,
    pearson_correlation,
    philox,
    sample_covariance,
    sample_dataset,
    structure_from_cliques,
    thresholdability,
    unique_children,
)
from ctfactor.io import save_json
from oracles import (
    brute_force_independent_cliques,
    brute_force_metric,
    gaussian_loglik,
    gen_random_bipartite,
    general_sufficient_check,
    ucc_probability_bound,
)

def assert_ascending(path, tol=1e-10):
    drops = np.diff(np.asarray(path))
    assert drops.min() >= -tol, f"log-likelihood fell by {-drops.min():.3g}"


def canonical(clique_set):
    return sorted(sorted(c) for c in clique_set.cliques)


def graph_from_adjacency(adj):
    corr = np.where(adj, 0.5, 0.0)
    np.fill_diagonal(corr, 1.0)
    return build_graph(corr, 0.25)


def random_structure(gen, p, dmax):
    while True:
        d = int(gen.integers(1, dmax + 1))
        mat = gen.random((p, d)) < gen.uniform(0.15, 0.6)
        if np.all(mat.sum(axis=0) >= 1):
            support = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mat)))
            return Structure(p=p, d=d, support=support)


def test_01_population_pipeline_exactly_recovers_thresholdable_models():
    t0 = time.perf_counter()
    for s in range(200):
        spec = SimSpec(
            d=3 + s % 3,
            children_per_factor=4 + s % 3,
            n=100,
            seed=s,
            phi_scale=0.25 if s % 2 else 0.0,
        )
        theta = gen_independent_cluster(spec)
        report = thresholdability(theta)
        assert report.thresholdable, f"seed {s} fell outside the tested family"
        graph = build_graph(implied_correlation(theta), report.tau0)
        est = structure_from_cliques(independent_maximal_cliques(graph))
        hd = hamming_distance(est, theta.structure()).hd
        assert hd == 0, f"seed {s}: population recovery missed by {hd} entries"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"200 population recoveries took {elapsed:.1f}s"


#: ``selected_index`` of each test_02 draw, in draw order. EM alone chose
#: these; finishing its capped fits by BFGS left every one of them.
TEST_02_SELECTIONS = (
    "45243446534423365334435335524353446244344333452515"
    "67485786888863457677868578544875677847686377549767"
)


def test_02_bic_selection_recovers_structure_and_factor_count():
    t0 = time.perf_counter()
    f1s, d_hats, n_models, selected = [], [], [], []
    for base, phi_scale in ((1000, 0.25), (2000, 0.75)):
        for r in range(50):
            spec = SimSpec(
                d=3, children_per_factor=5, n=1000, seed=base + r, phi_scale=phi_scale
            )
            theta = gen_independent_cluster(spec)
            truth = theta.structure()
            data = sample_dataset(theta, spec.n, data_rng(spec))
            result = ct_run(
                pearson_correlation(data),
                spec.n,
                CtConfig(selection="bic", seed=spec.seed),
            )
            selected.append(str(result.selected_index))
            report = hamming_distance(result.selected.structure, truth)
            f1s.append(report.f1)
            d_hats.append(report.d_hat)
            n_models.append(result.models_evaluated)
    elapsed = time.perf_counter() - t0
    mean_f1 = float(np.mean(f1s))
    d_rate = float(np.mean([d == 3 for d in d_hats]))
    mean_models = float(np.mean(n_models))
    stats = (
        f"mean_f1={mean_f1:.4f} d3_rate={d_rate:.2f} "
        f"mean_models={mean_models:.1f} elapsed={elapsed:.0f}s"
    )
    assert "".join(selected) == TEST_02_SELECTIONS
    assert mean_f1 >= 0.95, stats
    assert d_rate >= 0.95, stats
    assert mean_models <= 20.0, stats
    assert elapsed <= 600.0, stats


def test_03_violation_presets_improve_with_sample_size():
    def replicate(preset, violation, seed):
        n, p, d = HIGHDIM_PRESETS[preset]
        spec = SimSpec(
            d=d,
            children_per_factor=p // d,
            n=n,
            seed=seed,
            phi_scale=0.75 if violation == "thresh" else 0.0,
            ucc_fraction=0.75 if violation == "ucc" else 0.0,
        )
        if violation == "ucc":
            theta = gen_ucc_violation(spec)
        else:
            theta = gen_independent_cluster(spec)
        truth = theta.structure()
        data = sample_dataset(theta, n, data_rng(spec))
        corr = pearson_correlation(data)
        t0 = time.perf_counter()
        result = ct_run(
            corr, n, CtConfig(selection="min-hd-oracle", truth=truth, seed=seed)
        )
        sweep_s = time.perf_counter() - t0
        assert sweep_s <= 60.0, f"{violation}-{preset} seed {seed}: {sweep_s:.1f}s sweep"
        report = hamming_distance(result.selected.structure, truth)
        return report.f1, abs(report.d_hat - d) / d

    mean_f1 = {}
    rel_errs = []
    for violation in ("thresh", "ucc"):
        for preset in (250, 500):
            rows = [replicate(preset, violation, r) for r in range(10)]
            mean_f1[violation, preset] = float(np.mean([f1 for f1, _ in rows]))
            rel_errs.extend(rel for _, rel in rows)
    pooled_rel = float(np.mean(rel_errs))
    stats = f"mean_f1={ {k: round(v, 4) for k, v in mean_f1.items()} } pooled_rel={pooled_rel:.4f}"
    for violation in ("thresh", "ucc"):
        assert mean_f1[violation, 500] > mean_f1[violation, 250], stats
    assert pooled_rel <= 0.25, stats


def test_04_clique_search_agrees_with_brute_force():
    path4 = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        path4[i, j] = path4[j, i] = True
    found = independent_maximal_cliques(graph_from_adjacency(path4))
    assert canonical(found) == [[0, 1], [2, 3]]

    cycle4 = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
        cycle4[i, j] = cycle4[j, i] = True
    assert len(independent_maximal_cliques(graph_from_adjacency(cycle4))) == 0

    for i in range(1000):
        gen = philox(7000 + i)
        p = 2 + i % 11
        density = 0.1 + 0.8 * (i % 9) / 8
        upper = np.triu(gen.random((p, p)) < density, k=1)
        adj = upper | upper.T
        graph = graph_from_adjacency(adj)
        fast = independent_maximal_cliques(graph)
        brute = brute_force_independent_cliques(graph)
        assert canonical(fast) == canonical(brute), f"graph {i} (p={p})"


def test_05_sufficiency_check_agrees_with_direct_thresholdability():
    gen = philox(5500)
    checked = 0
    while checked < 1000:
        d = int(gen.integers(1, 4))
        p = int(gen.integers(max(d, 2), 11))
        lam = np.zeros((p, d))
        for i in range(p):
            k = int(gen.integers(1, d + 1))
            cols = gen.choice(d, size=k, replace=False)
            lam[i, cols] = gen.uniform(0.3, 0.8, size=k)
        if np.any((lam != 0).sum(axis=0) < 1):
            continue
        if d == 1:
            phi = np.eye(1)
        else:
            base = gen.uniform(-1, 1, size=(d, d + 2))
            gram = base @ base.T
            sd = np.sqrt(np.diag(gram))
            phi = gram / np.outer(sd, sd)
            np.fill_diagonal(phi, 1.0)
        comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
        lam *= np.sqrt(np.minimum(0.9 / np.maximum(comm, 1e-12), 1.0))[:, None]
        comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
        theta = FactorParams(loadings=lam, factor_corr=phi, error_var=1 - comm)
        assert general_sufficient_check(theta) == thresholdability(theta).thresholdable
        checked += 1


def test_06_fitter_is_monotone_stationary_and_exact(request):
    # ascent property across a spread of scales and dependence levels
    for phi_scale in (0.0, 0.25, 0.75):
        for seed in (1, 2, 3):
            spec = SimSpec(
                d=2, children_per_factor=4, n=300, seed=seed, phi_scale=phi_scale
            )
            theta = gen_independent_cluster(spec)
            data = sample_dataset(theta, spec.n, data_rng(spec))
            fit = fit_mle(sample_covariance(data), spec.n, theta.structure(), seed=seed)
            assert_ascending(fit.loglik_path)

    # the exactness checks below run EM to a 1e-13 tolerance
    request.getfixturevalue("tight")
    # saturated one-factor trio has an explicit maximum-likelihood solution
    lam_true = np.array([[0.8], [0.7], [0.6]])
    trio = FactorParams(
        loadings=lam_true, factor_corr=np.eye(1), error_var=1 - lam_true[:, 0] ** 2
    )
    data = sample_dataset(trio, 500, philox(606))
    s = sample_covariance(data)
    lam_hat = np.array(
        [
            math.sqrt(s[0, 1] * s[0, 2] / s[1, 2]),
            math.sqrt(s[0, 1] * s[1, 2] / s[0, 2]),
            math.sqrt(s[0, 2] * s[1, 2] / s[0, 1]),
        ]
    )
    trio_support = frozenset({(0, 0), (1, 0), (2, 0)})
    fit = fit_mle(s, 500, Structure(p=3, d=1, support=trio_support), seed=0)
    assert_ascending(fit.loglik_path)
    assert np.abs(fit.theta.loadings[:, 0] - lam_hat).max() <= 1e-6
    assert np.abs(fit.theta.error_var - (np.diag(s) - lam_hat**2)).max() <= 1e-6

    # feeding the implied covariance back in must return the generator
    spec = SimSpec(d=3, children_per_factor=5, n=1000, seed=33, phi_scale=0.25)
    theta = gen_independent_cluster(spec)
    fit = fit_mle(implied_covariance(theta), 1000, theta.structure(), seed=0)
    assert_ascending(fit.loglik_path)
    assert np.abs(fit.theta.loadings - theta.loadings).max() <= 1e-4
    assert np.abs(fit.theta.factor_corr - theta.factor_corr).max() <= 1e-4
    assert np.abs(fit.theta.error_var - theta.error_var).max() <= 1e-4

    # converged point is stationary: central finite differences vanish
    spec = SimSpec(d=2, children_per_factor=4, n=400, seed=77, phi_scale=0.25)
    theta = gen_independent_cluster(spec)
    data = sample_dataset(theta, 400, data_rng(spec))
    s = sample_covariance(data)
    structure = theta.structure()
    fit = fit_mle(s, 400, structure, seed=0)
    assert_ascending(fit.loglik_path)
    support = sorted(structure.support)
    tri = [(a, b) for a in range(structure.d) for b in range(a)]

    def loglik_at(x):
        lam = np.zeros((structure.p, structure.d))
        for k, (i, j) in enumerate(support):
            lam[i, j] = x[k]
        phi = np.eye(structure.d)
        for k, (a, b) in enumerate(tri):
            phi[a, b] = phi[b, a] = x[len(support) + k]
        omega = x[len(support) + len(tri):]
        return gaussian_loglik(lam @ phi @ lam.T + np.diag(omega), s, 400)

    x0 = np.concatenate(
        [
            [fit.theta.loadings[i, j] for i, j in support],
            [fit.theta.factor_corr[a, b] for a, b in tri],
            fit.theta.error_var,
        ]
    )
    tol = 1e-3 * (1.0 + abs(loglik_at(x0)))
    for k in range(len(x0)):
        h = 1e-5 * (1.0 + abs(x0[k]))
        up, down = x0.copy(), x0.copy()
        up[k] += h
        down[k] -= h
        grad_k = (loglik_at(up) - loglik_at(down)) / (2 * h)
        assert abs(grad_k) <= tol, f"coordinate {k}: gradient {grad_k:.3g}"


def test_07_edge_recovery_error_decays_with_sample_size():
    spec = SimSpec(d=3, children_per_factor=5, n=1000, seed=12345, phi_scale=0.25)
    theta = gen_independent_cluster(spec)
    report = thresholdability(theta)
    assert report.thresholdable and report.gap > 0
    population = build_graph(implied_correlation(theta), report.tau0)

    rates = {}
    for n in (100, 300, 1000):
        misses = 0
        for r in range(200):
            data = sample_dataset(theta, n, philox(900000 + 1000 * n + r))
            est = build_graph(pearson_correlation(data), report.tau0)
            misses += not np.array_equal(est.closed, population.closed)
        rates[n] = misses / 200

    stats = f"rates={rates} gap={report.gap:.4f}"
    assert rates[100] >= rates[300] >= rates[1000], stats
    assert rates[1000] <= 0.05, stats
    for n, rate in rates.items():
        bound = consistency_bound(n, theta.p, report.gap, c_const=1.0)
        # a bound that clamps to 1 carries no information at this gap
        assert rate <= bound or bound >= 1.0, f"n={n}: rate {rate} above {bound:.3g}"


def test_08_metrics_agree_with_brute_force_and_form_pseudometric():
    gen = philox(8800)
    for i in range(1000):
        p = int(gen.integers(3, 10))
        est = random_structure(gen, p, 7)
        truth = random_structure(gen, p, 7)
        report = hamming_distance(est, truth)
        assert report.hd == brute_force_metric(est, truth, "hd"), f"pair {i}"
        assert abs(report.f1 - brute_force_metric(est, truth, "f1")) <= 1e-12, f"pair {i}"

    for i in range(500):
        p = int(gen.integers(3, 9))
        a = random_structure(gen, p, 5)
        b = random_structure(gen, p, 5)
        c = random_structure(gen, p, 5)
        ab = hamming_distance(a, b).hd
        bc = hamming_distance(b, c).hd
        ac = hamming_distance(a, c).hd
        assert hamming_distance(a, a).hd == 0
        assert ab == hamming_distance(b, a).hd
        assert ac <= ab + bc, f"triple {i}: {ac} > {ab} + {bc}"


def test_09_unique_child_frequency_beats_analytic_floor():
    draws = 2000
    holds = sum(
        unique_children(gen_random_bipartite(200, 5, 0.05, philox(40000 + t)))[1]
        for t in range(draws)
    )
    frequency = holds / draws
    bound = ucc_probability_bound(200, 5, 0.05)
    floor = bound - 3 * math.sqrt(bound * (1 - bound) / draws)
    assert frequency >= floor, f"frequency={frequency:.5f} floor={floor:.5f}"


def test_10_scales_to_thousands_of_variables(tmp_path):
    # a) command round trip on a two-thousand-vertex mean-degree-20 graph
    gen = np.random.default_rng(77)
    p = 2000
    n_edges = p * 20 // 2
    pairs = set()
    while len(pairs) < n_edges:
        i, j = (int(v) for v in gen.integers(0, p, size=2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    corr = np.zeros((p, p))
    weights = np.round(gen.uniform(0.4, 0.8, size=n_edges), 3)
    for (i, j), w in zip(sorted(pairs), weights):
        corr[i, j] = corr[j, i] = w
    np.fill_diagonal(corr, 1.0)
    src = tmp_path / "corr2000.json"
    save_json(src, {"correlation": corr, "n": 500})
    out = tmp_path / "cliques.json"

    t0 = time.perf_counter()
    rc = cli.main(["cliques", str(src), "--tau", "0.25", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["p"] == p and doc["n_cliques"] == len(doc["cliques"])
    assert wall < 1.0, f"cliques command took {wall:.2f}s on p={p}"

    # b) full sweep at the largest preset
    n, p, d = HIGHDIM_PRESETS[1000]
    spec = SimSpec(d=d, children_per_factor=p // d, n=n, seed=5, phi_scale=0.25)
    theta = gen_independent_cluster(spec)
    truth = theta.structure()
    data = sample_dataset(theta, n, data_rng(spec))
    corr = pearson_correlation(data)
    t0 = time.perf_counter()
    result = ct_run(corr, n, CtConfig(selection="min-hd-oracle", truth=truth, seed=5))
    sweep = time.perf_counter() - t0
    assert sweep < 300.0, f"preset sweep took {sweep:.1f}s"
    assert hamming_distance(result.selected.structure, truth).f1 == 1.0
