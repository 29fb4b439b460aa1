"""Tests for thresholds, decision rules, and the Monte Carlo error harness."""

import math
import tracemalloc

import numpy as np
import pytest

from geodetect.detection import (
    TestSpec,
    _planted_triangles,
    _planted_trials,
    calibrate_cycle_constant,
    constraint_params,
    cycle_test_snr,
    estimate_errors,
    make_test_spec,
    run_test,
    statistic_value,
)
from geodetect.graphs import (
    Arm,
    Graph,
    ModelParams,
    Seed,
    pair_index,
    sample_null,
    sample_planted,
)
from geodetect.sphere import signed_cycle_expectation
from geodetect.stats import (
    ScanConfig,
    constrained_scan_statistic,
    scan_statistic,
    signed_triangle_count,
    wedge_sums,
)
from oracles import planted_trial_full_draw


def gamma_tri(params):
    """The global triangle test's threshold, as make_test_spec computes it."""
    return make_test_spec("global-triangle", params).threshold


class TestGammaTri:
    def test_half_of_planted_mean_formula(self):
        params = ModelParams(n=40, p=0.5, d=8, k=20)
        series = signed_cycle_expectation(3, 0.5, 8).value
        expected = 0.5 * math.comb(40, 3) * (0.5**3) * series
        assert gamma_tri(params) == pytest.approx(expected, rel=1e-12)

    def test_cubic_scaling_in_k(self):
        base = ModelParams(n=50, p=0.4, d=16, k=50)
        for k in (10, 25, 40):
            partial = ModelParams(n=50, p=0.4, d=16, k=k)
            assert gamma_tri(partial) / gamma_tri(base) == pytest.approx(
                (k / 50) ** 3, rel=1e-12
            )

    def test_monotone_decreasing_in_d(self):
        vals = [
            gamma_tri(ModelParams(n=50, p=0.4, d=d, k=50))
            for d in (8, 32, 128, 512, 2048)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


    def test_equals_three_cycle_threshold(self):
        # the global triangle test is the ell = 3 cycle test: one threshold, bit for bit
        for n in (3, 40, 300, 1000):
            for p in (0.05, 0.1, 0.3, 0.37, 0.5):
                for d in (4, 16, 256, 10**6):
                    for k in (1.0, n / 3, n):
                        params = ModelParams(n=n, p=p, d=d, k=k)
                        cycle = make_test_spec("cycle", params, ell=3).threshold
                        assert gamma_tri(params) == cycle, params


class TestGammaScan:
    def test_small_community_zero(self):
        spec = make_test_spec("scan", ModelParams(n=30, p=0.4, d=8, k=3))
        assert spec.threshold == 0.0  # k_minus = 2

    def test_ratio_to_global(self):
        params = ModelParams(n=40, p=0.3, d=16, k=20)
        km = params.k_minus
        expected = math.comb(km, 3) / (math.comb(40, 3) * (0.5**3))
        scan = make_test_spec("scan", params).threshold
        assert scan / gamma_tri(params) == pytest.approx(expected, rel=1e-12)


class TestConstraintParams:
    def test_range_bound_example(self):
        params = ModelParams(n=10**7, p=0.5, d=10**6, k=100)
        sigma_sq, bound = constraint_params(params, cycle_constant=1.0)
        assert bound == (2048 * 100 * 0.25 + 8) * 5  # ceil(log 100) = 5
        assert bound == 256040

    def test_sigma_limit_large_d(self):
        params = ModelParams(n=10**7, p=0.5, d=10**12, k=100)
        sigma_sq, _ = constraint_params(params, cycle_constant=1.0)
        assert sigma_sq == pytest.approx(100**3 * 0.25, rel=1e-6)

    def test_sigma_increasing_in_constant(self):
        params = ModelParams(n=1000, p=0.3, d=64, k=50)
        vals = [constraint_params(params, c)[0] for c in (1.0, 1.5, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCalibration:
    def test_single_point(self):
        res = calibrate_cycle_constant(0.3, [64], [3])
        ratio = signed_cycle_expectation(3, 0.3, 64).ratio
        assert res.constant == pytest.approx(max(ratio, 1 / ratio) ** (1 / 3), rel=1e-12)

    def test_nondecreasing_with_grid(self):
        small = calibrate_cycle_constant(0.3, [64], [3])
        larger = calibrate_cycle_constant([0.1, 0.3, 0.5], [64, 256], [3, 4])
        assert larger.constant >= small.constant

    def test_floor_at_one(self):
        res = calibrate_cycle_constant(0.5, [1024], [3])
        assert res.constant >= 1.0


class TestPlantedCoinMemo:
    @pytest.mark.parametrize(
        "n, p, k, ds, sizes",
        [
            (12, 0.3, 12, (4, 16), {12}),  # s = n: latents at d = 4, Bartlett at d = 16
            (12, 1.0, 12, (4, 16), {12}),
            (10, 0.5, 0.01, (4, 64), {0}),
            (10, 0.3, 1.5, (4, 64), {1, 2}),
            (40, 0.5, 20, (8, 64), {18, 22}),  # d = 8 < s and d = 64 >= s
        ],
    )
    def test_split_count_equals_the_drawn_graph(self, monkeypatch, n, p, k, ds, sizes):
        # the memoised coin part and each d's block give the count of
        # sample_planted's graph, by ==, from a cold memo and from a memo hit
        import geodetect.detection as detection_mod

        draws = []
        real = detection_mod._edge_coins
        monkeypatch.setattr(
            detection_mod, "_edge_coins", lambda *args: draws.append(1) or real(*args)
        )
        seed, trials = Seed(5), 16
        for cold in (True, False):
            detection_mod._coin_group.cache_clear()
            seen = set()
            for d in ds:
                params = ModelParams(n=n, p=p, d=d, k=k)
                if cold:
                    detection_mod._coin_group.cache_clear()
                draws.clear()
                for t in range(trials):
                    sample = sample_planted(params, seed.stream(t, arm=Arm.PLANTED))
                    value = _planted_triangles(params, seed, t)
                    if not params.k_minus <= sample.members.size <= params.k_plus:
                        assert value is None
                        continue
                    seen.add(sample.members.size)
                    assert value == signed_triangle_count(sample.graph, p), (d, t)
                kept_trials = trials - sum(
                    _planted_triangles(params, seed, t) is None for t in range(trials)
                )
                assert len(draws) == (kept_trials if cold or d == ds[0] else 0)
            assert sizes <= seen  # the community sizes the case is for

    def test_memo_holds_one_group(self):
        import geodetect.detection as detection_mod

        detection_mod._coin_group.cache_clear()
        first = ModelParams(n=30, p=0.5, d=8, k=15)
        for t in range(5):
            _planted_triangles(first, Seed(3), t)
        assert len(detection_mod._coin_group(30, 0.5, first.k, Seed(3))) == 5
        for params, seed in ((ModelParams(n=30, p=0.5, d=8, k=12), Seed(3)), (first, Seed(4))):
            for t in range(2):
                _planted_triangles(params, seed, t)
            assert detection_mod._coin_group.cache_info().currsize == 1
            assert len(detection_mod._coin_group(30, 0.5, params.k, seed)) == 2

    def test_threads_sharing_the_memo_read_their_own_group(self):
        # threads of two groups keep replacing each other's entries; a value
        # read from the other group's entries would differ from the cold one
        import sys
        import threading

        import geodetect.detection as detection_mod

        groups = [ModelParams(n=8, p=0.5, d=8, k=k) for k in (3, 5)]
        trials, seed = 8, Seed(6)
        expected = []
        for params in groups:
            detection_mod._coin_group.cache_clear()
            expected.append([_planted_triangles(params, seed, t) for t in range(trials)])
        detection_mod._coin_group.cache_clear()
        results, errors = {}, []

        def work(worker):
            try:
                params = groups[worker % 2]
                for _ in range(20):
                    for t in range(trials):
                        results[worker, t] = _planted_triangles(params, seed, t)
                        assert results[worker, t] == expected[worker % 2][t]
            except BaseException as exc:  # reported below, in the test's own thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 8 * trials


class TestRunTest:
    def test_boundary_is_null(self):
        params = ModelParams(n=3, p=0.4, d=8, k=2)
        g = Graph(3, np.zeros(3, dtype=bool))
        stat = (-0.4) ** 3
        spec = TestSpec(kind="global-triangle", params=params, threshold=stat)
        assert run_test(spec, g) == "null"  # equality is not strict excess
        below = TestSpec(kind="global-triangle", params=params, threshold=stat - 1e-9)
        assert run_test(below, g) == "planted"

    def test_infeasible_constrained_scan_is_null(self):
        params = ModelParams(n=6, p=0.4, d=8, k=5)
        edges = np.ones(15, dtype=bool)
        g = Graph(6, edges)
        spec = TestSpec(
            kind="constrained-scan",
            params=params,
            threshold=-100.0,
            scan=ScanConfig(k_minus=params.k_minus, mode="exhaustive", sigma_sq=0.0, B=0.0),
        )
        assert run_test(spec, g) == "null"

    def test_relabeling_invariance_exhaustive(self):
        # decisions are invariant under every vertex relabeling for global
        # and exhaustive-scan statistics (all 720 permutations at n = 6)
        from itertools import permutations

        params = ModelParams(n=6, p=0.5, d=8, k=5)
        g = sample_null(6, 0.5, Seed(1).stream(0))
        specs = [
            make_test_spec("global-triangle", params),
            make_test_spec("scan", params, scan_mode="exhaustive"),
        ]
        base = [run_test(s, g) for s in specs]
        for perm in permutations(range(6)):
            edges = np.zeros(15, dtype=bool)
            for i in range(6):
                for j in range(i + 1, 6):
                    a, b = perm[i], perm[j]
                    edges[pair_index(min(a, b), max(a, b), 6)] = g.has_edge(i, j)
            relabeled = Graph(6, edges)
            assert [run_test(s, relabeled) for s in specs] == base


class TestEstimateErrors:
    def test_rejects_zero_trials(self):
        spec = make_test_spec("global-triangle", ModelParams(n=10, p=0.5, d=8, k=5))
        with pytest.raises(ValueError):
            estimate_errors(spec, 0, Seed(0))

    def test_always_planted_rule(self):
        params = ModelParams(n=12, p=0.5, d=8, k=6)
        spec = TestSpec(kind="global-triangle", params=params, threshold=-math.inf)
        est = estimate_errors(spec, 40, Seed(5))
        assert est.type1 == 1.0
        assert est.type2 == 0.0

    def test_reproducible_and_worker_invariant(self):
        spec = make_test_spec("global-triangle", ModelParams(n=30, p=0.5, d=8, k=15))
        a = estimate_errors(spec, 60, Seed(9))
        b = estimate_errors(spec, 60, Seed(9))
        assert (a.type1, a.type2, a.excluded) == (b.type1, b.type2, b.excluded)

    def test_half_width_formula(self):
        spec = make_test_spec("global-triangle", ModelParams(n=20, p=0.5, d=8, k=10))
        est = estimate_errors(spec, 50, Seed(11))
        assert est.type1_half_width == pytest.approx(
            1.96 * math.sqrt(est.type1 * (1 - est.type1) / 50)
        )

    def test_exclusion_counting(self):
        # tight size window: with k = n/2 many draws fall outside [k-, k+]
        spec = make_test_spec("global-triangle", ModelParams(n=60, p=0.5, d=8, k=30))
        est = estimate_errors(spec, 300, Seed(12))
        assert 0 < est.excluded < 300

    @pytest.mark.parametrize("kind", ["scan", "constrained-scan"])
    def test_local_search_trials_score_as_their_own_scans(self, monkeypatch, kind):
        # the rows cannot show this: at these sizes every null trial alarms.
        # Each chunk's stacked search gives each trial's graph the value
        # scan_statistic gives it alone, null and planted graphs alike
        import geodetect.detection as detection_mod

        params, seed, trials = ModelParams(n=64, p=0.3, d=16, k=26), Seed(31), 13
        spec = make_test_spec(kind, params, scan_mode="local-search", restarts=2)
        assert len(detection_mod._trial_chunks(trials, params.n, spec.scan)) > 1
        scored, stacked = [], detection_mod._local_search_values

        def recorded(p, scan, graphs):
            values = stacked(p, scan, graphs)
            scored.extend(zip(graphs, values))
            return values

        monkeypatch.setattr(detection_mod, "_local_search_values", recorded)
        detection_mod._null_statistic.cache_clear()
        estimate_errors(spec, trials, seed)
        graphs = [sample_null(params.n, params.p, seed.stream(t, arm=Arm.NULL)) for t in range(trials)]
        for t in range(trials):
            sample = sample_planted(params, seed.stream(t, arm=Arm.PLANTED))
            if params.k_minus <= sample.members.size <= params.k_plus:
                graphs.append(sample.graph)
        assert sorted(g.edges.tobytes() for g, _ in scored) == sorted(g.edges.tobytes() for g in graphs)
        search = scan_statistic if kind == "scan" else constrained_scan_statistic
        for graph, value in scored:
            assert value == search(graph, params.p, spec.scan)[0]

    def test_local_search_arm_peak_memory(self):
        # the scan-cycle benchmark's constrained arm, at twice its 12 trials:
        # chunks of stacked graphs stay within the chunk budget, where one
        # stack of all 24 would peak at about 2.7 MiB
        import geodetect.detection as detection_mod

        params = ModelParams(n=64, p=0.3, d=16, k=26)
        spec = make_test_spec("constrained-scan", params, scan_mode="local-search", restarts=2)
        estimate_errors(spec, 2, Seed(2))  # lazy imports and caches
        detection_mod._null_statistic.cache_clear()
        tracemalloc.start()
        try:
            estimate_errors(spec, 24, Seed(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_excluded_trial_stops_after_the_membership_draw(self, monkeypatch):
        # the global test's first draw after the membership is its coins
        self.check_excluded_trials_stop(monkeypatch, "global-triangle", "_edge_coins")

    def test_excluded_whole_graph_trial_stops_after_the_membership_draw(self, monkeypatch):
        # a test of the whole graph draws the graph after the membership
        self.check_excluded_trials_stop(monkeypatch, "cycle", "sample_planted_fixed_community")

    @staticmethod
    def check_excluded_trials_stop(monkeypatch, kind, graph_draw):
        """An excluded trial draws its n membership uniforms and nothing more:
        graph_draw, the detection name of the trial's next draw, raises when called."""
        import geodetect.detection as detection_mod

        params = ModelParams(n=60, p=0.5, d=8, k=30)
        spec = make_test_spec(kind, params, **({"ell": 4} if kind == "cycle" else {}))
        made = []

        class RecordingSeed(Seed):
            def stream(self, trial, arm=0):
                made.append(super().stream(trial, arm))
                return made[-1]

        class Kept(Exception):
            pass

        def kept(*args):
            raise Kept

        seed = RecordingSeed(12)
        monkeypatch.setattr(detection_mod, graph_draw, kept)
        detection_mod._coin_group.cache_clear()
        excluded = 0
        for t in range(40):
            try:
                (outcome,) = _planted_trials(spec, seed, range(t, t + 1))
            except Kept:
                continue
            assert outcome is None
            reference = Seed(12).stream(t, arm=Arm.PLANTED)
            reference.random(params.n)
            assert made[-1].bit_generator.state == reference.bit_generator.state
            excluded += 1
        assert 0 < excluded < 40

    @pytest.mark.parametrize(
        "kind, n, p, d, k",
        [
            ("global-triangle", 60, 0.5, 8, 30),
            ("global-triangle", 40, 0.3, 64, 12),
            ("scan", 20, 0.5, 4, 10),
            ("cycle", 30, 0.4, 16, 15),
        ],
    )
    def test_planted_outcomes_equal_the_full_draw(self, kind, n, p, d, k):
        params = ModelParams(n=n, p=p, d=d, k=k)
        extra = {"ell": 4} if kind == "cycle" else {}
        spec = make_test_spec(kind, params, **extra)
        seed = Seed(21)
        outcomes = _planted_trials(spec, seed, range(40))
        assert outcomes == [planted_trial_full_draw(spec, seed, t) for t in range(40)]
        assert None in outcomes and set(outcomes) - {None}

    def test_scan_oracle_uses_community_prefix(self):
        params = ModelParams(n=18, p=0.5, d=4, k=12)
        spec = make_test_spec("scan", params, scan_mode="planted-oracle")
        rng = Seed(13).stream(0, arm=1)
        sample = sample_planted(params, rng)
        oracle = sample.members[: params.k_minus]
        expected = statistic_value(spec, sample.graph, oracle)
        cfg = ScanConfig(k_minus=params.k_minus, mode="planted-oracle")
        direct, _ = scan_statistic(sample.graph, 0.5, cfg, oracle_subset=oracle)
        assert expected == pytest.approx(direct, abs=1e-12)

    def test_error_monotone_in_dimension(self):
        # common random numbers across a d sweep; one inversion tolerated
        # within overlapping confidence intervals
        totals, widths = [], []
        for d in (4, 64, 1024, 10**6):
            spec = make_test_spec(
                "global-triangle", ModelParams(n=60, p=0.5, d=d, k=45)
            )
            est = estimate_errors(spec, 500, Seed(77))
            totals.append(est.type1 + est.type2)
            widths.append(est.type1_half_width + est.type2_half_width)
        inversions = [
            (a, b, wa + wb)
            for (a, wa), (b, wb) in zip(zip(totals, widths), zip(totals[1:], widths[1:]))
            if a > b
        ]
        assert len(inversions) <= 1
        for a, b, w in inversions:
            assert a - b <= w  # inside CI overlap

    @pytest.mark.parametrize(
        "n,p,d,k,seed",
        [(30, 0.5, 8, 15, 14), (24, 0.3, 16, 12, 15), (36, 0.5, 4, 24, 16)],
    )
    def test_threshold_matches_planted_mean(self, n, p, d, k, seed):
        # 2 gamma_tri is the planted-model mean of the triangle count
        from geodetect.stats import signed_triangle_count

        params = ModelParams(n=n, p=p, d=d, k=k)
        trials = 30_000
        s = Seed(seed)
        vals = np.array(
            [
                signed_triangle_count(sample_planted(params, s.stream(t)).graph, p)
                for t in range(trials)
            ]
        )
        se = vals.std() / math.sqrt(trials)
        assert abs(vals.mean() - 2 * gamma_tri(params)) <= 3 * se

    def test_constrained_scan_feasible_on_community(self):
        # the planted community's prefix satisfies both wedge constraints in
        # at least 90% of draws
        params = ModelParams(n=30, p=0.5, d=16, k=30)
        constant = calibrate_cycle_constant(0.5, [16, 64], [3, 4]).constant
        sigma_sq, bound = constraint_params(params, constant)
        seed = Seed(21)
        feasible = 0
        trials = 1000
        for t in range(trials):
            sample = sample_planted(params, seed.stream(t))
            if sample.members.size < params.k_minus:
                feasible += 1  # cannot evaluate; do not count against
                continue
            prefix = sample.members[: params.k_minus]
            table = wedge_sums(sample.graph, 0.5, prefix)
            vals = np.array(list(table.values()))
            if float(vals @ vals) <= sigma_sq and np.abs(vals).max() <= bound:
                feasible += 1
        assert feasible / trials >= 0.90


class TestCycleSnr:
    def test_triangle_dominates(self):
        params = ModelParams(n=500, p=0.5, d=64, k=250)
        snrs = [cycle_test_snr(params, ell) for ell in (3, 4, 5)]
        assert snrs[0] > snrs[1] > snrs[2]

    def test_community_scaling(self):
        base = ModelParams(n=100, p=0.4, d=32, k=100)
        for ell in (3, 4):
            s_full = cycle_test_snr(base, ell)
            for k in (20, 50):
                partial = ModelParams(n=100, p=0.4, d=32, k=k)
                assert cycle_test_snr(partial, ell) / s_full == pytest.approx(
                    (k / 100) ** ell, rel=1e-12
                )

    def test_vanishes_with_community(self):
        tiny = ModelParams(n=100, p=0.4, d=32, k=1e-6)
        assert cycle_test_snr(tiny, 3) < 1e-12


class TestSpecSeries:
    def test_records_every_series_read(self):
        params = ModelParams(n=40, p=0.3, d=16, k=20)
        cases = {
            ("global-triangle", ()): (3,),
            ("scan", ()): (3,),
            ("constrained-scan", ()): (3, 4),
            ("constrained-scan", (("cycle_constant", 1.2),)): (3,),
            ("cycle", (("ell", 5),)): (5,),
        }
        for (kind, options), ells in cases.items():
            spec = make_test_spec(kind, params, **dict(options))
            assert tuple(s.ell for s in spec.series) == ells, kind
            assert all((s.p, s.d) == (0.3, 16) and not s.failed for s in spec.series)

    def test_calibrates_at_the_model_dimension(self):
        for d in (4, 16, 1024):
            params = ModelParams(n=40, p=0.3, d=d, k=20)
            spec = make_test_spec("constrained-scan", params)
            assert spec.cycle_constant == calibrate_cycle_constant(0.3, [d], [3, 4]).constant


class TestSpecValidation:
    def test_kind_checked(self):
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        with pytest.raises(ValueError):
            TestSpec(kind="other", params=params, threshold=0.0)

    def test_cycle_needs_ell(self):
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        with pytest.raises(ValueError):
            TestSpec(kind="cycle", params=params, threshold=0.0)

    def test_constrained_needs_bounds(self):
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        with pytest.raises(ValueError):
            TestSpec(kind="constrained-scan", params=params, threshold=0.0)

    def test_nan_threshold_rejected(self):
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        with pytest.raises(ValueError):
            TestSpec(kind="global-triangle", params=params, threshold=math.nan)

    def test_statistic_matches_kind(self):
        # a spec carries ell or a scan, and a scan is constrained exactly for constrained-scan
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        scan = ScanConfig(k_minus=params.k_minus)
        bounded = ScanConfig(k_minus=params.k_minus, sigma_sq=1.0, B=1.0)
        for kind, fields in [
            ("global-triangle", {"ell": 4}),
            ("global-triangle", {"scan": scan}),
            ("cycle", {"ell": 2}),
            ("cycle", {"ell": 8}),
            ("cycle", {"ell": 3, "scan": scan}),
            ("scan", {}),
            ("scan", {"scan": scan, "ell": 3}),
            ("scan", {"scan": bounded}),
            ("constrained-scan", {"scan": scan}),
        ]:
            with pytest.raises(ValueError):
                TestSpec(kind=kind, params=params, threshold=0.0, **fields)

    def test_global_triangle_is_the_three_cycle_statistic(self):
        params = ModelParams(n=10, p=0.5, d=8, k=5)
        assert TestSpec(kind="global-triangle", params=params, threshold=0.0).ell == 3
        assert make_test_spec("global-triangle", params).ell == 3
        spec = make_test_spec("constrained-scan", params, cycle_constant=1.0)
        sigma_sq, bound = constraint_params(params, 1.0)
        assert spec.ell is None
        assert spec.scan == ScanConfig(
            k_minus=params.k_minus, mode="planted-oracle", sigma_sq=sigma_sq, B=bound
        )
        assert make_test_spec("scan", params, cycle_constant=1.0).cycle_constant is None
