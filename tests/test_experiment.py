import io
from dataclasses import asdict

import numpy as np
import pytest

from pabsig import (
    ErrorRecord,
    ExperimentConfig,
    KernelSolution,
    NumericError,
    ShapeMismatchError,
    TimeSeries,
    build_pab,
    convergence_experiment,
    error_estimate,
    gram_matrix,
    linear_kernel_closed_form,
    reference_value,
    simulate_bm,
    solve,
    thin_partition,
    write_pair_errors_csv,
    write_records_csv,
)

from pabsig import experiment

from helpers import line_series, rand_series


def test_simulate_bm_shape_and_grid():
    ts = simulate_bm(2, 16, 1.0, seed=0)
    assert ts.values.shape == (17, 2)
    np.testing.assert_allclose(ts.times, np.linspace(0.0, 1.0, 17), rtol=1e-15)
    assert not ts.values[0].any()
    with pytest.raises(ValueError, match="need at least one step, got 0"):
        simulate_bm(2, 0, 1.0, seed=0)


def test_simulate_bm_deterministic():
    a = simulate_bm(3, 32, 2.0, seed=7)
    b = simulate_bm(3, 32, 2.0, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_bm(3, 32, 2.0, seed=8)
    assert (a.values != c.values).any()


def test_simulate_bm_increment_variance():
    ts = simulate_bm(1, 20000, 4.0, seed=5)
    var = ts.increments().var()
    assert var == pytest.approx(4.0 / 20000, rel=0.05)


def test_simulate_bm_accepts_seed_sequence():
    ss = np.random.SeedSequence(11)
    a = simulate_bm(2, 8, 1.0, ss)
    b = simulate_bm(2, 8, 1.0, np.random.SeedSequence(11))
    np.testing.assert_array_equal(a.values, b.values)


def test_reference_value_constant_and_line():
    flat = TimeSeries([0.0, 0.5, 1.0], np.zeros((3, 2)))
    assert reference_value(flat, flat) == 1.0
    a = line_series([1.0, 0.0], 512)
    want = linear_kernel_closed_form(1.0, 30)
    assert reference_value(a, a) == pytest.approx(want, abs=1e-5)


def test_reference_value_symmetric():
    rng = np.random.default_rng(50)
    a = rand_series(rng, 2, 20)
    b = rand_series(rng, 2, 20)
    assert reference_value(a, b) == reference_value(b, a)


def test_error_estimate_identity_is_exact_zero():
    a = simulate_bm(2, 32, 1.0, seed=1)
    b = simulate_bm(2, 32, 1.0, seed=2)
    assert error_estimate(a, b, 1, 1) == 0.0


def test_error_estimate_requires_divisor():
    a = simulate_bm(2, 32, 1.0, seed=3)
    with pytest.raises(ValueError):
        error_estimate(a, a, 1, 5)
    with pytest.raises(ValueError):
        error_estimate(a, a, 1, 0)


def test_error_estimate_honors_passed_reference():
    from pabsig import solve_order1

    a = simulate_bm(2, 16, 1.0, seed=4)
    b = simulate_bm(2, 16, 1.0, seed=5)
    ref = reference_value(a, b)
    assert error_estimate(a, b, 1, 4, reference=ref) == error_estimate(a, b, 1, 4)
    coarse = solve_order1(
        np.diff(a.values[::4], axis=0), np.diff(b.values[::4], axis=0)
    ).value
    assert error_estimate(a, b, 1, 4, reference=ref + 1.0) == abs(
        ref + 1.0 - coarse
    )


def test_higher_degree_tracks_fine_solution_better():
    # with a fixed coarsening, richer lifts retain more of the fine path
    errs = {m: [] for m in (1, 2)}
    for rep in range(6):
        a = simulate_bm(2, 128, 1.0, seed=100 + rep)
        b = simulate_bm(2, 128, 1.0, seed=200 + rep)
        ref = reference_value(a, b)
        for m in errs:
            errs[m].append(error_estimate(a, b, m, 8, reference=ref))
    assert np.mean(errs[2]) < np.mean(errs[1])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_fine=100, factors=(3,))
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(degrees=(0, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(factors=())
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=0.0)
    # a repeat would put its errors into one cell twice
    with pytest.raises(ValueError, match="factor 4 is repeated"):
        ExperimentConfig(n_fine=16, factors=(4, 4), degrees=(1,))
    with pytest.raises(ValueError, match="degree 2 is repeated"):
        ExperimentConfig(n_fine=16, factors=(4,), degrees=(1, 2, 2))
    cfg = ExperimentConfig(factors=(8, 4), degrees=(2, 1))
    assert cfg.factors == (4, 8)
    assert cfg.degrees == (1, 2)


def test_config_from_mapping():
    cfg = ExperimentConfig.from_mapping(
        {"n_fine": 64, "factors": [4, 8], "degrees": [1, 2], "repetitions": 3}
    )
    assert cfg.n_fine == 64
    assert cfg.factors == (4, 8)
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"n_fine": 64, "mystery": 1})
    assert ExperimentConfig.from_mapping(asdict(ExperimentConfig())) == ExperimentConfig()


def test_convergence_experiment_structure():
    cfg = ExperimentConfig(
        n_fine=32, factors=(4, 8), degrees=(1, 2), repetitions=3
    )
    records = convergence_experiment(cfg)
    assert [(r.degree, r.factor) for r in records] == [
        (1, 4), (1, 8), (2, 4), (2, 8)
    ]
    for r in records:
        assert r.errors.shape == (3,)
        assert r.mean_error == pytest.approx(float(r.errors.mean()), rel=1e-15)
        assert r.stderr >= 0.0
        assert np.isfinite(r.errors).all()


def test_convergence_experiment_deterministic():
    cfg = ExperimentConfig(
        n_fine=32, factors=(4,), degrees=(1, 2), repetitions=2, seed=9
    )
    a, b = convergence_experiment(cfg), convergence_experiment(cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.errors, rb.errors)
        assert ra.mean_error == rb.mean_error
        assert ra.stderr == rb.stderr


def test_convergence_lifts_each_path_once_per_factor(monkeypatch):
    from pabsig import experiment

    cfg = ExperimentConfig(n_fine=32, factors=(2, 4, 8), degrees=(1, 2, 3),
                           repetitions=3, seed=4)
    lifts = []
    lift = experiment.build_pab
    monkeypatch.setattr(experiment, "build_pab",
                        lambda ts, part, m: lifts.append(m) or lift(ts, part, m))
    convergence_experiment(cfg)
    assert len(lifts) == 2 * cfg.repetitions * len(cfg.factors)
    assert set(lifts) == {max(cfg.degrees)}


def test_convergence_single_repetition_stderr_zero():
    cfg = ExperimentConfig(n_fine=16, factors=(4,), degrees=(1,), repetitions=1)
    (rec,) = convergence_experiment(cfg)
    assert rec.stderr == 0.0
    # single-repetition reruns are bit-identical too
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_records_csv(convergence_experiment(cfg), buf1)
    write_records_csv([rec], buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_gram_matrix_basics():
    flat = TimeSeries([0.0, 1.0], np.zeros((2, 2)))
    g = gram_matrix([flat], 2)
    np.testing.assert_array_equal(g, [[1.0]])
    rng = np.random.default_rng(51)
    ts = rand_series(rng, 2, 8)
    g2 = gram_matrix([ts, ts], 2, every=2)
    assert g2[0, 0] == g2[0, 1] == g2[1, 0] == g2[1, 1]


def test_gram_matrix_symmetric_psd():
    paths = [simulate_bm(2, 64, 1.0, seed=60 + i) for i in range(5)]
    g = gram_matrix(paths, 2, every=4)
    np.testing.assert_array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() >= -1e-8


def test_gram_matrix_validation():
    a = TimeSeries([0.0, 1.0], np.zeros((2, 2)))
    b = TimeSeries([0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        gram_matrix([a, b], 1)
    with pytest.raises(ValueError):
        gram_matrix([], 1)


def test_gram_matrix_gates_kernel_identities(monkeypatch):
    # every exact Gram matrix has K_ii >= 1 and |K_ij| <= sqrt(K_ii K_jj);
    # computed entries may miss either by the relative slack 1e-9 only
    dataset = [simulate_bm(2, 4, 1.0, seed=s) for s in range(3)]

    def gram(diag, corner):
        # entries in solve order: (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
        values = iter([diag, 1.0, corner, 2.0, 1.0, 2.0])
        monkeypatch.setattr(experiment, "solve", lambda px, py: KernelSolution(next(values)))
        return gram_matrix(dataset, 1)

    assert gram(2.0, 2.0)[0, 2] == 2.0
    assert gram(1.0 - 0.5e-9, 1.0)[0, 0] == 1.0 - 0.5e-9
    assert gram(2.0, -2.0 * (1.0 + 0.5e-9))[2, 0] == -2.0 * (1.0 + 0.5e-9)
    with pytest.raises(NumericError, match=r"^kernel of series 0 with itself is 0\.5, below 1$"):
        gram(0.5, 0.1)
    with pytest.raises(NumericError, match=r"^kernel of series 0 with itself is -3\.0, below 1$"):
        gram(-3.0, 0.1)
    for corner in (2.0 * (1.0 + 2e-9), -2.5):
        with pytest.raises(NumericError,
                           match=r"^kernel of series 0 and 2 exceeds the Cauchy-Schwarz bound$"):
            gram(2.0, corner)


def test_write_records_csv():
    rec = ErrorRecord(2, 8, 0.125, 0.5, np.array([0.1, 0.15]))
    buf = io.StringIO()
    write_records_csv([rec], buf)
    assert buf.getvalue() == "degree,factor,mean_error,stderr,pairs\n2,8,0.125,0.5,2\n"


def test_write_pair_errors_csv():
    rec = ErrorRecord(1, 4, 0.25, 0.0, np.array([0.25, 0.25]))
    buf = io.StringIO()
    write_pair_errors_csv([rec], buf)
    assert buf.getvalue() == (
        "degree,factor,pair,error\n1,4,0,0.25\n1,4,1,0.25\n"
    )


def test_csv_round_trips_floats_exactly():
    cfg = ExperimentConfig(n_fine=32, factors=(4,), degrees=(2,), repetitions=2)
    records = convergence_experiment(cfg)
    buf = io.StringIO()
    write_records_csv(records, buf)
    line = buf.getvalue().splitlines()[1].split(",")
    assert float(line[2]) == records[0].mean_error
    assert float(line[3]) == records[0].stderr


def test_gram_matrix_ragged_lengths_match_single_solves_bitwise():
    # three lengths give several shape groups, swept one group at a time
    rng = np.random.default_rng(52)
    dataset = [rand_series(rng, 2, n) for n in (8, 12, 8, 16, 12, 8)]
    for m, every in ((1, 1), (2, 2), (3, 4)):
        pabs = [build_pab(ts, thin_partition(ts, every), m) for ts in dataset]
        want = np.array([[solve(a, b).value for b in pabs] for a in pabs])
        got = gram_matrix(dataset, m, every)
        upper = np.triu_indices(len(dataset))
        assert got[upper].tobytes() == want[upper].tobytes()
        np.testing.assert_array_equal(got, got.T)


def test_convergence_errors_match_error_estimate_bitwise():
    cfg = ExperimentConfig(n_fine=32, factors=(2, 4, 8), degrees=(1, 2, 3),
                           repetitions=4, seed=5)
    records = convergence_experiment(cfg)
    root = np.random.SeedSequence(cfg.seed)
    pairs = []
    for child in root.spawn(cfg.repetitions):
        sx, sy = child.spawn(2)
        pairs.append((simulate_bm(cfg.dim, cfg.n_fine, cfg.horizon, sx),
                      simulate_bm(cfg.dim, cfg.n_fine, cfg.horizon, sy)))
    assert len(records) == 9
    for rec in records:
        want = np.array([error_estimate(x, y, rec.degree, rec.factor)
                         for x, y in pairs])
        assert rec.errors.tobytes() == want.tobytes()
