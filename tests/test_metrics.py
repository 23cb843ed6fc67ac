import numpy as np
import pytest

from mgdeform.errors import DegenerateMetricError
from mgdeform.metrics import (
    AmbientMetric,
    ConformalMetric,
    FlatMetric,
    check_positive_definite,
    conformal_linear_metric,
    conformal_radial_metric,
    make_metric,
    norm_monitor,
)

from helpers import RadialWarpedMetric
from reference import (
    christoffel_from_contractions,
    christoffel_symbols,
    metric_compatibility_residual,
)


def fd_dmetric(metric, y, step=1e-6):
    out = np.empty(y.shape[:-1] + (3, 3, 3))
    for s in range(3):
        e = np.zeros(3)
        e[s] = step
        out[..., s] = (metric.metric(y + e) - metric.metric(y - e)) / (2 * step)
    return out


def test_flat_christoffel_zero():
    pts = np.random.default_rng(0).normal(size=(4, 5, 3))
    gamma = christoffel_from_contractions(FlatMetric(), pts)
    assert gamma.shape == (3, 3, 3, 4, 5)
    assert np.array_equal(gamma, np.zeros((3, 3, 3, 4, 5)))


@pytest.mark.parametrize("metric", [conformal_radial_metric(0.5),
                                    conformal_linear_metric((0.3, 0.0, 0.2))],
                         ids=["conformal_radial", "conformal_linear"])
def test_closed_form_matches_general_path(metric):
    # every symbol of the conformal closed form, contracted with each basis
    # vector, against the textbook symbols from dmetric, raised and lowered
    # with a: Gamma_{ab,g} = a_{gm} Gamma^m_{ab}
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, size=(2049, 3))
    closed = christoffel_from_contractions(metric, pts)
    general = christoffel_symbols(metric, pts)
    assert closed.shape == general.shape == (3, 3, 3, 2049)
    scale = np.max(np.abs(general), axis=(0, 1, 2))
    assert np.max(np.abs(closed - general) / scale) <= 1e-14
    a = metric.metric(pts)
    closed_low, general_low = (np.einsum("ngm,mabn->abgn", a, gamma)
                               for gamma in (closed, general))
    scale = np.max(np.abs(general_low), axis=(0, 1, 2))
    assert np.max(np.abs(closed_low - general_low) / scale) <= 1e-14


CONFORMAL = pytest.mark.parametrize(
    "metric", [conformal_radial_metric(0.5), conformal_linear_metric((0.3, 0.0, 0.2))],
    ids=["conformal_radial", "conformal_linear"])


@CONFORMAL
def test_closed_form_contractions_match_the_symbols(metric):
    # G[g, b] = Gamma^g_{ab} u^a and d_s a_{ab} u^s in closed form against
    # the base class's general path, which forms the symbols from
    # ``dmetric``, relative to each point's largest entry
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(2049, 3))
    u = rng.normal(size=(3, 2049))
    for name in ("christoffel_contract", "dmetric_contract"):
        closed = getattr(metric, name)(pts, u)
        general = getattr(AmbientMetric, name)(metric, pts, u)
        assert closed.shape == general.shape == (3, 3, 2049), name
        scale = np.max(np.abs(general), axis=(0, 1))
        assert np.max(np.abs(closed - general) / scale) <= 1e-15, name
    # batch axes of y stay last
    pts, u = pts[:2048].reshape(64, 32, 3), u[:, :2048].reshape(3, 64, 32)
    assert metric.christoffel_contract(pts, u).shape == (3, 3, 64, 32)
    assert metric.dmetric_contract(pts, u).shape == (3, 3, 64, 32)


def test_flat_and_general_contractions():
    # zeros in a flat metric; a plug-in with only metric and dmetric gets
    # the base class's contractions of its symbols and its dmetric
    rng = np.random.default_rng(8)
    pts, u = rng.uniform(-1.0, 1.0, size=(5, 3)), rng.normal(size=(3, 5))
    for name in ("christoffel_contract", "dmetric_contract"):
        assert np.array_equal(getattr(FlatMetric(), name)(pts, u), np.zeros((3, 3, 5)))
    warped = RadialWarpedMetric(0.5)
    want = np.einsum("gabn,an->gbn", christoffel_symbols(warped, pts), u)
    got = warped.christoffel_contract(pts, u)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    da = np.moveaxis(warped.dmetric(pts), 0, -1)
    assert np.array_equal(warped.dmetric_contract(pts, u), np.einsum("absn,sn->abn", da, u))


@pytest.mark.parametrize("y, det", [((-1.0, 0.0, 0.0), "det=8.757e-27"),
                                    ((np.nan, 0.0, 0.0), "det=nan")],
                         ids=["det_below_bound", "nan_point"])
def test_closed_form_rejects_degenerate_points(y, det):
    # det a = e^{6 phi} must be finite and exceed 1e-14 whatever vector is
    # contracted: the full symbols, assembled from the basis vectors, and
    # the zero vector are refused by the closed form and the general path,
    # each naming the first offending index and its det
    metric = conformal_linear_metric((10.0, 0.0, 0.0))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], y, y])
    message = rf"at 2 point\(s\); first offending index \(2,\), {det}"
    with pytest.raises(DegenerateMetricError, match=message), np.errstate(invalid="ignore"):
        christoffel_from_contractions(metric, pts)
    for path in (ConformalMetric.christoffel_contract, AmbientMetric.christoffel_contract):
        for u in (*np.eye(3), np.zeros(3)):
            with pytest.raises(DegenerateMetricError, match=message), \
                    np.errstate(invalid="ignore"):
                path(metric, pts, np.broadcast_to(u[:, None], (3, 4)))


@pytest.mark.parametrize("y, det", [((-1.0, 0.0, 0.0), "det=8.757e-27"),
                                    ((np.nan, 0.0, 0.0), "det=nan")],
                         ids=["det_below_bound", "nan_point"])
def test_closed_form_contraction_rejects_degenerate_points(y, det):
    # det a = e^{6 phi} must be finite and exceed 1e-14; the closed form's
    # message names the first offending index and its det, as the general
    # path's does
    metric = conformal_linear_metric((10.0, 0.0, 0.0))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], y, y])
    u = np.ones((3, 4))
    message = rf"at 2 point\(s\); first offending index \(2,\), {det}"
    for path in (ConformalMetric.christoffel_contract, AmbientMetric.christoffel_contract):
        with pytest.raises(DegenerateMetricError, match=message), np.errstate(invalid="ignore"):
            path(metric, pts, u)


def test_conformal_linear_christoffel_pattern():
    # metric e^{2 y1} delta at the origin
    m = conformal_linear_metric((1.0, 0.0, 0.0))
    g = christoffel_from_contractions(m, np.zeros((1, 3)))[..., 0]
    assert abs(g[0, 0, 0] - 1.0) < 1e-12
    assert abs(g[0, 1, 1] + 1.0) < 1e-12
    assert abs(g[1, 0, 1] - 1.0) < 1e-12
    assert abs(g[1, 1, 0] - 1.0) < 1e-12
    # symmetry in the lower pair
    assert np.max(np.abs(g - np.swapaxes(g, 1, 2))) < 1e-14


def test_christoffel_against_fd_oracle():
    # direct formula evaluated with finite-difference metric derivatives
    m = conformal_linear_metric((0.7, -0.3, 0.2))
    rng = np.random.default_rng(1)
    pts = 0.5 * rng.normal(size=(5, 3))
    a = m.metric(pts)
    da = fd_dmetric(m, pts)
    ainv = np.linalg.inv(a)
    low = 0.5 * (
        np.einsum("...mba->...abm", da)
        + np.einsum("...mab->...abm", da)
        - da
    )
    expect = np.einsum("...gm,...abm->...gab", ainv, low)
    gamma = np.moveaxis(christoffel_from_contractions(m, pts), -1, 0)
    assert np.max(np.abs(gamma - expect)) < 1e-8


def test_metric_compatibility_residual_small():
    for m in (conformal_linear_metric((0.4, 0.1, -0.2)), conformal_radial_metric(0.6)):
        pts = 0.4 * np.random.default_rng(2).normal(size=(6, 3))
        assert metric_compatibility_residual(m, pts) < 1e-8


def test_lowered_consistent_with_raised():
    # lowered with a, the conformal symbols are the raised ones times
    # e^{2 phi}: Gamma_{as,b} = e^{2 phi} Gamma^b_{as}
    m = conformal_radial_metric(0.8)
    pts = 0.3 * np.random.default_rng(3).normal(size=(4, 3))
    gamma = christoffel_from_contractions(m, pts)       # (g, a, s, n)
    relowered = np.einsum("ngb,gasn->asbn", m.metric(pts), gamma)
    expect = np.exp(2.0 * m.phi_fn(pts)) * np.transpose(gamma, (1, 2, 0, 3))
    assert np.max(np.abs(relowered - expect)) < 1e-12


def test_degenerate_metric_raises():
    class Bad(AmbientMetric):
        def metric(self, y):
            y = np.asarray(y)
            out = np.zeros(y.shape[:-1] + (3, 3))
            out[..., 0, 0] = -1.0
            out[..., 1, 1] = 1.0
            out[..., 2, 2] = 1.0
            return out

    with pytest.raises(DegenerateMetricError):
        Bad().christoffel_contract(np.zeros((2, 3)), np.ones((3, 2)))


def test_positive_definite_check_reads_the_2x2_minor():
    # symmetric and indefinite: a00 = 1 > 0 and det = 3 > 0 pass, so only the
    # 2x2 leading minor a00 a11 - a01 a10 = -3 rejects it
    a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    ok, det = check_positive_definite(a[None])
    assert abs(float(det[0]) - 3.0) < 1e-12
    assert not ok[0]
    ok, _ = check_positive_definite(np.eye(3)[None])
    assert ok[0]
    # positive definite with a00 = a11 = 2: the minor is a00 a11 - a01^2 =
    # 1.75, where a00 / a11 - a01^2 would read -1.25
    a = np.array([[2.0, 1.5, 0.0], [1.5, 2.0, 0.0], [0.0, 0.0, 1.0]])
    ok, det = check_positive_definite(a[None])
    assert ok[0] and abs(float(det[0]) - 1.75) < 1e-12


def test_plug_in_must_supply_dmetric():
    # a positive-definite metric alone is not a plug-in: the general path
    # needs the plug-in's closed-form dmetric, and there is no fallback
    m = conformal_linear_metric((0.5, 0.2, 0.0))

    class MetricOnly(AmbientMetric):
        def metric(self, y):
            return m.metric(y)

    with pytest.raises(NotImplementedError):
        MetricOnly().christoffel_contract(0.2 * np.random.default_rng(4).normal(size=(3, 3)),
                                          np.ones((3, 3)))


def test_norm_monitor_and_factory():
    # conformal_radial 0.3: a = e^{2 phi} delta and d_s a_ab = 2 alpha y_s a_ab
    alpha = 0.3
    m = make_metric("conformal_radial", {"alpha": alpha})
    pts = 0.5 * np.random.default_rng(5).normal(size=(10, 3))
    scale = np.exp(alpha * (np.sum(pts * pts, axis=-1) - 1.0))
    rep = norm_monitor(m, pts)
    assert set(rep) == {"sup_metric", "sup_dmetric"}
    assert rep["sup_metric"] == pytest.approx(np.max(scale), rel=1e-14)
    assert rep["sup_dmetric"] == pytest.approx(
        np.max(2.0 * alpha * scale[:, None] * np.abs(pts)), rel=1e-14)
    with pytest.raises(KeyError):
        make_metric("nope")
