import numpy as np
import pytest

from tgh import gaussians as ga
from tgh.errors import InvalidParameterError
from tgh.hierarchy import TemporalHierarchy
from conftest import params, random_params, random_unit


def hamilton(p, q):
    """Independent quaternion product for the rotation oracle."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def rotation_oracle(ql, qr):
    """Columns of L(ql) are ql*e_i; columns of R(qr) are e_i*qr."""
    ql = ql / np.linalg.norm(ql)
    qr = qr / np.linalg.norm(qr)
    eye = np.eye(4)
    L = np.stack([hamilton(ql, e) for e in eye], axis=1)
    R = np.stack([hamilton(e, qr) for e in eye], axis=1)
    return L @ R


def covariance_oracle(p):
    R = rotation_oracle(p["rotor_left"][0], p["rotor_right"][0])
    S = np.diag(p["scale"][0])
    M = R @ S
    return M @ M.T


def identity_gaussian(**kw):
    return params(**{"mu": np.zeros(4), "scale": np.ones(4), **kw})


def covariance(p):
    return ga.build_covariance(p["scale"], p["rotor_left"], p["rotor_right"]).cov


def marginal_opacity(p, t):
    """Temporal marginal opacity o * w_t of a batch of one, as rendered."""
    w_t = ga.condition_at_time(p["mu"], covariance(p), t).w_t
    return float(p["opacity"][0] * w_t[0])


def influence_range(p):
    """(start, end, radius) of a batch of one, as `insert_batch` places it."""
    sigma_t = ga.batch_temporal_variance(p["scale"], p["rotor_left"], p["rotor_right"])
    r = float(ga.influence_radius(sigma_t)[0])
    mu_t = float(p["mu"][0, 3])
    return mu_t - r, mu_t + r, r


def condition_at_time(p, t):
    """(mean3, cov3, opacity_t) of a batch of one at time t."""
    cond = ga.condition_at_time(p["mu"], covariance(p), t)
    return cond.mean3[0], cond.cov3[0], float(p["opacity"][0] * cond.w_t[0])


class TestCovariance:
    def test_identity_rotation_diagonal(self):
        g = identity_gaussian(scale=np.array([1.0, 2.0, 3.0, 4.0]))
        cov = covariance(g)[0]
        assert np.allclose(cov, np.diag([1.0, 4.0, 9.0, 16.0]), atol=1e-12)

    def test_rotation_group_property(self, rng):
        for _ in range(50):
            R = ga.build_covariance(np.ones(4), random_unit(rng), random_unit(rng)).rot4
            assert np.max(np.abs(R.T @ R - np.eye(4))) < 1e-6
            assert abs(np.linalg.det(R) - 1.0) < 1e-6

    def test_isoclinic_factors_match_per_element_construction(self, rng):
        q = rng.normal(size=(2, 50, 4))
        ql, qr, left, right = ga.isoclinic_factors(q[0], q[1])
        for unit, factor, rows in ((ql, left, ([0, -1, -2, -3], [1, 0, -3, 2],
                                                 [2, 3, 0, -1], [3, -2, 1, 0])),
                                   (qr, right, ([0, -1, -2, -3], [1, 0, 3, -2],
                                                [2, -3, 0, 1], [3, 2, -1, 0]))):
            # entry (i, j) is +-q[c], written as +c or -c (0 is +w)
            ref = np.stack([np.stack([np.copysign(1.0, c) * unit[:, abs(c)] for c in row],
                                     axis=-1) for row in rows], axis=-2)
            assert np.array_equal(factor, ref)
        scale = rng.uniform(0.1, 2.0, size=(50, 4))
        geom = ga.build_covariance(scale, q[0], q[1])
        for got, want in zip((geom.rotor_left, geom.rotor_right, geom.left, geom.right,
                              geom.scale), (ql, qr, left, right, scale)):
            assert np.array_equal(got, want)
        assert np.array_equal(geom.rot4, left @ right)
        assert np.array_equal(ga.build_covariance(scale[7], q[0, 7], q[1, 7]).rot4,
                              (left @ right)[7])
        assert np.array_equal(geom.cov, geom.m @ np.swapaxes(geom.m, 1, 2))

    def test_matches_dense_oracle(self, rng):
        for _ in range(50):
            g = random_params(rng)
            cov = covariance(g)[0]
            expected = covariance_oracle(g)
            assert np.allclose(cov, expected, rtol=1e-9, atol=1e-12)

    def test_symmetric_positive_definite(self, rng):
        for _ in range(1000):
            g = random_params(rng)
            cov = covariance(g)[0]
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            np.linalg.cholesky(cov + 1e-9 * np.eye(4))

    def test_rejects_non_finite(self):
        for rotor in ([np.nan, 0, 0, 0], [0.0, 0, 0, 0]):
            with pytest.raises(InvalidParameterError):
                covariance(identity_gaussian(rotor_left=np.array(rotor)))


class TestMarginalOpacity:
    def test_at_center_returns_opacity(self, rng):
        g = random_params(rng)
        assert marginal_opacity(g, g["mu"][0, 3]) == pytest.approx(g["opacity"][0], abs=0)

    def test_far_away_decays(self):
        g = identity_gaussian(mu=np.array([0, 0, 0, 5.0]))
        assert marginal_opacity(g, 5.0 + 20.0) < 1e-12
        assert marginal_opacity(g, 5.0 - 20.0) < 1e-12

    def test_endpoint_value_from_inverted_radius(self):
        # sigma_t = 1, o = 0.8: at the endpoint, where w_t is the 0.05
        # threshold, the marginal is 0.8 * 0.05
        g = identity_gaussian(mu=np.array([0, 0, 0, 5.0]), opacity=0.8)
        start, end, _ = influence_range(g)
        assert marginal_opacity(g, end) == pytest.approx(0.04, abs=1e-9)
        assert marginal_opacity(g, start) == pytest.approx(0.04, abs=1e-9)


class TestInfluenceRange:
    def test_reference_values(self):
        g = identity_gaussian(mu=np.array([0, 0, 0, 5.0]))
        start, end, radius = influence_range(g)
        expected = np.sqrt(-2.0 * np.log(0.05))
        assert radius == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(2.44775, abs=1e-5)
        assert start == pytest.approx(5.0 - expected, abs=1e-9)
        assert end == pytest.approx(5.0 + expected, abs=1e-9)

    def test_radius_scales_with_sqrt_sigma(self):
        g1 = identity_gaussian()
        g2 = identity_gaussian(scale=np.array([1.0, 1.0, 1.0, 2.0]))  # sigma_t x4
        r1 = influence_range(g1)[2]
        r2 = influence_range(g2)[2]
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_endpoint_factor_many_random(self, rng):
        for _ in range(1000):
            g = random_params(rng)
            start, end, _ = influence_range(g)
            for t in (start, end):
                factor = marginal_opacity(g, t) / g["opacity"][0]
                assert factor == pytest.approx(0.05, abs=1e-9)


class TestTemporalVariance:
    def test_matches_covariance_entry(self, rng):
        # rotors of norm 1e-3 to 1e3, scales on both sides of the floors,
        # batches of shape (400,) and (5, 3)
        for shape in ((400,), (5, 3)):
            q = rng.normal(size=(2, *shape, 4)) * np.exp(rng.uniform(-7.0, 7.0, (2, *shape, 1)))
            scale = np.exp(rng.uniform(np.log(1e-7), np.log(10.0), (*shape, 4)))
            got = ga.batch_temporal_variance(scale, q[0], q[1])
            want = ga.build_covariance(scale, q[0], q[1]).cov[..., 3, 3]
            assert got.shape == shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_bit_exact_against_rows_and_sum(self, rng):
        # the formulation that added the squares with `sum` from 0, kept as
        # the reference: a reordering that moves a placement would differ here
        def reference(scale, rotor_left, rotor_right):
            ql, qr = ga._components(rotor_left), ga._components(rotor_right)
            ql /= np.sqrt(ga._squared_norms(ql, axis=0))
            qr /= np.sqrt(ga._squared_norms(qr, axis=0))
            a0, a1, a2, a3 = ql
            b0, b1, b2, b3 = qr
            row = (a3 * b0 - a2 * b1 + a1 * b2 + a0 * b3,
                   a0 * b2 - a3 * b1 - a2 * b0 - a1 * b3,
                   a1 * b0 - a3 * b2 - a2 * b3 - a0 * b1,
                   a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3)
            s = ga._components(scale)
            return sum(np.square(r * s_j) for r, s_j in zip(row, s))

        for shape in ((400,), (5, 3)):
            q = rng.normal(size=(2, *shape, 4)) * np.exp(rng.uniform(-7.0, 7.0, (2, *shape, 1)))
            scale = np.exp(rng.uniform(np.log(1e-7), np.log(10.0), (*shape, 4)))
            got = ga.batch_temporal_variance(scale, q[0], q[1])
            assert got.shape == shape
            assert np.array_equal(got, reference(scale, q[0], q[1]))

    @pytest.mark.parametrize("norm", [1e-100, 1e100, 1e150])
    def test_extreme_rotor_norms(self, rng, norm):
        # both rotors, or one, of a norm whose square or fourth power leaves
        # the float range, with temporal scales up to 100 s
        n = 50
        scale = np.exp(rng.uniform(np.log(1e-3), np.log(100.0), (n, 4)))
        for left, right in ((norm, norm), (norm, 1.0), (1.0, norm)):
            q = rng.normal(size=(2, n, 4))
            q /= np.linalg.norm(q, axis=-1, keepdims=True)
            q[0] *= left
            q[1] *= right
            got = ga.batch_temporal_variance(scale, q[0], q[1])
            want = ga.build_covariance(scale, q[0], q[1]).cov[..., 3, 3]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            cols = random_params(rng, n)
            cols.update(scale=scale, rotor_left=q[0], rotor_right=q[1])
            h = TemporalHierarchy(duration=10.0)
            assert len(h.insert_batch(**cols)) == n
            h.audit()

    def test_raises_where_isoclinic_factors_raises(self, rng):
        def raises(fn, *args):
            try:
                fn(*args)
            except InvalidParameterError:
                return True
            return False

        bad = [0.0, np.inf, -np.inf, np.nan, 1e-170, 1e160]  # the last two square to 0 and inf
        for value in bad + [1.0, 1e-150, 1e150]:
            for k in range(4):
                q = rng.normal(size=(2, 6, 4))
                q[int(rng.integers(2)), int(rng.integers(6))] = np.where(np.arange(4) == k,
                                                                         value, 0.0)
                scale = rng.uniform(0.1, 2.0, (6, 4))
                with np.errstate(over="ignore"):  # 1e160 squared
                    expected = raises(ga.isoclinic_factors, q[0], q[1])
                    assert expected == (value in bad)
                    assert raises(ga.batch_temporal_variance, scale, q[0], q[1]) == expected


def dense_pdf(x, mean, cov):
    k = len(mean)
    d = np.asarray(x) - mean
    expo = -0.5 * d @ np.linalg.solve(cov, d)
    return np.exp(expo) / np.sqrt((2 * np.pi) ** k * np.linalg.det(cov))


class TestConditioning:
    def test_block_diagonal_case(self):
        g = identity_gaussian(mu=np.array([1.0, 2.0, 3.0, 4.0]),
                              scale=np.array([1.0, 2.0, 3.0, 4.0]))
        mean3, cov3, _ = condition_at_time(g, 7.0)
        assert np.allclose(mean3, [1.0, 2.0, 3.0])
        assert np.allclose(cov3, np.diag([1.0, 4.0, 9.0]))

    def test_at_center_mean_unchanged(self, rng):
        for _ in range(20):
            g = random_params(rng)
            mean3, _, opacity_t = condition_at_time(g, g["mu"][0, 3])
            assert np.allclose(mean3, g["mu"][0, :3], atol=1e-12)
            assert opacity_t == pytest.approx(g["opacity"][0])

    def test_joint_equals_conditional_times_marginal(self, rng):
        for _ in range(1000):
            g = random_params(rng)
            cov = covariance(g)[0]
            mu = g["mu"][0]
            t = mu[3] + rng.normal() * np.sqrt(cov[3, 3])
            mean3, cov3, _ = condition_at_time(g, t)
            joint = dense_pdf(np.concatenate([mean3, [t]]), mu, cov)
            conditional = dense_pdf(mean3, mean3, cov3)
            marginal = dense_pdf([t], mu[3:], cov[3:, 3:])
            assert joint == pytest.approx(conditional * marginal, rel=1e-9)

    def test_opacity_never_exceeds_source(self, rng):
        for _ in range(100):
            g = random_params(rng)
            t = rng.uniform(-5, 15)
            assert condition_at_time(g, t)[2] <= g["opacity"][0] + 1e-15

    def test_cov3_psd(self, rng):
        for _ in range(200):
            g = random_params(rng)
            _, cov3, _ = condition_at_time(g, rng.uniform(0, 10))
            assert np.max(np.abs(cov3 - cov3.T)) < 1e-9
            assert np.linalg.eigvalsh(cov3).min() >= -1e-9


GEOMETRY = ("mu", "scale", "rotor_left", "rotor_right")
T_COND = 0.0


def conditioned(p):
    geom = ga.build_covariance(p["scale"], p["rotor_left"], p["rotor_right"])
    return geom, ga.condition_at_time(p["mu"], geom.cov, T_COND)


def geometry_case(rng, scale):
    """Raw geometry of len(scale) Gaussians, with rotors of norm 1e-2 to 1e2
    and means within two temporal deviations of the origin, and the weights
    (a, b, c) of a random functional <a, mean3> + <b, cov3> + c w_t of each
    conditioned splat, with a and b scaled to the row's own size."""
    n = len(scale)
    q = rng.normal(size=(2, n, 4))
    q *= np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (2, n, 1))) / np.linalg.norm(
        q, axis=-1, keepdims=True)
    sd = np.sqrt(ga.batch_temporal_variance(scale, q[0], q[1]))
    p = {"mu": np.column_stack([rng.uniform(-1, 1, (n, 3)), rng.uniform(-2, 2, n)]) * sd[:, None],
         "scale": scale, "rotor_left": q[0], "rotor_right": q[1]}
    size = np.sqrt(np.trace(conditioned(p)[0].cov[:, :3, :3], axis1=1, axis2=2))
    b = rng.normal(size=(n, 3, 3))
    return p, (rng.normal(size=(n, 3)) / size[:, None],
               (b + np.swapaxes(b, 1, 2)) / size[:, None, None] ** 2, rng.normal(size=n))


def functional(p, weights):
    """The functional of `geometry_case`, one value per row."""
    a, b, c = weights
    cond = conditioned(p)[1]
    return (np.einsum("ni,ni->n", a, cond.mean3) + np.einsum("nij,nij->n", b, cond.cov3)
            + c * cond.w_t)


def analytic(p, weights):
    geom, cond = conditioned(p)
    return dict(zip(GEOMETRY, ga.geometry_backward(
        p["rotor_left"], p["rotor_right"], geom, cond.dt, cond.w_t, *weights)))


def difference(p, weights, name, j, up, down):
    """Per row, (f(x + up) - f(x - down)) over the rounded step, x being
    component j of parameter `name`."""
    hi, lo = dict(p, **{name: p[name].copy()}), dict(p, **{name: p[name].copy()})
    hi[name][:, j] += up
    lo[name][:, j] -= down
    return (functional(hi, weights) - functional(lo, weights)) / (hi[name][:, j] - lo[name][:, j])


class TestGeometryBackward:
    """`geometry_backward` alone, with no rasteriser in the loop."""

    def test_matches_central_differences(self, rng):
        # scales over eight decades, 1e-7 to 9: a row's magnitude, 3e-6 to
        # 0.3, times a factor 1/30 to 30 per component (at a wider spread in
        # a row the conditioning cancels more digits than central differences
        # resolve)
        n = 300
        magnitude = np.exp(rng.uniform(np.log(3e-6), np.log(0.3), (n, 1)))
        p, weights = geometry_case(rng, magnitude * np.exp(rng.uniform(np.log(1 / 30), np.log(30),
                                                                       (n, 4))))
        # steps relative to each row: its temporal deviation, the scale, |q|
        sd = np.sqrt(conditioned(p)[0].cov[:, 3, 3])
        steps = {"mu": 1e-4 * sd[:, None], "scale": 1e-4 * p["scale"],
                 **{name: 1e-5 * np.linalg.norm(p[name], axis=1, keepdims=True)
                    for name in ("rotor_left", "rotor_right")}}
        got = analytic(p, weights)
        for name in GEOMETRY:
            h = np.broadcast_to(steps[name], (n, 4))
            want = np.column_stack([difference(p, weights, name, j, h[:, j], h[:, j])
                                    for j in range(4)])
            row_max = np.abs(got[name]).max(axis=1, keepdims=True)
            assert np.all(np.abs(got[name] - want) <= 1e-4 * row_max), name
