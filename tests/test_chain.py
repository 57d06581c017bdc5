import dataclasses
import warnings

import numpy as np
import pytest

from stablemotion.chain import (
    ElasticChain,
    _gaussian_joints,
    _laplacian,
    _laplacian_edit,
    _recover_gmm,
    build_chain,
    transform_chain,
)
from stablemotion.core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    compute_velocities,
    frame_from_two_points,
    joint_diameter,
)
from stablemotion.errors import DegenerateFrame, ValidationError
from stablemotion.fileio import load_policy, save_policy
from stablemotion.gmm import (GmmFitConfig, OrderedGmm, fit_gmm,
                              order_components)
from stablemotion.pipeline import adapt, learn
from stablemotion.profile import ProfileConfig
from conftest import chain_on, helix_demo, s_curve_demo

# the timing of a hand-built chain that no profile is regenerated from
_TIMING = ProfileConfig(p=200, dt=0.01)


def reference_pins(joints, enter, exit_):
    """The edit's pins, {joint index: target}, by its rule: a given end's
    joint at its pose's position, and that joint's neighbour one link
    length from it along the pose's x-axis (into the chain at the entry,
    back along the chain at the exit)."""
    lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
    m, pins = len(joints), {}
    if enter is not None:
        pins[0] = enter.position
        pins[1] = enter.position + lengths[0] * enter.rotation[:, 0]
    if exit_ is not None:
        pins[m - 1] = exit_.position
        pins[m - 2] = exit_.position - lengths[-1] * exit_.rotation[:, 0]
    return pins


def kkt_oracle(L, delta, pins):
    """Dense equality-constrained least-squares by the full KKT system.

    Independent of the elimination-based production solver.
    """
    m, d = delta.shape
    n_c = len(pins)
    C = np.zeros((n_c, m))
    targets = np.zeros((n_c, d))
    for row, (i, target) in enumerate(sorted(pins.items())):
        C[row, i] = 1.0
        targets[row] = target
    K = np.zeros((m + n_c, m + n_c))
    K[:m, :m] = 2.0 * L.T @ L
    K[:m, m:] = C.T
    K[m:, :m] = C
    rhs = np.vstack([2.0 * L.T @ delta, targets])
    sol = np.linalg.solve(K, rhs)
    return sol[:m]


def reference_rotation(origin, toward):
    """One link frame's rotation, completed axis by axis (independent of
    the stacked production code)."""
    delta = np.asarray(toward, float) - np.asarray(origin, float)
    x = delta / np.linalg.norm(delta)
    if x.shape[0] == 2:
        return np.column_stack([x, [-x[1], x[0]]])
    aux = np.array([0.0, 1.0, 0.0]) if abs(x[2]) > 0.99 \
        else np.array([0.0, 0.0, 1.0])
    y = np.cross(x, aux)
    y = y / np.linalg.norm(y)
    return np.column_stack([x, y, np.cross(x, y)])


def reference_turn(u, w):
    """The rotation about u x w, by the angle between the unit vectors u
    and w (3,), from the unit axis and the angle (Rodrigues' formula)."""
    axis = np.cross(u, w)
    sin = np.linalg.norm(axis)
    if sin == 0.0:
        return np.eye(3)
    K = np.cross(np.eye(3), axis / sin)
    angle = np.arctan2(sin, u @ w)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


def reference_transform(chain, descriptor):
    """The re-targeted components, link by link: F_k = R'_k diag(r_k, 1,
    ...) R_k^T, with R_k the old link's frame and R'_k the edited one's,
    maps each mean about its joint and each covariance. In 2-D R'_k is
    completed afresh along the new link; in 3-D it is R_k turned by the
    Rodrigues rotation from the old link direction to the new one."""
    new_joints = _laplacian_edit(chain, descriptor)
    out = []
    for k, comp in enumerate(chain.components.components):
        R = reference_rotation(chain.joints[k], chain.joints[k + 1])
        if chain.dim == 2:
            R_new = reference_rotation(new_joints[k], new_joints[k + 1])
        else:
            u, w = (np.diff(j[k:k + 2], axis=0)[0] for j in
                    (chain.joints, new_joints))
            R_new = reference_turn(u / np.linalg.norm(u),
                                   w / np.linalg.norm(w)) @ R
        stretch = np.ones(chain.dim)
        stretch[0] = np.linalg.norm(new_joints[k + 1] - new_joints[k]) / \
            np.linalg.norm(chain.joints[k + 1] - chain.joints[k])
        F = (R_new * stretch) @ R.T
        cov = F @ comp.covariance @ F.T
        out.append((new_joints[k] + F @ (comp.mean - chain.joints[k]),
                    0.5 * (cov + cov.T)))
    return new_joints, out


def moved_descriptors(chain, rng, n):
    """The identity descriptor, then n - 1 with both ends moved and
    turned at random."""
    base = chain.endpoint_descriptor()
    out = [base]
    d = chain.dim
    for _ in range(n - 1):
        poses = []
        for pose in (base.enter, base.exit):
            axis = pose.x_axis + rng.normal(scale=0.3, size=d)
            turned = frame_from_two_points(np.zeros(d), axis).rotation
            poses.append(Pose(pose.position + rng.uniform(-0.3, 0.3, d),
                              turned))
        out.append(GeometricDescriptor(*poses))
    return out


def s_curve_3d_demo(n=400, duration=4.0):
    """An S-curve that also rises and falls out of its plane."""
    t = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t),
                           0.3 * (1.0 - np.cos(2.0 * np.pi * t))])
    return compute_velocities(Trajectory(pts, duration * t))


def random_rotation(rng):
    """A rotation of SO(3) drawn uniformly (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.fixture(scope="module", params=["s_curve", "helix"])
def learned_chain(request):
    demo = (s_curve_demo if request.param == "s_curve" else helix_demo)()
    chain, _ = fitted_chain(demo, k_max=6)
    return chain


def rotation_2d(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


def unit_gaussian(x, y, prior=0.5, cov=None):
    return GaussianComponent(prior, np.array([x, y], dtype=float),
                             np.eye(2) if cov is None else cov)


def fitted_chain(demo=None, k_max=5):
    demo = demo or s_curve_demo()
    comps = fit_gmm(demo.points, GmmFitConfig(k_max=k_max, restarts=3))
    return build_chain(order_components(comps, demo), demo), demo


def joint_of(g1: GaussianComponent, g2: GaussianComponent) -> np.ndarray:
    """`_gaussian_joints` of two components (K = 2)."""
    return _gaussian_joints(np.array([g1.mean, g2.mean]),
                            np.array([g1.covariance, g2.covariance]))[0]


class TestGaussianJoint:
    def test_symmetric_midpoint(self):
        j = joint_of(unit_gaussian(0, 0), unit_gaussian(2, 0))
        assert np.allclose(j, [1, 0])

    def test_precision_weighted(self):
        # Sigma1 = I, Sigma2 = 3I: joint = (3*mu1 + mu2) / 4
        j = joint_of(unit_gaussian(0, 0),
                     unit_gaussian(4, 0, cov=3.0 * np.eye(2)))
        assert np.allclose(j, [1, 0])

    def test_coincident_means(self, rng):
        m = rng.normal(size=2)
        c1 = GaussianComponent(0.5, m, np.array([[2.0, 0.3], [0.3, 1.0]]))
        c2 = GaussianComponent(0.5, m, np.array([[0.5, -0.1], [-0.1, 3.0]]))
        assert np.allclose(joint_of(c1, c2), m, atol=1e-12)

    @pytest.mark.parametrize("cov, error", [
        # eigenvalues 6 and -4: invertible, but no covariance
        ([[1.0, 5.0], [5.0, 1.0]], "positive definite"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric")])
    def test_reads_covariances_by_the_component_rule(self, cov, error):
        """The joints are computed from components, so a matrix that
        inverts but is no covariance is refused before it reaches them."""
        with pytest.raises(ValidationError, match=error):
            build_chain(OrderedGmm((unit_gaussian(0, 0),
                                    unit_gaussian(2, 0, cov=np.array(cov)))),
                        s_curve_demo())


class TestBuildLaplacian:
    def test_m3_rows(self):
        L = _laplacian(3)
        assert np.allclose(L, [[1, -1, 0], [-0.5, 1, -0.5], [0, -1, 1]])

    def test_m2(self):
        assert np.allclose(_laplacian(2), [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("m", [2, 3, 7, 20])
    def test_row_sums_zero_unit_diagonal(self, m):
        # end rows carry a single -1 neighbor, so L is not symmetric for
        # m >= 3; the normalized weights still zero every row sum
        L = _laplacian(m)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(np.diag(L), 1.0)


class TestBuildChain:
    def test_single_component(self):
        chain, demo = fitted_chain(k_max=1)
        assert chain.joints.shape[0] == 2
        assert np.allclose(chain.joints[0], demo.start)
        assert np.allclose(chain.joints[-1], demo.end)
        assert chain.link_lengths.shape == (1,)

    def test_diameter_is_derived_from_the_joints(self):
        chain, _ = fitted_chain(k_max=3)
        assert chain.diameter == joint_diameter(chain.joints)
        moved = ElasticChain(chain.components, chain.joints * 1.5,
                             chain.timing)
        assert moved.diameter == joint_diameter(moved.joints)
        # derived: neither an argument nor a field that equality reads
        with pytest.raises(TypeError):
            ElasticChain(chain.components, chain.joints, chain.timing,
                         diameter=1.0)
        spec = {f.name: f for f in dataclasses.fields(ElasticChain)}
        assert not (spec["diameter"].init or spec["diameter"].compare)

    def test_middle_joint_is_gaussian_product(self):
        chain, demo = fitted_chain(k_max=2)
        if len(chain.components) == 2:
            comps = chain.components.components
            assert np.allclose(chain.joints[1],
                               joint_of(comps[0], comps[1]), atol=1e-12)

    def test_link_no_longer_than_the_degenerate_point_is_rejected(self):
        chain, _ = fitted_chain(k_max=3)
        joints = chain.joints.copy()
        joints[1] = joints[0] + 0.5e-9
        with pytest.raises(DegenerateFrame):
            ElasticChain(chain.components, joints, chain.timing)
        with pytest.raises(DegenerateFrame):
            _recover_gmm(chain, joints)

    def test_round_trip_identity(self):
        chain, _ = fitted_chain()
        rebuilt = _recover_gmm(chain, chain.joints)
        for orig, new in zip(chain.components.components, rebuilt):
            assert np.allclose(new.mean, orig.mean, atol=1e-9)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-9)
            assert new.prior == orig.prior


class TestSolveConstrainedEdit:
    def test_identity_edit(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        out = _laplacian_edit(chain, desc)
        assert np.max(np.abs(out - chain.joints)) < 1e-9

    def test_pure_translation(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        t = np.array([2.5, -1.0])
        enter = Pose(desc.enter.position + t, desc.enter.rotation)
        exit_ = Pose(desc.exit.position + t, desc.exit.rotation)
        out = _laplacian_edit(chain, GeometricDescriptor(enter, exit_))
        assert np.max(np.abs(out - (chain.joints + t))) < 1e-9

    def test_rotated_end_matches_kkt_oracle(self):
        joints = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        end = Pose(np.array([3.0, 0]),
                   np.array([[0.0, -1.0], [1.0, 0.0]]))  # x-axis up
        L = _laplacian(4)
        out = _laplacian_edit(chain_on(joints), GeometricDescriptor(exit=end))
        oracle = kkt_oracle(L, L @ joints, reference_pins(joints, None, end))
        assert np.max(np.abs(out - oracle)) < 1e-8

    def test_random_chains_match_kkt_oracle(self, rng):
        for trial in range(100):
            m = rng.integers(4, 11)  # both-end pins need 4 distinct joints
            joints = rng.normal(size=(m, 2)).cumsum(axis=0)  # generic path
            lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
            if lengths.min() < 1e-3:
                continue
            enter = frame_from_two_points(rng.normal(size=2),
                                          rng.normal(size=2) + 5.0)
            exit_ = frame_from_two_points(rng.normal(size=2) + 10.0,
                                          rng.normal(size=2) + 15.0)
            L = _laplacian(m)
            out = _laplacian_edit(chain_on(joints),
                                  GeometricDescriptor(enter, exit_))
            pins = reference_pins(joints, enter, exit_)
            oracle = kkt_oracle(L, L @ joints, pins)
            assert np.max(np.abs(out - oracle)) < 1e-8
            # pinned joints hit their targets exactly
            for i, target in pins.items():
                assert np.linalg.norm(out[i] - target) < 1e-9

    def test_conflicting_pins_raise(self):
        """Conflicting pins are bad input: the descriptor asks for two
        places of one joint."""
        joints = np.array([[0.0, 0], [1, 0]])
        enter = frame_from_two_points(np.zeros(2), np.array([1.0, 0]))
        exit_ = frame_from_two_points(np.array([5.0, 5]),
                                      np.array([6.0, 5]))
        exit_ = Pose(np.array([6.0, 5.0]), exit_.rotation)
        with pytest.raises(ValidationError, match="conflicting targets"):
            _laplacian_edit(chain_on(joints), GeometricDescriptor(enter,
                                                                  exit_))

    def test_a_joint_pinned_from_both_ends_needs_agreeing_targets(self):
        # in a chain of 3 joints both ends pin the middle one
        joints = np.array([[0.0, 0], [1, 0], [2, 0]])
        enter = frame_from_two_points(joints[0], joints[1])
        exit_ = Pose(joints[2], enter.rotation)
        chain = chain_on(joints)
        assert np.array_equal(
            _laplacian_edit(chain, GeometricDescriptor(enter, exit_)), joints)
        raised = Pose(joints[2] + [0.0, 1e-6], enter.rotation)
        with pytest.raises(ValidationError, match="joint 1"):
            _laplacian_edit(chain, GeometricDescriptor(enter, raised))


class TestRecoverGmm:
    def test_uniform_scaling(self):
        chain, _ = fitted_chain()
        scaled = _recover_gmm(chain, 2.0 * chain.joints)
        for k, (orig, new) in enumerate(zip(chain.components.components,
                                            scaled)):
            u = chain.joints[k + 1] - chain.joints[k]
            u /= np.linalg.norm(u)
            # the link's map doubles the along-link axis: F = I + u u^T
            F = np.eye(2) + np.outer(u, u)
            assert np.allclose(new.covariance, F @ orig.covariance @ F.T,
                               atol=1e-9)
            # the along-link mean offset doubles, the rest is unchanged
            m = orig.mean - chain.joints[k]
            offset = new.mean - 2 * chain.joints[k]
            assert np.allclose(offset @ u, 2.0 * (m @ u), atol=1e-9)
            assert np.allclose(offset - (offset @ u) * u, m - (m @ u) * u,
                               atol=1e-9)

    def test_rigid_motion_equivariance(self):
        chain, _ = fitted_chain()
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang)],
                      [np.sin(ang), np.cos(ang)]])
        t = np.array([1.0, -2.0])
        moved = _recover_gmm(chain, chain.joints @ R.T + t)
        for orig, new in zip(chain.components.components, moved):
            assert np.allclose(new.mean, R @ orig.mean + t, atol=1e-9)
            assert np.allclose(new.covariance, R @ orig.covariance @ R.T,
                               atol=1e-9)

    def test_covariance_is_continuous_where_its_axes_tie_with_the_link(self):
        """A component with axes 45 degrees from its link, turned by 2e-9
        rad across that tie, is re-posed to the same covariance (to 1e-7
        of its largest entry) by an edit that doubles the link."""
        joints = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        moved = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        out = []
        for angle in (np.pi / 4 - 1e-9, np.pi / 4 + 1e-9):
            R = rotation_2d(angle)
            chain = ElasticChain(OrderedGmm((
                unit_gaussian(0.5, 0.0, cov=R @ np.diag([0.02, 0.01]) @ R.T),
                unit_gaussian(1.5, 0.0, cov=0.01 * np.eye(2)))), joints,
                _TIMING)
            out.append(_recover_gmm(chain, moved)[0].covariance)
        assert np.abs(out[1] - out[0]).max() <= 1e-7 * np.abs(out[0]).max()

    def test_round_component_stretches_along_its_link(self):
        """A covariance 0.01 R diag(1, 1 + 1e-9, ...) R^T is stretched
        along its link whatever its axes R: to diag(r^2 0.01, 0.01, ...)
        in the new link's axes, to 1e-12 beyond the image of its own
        1e-9-relative departure from round (here r = 2)."""
        joints = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        moved = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        for angle in (0.0, np.pi / 4, np.pi / 3):
            R = rotation_2d(angle)
            chain = ElasticChain(OrderedGmm((
                unit_gaussian(0.5, 0.0,
                              cov=0.01 * R @ np.diag([1.0, 1.0 + 1e-9]) @ R.T),
                unit_gaussian(1.5, 0.0, cov=0.01 * np.eye(2)))), joints,
                _TIMING)
            S = _recover_gmm(chain, moved)[0].covariance
            assert np.abs(S - np.diag([0.04, 0.01])).max() <= 4e-11 + 1e-12
        # 3-D: a link along a tilted direction u, turned to w and doubled
        rng = np.random.default_rng(3)
        u = np.array([2.0, -1.0, 2.0]) / 3.0
        w = np.array([1.0, 2.0, -2.0]) / 3.0
        start = np.array([0.1, -0.2, 0.3])
        joints = start + np.outer([0.0, 1.0, 2.0], u)
        moved = start + np.outer([0.0, 2.0, 3.0], w)
        for _ in range(3):
            R = random_rotation(rng)
            cov = 0.01 * R @ np.diag([1.0, 1.0 + 1e-9, 1.0 + 2e-9]) @ R.T
            chain = ElasticChain(OrderedGmm((
                GaussianComponent(0.5, start + 0.5 * u, cov),
                GaussianComponent(0.5, start + 1.5 * u, 0.01 * np.eye(3)))),
                joints, _TIMING)
            S = _recover_gmm(chain, moved)[0].covariance
            expect = 0.01 * (np.eye(3) + 3.0 * np.outer(w, w))
            assert np.abs(S - expect).max() <= 8e-11 + 1e-12

    def test_components_are_what_the_constructor_builds(self, learned_chain):
        """_recover_gmm checks its re-posed covariance stack once, not
        component by component: each component it returns passes every
        check of the constructor, and equals bit for bit the component
        the constructor builds from the same prior, mean and covariance."""
        chain = learned_chain
        for desc in moved_descriptors(chain, np.random.default_rng(4), 8):
            joints = _laplacian_edit(chain, desc)
            for old, comp in zip(chain.components.components,
                                 _recover_gmm(chain, joints)):
                built = GaussianComponent(comp.prior, comp.mean,
                                          comp.covariance)
                assert comp.prior == built.prior == old.prior
                assert np.array_equal(comp.mean, built.mean)
                assert np.array_equal(comp.covariance, built.covariance)
                assert not comp.mean.flags.writeable
                assert not comp.covariance.flags.writeable

    @pytest.mark.parametrize("build", [
        lambda *stacks: [GaussianComponent(*row) for row in zip(*stacks)],
        GaussianComponent.from_stack], ids=["constructor", "from_stack"])
    @pytest.mark.parametrize("priors, means, covs, match", [
        ([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), np.diag([1.0, 0.0])],
         "positive definite"),
        ([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), np.diag([1.0, -1e-300])],
         "positive definite"),
        ([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), np.full((2, 2), np.nan)],
         "finite"),
        ([0.5, 0.5], [[0.0, 0.0], [np.nan, 0.0]], [np.eye(2)] * 2, "finite"),
        ([0.5, 0.5], [[0.0, 0.0], [np.inf, 0.0]], [np.eye(2)] * 2, "finite"),
        ([0.5, 0.5], np.zeros((2, 2, 1)), [np.eye(2)] * 2,
         r"\(K, d\) means"),
        ([0.5, "0.5"], np.zeros((2, 2)), [np.eye(2)] * 2, "real numbers"),
        ([0.5, 0.5], np.zeros((2, 2)),
         [np.eye(2), [[1e308, -1.7e308], [1.7e308, 1e308]]], "symmetric"),
    ], ids=["singular", "negative", "nan_covariance", "nan_mean", "inf_mean",
            "column_mean", "string_prior", "asymmetry_overflows"])
    def test_stack_check_rejects_a_malformed_component(
            self, build, priors, means, covs, match):
        """The component constructor and the batched one run one check:
        each rejects a stack whose second component is malformed, with no
        RuntimeWarning on the way (the suite makes one an error)."""
        with pytest.raises(ValidationError, match=match):
            build(priors, means, covs)


class TestTransformChain:
    def test_identity_descriptor(self):
        chain, _ = fitted_chain()
        new_chain = transform_chain(chain, chain.endpoint_descriptor())
        assert np.max(np.abs(new_chain.joints - chain.joints)) < 1e-9
        for orig, new in zip(chain.components.components,
                             new_chain.components.components):
            assert np.allclose(new.mean, orig.mean, atol=1e-9)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-9)

    def test_pure_translation_equivariance(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        t = np.array([0.5, 3.0])
        moved = GeometricDescriptor(
            enter=Pose(desc.enter.position + t, desc.enter.rotation),
            exit=Pose(desc.exit.position + t, desc.exit.rotation))
        new_chain = transform_chain(chain, moved)
        assert np.max(np.abs(new_chain.joints - (chain.joints + t))) < 1e-9
        for orig, new in zip(chain.components.components,
                             new_chain.components.components):
            assert np.allclose(new.mean, orig.mean + t, atol=1e-9)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-9)

    def test_both_ends_shifted_matches_descriptors(self):
        chain, _ = fitted_chain()
        ang = 0.5
        R = np.array([[np.cos(ang), -np.sin(ang)],
                      [np.sin(ang), np.cos(ang)]])
        desc = chain.endpoint_descriptor()
        moved = GeometricDescriptor(
            enter=Pose(desc.enter.position + [0.3, -0.4],
                       R @ desc.enter.rotation),
            exit=Pose(desc.exit.position + [-0.6, 0.8],
                      R.T @ desc.exit.rotation))
        new_chain = transform_chain(chain, moved)
        applied = new_chain.endpoint_descriptor()
        assert np.allclose(applied.enter.position, moved.enter.position,
                           atol=1e-9)
        assert np.allclose(applied.exit.position, moved.exit.position,
                           atol=1e-9)
        assert np.allclose(applied.enter.x_axis, moved.enter.x_axis,
                           atol=1e-9)
        assert np.allclose(applied.exit.x_axis, moved.exit.x_axis, atol=1e-9)


class TestStackedAgainstPerLinkReference:
    def test_transform_matches_the_per_link_reference(self, learned_chain):
        chain = learned_chain
        for desc in moved_descriptors(chain, np.random.default_rng(8), 12):
            new_chain = transform_chain(chain, desc)
            joints, expect = reference_transform(chain, desc)
            assert np.array_equal(new_chain.joints, joints)
            for comp, (mean, cov) in zip(new_chain.components.components,
                                         expect):
                assert np.abs(comp.mean - mean).max() <= 1e-12
                assert np.abs(comp.covariance - cov).max() <= 1e-12

    def test_carried_chain_re_targets_like_a_derived_one(self, learned_chain,
                                                         tmp_path):
        """A second edit from an adapted chain gives what it gives from
        the chain rebuilt from its components and joints, in memory or
        from the adapted policy's file."""
        chain = learned_chain
        first, second = moved_descriptors(chain, np.random.default_rng(10),
                                          3)[1:]
        carried, _, policy = adapt(chain, first, ProfileConfig(p=200,
                                                               dt=0.01))
        derived = ElasticChain(OrderedGmm(carried.components.components),
                               carried.joints, carried.timing)
        save_policy(tmp_path / "adapted.json", policy, carried)
        _, loaded = load_policy(tmp_path / "adapted.json")
        a = transform_chain(carried, second).components.components
        for other in (derived, loaded):
            b = transform_chain(other, second).components.components
            for x, y in zip(a, b):
                assert np.abs(x.mean - y.mean).max() <= 1e-12
                assert np.abs(x.covariance - y.covariance).max() <= 1e-12

    def test_far_descriptor_is_rejected_before_the_edit(self):
        """An entry moved by 1e300 is past B, and its pose refuses it; one
        moved by 1e50 is within B but far outside the chain's reach."""
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        for shift, match in (
                (1e300, r"position must be finite, every entry at most "
                        r"1e\+100"),
                (1e50, "joint diameters")):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValidationError, match=match):
                    transform_chain(chain, GeometricDescriptor(enter=Pose(
                        desc.enter.position + shift, desc.enter.rotation)))


class TestReposingIn3d:
    """Each component turns with its link by the least rotation: the
    re-targeted mixture does not depend on the world axes."""

    @pytest.mark.parametrize("make_demo", [helix_demo, s_curve_3d_demo])
    def test_adapt_is_rotation_equivariant(self, make_demo):
        """The learned chain and the descriptor turned by R adapt to R A
        R^T (measured 1e-11 to 4e-11 relative on three draws each)."""
        rng = np.random.default_rng(5)
        chain, _ = learn(make_demo(400), GmmFitConfig(k_max=6, restarts=3))
        desc = moved_descriptors(chain, rng, 2)[1]
        profile = ProfileConfig(p=200, dt=0.01)
        A = adapt(chain, desc, profile)[2].A
        for _ in range(3):
            R = random_rotation(rng)
            turned = ElasticChain(OrderedGmm(tuple(
                GaussianComponent(c.prior, R @ c.mean, R @ c.covariance @ R.T)
                for c in chain.components.components)), chain.joints @ R.T,
                chain.timing)
            A_R = adapt(turned, GeometricDescriptor(*(
                Pose(R @ p.position, R @ p.rotation)
                for p in (desc.enter, desc.exit))), profile)[2].A
            assert np.abs(A_R - R @ A @ R.T).max() <= 1e-9 * np.abs(A).max()

    def test_reposing_is_continuous_across_the_old_frame_switch(self):
        """Turning one link from z-component 0.98999 to 0.99001 (where
        world-axis frame completion switched axes) moves its component by
        no more than the turn itself."""
        chain, _ = learn(helix_demo(400), GmmFitConfig(k_max=6, restarts=3))
        J = chain.joints
        turn = np.arccos(0.98999) - np.arccos(0.99001)
        for k in range(len(chain.components)):
            link = J[k + 1] - J[k]
            length = np.linalg.norm(link)
            azimuth = np.arctan2(link[1], link[0])
            out = []
            for z in (0.98999, 0.99001):
                rho = np.sqrt(1.0 - z * z)
                moved = J.copy()
                moved[k + 1:] += length * np.array(
                    [rho * np.cos(azimuth), rho * np.sin(azimuth), z]) - link
                out.append(_recover_gmm(chain, moved)[k])
            S = out[0].covariance
            assert np.abs(out[1].covariance - S).max() \
                <= 2.0 * turn * np.abs(S).max()
            assert np.abs(out[1].mean - out[0].mean).max() \
                <= 2.0 * turn * length

    def test_reversed_link_is_rejected(self):
        """A 3-D link the edit turns back on itself has no unique least
        rotation; a 2-D one is turned by half a turn."""
        chain, _ = learn(helix_demo(), GmmFitConfig(k_max=3, restarts=1))
        moved = chain.joints.copy()
        moved[2:] -= 2.0 * (chain.joints[2] - chain.joints[1])
        with pytest.raises(DegenerateFrame, match="back on itself"):
            _recover_gmm(chain, moved)
        flat, _ = fitted_chain(k_max=3)
        for orig, new in zip(flat.components.components,
                             _recover_gmm(flat, -flat.joints)):
            assert np.allclose(new.mean, -orig.mean, atol=1e-12)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-12)


class TestWorkspaceRules:
    """A chain built in memory meets the rules a loaded one meets: a value
    far outside the workspace is refused at construction, before any
    arithmetic on it overflows. A joint or mean past B is refused by the
    reader, one within B by the chain's reach."""

    @pytest.mark.parametrize("joint, mean, cov, match", [
        (1e160, 1.5, 0.01, r"joints must be finite, every entry at most "
                           r"1e\+100"),
        (1.0, 1e300, 0.01, r"means must be finite, every entry at most "
                           r"1e\+100"),
        (1.0, 1e50, 0.01, "joint diameters from the attractor"),
        (1.0, 1.5, 1e300, "spreads over more than"),
        (1.0, 1.5, 1e-200, "thinner than"),
    ], ids=["joint_1e160", "mean_1e300", "mean_1e50", "covariance_1e300",
            "covariance_1e-200"])
    def test_far_or_thin_value_is_refused_at_construction(self, joint, mean,
                                                          cov, match):
        joints = [[0.0, 0.0], [joint, 0.0], [2.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=match):
                comps = (unit_gaussian(0.5, 0.0),
                         unit_gaussian(mean, 0.0, cov=cov * np.eye(2)))
                ElasticChain(OrderedGmm(comps), joints, _TIMING)

    def test_means_are_measured_from_the_last_joint(self):
        """The reach is 1e3 joint diameters (2e3): a mean 2001 from the
        first joint and 1999 from the last passes, one 1999 from the first
        and 2001 from the last fails."""
        joints = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        for mean, ok in ((2001.0, True), (-1999.0, False)):
            chain = lambda: ElasticChain(OrderedGmm((
                unit_gaussian(0.5, 0.0), unit_gaussian(mean, 0.0))),
                joints, _TIMING)
            if ok:
                chain()
            else:
                with pytest.raises(ValidationError, match="attractor"):
                    chain()

    def test_descriptor_positions_are_measured_from_the_last_joint(self):
        """The edit's reach is the chain's: 1e3 joint diameters (3e3) from
        the last joint. An entry 2999 from the last joint (3000.5 from the
        joints' mean) is edited to; one 3001 from it (2999.5 from the
        mean) is refused."""
        chain = chain_on([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        for x, ok in ((3002.0, True), (-2998.0, False)):
            desc = GeometricDescriptor(enter=Pose([x, 0.0], np.eye(2)))
            if ok:
                assert transform_chain(chain, desc).joints[0, 0] == x
            else:
                with pytest.raises(ValidationError, match="joint diameters"):
                    transform_chain(chain, desc)


def test_the_chain_re_targets_through_its_own_entries():
    """Building and transforming a chain are the re-target API; the steps
    they take on checked values are private, and conflicting pins are a
    ValidationError, not an error type of their own."""
    import stablemotion
    from stablemotion import chain, errors
    for name in ("gaussian_joints", "build_laplacian",
                 "solve_constrained_edit", "recover_gmm"):
        assert not hasattr(stablemotion, name)
        assert not hasattr(chain, name)
    assert not hasattr(errors, "RankDeficientSystem")
