import numpy as np
import pytest

from stablemotion.chain import (
    build_chain,
    build_laplacian,
    chain_from_state,
    gaussian_joint,
    link_frames,
    recover_gmm,
    solve_constrained_edit,
    transform_chain,
)
from stablemotion.core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    frame_from_two_points,
)
from stablemotion.errors import RankDeficientSystem, ValidationError
from stablemotion.fileio import load_policy, save_policy
from stablemotion.gmm import GmmFitConfig, fit_gmm, order_components
from stablemotion.pipeline import adapt
from stablemotion.profile import ProfileConfig
from conftest import helix_demo, s_curve_demo


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


def reference_link_frame(component, joint, next_joint):
    """(local mean, local eigenvectors, eigenvalues, along index) of one
    link, derived on its own; each eigenvector's sign makes its dot with
    the link x-axis nonnegative, the y-axis breaking a tie."""
    R = reference_rotation(joint, next_joint)
    vals, vecs = np.linalg.eigh(component.covariance)
    for i in range(vecs.shape[1]):
        dx = vecs[:, i] @ R[:, 0]
        ref = dx if abs(dx) > 1e-9 else vecs[:, i] @ R[:, 1]
        if ref < 0:
            vecs[:, i] = -vecs[:, i]
    local = R.T @ vecs
    return (R.T @ (component.mean - joint), local, vals,
            int(np.argmax(np.abs(local[0]))))


def reference_transform(chain, descriptor):
    """The re-targeted components, link by link: frames derived afresh
    from the chain's components, recreated along the edited links, the
    along-link mean coordinate and variance scaled by the length ratio."""
    new_joints, _ = solve_constrained_edit(
        chain.joints, descriptor.enter, descriptor.exit)
    out = []
    for k, comp in enumerate(chain.components.components):
        mean, vecs, vals, along = reference_link_frame(
            comp, chain.joints[k], chain.joints[k + 1])
        R = reference_rotation(new_joints[k], new_joints[k + 1])
        ratio = np.linalg.norm(new_joints[k + 1] - new_joints[k]) / \
            np.linalg.norm(chain.joints[k + 1] - chain.joints[k])
        mean, vals = mean.copy(), vals.copy()
        mean[0] *= ratio
        vals[along] *= ratio ** 2
        world = R @ vecs
        cov = (world * vals) @ world.T
        out.append((new_joints[k] + R @ mean, 0.5 * (cov + cov.T)))
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


@pytest.fixture(scope="module", params=["s_curve", "helix"])
def learned_chain(request):
    demo = (s_curve_demo if request.param == "s_curve" else helix_demo)()
    chain, _ = fitted_chain(demo, k_max=6)
    return chain


def unit_gaussian(x, y, prior=0.5, cov=None):
    return GaussianComponent(prior, np.array([x, y], dtype=float),
                             np.eye(2) if cov is None else cov)


def fitted_chain(demo=None, k_max=5):
    demo = demo or s_curve_demo()
    comps = fit_gmm(demo.points, GmmFitConfig(k_max=k_max, restarts=3))
    return build_chain(order_components(comps, demo), demo), demo


class TestGaussianJoint:
    def test_symmetric_midpoint(self):
        j = gaussian_joint(unit_gaussian(0, 0), unit_gaussian(2, 0))
        assert np.allclose(j, [1, 0])

    def test_precision_weighted(self):
        # Sigma1 = I, Sigma2 = 3I: joint = (3*mu1 + mu2) / 4
        j = gaussian_joint(unit_gaussian(0, 0),
                           unit_gaussian(4, 0, cov=3.0 * np.eye(2)))
        assert np.allclose(j, [1, 0])

    def test_coincident_means(self, rng):
        m = rng.normal(size=2)
        c1 = GaussianComponent(0.5, m, np.array([[2.0, 0.3], [0.3, 1.0]]))
        c2 = GaussianComponent(0.5, m, np.array([[0.5, -0.1], [-0.1, 3.0]]))
        assert np.allclose(gaussian_joint(c1, c2), m, atol=1e-12)


class TestBuildLaplacian:
    def test_m3_rows(self):
        L = build_laplacian(3)
        assert np.allclose(L, [[1, -1, 0], [-0.5, 1, -0.5], [0, -1, 1]])

    def test_m2(self):
        assert np.allclose(build_laplacian(2), [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("m", [2, 3, 7, 20])
    def test_row_sums_zero_unit_diagonal(self, m):
        # end rows carry a single -1 neighbor, so L is not symmetric for
        # m >= 3; the normalized weights still zero every row sum
        L = build_laplacian(m)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(np.diag(L), 1.0)


class TestBuildChain:
    def test_single_component(self):
        chain, demo = fitted_chain(k_max=1)
        assert chain.joints.shape[0] == 2
        assert np.allclose(chain.joints[0], demo.start)
        assert np.allclose(chain.joints[-1], demo.end)
        assert len(chain.link_frames) == 1

    def test_middle_joint_is_gaussian_product(self):
        chain, demo = fitted_chain(k_max=2)
        if len(chain.components) == 2:
            comps = chain.components.components
            assert np.allclose(chain.joints[1],
                               gaussian_joint(comps[0], comps[1]), atol=1e-12)

    def test_round_trip_identity(self):
        chain, _ = fitted_chain()
        rebuilt = recover_gmm(chain, chain.joints)
        for orig, new in zip(chain.components.components, rebuilt):
            assert np.allclose(new.mean, orig.mean, atol=1e-9)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-9)
            assert new.prior == orig.prior


class TestSolveConstrainedEdit:
    def test_identity_edit(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        out, _ = solve_constrained_edit(chain.joints, desc.enter, desc.exit)
        assert np.max(np.abs(out - chain.joints)) < 1e-9

    def test_pure_translation(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        t = np.array([2.5, -1.0])
        enter = Pose(desc.enter.position + t, desc.enter.rotation)
        exit_ = Pose(desc.exit.position + t, desc.exit.rotation)
        out, _ = solve_constrained_edit(chain.joints, enter, exit_)
        assert np.max(np.abs(out - (chain.joints + t))) < 1e-9

    def test_rotated_end_matches_kkt_oracle(self):
        joints = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        end = Pose(np.array([3.0, 0]),
                   np.array([[0.0, -1.0], [1.0, 0.0]]))  # x-axis up
        L = build_laplacian(4)
        out, pins = solve_constrained_edit(joints, None, end)
        oracle = kkt_oracle(L, L @ joints, pins)
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
            L = build_laplacian(m)
            out, pins = solve_constrained_edit(joints, enter, exit_)
            oracle = kkt_oracle(L, L @ joints, pins)
            assert np.max(np.abs(out - oracle)) < 1e-8
            # pinned joints hit their targets exactly
            for i, target in pins.items():
                assert np.linalg.norm(out[i] - target) < 1e-9

    def test_conflicting_pins_raise(self):
        joints = np.array([[0.0, 0], [1, 0]])
        enter = frame_from_two_points(np.zeros(2), np.array([1.0, 0]))
        exit_ = frame_from_two_points(np.array([5.0, 5]),
                                      np.array([6.0, 5]))
        exit_ = Pose(np.array([6.0, 5.0]), exit_.rotation)
        with pytest.raises(RankDeficientSystem):
            solve_constrained_edit(joints, enter, exit_)


class TestRecoverGmm:
    def test_uniform_scaling(self):
        chain, _ = fitted_chain()
        scaled = recover_gmm(chain, 2.0 * chain.joints)
        lf = chain.link_frames
        for k, (orig, new) in enumerate(zip(chain.components.components,
                                            scaled)):
            vals_new = np.sort(np.linalg.eigvalsh(new.covariance))
            expect = lf.eigvals[k].copy()
            expect[lf.along_index[k]] *= 4.0
            assert np.allclose(vals_new, np.sort(expect), atol=1e-9)
            # along-link mean offset doubles in the (unchanged) link frame
            frame = frame_from_two_points(2 * chain.joints[k],
                                          2 * chain.joints[k + 1])
            local = frame.rotation.T @ (new.mean - 2 * chain.joints[k])
            assert np.allclose(local[0], 2.0 * lf.local_mean[k, 0], atol=1e-9)
            assert np.allclose(local[1:], lf.local_mean[k, 1:], atol=1e-9)

    def test_rigid_motion_equivariance(self):
        chain, _ = fitted_chain()
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang)],
                      [np.sin(ang), np.cos(ang)]])
        t = np.array([1.0, -2.0])
        moved = recover_gmm(chain, chain.joints @ R.T + t)
        for orig, new in zip(chain.components.components, moved):
            assert np.allclose(new.mean, R @ orig.mean + t, atol=1e-9)
            assert np.allclose(new.covariance, R @ orig.covariance @ R.T,
                               atol=1e-9)


class TestTransformChain:
    def test_identity_descriptor(self):
        chain, _ = fitted_chain()
        new_chain, comps = transform_chain(chain, chain.endpoint_descriptor())
        assert np.max(np.abs(new_chain.joints - chain.joints)) < 1e-9
        for orig, new in zip(chain.components.components, comps):
            assert np.allclose(new.mean, orig.mean, atol=1e-9)
            assert np.allclose(new.covariance, orig.covariance, atol=1e-9)

    def test_pure_translation_equivariance(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        t = np.array([0.5, 3.0])
        moved = GeometricDescriptor(
            enter=Pose(desc.enter.position + t, desc.enter.rotation),
            exit=Pose(desc.exit.position + t, desc.exit.rotation))
        new_chain, comps = transform_chain(chain, moved)
        assert np.max(np.abs(new_chain.joints - (chain.joints + t))) < 1e-9
        for orig, new in zip(chain.components.components, comps):
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
        new_chain, _ = transform_chain(chain, moved)
        applied = new_chain.endpoint_descriptor()
        assert np.allclose(applied.enter.position, moved.enter.position,
                           atol=1e-9)
        assert np.allclose(applied.exit.position, moved.exit.position,
                           atol=1e-9)
        assert np.allclose(applied.enter.x_axis, moved.enter.x_axis,
                           atol=1e-9)
        assert np.allclose(applied.exit.x_axis, moved.exit.x_axis, atol=1e-9)


class TestStackedAgainstPerLinkReference:
    def test_link_frames_match_the_per_link_derivation(self, learned_chain):
        chain = learned_chain
        frames = link_frames(chain.components.components, chain.joints)
        for k, comp in enumerate(chain.components.components):
            mean, vecs, vals, along = reference_link_frame(
                comp, chain.joints[k], chain.joints[k + 1])
            assert np.abs(frames.local_mean[k] - mean).max() <= 1e-12
            assert np.abs(frames.local_eigvecs[k] - vecs).max() <= 1e-12
            assert np.abs(frames.eigvals[k] - vals).max() <= 1e-12
            assert frames.along_index[k] == along

    def test_transform_matches_the_per_link_reference(self, learned_chain):
        chain = learned_chain
        for desc in moved_descriptors(chain, np.random.default_rng(8), 12):
            new_chain, comps = transform_chain(chain, desc)
            joints, expect = reference_transform(chain, desc)
            assert np.array_equal(new_chain.joints, joints)
            for comp, (mean, cov) in zip(comps, expect):
                assert np.abs(comp.mean - mean).max() <= 1e-12
                assert np.abs(comp.covariance - cov).max() <= 1e-12

    def test_carried_frames_describe_the_derived_local_gaussians(
            self, learned_chain):
        """The frames a transform carries and the frames derived afresh
        from its output give the same local mean, the same local
        covariance and the same along-link axis, whatever the order and
        signs of their eigenvector columns."""
        chain = learned_chain
        for desc in moved_descriptors(chain, np.random.default_rng(9), 12):
            new_chain, comps = transform_chain(chain, desc)
            carried = new_chain.link_frames
            fresh = link_frames(comps, new_chain.joints)
            assert np.abs(carried.local_mean - fresh.local_mean).max() \
                <= 1e-12
            cov_c, cov_f = ((f.local_eigvecs * f.eigvals[:, None])
                            @ f.local_eigvecs.swapaxes(1, 2)
                            for f in (carried, fresh))
            scale = np.abs(cov_f).max(axis=(1, 2))
            assert np.all(np.abs(cov_c - cov_f).max(axis=(1, 2))
                          <= 1e-12 * scale)
            assert np.abs(np.sort(carried.eigvals, axis=1)
                          - fresh.eigvals).max() <= 1e-12 * scale.max()
            k = np.arange(len(comps))
            a = carried.local_eigvecs[k, :, carried.along_index]
            b = fresh.local_eigvecs[k, :, fresh.along_index]
            assert np.allclose(np.abs(np.sum(a * b, axis=1)), 1.0,
                               atol=1e-9)

    def test_carried_chain_re_targets_like_a_derived_one(self, learned_chain,
                                                         tmp_path):
        """A second edit from the carried frames gives what it gives from
        frames derived afresh, in memory or from the adapted policy's
        file."""
        chain = learned_chain
        first, second = moved_descriptors(chain, np.random.default_rng(10),
                                          3)[1:]
        carried, _, policy = adapt(chain, first, ProfileConfig(p=200,
                                                               dt=0.01))
        derived = chain_from_state(carried.components.components,
                                   carried.joints)
        save_policy(tmp_path / "adapted.json", policy, carried)
        _, loaded = load_policy(tmp_path / "adapted.json")
        _, a = transform_chain(carried, second)
        for other in (derived, loaded):
            _, b = transform_chain(other, second)
            for x, y in zip(a, b):
                assert np.abs(x.mean - y.mean).max() <= 1e-12
                assert np.abs(x.covariance - y.covariance).max() <= 1e-12

    def test_far_descriptor_is_rejected_before_the_edit(self):
        chain, _ = fitted_chain()
        desc = chain.endpoint_descriptor()
        far = GeometricDescriptor(
            enter=Pose(desc.enter.position + 1e300, desc.enter.rotation))
        with pytest.raises(ValidationError, match="joint diameters"):
            transform_chain(chain, far)
