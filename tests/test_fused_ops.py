"""Fused tape ops: each forward equals the primitive-op chain it replaces bit
for bit, each hand-written backward passes a central-difference check with
respect to the input and every parameter, and each op records one node.
Every layer input is a path stack; a K-path call equals the K one-path
calls bit for bit, gradients included. Also: one K-path encode equals the per-conformer encodes bit for
bit and creates its parameters in the same order."""

import numpy as np
import pytest

from coarsegen.autodiff import Tensor, backward
from coarsegen.corpus import make_corpus
from coarsegen.decoder import channel_selection
from coarsegen.encoder import encode, encode_reference
from coarsegen.nn import (_VN_EPS, affine, attention, mlp, rbf_expand, vn_mlp, vn_nonlin,
                          vn_norms)
from coarsegen.params import ParameterStore
from tests.conftest import butane_like

SEED = 71
H = 1e-6
TOL = 1e-6


def tape_nodes(out: Tensor) -> int:
    """Recorded operations reachable from ``out``."""
    seen, stack, n = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        n += node._backward_fn is not None
        stack.extend(node._parents)
    return n


def check_grads(make_output, x: np.ndarray, store: ParameterStore, rng) -> None:
    """Backprop gradients of <make_output(x), w> against central differences,
    with respect to ``x`` and to every parameter in ``store``."""
    t = Tensor(x.copy(), requires_grad=True)
    out = make_output(t)
    w = rng.standard_normal(out.shape)
    store.zero_grad()
    backward((out * Tensor(w)).sum())
    arrays = [(x, t.grad)] + [(p.data, p.grad) for p in store.params.values()]
    for arr, grad in arrays:
        assert grad is not None
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            vals = []
            for step in (H, -H):
                flat[k] = orig + step
                vals.append(float((make_output(Tensor(x)).data * w).sum()))
            flat[k] = orig
            fd_flat[k] = (vals[0] - vals[1]) / (2 * H)
        np.testing.assert_allclose(grad, fd, rtol=TOL, atol=TOL)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def store():
    return ParameterStore(seed=SEED)


class TestMlp:
    def test_forward_matches_primitive_chain(self, store, rng):
        x = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        out = mlp(store, "m", x, 7, 3)
        w0, b0, w1, b1 = (store[f"m.{n}"] for n in ("w0", "b0", "w1", "b1"))
        pre = x @ w0 + b0
        want = (pre * pre.sigmoid()) @ w1 + b1      # silu(pre) @ w1 + b1
        assert np.array_equal(out.data, want.data)

    def test_gradcheck(self, store, rng):
        check_grads(lambda t: mlp(store, "m", t, 7, 3),
                    rng.standard_normal((1, 6, 5)), store, rng)

    def test_gradcheck_batched_input(self, store, rng):
        check_grads(lambda t: mlp(store, "m", t, 4, 2),
                    rng.standard_normal((2, 3, 5)), store, rng)

    def test_saturated_sigmoid_stays_finite(self, store):
        x = Tensor(np.array([[[800.0], [-800.0]]]), requires_grad=True)
        mlp(store, "m", x, 1, 1)
        store["m.w0"].data[:] = 1.0
        out = mlp(store, "m", x, 1, 1)
        backward(out.sum())
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))

    def test_one_node(self, store, rng):
        x = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        assert tape_nodes(mlp(store, "m", x, 7, 3)) == 1


class TestAffine:
    def test_forward_matches_primitive_chain(self, store, rng):
        x = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        out = affine(store, "a", x, 4)
        assert np.array_equal(out.data, (x @ store["a.w"] + store["a.b"]).data)

    def test_gradcheck(self, store, rng):
        check_grads(lambda t: affine(store, "a", t, 4),
                    rng.standard_normal((1, 6, 5)), store, rng)

    def test_one_node(self, store, rng):
        x = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        assert tape_nodes(affine(store, "a", x, 4)) == 1


class TestVnNonlin:
    def test_forward_matches_primitive_chain(self, store, rng):
        v = Tensor(rng.standard_normal((1, 7, 5, 3)), requires_grad=True)
        out = vn_nonlin(store, "u", v)
        u = store["u"]
        d = u @ v
        dot = (v * d).sum(axis=-1, keepdims=True)
        dnorm2 = (d * d).sum(axis=-1, keepdims=True) + _VN_EPS
        mask = Tensor((dot.data < 0.0).astype(np.float64))
        want = v - mask * (dot / dnorm2) * d
        assert np.array_equal(out.data, want.data)

    def test_gradcheck_both_sides_of_mask(self, store, rng):
        v = rng.standard_normal((1, 7, 5, 3))
        vn_nonlin(store, "u", Tensor(v))
        dot = np.sum(v * (store["u"].data @ v), axis=-1)
        # both branches are exercised, and no channel sits on the switch
        assert (dot < 0).any() and (dot > 0).any()
        assert np.abs(dot).min() > 1e-3
        check_grads(lambda t: vn_nonlin(store, "u", t), v, store, rng)

    def test_one_node(self, store, rng):
        v = Tensor(rng.standard_normal((1, 7, 5, 3)), requires_grad=True)
        assert tape_nodes(vn_nonlin(store, "u", v)) == 1


class TestVnNorms:
    def test_forward_matches_primitive_chain(self, rng):
        v = Tensor(rng.standard_normal((6, 4, 3)), requires_grad=True)
        want = ((v * v).sum(axis=-1) + _VN_EPS).sqrt()
        assert np.array_equal(vn_norms(v).data, want.data)

    def test_gradcheck(self, store, rng):
        check_grads(vn_norms, rng.standard_normal((6, 4, 3)), store, rng)

    def test_one_node(self, rng):
        v = Tensor(rng.standard_normal((6, 4, 3)), requires_grad=True)
        assert tape_nodes(vn_norms(v)) == 1


class TestRbfExpand:
    CENTERS = np.linspace(0.0, 10.0, 16)
    WIDTH = 10.0 / 15

    def distances(self, rng):
        # one distance sits exactly on a center, where the basis peaks
        return np.concatenate([rng.uniform(0.1, 10.0, size=6), self.CENTERS[[3]]])[None]

    def test_forward_matches_primitive_chain(self, store, rng):
        d = Tensor(self.distances(rng), requires_grad=True)
        out = rbf_expand(store, "r", d, self.CENTERS, self.WIDTH, 4)
        z = (d.reshape(1, -1, 1) - Tensor(self.CENTERS)) / self.WIDTH
        basis = (-0.5 * z * z).exp()
        want = basis @ store["r.w"] + store["r.b"]
        assert np.array_equal(out.data, want.data)

    def test_gradcheck(self, store, rng):
        check_grads(lambda t: rbf_expand(store, "r", t, self.CENTERS, self.WIDTH, 4),
                    self.distances(rng), store, rng)

    def test_basis_and_map_are_one_node_each(self, store, rng):
        d = Tensor(self.distances(rng), requires_grad=True)
        out = rbf_expand(store, "r", d, self.CENTERS, self.WIDTH, 4)
        assert tape_nodes(out) == 2


class TestChannelSelection:
    """Aggregated attention over a molecule whose beads have one to ten
    members, not in atom order."""

    F = 4

    @pytest.fixture
    def mol(self):
        return make_corpus(1, 0)[0]

    def latent(self, mol, rng, lead=()):
        return rng.standard_normal(lead + (mol.mapping.n_beads, self.F, 3))

    def test_forward_matches_per_bead_numpy(self, mol, rng):
        z = self.latent(mol, rng)
        ref = mol.ref.coords
        want = np.empty((len(mol.mapping.assignment), 3))
        for bead in range(mol.mapping.n_beads):
            members = sorted(mol.mapping.members[bead])
            scores = np.matmul(ref[members], z[bead].T) / np.sqrt(3.0)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            want[members] = np.matmul(e / e.sum(axis=-1, keepdims=True), z[bead])
        out = channel_selection(Tensor(z), mol.mapping, ref)
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_gradcheck(self, mol, store, rng, lead):
        check_grads(lambda t: channel_selection(t, mol.mapping, mol.ref.coords),
                    self.latent(mol, rng, lead), store, rng)

    def test_path_stack_equals_single_paths(self, mol, rng):
        zs = self.latent(mol, rng, (3,))
        stacked = Tensor(zs, requires_grad=True)
        out = channel_selection(stacked, mol.mapping, mol.ref.coords)
        w = rng.standard_normal(out.shape)
        backward((out * Tensor(w)).sum())
        for k in range(3):
            z = Tensor(zs[k], requires_grad=True)
            out_k = channel_selection(z, mol.mapping, mol.ref.coords)
            assert np.array_equal(out_k.data, out.data[k])
            backward((out_k * Tensor(w[k])).sum())
            assert np.array_equal(z.grad, stacked.grad[k])

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_one_node(self, mol, rng, lead):
        z = Tensor(self.latent(mol, rng, lead), requires_grad=True)
        assert tape_nodes(channel_selection(z, mol.mapping, mol.ref.coords)) == 1


class TestPathStacking:
    """An input with a leading axis of K paths runs the K paths in one call.
    Each forward slice equals the one-path call, and after ``.grad =
    None`` each parameter's ``.grad`` (and the attention key's) equals,
    bit for bit, the fold in path order of the K one-path backwards: the
    gradient training gets from K one-path calls."""

    K = 3

    def check(self, call, shape, key_shape=None):
        rng = np.random.default_rng(SEED)
        xs = rng.standard_normal((self.K,) + shape)
        store = ParameterStore(seed=SEED)
        key = (None if key_shape is None
               else Tensor(rng.standard_normal(key_shape), requires_grad=True))
        stacked_x = Tensor(xs, requires_grad=True)
        out = call(store, stacked_x, key)
        w = rng.standard_normal(out.shape)
        backward((out * Tensor(w)).sum())
        stacked = {name: p.grad for name, p in store.params.items()}
        stacked_key = None if key is None else key.grad
        store.zero_grad()
        if key is not None:
            key.grad = None
        for k in range(self.K):
            x = Tensor(xs[k:k + 1], requires_grad=True)
            out_k = call(store, x, key)
            assert np.array_equal(out_k.data[0], out.data[k])
            backward((out_k * Tensor(w[k:k + 1])).sum())
            assert np.array_equal(x.grad[0], stacked_x.grad[k])
        for name, p in store.params.items():
            assert np.array_equal(p.grad, stacked[name]), name
        if key is not None:
            assert key.grad.shape == key_shape
            assert np.array_equal(key.grad, stacked_key)

    def test_mlp(self):
        self.check(lambda s, x, _: mlp(s, "m", x, 7, 3), (6, 5))

    def test_affine(self):
        self.check(lambda s, x, _: affine(s, "a", x, 4), (6, 5))

    def test_vn_mlp(self):
        self.check(lambda s, x, _: vn_mlp(s, "v", x, 4, 6), (7, 5, 3))

    def test_attention(self):
        self.check(lambda s, x, key: attention(s, "att", x, key), (6, 4), (1, 5, 4))


def test_encode_ensemble_matches_single_encodes(small_cfg):
    graph, mapping, _, ref = butane_like(seed=5)
    rng = np.random.default_rng(SEED)
    gts = [ref + 0.3 * rng.standard_normal(ref.shape) for _ in range(3)]
    store = ParameterStore(seed=SEED)
    z_gts, z_ref = encode(store, small_cfg, graph, mapping, gts, ref)
    assert z_gts.shape[0] == 3
    solo = encode_reference(store, small_cfg, graph, mapping, ref)
    assert np.array_equal(z_ref.data, solo.data)
    for gt, z in zip(gts, z_gts.data):
        z_one, z_ref_one = encode(store, small_cfg, graph, mapping, [gt], ref)
        assert np.array_equal(z, z_one.data[0])
        assert np.array_equal(z_ref.data, z_ref_one.data)


def test_encode_parameter_creation_order(small_cfg):
    """A fresh store draws its initial values in creation order, so K must not
    change that order: K = 3 creates the K = 1 names in the same order, and
    K = 0 creates them without the ground-truth paths' cross attention."""
    graph, mapping, _, ref = butane_like(seed=5)
    gts = [ref + 0.1 * k for k in range(3)]

    def created(k):
        store = ParameterStore(seed=SEED)
        encode(store, small_cfg, graph, mapping, gts[:k], ref)
        return list(store.params)      # insertion order is creation order

    one = created(1)
    assert created(3) == one
    assert any(".att." in name for name in one)
    assert created(0) == [name for name in one
                          if not (name.startswith("enc.") and ".att." in name)]
