"""Graph/Laplacian construction and the block spectral identities."""

import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pidnet import (
    DisconnectedGraph,
    Graph,
    InvalidGraph,
    InvalidWeight,
    NonFinite,
    build_laplacian,
    h_norm_bound,
    modified_laplacian,
    spectral_decompose,
)
from conftest import (complete, load_pidbench, random_graph, random_heterogeneous_instance, ring,
                      sign_fixed_column_by_column)

TOL = 1e-9


def decompose(graph: Graph):
    return spectral_decompose(graph)


# ---------------------------------------------------------------- graphs


def test_graph_rejects_nonpositive_weight():
    with pytest.raises(InvalidWeight):
        Graph(2, ((0, 1, 0.0),))
    with pytest.raises(InvalidWeight):
        Graph(2, ((0, 1, -1.0),))


@pytest.mark.parametrize("w", [np.inf, np.nan])
def test_graph_rejects_non_finite_weight(w):
    with pytest.raises(InvalidWeight, match=rf"^edge \(0, 1\) has non-finite weight {w}$"):
        Graph(2, ((0, 1, w),))


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(InvalidGraph):
        Graph(2, ((0, 0, 1.0), (0, 1, 1.0)))
    with pytest.raises(InvalidGraph):
        Graph(3, ((0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)))
    with pytest.raises(InvalidGraph):
        Graph(2, ((0, 2, 1.0),))


def test_graph_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def test_overflowing_weighted_degree_names_graph_edges():
    # node 1 meets two weights of 1e308: each is finite, their sum is not
    g = Graph(3, ((0, 1, 1e308), (1, 2, 1e308)))
    with pytest.raises(NonFinite, match=r"^graph.edges: the weighted degree of node 1 "):
        build_laplacian(g)
    with pytest.raises(NonFinite, match="weighted degree of node 1"):
        spectral_decompose(g)


def test_two_node_laplacian_analytic():
    g = Graph(2, ((0, 1, 1.0),))
    assert np.array_equal(build_laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(decompose(g).lam, [0.0, 2.0], atol=TOL)


def test_ring6_weight5_algebraic_connectivity():
    dec = decompose(ring(6, 5.0))
    assert abs(dec.lambda_2 - 5.0) < TOL
    assert abs(dec.lambda_max - 20.0) < TOL
    # full spectrum of the weight-5 six-cycle
    assert np.allclose(np.sort(dec.lam), [0.0, 5.0, 5.0, 15.0, 15.0, 20.0], atol=TOL)


def test_complete4_unit_weight_spectrum():
    dec = decompose(complete(4, 1.0))
    # oracle: brute-force eigensolve of the explicit 4x4 matrix
    explicit = 4.0 * np.eye(4) - np.ones((4, 4))
    assert np.allclose(dec.laplacian, explicit)
    assert np.allclose(dec.lam, np.linalg.eigvalsh(explicit), atol=TOL)
    assert np.allclose(dec.lam, [0.0, 4.0, 4.0, 4.0], atol=TOL)


def test_laplacian_zero_row_sums_random(rng):
    for _ in range(20):
        dec = decompose(random_graph(rng, int(rng.integers(2, 13))))
        assert np.max(np.abs(dec.laplacian @ np.ones(dec.node_count))) < TOL
        assert np.max(np.abs(dec.laplacian - dec.laplacian.T)) == 0.0
        assert dec.lam[0] == 0.0
        assert dec.lambda_2 > 0


# ---------------------------------------------- spectral decomposition


def test_two_node_blocks():
    dec = decompose(Graph(2, ((0, 1, 1.0),)))
    assert dec.r11 == pytest.approx(0.5, abs=TOL)
    assert dec.R12.ravel() == pytest.approx([0.5], abs=TOL)
    val = dec.R21 @ dec.R21.T + dec.R22 @ dec.R22.T
    assert val.ravel() == pytest.approx([0.5], abs=TOL)


def test_first_column_of_U_is_exactly_ones(rng):
    for _ in range(10):
        dec = decompose(random_graph(rng, int(rng.integers(2, 13))))
        assert np.array_equal(dec.U[:, 0], np.ones(dec.node_count))


def test_decomposition_reconstructs_laplacian(rng):
    for _ in range(20):
        dec = decompose(random_graph(rng, int(rng.integers(2, 13))))
        n = dec.node_count
        assert np.max(np.abs(dec.U @ dec.U_inv - np.eye(n))) < 1e-10
        assert np.max(np.abs(dec.U @ np.diag(dec.lam) @ dec.U_inv - dec.laplacian)) < 1e-10
    # spectral_decompose trusts LAPACK's backward-stable eigh: hold the
    # installed one to that at the benchmark's sizes, and on a ring, whose
    # eigenvalues come in pairs
    inputs = load_pidbench("inputs")
    graphs = [Graph(n, inputs.random_instance(np.random.default_rng(1), n).edges) for n in (200, 800)]
    for dec in map(decompose, graphs + [ring(400, 1.5)]):
        V, n = dec.V, dec.node_count
        assert np.max(np.abs((V * dec.lam) @ V.T - dec.laplacian)) <= 1e-9 * max(1.0, dec.lambda_max)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-11


@pytest.mark.parametrize("graph", ["random", "ring"])
def test_sign_fixing_matches_column_loop(rng, graph):
    # the ring has repeated eigenvalues and eigenvector entries at the 1e-12 floor
    graphs = ([random_graph(rng, int(rng.integers(2, 41))) for _ in range(20)]
              if graph == "random" else [ring(n, 1.5) for n in range(3, 41)])
    for g in graphs:
        n = g.node_count
        _, V = np.linalg.eigh(build_laplacian(g))
        V[:, 0] = 1.0 / np.sqrt(n)
        U = np.sqrt(n) * sign_fixed_column_by_column(V)
        assert np.array_equal(spectral_decompose(g).U, U)


def test_laplacian_held_as_its_diagonal(rng):
    # the decomposition keeps the weighted degrees; the dense L is rebuilt from
    # the graph, bit for bit, only when asked for
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(2, 30)))
        dec = decompose(g)
        assert "laplacian" not in vars(dec)
        L = build_laplacian(g)
        assert np.array_equal(dec.degree, np.diagonal(L))
        assert np.array_equal(dec.laplacian, L)


def test_sign_fixing_is_deterministic():
    g = Graph(5, ((0, 1, 1.5), (1, 2, 0.7), (2, 3, 2.0), (3, 4, 1.1), (4, 0, 0.9)))
    a, b = decompose(g), decompose(g)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.U_inv, b.U_inv)


@pytest.mark.parametrize("seed, n", [((1, 1), 200), ((1, 2), 800)])
def test_decompose_traced_peak_in_dense_matrices(seed, n):
    # 2.64 and 2.26 N^2 floats at N = 200 and 800: L, V, eigh's workspace and
    # the leading-entry masks (3.07 and 2.98 while the sign fix copied the
    # flipped columns out and back); one warm call and a full collection
    # first, so the free lists hold the same at every run
    graph = Graph(n, load_pidbench("inputs").random_instance(np.random.default_rng(seed), n).edges)
    decompose(graph)
    gc.collect()
    tracemalloc.start()
    try:
        decompose(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.85 * 8 * n * n


def block_residuals(dec) -> float:
    """Worst residual over all block identities of U^-1."""
    n = dec.node_count
    ones = np.ones((n - 1, 1))
    res = [
        np.abs(dec.R21 + dec.R22 @ ones),
        np.abs(dec.R21 @ dec.R21.T + dec.R22 @ dec.R22.T - np.eye(n - 1) / n),
        np.abs(dec.r11 * dec.R21.T + dec.R12 @ dec.R22.T),
        np.abs(dec.R21 @ dec.R21.T - dec.R22 @ ones @ ones.T @ dec.R22.T),
    ]
    return max(float(r.max()) for r in res)


def modlap_residuals(dec, mod) -> float:
    """Worst residual over the inverse-modified-Laplacian block identities."""
    n = dec.node_count
    ones = np.ones(n - 1)
    res = [
        np.abs(mod.L12_hat @ ones - (1.0 - mod.l11_hat)),
        np.abs(mod.L21_hat @ ones - (1.0 - mod.l11_hat)),
        np.abs(mod.L22_hat @ ones - (ones - mod.L21_hat)),
        np.abs(np.outer(ones, ones @ mod.L22_hat) - (np.outer(ones, ones) - np.outer(ones, mod.L12_hat))),
        np.abs(mod.H_hat @ ones - (mod.l11_hat * ones - mod.L21_hat)),
        np.abs(
            mod.Sigma_hat_inv / n
            - dec.R22 @ (mod.H_hat + np.outer(mod.l11_hat * ones - mod.L21_hat, ones)) @ dec.R22.T
        ),
    ]
    return max(float(np.max(r)) for r in res)


def test_block_identities_random(rng):
    for _ in range(40):
        dec = decompose(random_graph(rng, int(rng.integers(2, 13))))
        n = dec.node_count
        assert block_residuals(dec) < TOL
        assert np.linalg.norm(dec.R22, 2) <= 1.0 / np.sqrt(n) + TOL
        assert np.linalg.norm(dec.R21, 2) <= np.sqrt((n - 1) / n) + TOL
        # R22 invertible, with a conditioning sanity check
        assert np.linalg.cond(dec.R22) < 1e9
        assert abs(np.linalg.det(dec.R22)) > 1e-12


# ------------------------------------------------- modified Laplacian


def test_gamma_zero_blocks_are_identity(rng):
    dec = decompose(random_graph(rng, 7))
    mod = modified_laplacian(dec, 0.0)
    n = dec.node_count
    assert np.allclose(mod.L_tilde_inv, np.eye(n), atol=1e-12)
    assert mod.l11_hat == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(mod.L12_hat)) < 1e-12
    assert np.max(np.abs(mod.L21_hat)) < 1e-12
    assert np.allclose(mod.L22_hat, np.eye(n - 1), atol=1e-12)
    assert mod.h_norm == pytest.approx(1.0, abs=1e-12)


def test_modified_laplacian_fixes_ones(rng):
    for gamma in (0.0, 0.3, 2.5):
        dec = decompose(random_graph(rng, 6))
        mod = modified_laplacian(dec, gamma)
        ones = np.ones(6)
        assert np.max(np.abs(mod.L_tilde_inv @ ones - ones)) < TOL


def test_product_spectrum_matches_closed_form(rng):
    dec = decompose(random_graph(rng, 8))
    gamma = 0.7
    mod = modified_laplacian(dec, gamma)
    # oracle: brute-force eigensolve of the product matrix
    product = mod.L_tilde_inv @ dec.laplacian
    eigs = np.sort(np.linalg.eigvals(product).real)
    expected = np.sort(np.concatenate([[0.0], dec.lam[1:] / (gamma * dec.lam[1:] + 1.0)]))
    assert np.max(np.abs(eigs - expected)) < 1e-10
    assert np.max(np.abs(np.linalg.eigvals(product).imag)) < 1e-10


def test_ring6_h_norm_bound_benchmark():
    dec = decompose(ring(6, 5.0))
    mod = modified_laplacian(dec, 1.0)
    assert h_norm_bound(dec, 1.0) == pytest.approx(1.0, abs=TOL)
    assert mod.h_norm <= h_norm_bound(dec, 1.0) + TOL
    assert np.linalg.norm(dec.R22, 2) <= 1.0 / np.sqrt(6) + TOL


def test_h_norm_bound_at_gamma_zero(rng):
    dec = decompose(random_graph(rng, 9))
    assert h_norm_bound(dec, 0.0) == 9.0


def test_h_norm_bound_needs_a_connected_spectrum():
    # spectral_decompose never returns lambda_2 <= 0, so the decomposition is edited
    dec = decompose(ring(4))
    cut = dataclasses.replace(dec, lam=np.array([0.0, 0.0, 2.0, 4.0]))
    with pytest.raises(DisconnectedGraph, match="bound requires lambda_2 > 0"):
        h_norm_bound(cut, 1.0)


def test_h_norm_bound_dominates_exact_norm(rng):
    for _ in range(10):
        dec = decompose(random_graph(rng, 10))
        gamma = float(rng.uniform(0.0, 4.0))
        mod = modified_laplacian(dec, gamma)
        assert mod.h_norm <= h_norm_bound(dec, gamma) + TOL


def test_negative_gamma_rejected(rng):
    dec = decompose(random_graph(rng, 4))
    with pytest.raises(ValueError):
        modified_laplacian(dec, -0.1)


def eigenbasis_H_hat(dec, gamma):
    """(Z - 1 z^T) diag(g) Z^T with V = U/sqrt(N), z = V[0, 1:], Z = V[1:, 1:]
    and g_k = 1/(1 + gamma*lambda_k): H_hat without the solve of I + gamma*L,
    whose rounding grows with gamma*lambda_N."""
    V = dec.U / np.sqrt(dec.node_count)
    z, Z = V[0, 1:], V[1:, 1:]
    return (Z - z) * (1.0 / (1.0 + gamma * dec.lam[1:])) @ Z.T


def assert_gram_norms_match_svd(dec, mod):
    H = eigenbasis_H_hat(dec, mod.gamma)
    assert mod.h_norm == pytest.approx(np.linalg.norm(H, 2), rel=1e-12, abs=0)
    assert mod.h1_norm == pytest.approx(np.linalg.norm(np.eye(len(H)) + H, 2), rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=15.0).map(lambda e: 10.0**e)),
)
@example(2, 0, 1e15)
def test_gram_norms_match_svd(n, seed, gamma):
    inst = random_heterogeneous_instance(np.random.default_rng(seed), n)
    try:
        mod = modified_laplacian(inst.dec, gamma)
    except NonFinite:
        reject()  # I + gamma*L singular to working precision
    assert_gram_norms_match_svd(inst.dec, mod)


@pytest.mark.parametrize(
    "graph, gamma",
    [(Graph(2, ((0, 1, 2.5),)), 0.3), (complete(6), 1.0), (ring(7, 1.3), 0.0)],
    ids=["N2", "complete", "gamma0"],
)
def test_norms_of_one_distinct_g(graph, gamma):
    # every g_k equal (to rounding of lambda): H_hat = g I, and the top of the
    # pencil is max D^2 itself
    dec = decompose(graph)
    mod = modified_laplacian(dec, gamma)
    top = float(np.max(1.0 / (1.0 + gamma * dec.lam[1:])))
    assert mod.h_norm == top
    assert mod.h1_norm == 1.0 + top
    assert_gram_norms_match_svd(dec, mod)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(None), st.floats(min_value=-3.0, max_value=3.0)),
)
def test_eigenbasis_H_hat_is_the_solved_one(n, seed, log_gamma_lam):
    # where gamma*lambda_N <= 1e3 the solve of I + gamma*L is accurate
    dec = random_heterogeneous_instance(np.random.default_rng(seed), n).dec
    gamma = 0.0 if log_gamma_lam is None else 10.0**log_gamma_lam / dec.lambda_max
    H = modified_laplacian(dec, gamma).H_hat
    assert np.max(np.abs(eigenbasis_H_hat(dec, gamma) - H)) <= 1e-12


PATH4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))  # the README graph
MIXED7 = Graph(7, ((0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.0), (4, 5, 2.0), (5, 6, 1.0),
                   (0, 3, 1.0), (2, 6, 4.0)))


@pytest.mark.parametrize(
    "graph, gamma, h_norm, h1_norm",
    [
        # 40-digit values of the solve of I + gamma*L and the SVD, rounded to 25 digits
        (PATH4, 0.0, 1.0, 2.0),
        (PATH4, 1e-3, 0.9996288522239641346748769, 1.999628735477254364112356),
        (PATH4, 1.0, 0.6856690631092488554923368, 1.675121994830217116158173),
        (PATH4, 1e6, 1.958559988066986458277152e-6, 1.000001861221151297294598),
        (PATH4, 1e12, 1.958563504120741586578929e-12, 1.0000000000018612242883),
        (PATH4, 1e15, 1.958563504124254133907068e-15, 1.000000000000001861224288),
        (MIXED7, 0.0, 1.0, 2.0),
        (MIXED7, 1e-3, 0.9999309277049190587392017, 1.999929750551293476830266),
        (MIXED7, 1.0, 0.6303288216018254558232927, 1.599753443191935126474438),
        (MIXED7, 1e6, 1.3811660515917302810863e-6, 1.000001248724532903403504),
        (MIXED7, 1e12, 1.381167630488296549353682e-12, 1.000000000001248725812571),
        (MIXED7, 1e15, 1.381167630489873870320917e-15, 1.000000000000001248725813),
    ],
    ids=[f"{name}-{g:g}" for name in ("path4", "mixed7") for g in (0, 1e-3, 1, 1e6, 1e12, 1e15)],
)
def test_norms_match_high_precision_reference(graph, gamma, h_norm, h1_norm):
    mod = modified_laplacian(decompose(graph), gamma)
    assert mod.h_norm == pytest.approx(h_norm, rel=1e-14, abs=0)
    assert mod.h1_norm == pytest.approx(h1_norm, rel=1e-14, abs=0)


def test_gram_norms_at_largest_solvable_gamma():
    # the README config: I + gamma*L is solved at 1e15, not at 1e16; the
    # solve-built H_hat has a norm 3.4% below the exact one there
    dec = decompose(PATH4)
    mod = modified_laplacian(dec, 1e15)
    assert_gram_norms_match_svd(dec, mod)
    assert mod.h_norm == pytest.approx(1.9585635041242541e-15, rel=1e-14, abs=0)
    assert np.linalg.norm(mod.H_hat, 2) < 0.97 * mod.h_norm
    with pytest.raises(NonFinite):
        modified_laplacian(dec, 1e16)


def test_singular_modified_laplacian_names_gamma():
    dec = decompose(ring(4, 1.0))
    with pytest.raises(NonFinite, match=r"I \+ gamma\*L is singular .* at gamma = 1e\+300$"):
        modified_laplacian(dec, 1e300)


# huge gammas around the loss of the identity (gamma*L_ii >= 2^53), and beyond
HUGE_GAMMAS = [10.0 ** (12 + q / 4) for q in range(25)] + [1e200, 1e300]


def test_singular_exactly_where_identity_is_lost_on_every_diagonal():
    # formed I + gamma*L equals fl(gamma*L), whose rows sum to about 0, exactly
    # where 1 + gamma*L_ii rounds to gamma*L_ii for every i
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dec = decompose(random_graph(rng, int(rng.integers(2, 60))))
        n, L = dec.node_count, dec.laplacian
        for gamma in HUGE_GAMMAS:
            lost = np.array_equal(np.eye(n) + gamma * L, gamma * L)
            outcomes.add(lost)
            if lost:
                message = re.escape(f"singular to working precision at gamma = {gamma:.6g}")
                with pytest.raises(NonFinite, match=message + "$"):
                    modified_laplacian(dec, gamma)
            else:
                assert 0.0 < modified_laplacian(dec, gamma).h_norm < np.inf
    assert outcomes == {False, True}


# a star on node 3, where the LU of I + 1e16 L hits an exact zero pivot
# though nodes 1 and 2 keep the identity (L_11 = 0.238, L_22 = 1.297)
STAR4 = Graph(4, ((2, 3, 1.2974605934997234), (3, 0, 2.036281092959901),
                  (3, 1, 0.2380404126984551)))


def test_zero_pivot_gamma_fails_only_the_lazy_inverse():
    dec = decompose(STAR4)
    mod = modified_laplacian(dec, 1e16)
    assert mod.h_norm == pytest.approx(3.5346494740270537e-16, rel=1e-12)
    with pytest.raises(NonFinite, match=r"I \+ gamma\*L is singular .* at gamma = 1e\+16$"):
        mod.L_tilde_inv
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mod.L_tilde, np.eye(4))


# --------------------------------------------------------- hypothesis


graph_params = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(graph_params)
def test_property_block_identities(params):
    n, seed, gamma = params
    g = random_graph(np.random.default_rng(seed), n)
    dec = decompose(g)
    mod = modified_laplacian(dec, gamma)
    assert block_residuals(dec) < TOL
    assert modlap_residuals(dec, mod) < TOL
    assert mod.h_norm <= h_norm_bound(dec, gamma) + TOL
    eigs = np.sort(np.linalg.eigvals(mod.L_tilde_inv @ dec.laplacian).real)
    expected = np.sort(np.concatenate([[0.0], dec.lam[1:] / (gamma * dec.lam[1:] + 1.0)]))
    assert np.max(np.abs(eigs - expected)) < TOL
