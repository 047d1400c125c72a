"""Dense reference constructions that tests compare the package against.

The package never forms these operators: the proof replay lifts states
matrix-free through the Kraus stack and reduces them with matrix products,
and blocks are summed with ``np.add.reduceat``, not with a 0/1 block
matrix.  The tests build them here, in the package's tensor layout (the
first factor's index fastest, so A (x) B is np.kron(B, A)), and
test_states.py checks the partial trace against an index sum.  The per-outcome maps and the lifts' reductions are
index sums here (einsum), the package's kernels matrix products.
"""

import numpy as np


def tensor(a, b) -> np.ndarray:
    """a (x) b with the first factor's index fastest."""
    return np.kron(np.asarray(b), np.asarray(a))


def pure_projector(psi) -> np.ndarray:
    """|psi><psi| for a state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace(M, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Partial trace of a matrix on A (x) B; keep="a" traces out B, keep="b" traces out A."""
    M = np.asarray(M, dtype=complex)
    d = dim_a * dim_b
    if M.shape != (d, d):
        raise ValueError(f"expected shape ({d}, {d}) for dims {dim_a}x{dim_b}, got {M.shape}")
    M4 = M.reshape(dim_b, dim_a, dim_b, dim_a)  # axes [b, a, b', a']
    if keep == "a":
        return np.einsum("ixiy->xy", M4)
    if keep == "b":
        return np.einsum("xiyi->xy", M4)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def basis_vector(m: int, mu: int) -> np.ndarray:
    """|mu> in C^m; |e0> of the environment is basis_vector(m, 0)."""
    e = np.zeros(m, dtype=complex)
    e[mu] = 1.0
    return e


def env_projector(n: int, m: int, mu: int) -> np.ndarray:
    """Orthogonal projector onto S (x) span|mu> in S (x) E."""
    return tensor(np.eye(n), pure_projector(basis_vector(m, mu)))


def isometry(operators) -> np.ndarray:
    """The Stinespring isometry V = sum_mu M_mu (x) |mu> of an (m, n, n) Kraus stack: shape (m n, n)."""
    m, n, _ = np.shape(operators)
    return np.asarray(operators, dtype=complex).reshape(m * n, n)


def dense_lift(operators, psi) -> np.ndarray:
    """(V (x) I_Q) psi for psi on S (x) Q through the dense (n^2 m, n^2) matrix of V (x) I_Q."""
    m, n, _ = np.shape(operators)
    lift = np.einsum("est,qr->eqsrt", operators, np.eye(n)).reshape(n * n * m, n * n)  # [E, Q', S'], [Q, S]
    return lift @ np.asarray(psi)


def block_indicator(partition) -> np.ndarray:
    """The (m, blocks) 0/1 matrix E with E[mu, j] = 1 when mu is in block j: p_blocks = p E."""
    E = np.zeros((partition.m, partition.num_blocks))
    for j, block in enumerate(partition.blocks):
        E[list(block), j] = 1.0
    return E


def per_outcome(operators, rho) -> np.ndarray:
    """M_mu rho M_mu† for every outcome of an (m, n, n) Kraus stack: shape (..., m, n, n)."""
    operators = np.asarray(operators)
    return np.einsum("mij,...jk,mlk->...mil", operators, rho, operators.conj())


def block_maps(operators, rho, partition) -> np.ndarray:
    """sum_{mu in block} M_mu rho M_mu† for every block of `partition` (None: one block per outcome)."""
    per = per_outcome(operators, rho)
    if partition is None:
        return per
    return np.stack([per[..., list(block), :, :].sum(axis=-3) for block in partition.blocks], axis=-3)


def lift_reductions(lifts) -> np.ndarray:
    """tr_Q of each outcome slice of [..., E, Q, S] lift amplitudes: shape (..., m, n, n)."""
    return np.einsum("...eqs,...eqt->...est", lifts, np.conj(lifts))
