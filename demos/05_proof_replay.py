"""Why fidelity is a sub-martingale: the argument, replayed numerically.

The one-step gain follows from a chain of elementary facts on a larger
space.  Lift both states to maximally-overlapping purifications (Uhlmann),
push them through the channel's environment model, the Stinespring
isometry V|phi> = sum_mu (M_mu|phi>) (x) |mu> that its Kraus operators
stack into, and project per outcome:

  (a) block norms of the lifted state are the jump probabilities,
  (b) normalized projections purify the post-jump states,
  (c) per block, fidelity dominates the projected overlap (Uhlmann again),
  (d) the weighted overlap sum dominates the total overlap (Cauchy-Schwarz),
  (e) the total overlap is exactly the starting fidelity.

Chaining (c) >= (d) >= (e) gives E[F'] >= F.  Every link is checked here
on a random instance and on the embedded counter-example.
"""

import numpy as np

from qfilter import (
    counterexample_instance,
    random_channel,
    random_density,
    replay_proof,
    uhlmann_pair,
)

rng = np.random.default_rng(12)
channel = random_channel(3, 2, rng)
sigma = random_density(3, 2, rng)
rho = random_density(3, 3, rng)

m, n, _ = channel.operators.shape
V = channel.operators.reshape(m * n, n)
print(f"Stinespring isometry: V from S into S (x) E is {m * n}x{n},"
      f" max|V†V - I| = {np.abs(V.conj().T @ V - np.eye(n)).max():.1e}")

psi_sigma, psi_rho = uhlmann_pair(sigma, rho)
print(f"Uhlmann overlap |<psi_sigma|psi_rho>|^2 = {abs(np.vdot(psi_sigma, psi_rho))**2:.10f}")

for label, (ch, s, r) in {
    "random instance": (channel, sigma, rho),
    "counter-example": counterexample_instance(),
}.items():
    rep = replay_proof(ch, s, r)
    print(f"\n{label}:")
    print(f"  F(sigma, rho)            = {rep.fidelity_current:.10f}")
    print(f"  E[F after one jump]      = {rep.expected_next_fidelity:.10f}")
    print(f"  Cauchy-Schwarz lhs >= rhs: {rep.cauchy_schwarz_lhs:.10f} >= {rep.cauchy_schwarz_rhs:.10f}")
    for name, residual in rep.link_residuals.items():
        status = "ok" if rep.links_hold[name] else "VIOLATED"
        print(f"  link {name:<24} residual {residual:+.2e}  {status}")
    print(f"  all links hold: {rep.all_links_hold}")
