"""The numerical tolerance policy: every threshold the package compares against.

The paper's results are exact (in)equalities; in floating point each check
needs a slack, and each input check a threshold.  They are all defined here,
in three tiers by what they guard:

* 1e-12, exact identities and zero probabilities: quantities that are exact
  sums of a few products, so double-precision round-off stays far below;
* 1e-10, validating inputs (Hermitian, PSD floor, unit trace, isometry,
  support): matrices arrive from files, generators and earlier updates that
  went through an eigendecomposition or a division;
* 1e-9, the slack of an inequality between two computed values, each the
  result of square roots and singular values of such inputs.

Only the inequality slack is user-settable: ``measure_gap_report(tol)``,
``replay_proof(link_tol)`` and the CLI ``--tolerance`` of ``verify``,
``sweep`` and ``dilate`` default to :data:`GAP_TOL`.
"""

# --- exact identities and zero probabilities --------------------------------

#: A block or outcome probability at or below this is zero: its update takes
#: the fallback state, expectation sums skip it, and an outcome probability
#: below minus this is an error rather than round-off.
ZERO_PROB_TOL = 1e-12

#: A Kraus operator with Frobenius norm at or below this is identically zero.
ZERO_OPERATOR_TOL = 1e-12

#: Max |U†U - I| after completing the Kraus isometry to a unitary; QR of an
#: isometry that passed ISOMETRY_TOL is unitary to round-off.
UNITARY_TOL = 1e-12

#: Distance of the embedded counter-example's four values from 4/3, 1, 1/3
#: and 1/4: diagonal inputs make every term an exact few-flop sum.
COUNTEREXAMPLE_TOL = 1e-12

#: Max elementwise deviation of sum_nu p_nu M_nu(rho) from K(rho), an
#: algebraic identity.
MEAN_EVOLUTION_TOL = 1e-12

#: Eigenvalues at or below this are zeroed before a square root.  Below the
#: tier: it only removes the ~1e-16 noise of an exact zero eigenvalue, whose
#: square root (~1e-8) would otherwise pollute products of square roots.
ZERO_EIGENVALUE_TRIM = 1e-14

# --- validating inputs ------------------------------------------------------

#: Max |A - A†| for a matrix to count as Hermitian.
HERMITICITY_TOL = 1e-10

#: PSD floor: eigenvalues in [-EIGENVALUE_CLAMP, 0) are round-off and clamped
#: to zero; anything more negative is "not positive semidefinite".
EIGENVALUE_CLAMP = 1e-10

#: Max |tr rho - 1| of a density matrix, and max |sum_mu p_mu - 1| of an
#: outcome distribution (sum_mu p_mu = tr K(rho) = tr rho).
TRACE_TOL = 1e-10

#: Max |V†V - I| for the stacked Kraus operators to count as an isometry.
ISOMETRY_TOL = 1e-10

#: Completeness of a channel: max Frobenius norm of sum_mu M_mu† M_mu - I.
COMPLETENESS_TOL = 1e-10

#: Relative entropy: eigenvalues of sigma at or below this span its kernel,
#: and rho with more weight than this on that kernel gives +inf.
SUPPORT_TOL = 1e-10

#: Proof-replay link (e): |lifted overlap - F(sigma, rho)|, an identity
#: computed through two square roots and an SVD on each side.
OVERLAP_TOL = 1e-10

# --- inequality slack -------------------------------------------------------

#: Default slack of a one-step expectation gap and of the proof-replay links
#: (a)-(d): a gap beyond it with the wrong sign is a violation.
GAP_TOL = 1e-9

#: A computed fidelity may leave [0, 1] by at most this before it is an
#: error; within it the value is clamped.
FIDELITY_OVERSHOOT = 1e-9
