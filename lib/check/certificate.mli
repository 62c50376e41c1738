(** LP optimality certificates.

    {!Lp.Sparse.solve_warm} returns, alongside an [Optimal] solution,
    the final simplex {!Lp.Basis.t}.  That pair is a checkable
    certificate: rebuilding the (unscaled) augmented equality system
    [A z = b] — structural columns, one slack per inequality in
    constraint order ([Le] +1, [Ge] -1), one artificial per row — and
    solving [B^T y = c_B] for the dual prices recovers everything
    optimality requires:

    - primal feasibility: bounds, constraint rows, slack signs;
    - the recorded nonbasic columns actually rest at their recorded
      bounds at the claimed point;
    - dual feasibility: reduced costs [d_j = c_j - y . A_j] are
      [>= 0] at lower bounds and [<= 0] at upper bounds (minimisation
      space; fixed columns such as artificials are exempt);
    - complementary slackness / zero duality gap:
      [c . z = y . b + sum_j d_j z_j].

    Internal row equilibration in the solver does not disturb any of
    this: it rescales the basis matrix by a nonsingular diagonal, so
    basis validity and the certificate's conclusions are unchanged in
    unscaled space.

    The checker is deliberately independent of the solver: Gaussian
    elimination with partial pivoting over dense matrices, no reuse of
    the solver's factorisation.  {!check_result} extends it to the
    infeasible and unbounded verdicts. *)

type verdict = Valid | Invalid of string list

val pp_verdict : Format.formatter -> verdict -> unit

val check :
  ?tol:float ->
  ?lo:float array ->
  ?hi:float array ->
  Lp.Problem.t ->
  Lp.Solution.t ->
  Lp.Basis.t ->
  verdict
(** [check p sol basis] certifies that [sol] is an optimal vertex of
    the LP relaxation of [p] with basis [basis].  [lo]/[hi] override
    the problem's bounds exactly as in {!Lp.Sparse.solve}; [tol]
    (default [1e-6]) is scaled internally by row/objective magnitude.
    Every violated condition contributes one message to [Invalid]. *)

val check_result :
  ?tol:float ->
  ?lo:float array ->
  ?hi:float array ->
  Lp.Problem.t ->
  Lp.Simplex.result ->
  verdict
(** Certify a {!Lp.Sparse.solve_warm} result, whatever its status:

    - [Optimal] must carry a basis and pass {!check}; an [Optimal]
      without a basis is itself [Invalid];
    - [Infeasible] is certified by the {e elastic} LP — one
      nonnegative violation column per row side, total violation
      minimised — whose optimum, solved by {!Lp.Sparse} and itself
      certified by {!check}, must exceed [tol].  An empty box
      ([lo > hi]) needs no LP;
    - [Unbounded] is checked by boxing every infinite upper bound at
      [M] and at [2M] ([M] a thousand times the problem's largest
      finite bound or right-hand side): both boxed LPs must certify
      optimal, and the optimum must improve as the box doubles;
    - [Iteration_limit] claims nothing and is accepted. *)
