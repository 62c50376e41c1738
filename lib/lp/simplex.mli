(** Two-phase primal simplex — plus a dual simplex phase for
    warm-started re-solves — for linear programs with bounded
    variables.

    The implementation is a dense-tableau bounded-variable simplex:
    nonbasic variables rest at either bound, the ratio test allows
    bound flips, and phase 1 drives a full set of artificial variables
    to zero.  Dantzig pricing (most negative reduced cost) is used
    with a Bland's-rule fallback after a run of degenerate pivots,
    which guarantees termination.  The sparse revised simplex
    ({!Sparse}) prices devex instead; both share these options.

    {!solve_warm} additionally accepts a {!Basis.t} snapshot from a
    previous solve of a structurally identical problem: the basis is
    refactorised against the current coefficients and bounds, a
    bounded-variable {e dual} simplex repairs primal infeasibility
    (typically a handful of pivots after a single bound change, as in
    branch & bound), and a final primal pass mops up any residual dual
    infeasibility.  Whenever the warm path cannot be trusted —
    dimension mismatch, singular basis, numerically marginal dual
    pivot, or a post-solve feasibility check failure — it falls back
    to the cold two-phase solve, so warm starts never change results,
    only the work needed to reach them.

    Problem sizes in Wishbone are small (at most a few thousand rows
    after preprocessing), so a dense tableau is both simple and fast
    enough; see DESIGN.md §10. *)

type options = {
  max_pivots : int;  (** total pivot budget across all phases *)
  feas_tol : float;  (** feasibility / integrality of the basis *)
  cost_tol : float;  (** reduced-cost optimality tolerance *)
  degen_window : int;
      (** consecutive non-improving pivots before switching to Bland *)
}

val default_options : options

val solve :
  ?options:options ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  Solution.status
(** [solve p] ignores integrality markers and solves the LP
    relaxation.  [lo] / [hi], when given, override the problem's
    variable bounds without mutating it (used by branch & bound).
    Overriding arrays must have length [Problem.n_vars p]. *)

type hot
(** A retained final tableau from a previous optimal solve.  Replaying
    it under new variable bounds skips the refactorisation a
    {!Basis.t} snapshot would need: the clone is a flat copy and the
    bound change a direct right-hand-side update, after which the dual
    simplex repairs the (usually tiny) primal infeasibility.

    A [hot] value is only valid against the {e same} problem — the
    tableau embeds the constraint coefficients — whereas a basis
    snapshot survives uniform coefficient rescales.  Branch & bound
    replays hot tableaus within one tree and falls back to the basis
    snapshot (then to a cold solve) whenever a hot replay is
    unavailable or numerically untrustworthy. *)

type result = {
  status : Solution.status;
  basis : Basis.t option;
      (** the optimal basis, present exactly when [status] is
          [Optimal]; feed it back as [?warm] to re-solve after a bound
          change or a uniform coefficient rescale *)
  hot : hot option;
      (** the final tableau, present when [keep_hot] was set and
          [status] is [Optimal]; feed it back as [?hot] to re-solve
          the same problem under different bounds without
          refactorising.  Costs the tableau's memory (O(m * ncols))
          for as long as the value is retained. *)
  pivots : int;  (** simplex pivots spent, all phases combined *)
  warm_used : bool;
      (** the supplied warm basis or hot tableau was accepted (the
          result may still have required a cold fallback afterwards —
          in that case this is [false] again) *)
  hot_used : bool;
      (** the supplied hot tableau specifically was accepted *)
}

val solve_warm :
  ?options:options ->
  ?warm:Basis.t ->
  ?hot:hot ->
  ?keep_hot:bool ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  result
(** Like {!solve} but instrumented: returns the final basis alongside
    the solution and the pivot count, and optionally starts warm.
    [solve_warm ~hot ~lo ~hi p] is the branch & bound hot path: same
    problem, one changed bound, parent tableau in — child optimum out
    in a few dual pivots with no refactorisation.  The start ladder is
    [hot] (tableau replay), then [warm] (snapshot refactorisation),
    then the cold two-phase solve; every rung falls through to the
    next when it cannot be trusted, so warm starts never change
    results. *)

(** {1 Pivot accounting}

    A process-wide pivot counter, accumulated by every solve; the LP
    micro-benchmark reads deltas around whole branch & bound trees and
    rate searches to quantify the warm-start win. *)

val cumulative_pivots : unit -> int
val reset_cumulative_pivots : unit -> unit

val add_pivots : int -> unit
(** Credit externally-performed pivots (the sparse revised simplex
    reports through the same counter).  Atomic: safe from any domain. *)
