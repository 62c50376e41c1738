(** Sparse revised simplex: the LP engine behind {!Branch_bound},
    {!Brute} and every placement solve.

    The partition ILPs are near-network-flow: 2-3 nonzeros in almost
    every row.  This solver stores the constraint matrix once in
    compressed sparse column form (structural, slack and artificial
    columns, rows equilibrated), keeps the basis as a sparse LU
    factorisation with Forrest–Tomlin updates ({!Factor}, refreshed
    when an update turns numerically marginal rather than on a fixed
    cadence), and so pays O(nnz) per pivot.  Pricing is devex:
    reference-framework weights, where the BTRAN of the pivot row that
    feeds the weight update also updates the duals incrementally, so
    the weights cost no extra BTRANs.  After [degen_window] degenerate
    pivots it falls back to Bland's rule against cycling.

    A cold solve is a bounded-variable two-phase primal simplex from
    the all-artificial basis.  A warm solve refactorises a {!Basis.t}
    snapshot against the current coefficients and bounds, repairs
    primal infeasibility with a bounded-variable dual simplex
    (typically a handful of pivots after one bound change, as in
    branch & bound), and mops up residual dual infeasibility with a
    primal pass.

    Every optimal endpoint is re-verified against the original rows.
    Whenever a path cannot be trusted (singular basis, marginal dual
    pivot, a pivot row disagreeing with its FTRAN image, a feasibility
    breach at the endpoint) it declines: a warm start declines to the
    cold path; a cold path that declines is retried once from a
    freshly factorised all-logical (slack) basis with a refactorisation
    after every pivot; and if that retry declines too the solve
    reports [Iteration_limit] — never an unverified [Optimal] or
    [Infeasible].  Retries are counted in {!counters}. *)

type data
(** A problem compiled to CSC form.  Immutable once built; safe to
    share across domains (the underlying {!Problem.t} accessor caches
    are forced at build time). *)

val of_problem : Problem.t -> data
val problem : data -> Problem.t
val n_rows : data -> int

type session
(** A reusable solve workspace bound to one {!data}: the per-solve
    state arrays plus a snapshot of the most recent warm-start
    factorisation, keyed by its basis.  Passing a session to
    {!solve_warm} removes per-solve allocation, and when the requested
    warm basis matches the snapshotted one (as a column set — bounds
    may differ) the refactorisation is skipped and the byte-identical
    factorisation restored, which is the common case for the second
    child of every branch & bound node.  A session is single-domain:
    never share one across threads.  Results are bit-identical with
    and without a session. *)

val session : data -> session

val solve_warm :
  ?options:Simplex.options ->
  ?warm:Basis.t ->
  ?lo:float array ->
  ?hi:float array ->
  ?session:session ->
  data ->
  Simplex.result
(** [solve_warm d] solves the LP relaxation of the compiled problem
    (integrality markers are ignored).  [lo] / [hi], when given,
    override the problem's variable bounds without mutating it (used
    by branch & bound); they must have length [Problem.n_vars].
    [warm] starts from a basis snapshot of a structurally identical
    problem; warm starts never change results, only the work needed
    to reach them.  [warm_used] reports whether the supplied basis
    survived the warm start; [pivots] feeds the process-wide
    {!Simplex.cumulative_pivots} counter. *)

val solve :
  ?options:Simplex.options ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  Solution.status
(** One-shot convenience: compile and solve cold. *)

type counters = {
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
  retries : int;
}
(** Process-wide factorisation work: basis refactorisations,
    Forrest–Tomlin updates applied, row-eta entries appended by those
    updates, and cold solves retried after a decline.  Benchmarks and
    the verbose CLI report read deltas around a solve to track the
    pivot/refactorisation trajectory; tests read [retries] to see
    that the retry path ran. *)

val counters : unit -> counters
val reset_counters : unit -> unit

val dense_fallbacks : unit -> int
(** Compatibility alias for [(counters ()).retries], kept for the
    repository benchmark's [lp.sparse.dense_fallbacks] metric: the
    dense fallback it once counted is now the cold retry. *)
