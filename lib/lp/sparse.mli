(** Sparse revised simplex for the partitioning hot path.

    The partition ILPs are near-network-flow: 2-3 nonzeros in almost
    every row.  The dense tableau in {!Simplex} pays O(rows x cols)
    per pivot regardless; this solver stores the constraint matrix
    once in compressed sparse column form, keeps the basis as a
    sparse LU factorisation with Forrest–Tomlin updates ({!Factor},
    refreshed when an update turns numerically marginal rather than
    on a fixed cadence), and so pays O(nnz) per pivot.  Pricing is
    devex: reference-framework weights, where the BTRAN of the pivot
    row that feeds the weight update also updates the duals
    incrementally, so the weights cost no extra BTRANs.  After
    [degen_window] degenerate pivots it falls back to Bland's rule
    against cycling.

    The solve semantics mirror {!Simplex.solve_warm} exactly: same
    column layout (structural, slack, artificial), same {!Basis.t}
    snapshots — a basis recorded by either solver warm-starts the
    other — same bounded-variable dual-repair warm path, and the same
    fallback discipline: whenever the sparse path cannot be trusted
    (singular basis, marginal dual pivot, post-solve feasibility
    breach) it falls back to a colder sparse start and finally to the
    verified dense solver, so results never change, only the work to
    reach them. *)

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
(** Like {!Simplex.solve_warm} on the compiled problem.  The returned
    [hot] field is always [None] — sparse refactorisation is cheap
    enough that the basis snapshot {e is} the hot path.  [warm_used]
    reports whether the supplied basis survived the sparse warm
    start; [pivots] counts sparse and (rare) dense-fallback pivots
    together and feeds the same process-wide cumulative counter. *)

val solve :
  ?options:Simplex.options ->
  ?lo:float array ->
  ?hi:float array ->
  Problem.t ->
  Solution.status
(** One-shot convenience: compile and solve cold. *)

val dense_fallbacks : unit -> int
(** Process-wide count of solves that ended on the dense fallback
    path; tests read deltas to assert the sparse path actually ran. *)

type counters = { refactorisations : int; ft_updates : int; ft_entries : int }
(** Process-wide factorisation work: basis refactorisations,
    Forrest–Tomlin updates applied, and row-eta entries appended by
    those updates.  Benchmarks and the verbose CLI report read deltas
    around a solve to track the pivot/refactorisation trajectory. *)

val counters : unit -> counters
val reset_counters : unit -> unit
