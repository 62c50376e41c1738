(** Exhaustive reference solver for small mixed-integer programs.

    Enumerates every integer assignment within the declared bounds and
    solves the continuous remainder with {!Sparse}.  Exponential —
    intended only as a test oracle for {!Branch_bound} and for the
    partitioner property tests. *)

val solve : ?max_combinations:int -> Problem.t -> Solution.status
(** @raise Invalid_argument if an integer variable has an infinite
    bound or the assignment count exceeds [max_combinations]
    (default [2_000_000]). *)

val optimal_points :
  ?max_combinations:int ->
  ?obj_tol:float ->
  Problem.t ->
  (float * float array list) option
(** The optimal objective together with {e every} optimal assignment
    of the integer variables (projected onto {!Problem.integer_vars}
    order, objectives within [obj_tol] of the best; default [1e-6]).
    [None] when no integer assignment admits a feasible LP.  Used by
    the fuzz oracles to assert that a branch & bound answer is not
    merely optimal-valued but one of the true argmin assignments.
    @raise Invalid_argument under the same conditions as {!solve}. *)
