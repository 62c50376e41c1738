(** Solver results shared by {!Sparse}, {!Branch_bound} and {!Brute}. *)

type t = {
  x : float array;  (** one entry per problem variable *)
  objective : float;
      (** objective value at [x], in the problem's own direction *)
}

type status =
  | Optimal of t
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** the solver hit its pivot / node budget before finishing *)

val is_optimal : status -> bool
val get : status -> t
(** @raise Invalid_argument when the status carries no solution. *)

val pp_status : Format.formatter -> status -> unit
