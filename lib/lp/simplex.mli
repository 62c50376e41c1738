(** Solver options, solve results and pivot accounting for the LP
    engine, the sparse revised simplex {!Sparse}.

    The engine is a bounded-variable two-phase primal simplex with a
    dual simplex phase for warm-started re-solves: nonbasic variables
    rest at either bound, the ratio test allows bound flips, and
    phase 1 drives a full set of artificial variables to zero.  See
    {!Sparse} and DESIGN.md §10. *)

type options = {
  max_pivots : int;  (** total pivot budget across all phases *)
  feas_tol : float;  (** feasibility / integrality of the basis *)
  cost_tol : float;  (** reduced-cost optimality tolerance *)
  degen_window : int;
      (** consecutive non-improving pivots before switching to Bland *)
}

val default_options : options

type result = {
  status : Solution.status;
  basis : Basis.t option;
      (** the optimal basis, present exactly when [status] is
          [Optimal]; feed it back as [?warm] to re-solve after a bound
          change or a uniform coefficient rescale *)
  pivots : int;  (** simplex pivots spent, all phases combined *)
  warm_used : bool;
      (** the supplied warm basis was accepted (the result may still
          have required a cold solve afterwards — in that case this
          is [false] again) *)
}

(** {1 Pivot accounting}

    A process-wide pivot counter, accumulated by every solve; the LP
    micro-benchmark and the repository benchmark read deltas around
    whole branch & bound trees and rate searches. *)

val cumulative_pivots : unit -> int
val reset_cumulative_pivots : unit -> unit

val add_pivots : int -> unit
(** Credit pivots to the process-wide counter ({!Sparse} reports every
    solve here).  Atomic: safe from any domain. *)
