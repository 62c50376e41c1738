type options = {
  max_pivots : int;
  feas_tol : float;
  cost_tol : float;
  degen_window : int;
}

let default_options =
  {
    max_pivots = 200_000;
    feas_tol = 1e-7;
    cost_tol = 1e-9;
    degen_window = 40;
  }

type result = {
  status : Solution.status;
  basis : Basis.t option;
  pivots : int;
  warm_used : bool;
}

(* Process-wide pivot accounting: benchmarks read the deltas to
   aggregate across whole branch & bound trees and rate searches.
   Atomic so parallel branch & bound workers account correctly. *)
let cumulative = Atomic.make 0
let cumulative_pivots () = Atomic.get cumulative
let reset_cumulative_pivots () = Atomic.set cumulative 0
let add_pivots k = if k <> 0 then ignore (Atomic.fetch_and_add cumulative k)
