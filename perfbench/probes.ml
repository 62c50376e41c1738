(* Branch-and-bound roots seen from outside, through the [on_node] hook.

   [Branch_bound.solve] calls the hook with [nodes = 0] and [pivots = 0]
   before its root relaxation.  If the root is solved, the first node
   expansion calls it again with [nodes = 0] and the root's pivots,
   which can also be 0 when a warm-started root needs no pivot.  If the
   root is infeasible, that first call is the only one.  So a second
   [(0, 0)] in a row is either the same root expanding or the next
   root after a root-only solve.  The process-global pivot count tells
   them apart: between a root and its own first expansion it moves by
   exactly the root's local pivots (0 here), while a root-only solve
   that moved it was a separate probe.  A root-only solve that proved
   infeasibility without a single pivot is still not seen. *)

type t = {
  mutable last : (int * int) option;  (** (nodes, pivots) of the last call *)
  mutable last_global : int;  (** global pivot count at the last call *)
  mutable roots : int;
  mutable expansions : int;
}

let create () = { last = None; last_global = 0; roots = 0; expansions = 0 }

(* [observe t ~nodes ~pivots ~global] records one hook call, [global]
   being the process-global pivot count read in the hook; [true] when
   the call opens a new root *)
let observe t ~nodes ~pivots ~global =
  let fresh =
    nodes = 0 && pivots = 0
    &&
    match t.last with
    | Some (0, 0) -> global <> t.last_global
    | _ -> true
  in
  if fresh then t.roots <- t.roots + 1;
  if nodes > 0 then t.expansions <- t.expansions + 1;
  t.last <- Some (nodes, pivots);
  t.last_global <- global;
  fresh

(* an [on_node] hook that reports every new root to [on_root] *)
let hook t ~on_root ~nodes ~pivots =
  if observe t ~nodes ~pivots ~global:(Lp.Simplex.cumulative_pivots ()) then on_root ()
