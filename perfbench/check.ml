(* Answer checks that do not trust the solver: every placement is
   re-validated with [Placement.feasible], its objective recomputed with
   [Placement.objective_value], and the result compared with the
   reference stored beside the benchmark. *)

module P = Wishbone.Placement

(* the recomputed objective must match the reference this closely; a
   solver's own objective may carry LP round-off *)
let objective_rtol = 1e-9
let solver_rtol = 1e-6

let close ~rtol a b =
  Float.abs (a -. b) <= rtol *. Float.max (Float.abs a) (Float.abs b)

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* [pl] must already be scaled to the rate the answer was solved at *)
let placement pl ~tier_of ~solver_objective ~reference =
  let* () =
    if P.feasible pl ~tier_of then Ok () else fail "placement infeasible"
  in
  let recomputed = P.objective_value pl ~tier_of in
  let* () =
    if close ~rtol:solver_rtol recomputed solver_objective then Ok ()
    else fail "solver objective %h recomputes to %h" solver_objective recomputed
  in
  if close ~rtol:objective_rtol recomputed reference then Ok ()
  else fail "objective %h, reference %h" recomputed reference

(* a search answer: the placement holds at the rate found, and the rate
   lies within the search's relative [tol] of the reference rate *)
let search pl ~rate ~tier_of ~objective ~tol ~reference_rate =
  let* () =
    if Float.abs (rate -. reference_rate) <= tol *. reference_rate then Ok ()
    else fail "rate %h, reference %h (tol %g)" rate reference_rate tol
  in
  let scaled = P.scale_rate pl rate in
  placement scaled ~tier_of ~solver_objective:objective
    ~reference:(P.objective_value scaled ~tier_of)

let digest ~reference got =
  if String.equal got reference then Ok ()
  else fail "digest %s, reference %s" got reference

(* every counter and every float (as IEEE bits) of a simulation result,
   in a fixed order: equal digests are bit-identical results *)
let netsim_digest (r : Netsim.Testbed.result) =
  let b = Buffer.create 512 in
  let i n = Buffer.add_string b (string_of_int n ^ ",") in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  i r.inputs_offered; i r.inputs_processed; i r.msgs_sent; i r.msgs_received;
  i r.packets_sent; i r.packets_lost_collision; i r.packets_lost_channel;
  i r.packets_lost_queue; i r.sink_outputs; i r.msgs_duplicate;
  i r.msgs_expired; i r.msgs_pending; i r.retransmissions; i r.acks_sent;
  i r.acks_lost; i r.crashes; i r.inputs_lost_down; i r.events_processed;
  f r.input_fraction; f r.msg_fraction; f r.goodput_fraction;
  f r.node_busy_fraction; f r.offered_bytes_per_sec;
  Array.iter f r.edge_bytes_per_sec;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the simulator's own conservation law under reliable transport *)
let conservation (r : Netsim.Testbed.result) =
  if r.msgs_sent = r.msgs_received + r.msgs_expired + r.msgs_pending then Ok ()
  else
    fail "sent %d <> received %d + expired %d + pending %d" r.msgs_sent
      r.msgs_received r.msgs_expired r.msgs_pending
