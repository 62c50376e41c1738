(* Instance construction: profiling, costing and placement building —
   the work every run does before its first query, timed as setup. *)

module P = Wishbone.Placement

let tmote = Profiler.Platform.tmote_sky

(* profiling runs under a "profiler" span; the traced run also counts
   the operator firings profiled *)
let profiled tr f =
  let raw = Trace.span tr "profiler" f in
  if tr <> None then begin
    let fires = ref 0 in
    for i = 0 to Dataflow.Graph.n_ops (Profiler.Profile.graph raw) - 1 do
      fires := !fires + Profiler.Profile.op_fires raw i
    done;
    Trace.count tr "profiler.ops" (Float.of_int !fires)
  end;
  raw

let speech_raw tr =
  profiled tr (fun () -> Apps.Speech.profile ~duration:30. (Apps.Speech.build ()))

let eeg_raw tr n_channels =
  profiled tr (fun () ->
      Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels ()))

let spec tr ?mode raw =
  Trace.span tr "profiler" (fun () ->
      match Wishbone.Spec.of_profile ?mode ~node_platform:tmote raw with
      | Ok s -> s
      | Error m -> failwith m)

let eeg_spec tr n_channels =
  let raw = eeg_raw tr n_channels in
  (raw, spec tr ~mode:Wishbone.Movable.Permissive raw)

let server_tier n =
  { P.tname = "server"; cpu = Array.make n 0.; cpu_budget = infinity; alpha = 0. }

let node_tier tname (spec : Wishbone.Spec.t) =
  { P.tname; cpu = spec.cpu; cpu_budget = spec.cpu_budget; alpha = spec.alpha }

let radio lname (spec : Wishbone.Spec.t) =
  { P.lname; net_budget = spec.net_budget; beta = spec.beta }

(* node -> meraki -> gumstix -> server, uplink weights falling 0.3 per hop *)
let four_tier tr raw (spec : Wishbone.Spec.t) =
  let n = Array.length spec.cpu in
  let middles = Profiler.Platform.[ meraki; gumstix ] in
  let tier (p : Profiler.Platform.t) =
    let costed = Trace.span tr "profiler" (fun () -> Profiler.Profile.cost raw p) in
    { P.tname = p.name; cpu = costed.cpu_fraction; cpu_budget = p.cpu_budget; alpha = 0. }
  in
  P.v ~spec
    ~tiers:((node_tier "node" spec :: List.map tier middles) @ [ server_tier n ])
    ~links:
      (radio "radio0" spec
      :: List.mapi
           (fun i (p : Profiler.Platform.t) ->
             {
               P.lname = Printf.sprintf "uplink%d" (i + 1);
               net_budget = p.radio_bytes_per_sec;
               beta = spec.beta *. (0.3 ** Float.of_int (i + 1));
             })
           middles)
    ()

(* the testbed's single-hop routing star: every leaf a copy of the
   node tier, the unbudgeted server at the hub *)
let star ~n_leaves (spec : Wishbone.Spec.t) =
  let n = Array.length spec.cpu in
  P.v
    ~topology:(P.Topology.of_parents (Netsim.Testbed.routing_parents ~n_nodes:n_leaves))
    ~spec
    ~tiers:
      (List.init n_leaves (fun k -> node_tier (Printf.sprintf "leaf%d" k) spec)
      @ [ server_tier n ])
    ~links:(List.init n_leaves (fun k -> radio (Printf.sprintf "radio%d" k) spec))
    ()
