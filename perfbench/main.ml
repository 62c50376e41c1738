(* The repository benchmark: one workload per run, a timed pass that
   reports end-to-end metrics or a traced pass that reports per-layer
   ones, and every answer checked against the stored references.

     main.exe --workload solve|search|serve|deploy --seed N \
              --seconds S --trace 0|1
     main.exe --calibrate > perfbench/reference.txt

   perfbench/README.md explains the workloads and metrics. *)

open Perfbench
module W = Workloads

module type WORKLOAD = sig
  type env

  val setup : Trace.t option -> seed:int -> env
  val round : (string, string) Hashtbl.t -> env -> W.ctx -> W.round
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("solve", (module W.Solve));
    ("search", (module W.Search));
    ("serve", (module W.Serve));
    ("deploy", (module W.Deploy));
  ]

(* parallelism of the timed run: both capped at the machine's 2 cores *)
let timed_ctx = { W.tr = None; shards = 2; domains = 2 }

(* the traced run attributes work to one query at a time *)
let single_ctx tr = { W.tr; shards = 1; domains = 1 }

let setup_reps = 3
let min_rounds = 3
let now = Unix.gettimeofday

let cores () = Domain.recommended_domain_count ()

(* the kernel's high-water mark of this process's resident set *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.)
    else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- answer checking --------------------------------------------------- *)

(* Checks rounds as they finish, so that no answer outlives its round:
   every outcome's checker, plus run-to-run determinism (one label
   must always render the same answer). *)
type verifier = {
  first : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let verifier () = { first = Hashtbl.create 64; attempted = 0; failed = 0 }

let wrong vf label msg =
  vf.failed <- vf.failed + 1;
  if vf.failed <= 5 then Printf.eprintf "perfbench: wrong answer for %s: %s\n%!" label msg

let verify vf (r : W.round) =
  List.iter
    (fun (o : W.outcome) ->
      vf.attempted <- vf.attempted + 1;
      match Hashtbl.find_opt vf.first o.label with
      | Some canon when canon <> o.canon ->
          wrong vf o.label (Printf.sprintf "answer %S differs from earlier %S" o.canon canon)
      | _ -> (
          Hashtbl.replace vf.first o.label o.canon;
          match o.check () with Ok () -> () | Error m -> wrong vf o.label m))
    r.outcomes;
  (* the checks ran between timed intervals *)
  Speed.forget ()

(* answers of two rounds that ran the same queries, byte for byte *)
let identical (a : W.round) (b : W.round) =
  List.map (fun (o : W.outcome) -> (o.label, o.canon)) a.outcomes
  = List.map (fun (o : W.outcome) -> (o.label, o.canon)) b.outcomes

(* ---- output ------------------------------------------------------------ *)

(* [raw] is the unscaled time, for time metrics *)
type metric = {
  name : string;
  value : float option;
  raw : float option;
  unit_ : string;
  samples : int;
}

let metric ?raw name value unit_ samples = { name; value; raw; unit_; samples }

let print_table ms =
  let show = function Some v -> Printf.sprintf "%.6g" v | None -> "n/a" in
  Printf.printf "%-28s %14s %14s  %-6s %s\n" "metric" "value" "raw" "unit" "samples";
  List.iter
    (fun m ->
      Printf.printf "%-28s %14s %14s  %-6s %d\n" m.name (show m.value)
        (match m.raw with None -> "" | r -> show r)
        m.unit_ m.samples)
    ms

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* the unscaled times, as a JSON line of their own before the result *)
let print_raw ms =
  let raw m =
    Option.map (fun r -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number r) m.unit_) m.raw
  in
  Printf.printf "{\"raw\": {%s}}\n" (String.concat ", " (List.filter_map raw ms))

let print_result ~correct (vf : verifier) ms =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (json_number (Option.value m.value ~default:0.))
      m.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct vf.attempted vf.failed
    (String.concat ", " (List.map metric ms))

let header ~workload ~seed ~seconds ~trace =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d cores=%d ocaml=%s\n"
    workload seed seconds trace (cores ()) Sys.ocaml_version;
  Printf.printf
    "machine probe: median %.3f ms over %d probes, nominal %.3f ms; times are \
     scaled to the nominal speed (raw beside)\n"
    (Stats.median !Speed.probes) (List.length !Speed.probes) Speed.nominal_ms

(* ---- timed run: end-to-end metrics -------------------------------------- *)

(* what a timed run keeps of a round once its answers are checked *)
type kept = {
  latencies : float list;  (** scaled ms *)
  raw_latencies : float list;
  work_s : float;
  raw_work_s : float;
  events : int;
}

let keep (r : W.round) =
  {
    latencies = List.map (fun (o : W.outcome) -> o.latency_ms) r.outcomes;
    raw_latencies = List.map (fun (o : W.outcome) -> o.raw_ms) r.outcomes;
    work_s = r.work_ms /. 1000.;
    raw_work_s = r.raw_work_ms /. 1000.;
    events = r.events;
  }

(* [setup_reps] set-ups, keeping only their (raw, scaled) seconds and
   the last env: an earlier env is collected before the next set-up
   starts, so peak_rss_mb counts one env, as a user's process would *)
let set_up (type e) (module M : WORKLOAD with type env = e) ~seed : e * (float * float) list =
  let env = ref None and times = ref [] in
  for _ = 1 to setup_reps do
    env := None;
    Gc.full_major ();
    Speed.forget ();
    let e, raw_ms, k = Speed.measure (fun () -> M.setup None ~seed) in
    env := Some e;
    times := (raw_ms /. 1000., raw_ms *. k /. 1000.) :: !times
  done;
  (Option.get !env, List.rev !times)

let timed (module M : WORKLOAD) refs ~workload ~seed ~seconds =
  let env, setups = set_up (module M) ~seed in
  let vf = verifier () in
  let t_start = now () in
  let rounds = ref [] and rss = ref None in
  while List.length !rounds < min_rounds || now () -. t_start < seconds do
    let r = M.round refs env timed_ctx in
    verify vf r;
    rounds := keep r :: !rounds;
    (* peak memory over a fixed amount of work, set-up and the first
       rounds: the service and the simulator at 2 domains grow the heap
       with every batch or run that spawns domains *)
    if List.length !rounds = min_rounds then rss := Some (peak_rss_mb ())
  done;
  let rss = metric "peak_rss_mb" !rss "MB" 1 in
  let rounds = List.rev !rounds in
  let scaled = List.concat_map (fun k -> k.latencies) rounds in
  let raw = List.concat_map (fun k -> k.raw_latencies) rounds in
  let n = List.length scaled in
  let events = List.fold_left (fun a k -> a + k.events) 0 rounds in
  let timing name xs raws unit_ =
    metric name (Some (Stats.median xs)) unit_ (List.length xs) ~raw:(Stats.median raws)
  in
  let setup_s =
    timing "setup_s" (List.map snd setups) (List.map fst setups) "s"
  in
  let wall_s =
    timing "wall_s" (List.map (fun k -> k.work_s) rounds) (List.map (fun k -> k.raw_work_s) rounds) "s"
  in
  let p50 = timing "query_ms.p50" scaled raw "ms" in
  let per_s xs = Float.of_int events /. (Stats.sum xs /. 1000.) in
  let human =
    [
      setup_s;
      wall_s;
      p50;
      metric "query_ms.p90" (Stats.tail scaled 0.9) "ms" n ?raw:(Stats.tail raw 0.9);
      metric "sim_events_per_s"
        (if events > 0 then Some (per_s scaled) else None)
        "1/s" n
        ?raw:(if events > 0 then Some (per_s raw) else None);
      metric "failed_frac" (Some (Float.of_int vf.failed /. Float.of_int vf.attempted)) "frac"
        vf.attempted;
      rss;
    ]
  in
  header ~workload ~seed ~seconds ~trace:0;
  print_table human;
  print_raw human;
  print_result ~correct:(vf.failed = 0) vf [ setup_s; wall_s; p50; rss ];
  vf.failed = 0

(* ---- traced run: per-layer metrics ------------------------------------- *)

let per_layer_units =
  [
    ("profiler.ms", "ms"); ("profiler.ops", "count");
    ("preprocess.ms", "ms"); ("preprocess.supernodes", "count");
    ("placement.encode.ms", "ms"); ("placement.encode.rows", "count");
    ("placement.encode.cols", "count");
    ("lp.bb.ms", "ms"); ("lp.bb.nodes", "count"); ("lp.bb.lp_solves", "count");
    ("lp.bb.hot_solves", "count"); ("lp.bb.pivots", "count");
    ("lp.bb.to_incumbent_ms", "ms"); ("lp.bb.proved_frac", "frac");
    ("lp.sparse.refactorisations", "count"); ("lp.sparse.ft_updates", "count");
    ("lp.sparse.dense_fallbacks", "count");
    ("rate_search.ms", "ms"); ("rate_search.probes", "count");
    ("rate_search.probe_ms.p50", "ms"); ("rate_search.pivots", "count");
    ("rate_search.exact_frac", "frac");
    ("service.batch_ms", "ms"); ("service.solve_ms", "ms");
    ("service.hit_ratio", "frac"); ("service.warm_starts", "count");
    ("service.evictions", "count"); ("service.shard_idle_frac", "frac");
    ("netsim.ms", "ms"); ("netsim.events", "count"); ("netsim.events_per_s", "1/s");
    ("netsim.retransmissions", "count");
    ("trace.overhead_frac", "frac");
  ]

let ratio a b = if b > 0. then a /. b else 0.

(* one traced round's per-layer values, times scaled by [factor] *)
let layer_values ~factor (t : Trace.t) =
  let self name = Trace.self_ms t name *. factor in
  let c = Trace.counter t in
  let netsim_ms = self "netsim" in
  [
    ("preprocess.ms", self "preprocess");
    ("preprocess.supernodes", c "preprocess.supernodes");
    ("placement.encode.ms", self "placement.encode");
    ("placement.encode.rows", c "placement.encode.rows");
    ("placement.encode.cols", c "placement.encode.cols");
    ("lp.bb.ms", self "lp.bb");
    ("lp.bb.nodes", c "lp.bb.nodes");
    ("lp.bb.lp_solves", c "lp.bb.lp_solves");
    ("lp.bb.hot_solves", c "lp.bb.hot_solves");
    ("lp.bb.pivots", c "lp.bb.pivots");
    ("lp.bb.to_incumbent_ms", c "lp.bb.to_incumbent_ms" *. factor);
    ("lp.bb.proved_frac", ratio (c "lp.bb.proved") (c "lp.bb.solves"));
    ("lp.sparse.refactorisations", c "lp.sparse.refactorisations");
    ("lp.sparse.ft_updates", c "lp.sparse.ft_updates");
    ("lp.sparse.dense_fallbacks", c "lp.sparse.dense_fallbacks");
    (* probes are observed inside the search call, so the layer's time
       is the search span including them *)
    ("rate_search.ms", self "rate_search" +. self "rate_search.probe");
    ("rate_search.probes", c "rate_search.probes");
    ( "rate_search.probe_ms.p50",
      match Trace.durations_ms t "rate_search.probe" with
      | [] -> 0.
      | ds -> Stats.median ds *. factor );
    ("rate_search.pivots", c "rate_search.pivots");
    ("rate_search.exact_frac", ratio (c "rate_search.exact") (c "rate_search.searches"));
    ("service.batch_ms", self "service");
    ("service.solve_ms", c "service.solve_ms" *. factor);
    ("service.hit_ratio", ratio (c "service.hits") (c "service.queries"));
    ("service.warm_starts", c "service.warm_starts");
    ("service.evictions", c "service.evictions");
    ("netsim.ms", netsim_ms);
    ("netsim.events", c "netsim.events");
    ("netsim.events_per_s", ratio (c "netsim.events") (netsim_ms /. 1000.));
    ("netsim.retransmissions", c "netsim.retransmissions");
  ]

let write_spans ~workload ~seed traces =
  let dir = "_perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir workload seed in
  let oc = open_out file in
  List.iter (fun t -> Trace.write t oc) traces;
  close_out oc;
  file

(* what a traced run keeps of an untraced and a traced round over
   the same queries *)
type pair = {
  plain_ms : float;  (** scaled work *)
  traced_ms : float;
  factor : float;  (** the traced round's scale, for its span times *)
  tr : Trace.t;
}

let traced (module M : WORKLOAD) refs ~workload ~seed ~seconds =
  let setup_trace = Trace.create () in
  let env, raw_ms, k = Speed.measure (fun () -> M.setup (Some setup_trace) ~seed) in
  let setup_factor = ratio (raw_ms *. k) raw_ms in
  let vf = verifier () in
  (* the timed run's settings once, for the identity check and the
     service's shard idleness *)
  let reference = M.round refs env timed_ctx in
  verify vf reference;
  let idle =
    if reference.busy_ms > 0. then
      1. -. (reference.busy_ms /. (Float.of_int timed_ctx.shards *. reference.raw_work_ms))
    else 0.
  in
  let t_start = now () in
  let pairs = ref [] and mismatches = ref 0 in
  while !pairs = [] || now () -. t_start < seconds do
    let plain = M.round refs env (single_ctx None) in
    let tr = Trace.create () in
    let traced = M.round refs env (single_ctx (Some tr)) in
    (* traced answers byte-identical to the untraced ones, and the
       first single-shard round to the timed settings' round *)
    if not (identical plain traced) then begin
      incr mismatches;
      wrong vf "traced round" "answers differ from untraced"
    end;
    if !pairs = [] && not (identical reference plain) then begin
      incr mismatches;
      wrong vf "single-shard round" "answers differ from the timed settings'"
    end;
    verify vf plain;
    verify vf traced;
    pairs :=
      { plain_ms = plain.work_ms; traced_ms = traced.work_ms;
        factor = ratio traced.work_ms traced.raw_work_ms; tr }
      :: !pairs
  done;
  let pairs = List.rev !pairs in
  let per_round = List.map (fun p -> layer_values ~factor:p.factor p.tr) pairs in
  let n = List.length pairs in
  let median_of name = Stats.median (List.map (fun vs -> List.assoc name vs) per_round) in
  let overhead =
    ratio
      (Stats.median (List.map (fun p -> p.traced_ms) pairs))
      (Stats.median (List.map (fun p -> p.plain_ms) pairs))
    -. 1.
  in
  let value name =
    match name with
    | "profiler.ms" -> (Trace.self_ms setup_trace "profiler" *. setup_factor, 1)
    | "profiler.ops" -> (Trace.counter setup_trace "profiler.ops", 1)
    | "service.shard_idle_frac" -> (idle, 1)
    | "trace.overhead_frac" -> (overhead, n)
    | _ -> (median_of name, n)
  in
  let ms =
    List.map
      (fun (name, unit_) ->
        let v, samples = value name in
        metric name (Some v) unit_ samples)
      per_layer_units
  in
  let file = write_spans ~workload ~seed (setup_trace :: List.map (fun p -> p.tr) pairs) in
  header ~workload ~seed ~seconds ~trace:1;
  Printf.printf "traced rounds %d; answers identical to untraced: %b; spans in %s\n" n
    (!mismatches = 0) file;
  print_table ms;
  print_result ~correct:(vf.failed = 0) vf ms;
  vf.failed = 0

(* ---- calibration: references for reference.txt ------------------------- *)

let calibrate () =
  let say fmt = Printf.eprintf (fmt ^^ "\n%!") in
  let out fmt = Printf.printf (fmt ^^ "\n%!") in
  out "# perfbench reference answers, written by main.exe --calibrate";
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let boundary pl =
    match Wishbone.Rate_search.search_placement ~options:W.Search.options ~tol:W.Search.tol pl with
    | Some r -> r.placement_multiplier
    | None -> nan
  in
  List.iter
    (fun (name, pl, rate) ->
      (* the rates come from the two-tier instances; deeper ones reuse them *)
      if Wishbone.Placement.n_tiers pl = 2 then
        say "solve %s: boundary rate %h (in use: %h)" name (boundary pl) rate;
      let pl = Wishbone.Placement.scale_rate pl rate in
      match timed (fun () -> W.Solve.solve None pl) with
      | Ok (tier_of, _), dt ->
          say "solve %s: solved in %.3f s" name dt;
          out "solve/%s %h" name (Wishbone.Placement.objective_value pl ~tier_of)
      | Error m, _ -> say "  FAILED: %s" m)
    (W.Solve.placements None);
  List.iter
    (fun (name, pl) ->
      match timed (fun () -> W.Search.search None pl) with
      | Some r, dt ->
          say "search %s: rate %.6f exact %b in %.3f s" name r.placement_multiplier r.placement_exact dt;
          out "search/%s %h" name r.placement_multiplier
      | None, _ -> say "search %s: no feasible rate" name)
    (W.Search.placements None);
  Array.iter
    (fun (e : W.Serve.entry) ->
      let a, dt = timed (fun () -> Wishbone.Service.solve_direct e.query) in
      say "serve %s: %.2f ms %s" e.label (dt *. 1000.)
        (match a with Placed _ -> "placed" | Degraded _ -> "DEGRADED" | Infeasible -> "INFEASIBLE" | Failed m -> m);
      out "serve/%s %s" e.label (Wishbone.Service.answer_digest a))
    (W.Serve.catalogue None);
  Array.iteri
    (fun k _ ->
      let env = W.Deploy.setup None ~seed:k in
      List.iter
        (fun q ->
          let r, dt =
            timed (fun () ->
                match q with
                | `Cut c -> W.Deploy.run_cut ~sources:W.Deploy.live_sources env c
                | `Fleet -> W.Deploy.run_fleet env ~domains:1)
          in
          let d = Check.netsim_digest r in
          let same =
            match q with
            | `Cut c -> Check.netsim_digest (W.Deploy.run_cut env c) = d
            | `Fleet -> true
          in
          say "deploy v%d %s: %.3f s live, %d events, pregenerated identical %b" k
            (W.Deploy.label q) dt r.events_processed same;
          if not same then failwith "pregenerated frames change the simulation";
          out "%s %s" (W.Deploy.reference_key env q) d)
        (List.sort compare env.order))
    W.Deploy.variants

(* ---- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let calibrating = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solve, search, serve or deploy");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--calibrate", Arg.Set calibrating, " print reference answers and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !calibrating then calibrate ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline "perfbench: --workload must be one of solve, search, serve, deploy";
        exit 2
    | Some w ->
        let refs = Reference.load Reference.path in
        let ok =
          match !trace with
          | 0 -> timed w refs ~workload:!workload ~seed:!seed ~seconds:!seconds
          | 1 -> traced w refs ~workload:!workload ~seed:!seed ~seconds:!seconds
          | _ ->
              prerr_endline "perfbench: --trace must be 0 or 1";
              exit 2
        in
        if not ok then exit 1
