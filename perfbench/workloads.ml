(* The four workloads.  Each is a [setup] that builds its inputs from
   the seed and a [round] that runs one fixed unit of work as a closed
   loop: the next request goes out only after the previous one has
   returned.  Solve and search run fixed catalogues in a fixed order
   (the order alone moved garbage collection enough to show in memory
   and latency); the seed drives serve's query stream and deploy's
   simulator seeds.  Every answer comes back with a canonical
   rendering, for identity checks between runs, and a checker that
   does not trust the solver. *)

module P = Wishbone.Placement
module Rs = Wishbone.Rate_search
module Svc = Wishbone.Service

type ctx = {
  tr : Trace.t option;  (** [None] in the timed run *)
  shards : int;  (** service shards (serve) *)
  domains : int;  (** simulation domains (deploy) *)
}

(* Latencies are scaled to the nominal machine speed ({!Speed}); the
   raw figures ride along. *)
type outcome = {
  label : string;  (** catalogue entry, the same in every round *)
  latency_ms : float;
  raw_ms : float;
  canon : string;  (** canonical answer rendering *)
  check : unit -> (unit, string) result;
}

type round = {
  outcomes : outcome list;
  work_ms : float;  (** the round's timed intervals, scaled *)
  raw_work_ms : float;
  events : int;  (** simulator events handled (deploy) *)
  busy_ms : float;  (** summed service solve latency, raw (serve) *)
}

let now = Unix.gettimeofday

(* a round whose queries each ran in their own timed interval *)
let round_of outcomes =
  let sum f = List.fold_left (fun a o -> a +. f o) 0. outcomes in
  {
    outcomes;
    work_ms = sum (fun o -> o.latency_ms);
    raw_work_ms = sum (fun o -> o.raw_ms);
    events = 0;
    busy_ms = 0.;
  }

let fail_check msg () = Error msg

let tiers_string tier_of =
  String.concat "," (Array.to_list (Array.map string_of_int tier_of))

(* process-global LP work counters, read as deltas around one call and
   only in the traced run *)
let lp_counted tr ?(also = []) f =
  match tr with
  | None -> f ()
  | Some _ ->
      let p0 = Lp.Simplex.cumulative_pivots () in
      let s0 = Lp.Sparse.counters () in
      let d0 = Lp.Sparse.dense_fallbacks () in
      let r = f () in
      let s1 = Lp.Sparse.counters () in
      let pivots = Float.of_int (Lp.Simplex.cumulative_pivots () - p0) in
      List.iter (fun name -> Trace.count tr name pivots) ("lp.bb.pivots" :: also);
      Trace.count tr "lp.sparse.refactorisations"
        (Float.of_int (s1.refactorisations - s0.refactorisations));
      Trace.count tr "lp.sparse.ft_updates"
        (Float.of_int (s1.ft_updates - s0.ft_updates));
      Trace.count tr "lp.sparse.dense_fallbacks"
        (Float.of_int (Lp.Sparse.dense_fallbacks () - d0));
      r

(* [nodes:false] where the nodes were counted another way *)
let count_bb ?(nodes = true) tr (s : Lp.Branch_bound.stats) =
  Trace.count tr "lp.bb.solves" 1.;
  if nodes then Trace.count tr "lp.bb.nodes" (Float.of_int s.nodes_explored);
  Trace.count tr "lp.bb.lp_solves" (Float.of_int s.lp_solves);
  Trace.count tr "lp.bb.hot_solves" (Float.of_int s.hot_solves);
  Trace.count tr "lp.bb.to_incumbent_ms" (s.time_to_incumbent *. 1000.);
  Trace.count tr "lp.bb.proved" (if s.proved_optimal then 1. else 0.)

(* ---- solve: fixed-rate placements ----------------------------------- *)

module Solve = struct
  (* Boundary rates: the highest rate multiple each instance sustains,
     as found by the search workload's [Rate_search] settings
     ([main.exe --calibrate] prints them).  At the boundary the CPU row
     is a tight knapsack, the hardest place to prove optimality. *)
  let speech_rate = 0x1.68155d44ca973p-4
  let eeg14_rate = 0x1.6dfb23c651a2fp+0
  let eeg22_rate = 0x1.da9e603db3285p-1

  type inst = { name : string; pl : P.t }
  type env = inst list

  (* unscaled placements, shared with calibration *)
  let placements tr =
    let speech = Setup.spec tr (Setup.speech_raw tr) in
    let eeg14_raw, eeg14 = Setup.eeg_spec tr 14 in
    let _, eeg22 = Setup.eeg_spec tr 22 in
    [
      ("speech", P.of_spec speech, speech_rate);
      ("eeg14", P.of_spec eeg14, eeg14_rate);
      ("eeg22", P.of_spec eeg22, eeg22_rate);
      ("eeg14-4tier", Setup.four_tier tr eeg14_raw eeg14, eeg14_rate);
      ("eeg14-star8", Setup.star ~n_leaves:8 eeg14, eeg14_rate);
    ]

  let setup tr ~seed:_ =
    List.map (fun (name, pl, rate) -> { name; pl = P.scale_rate pl rate }) (placements tr)

  (* Placement.solve's default path, one layer per call:
     contract, encode, branch & bound *)
  let solve tr pl =
    let c = Trace.span tr "preprocess" (fun () -> Wishbone.Preprocess.contract pl.P.spec) in
    Trace.count tr "preprocess.supernodes" (Float.of_int c.n_super);
    let enc = Trace.span tr "placement.encode" (fun () -> P.encode P.Restricted pl c) in
    Trace.count tr "placement.encode.rows" (Float.of_int (Lp.Problem.n_constrs enc.problem));
    Trace.count tr "placement.encode.cols" (Float.of_int (Lp.Problem.n_vars enc.problem));
    let status, stats =
      Trace.span tr "lp.bb" (fun () ->
          lp_counted tr (fun () -> Lp.Branch_bound.solve enc.problem))
    in
    count_bb tr stats;
    match status with
    | Lp.Solution.Optimal sol -> Ok (P.tiers_of_solution enc c sol, sol.objective)
    | s -> Error (Format.asprintf "%a" Lp.Solution.pp_status s)

  let run_one refs ctx qid inst =
    let r, raw_ms, k =
      Speed.measure (fun () -> Trace.span ctx.tr ~qid "query" (fun () -> solve ctx.tr inst.pl))
    in
    let latency_ms = raw_ms *. k in
    match r with
    | Ok (tier_of, solver_objective) ->
        let objective = P.objective_value inst.pl ~tier_of in
        {
          label = inst.name;
          latency_ms;
          raw_ms;
          canon = Printf.sprintf "obj=%h tiers=%s" objective (tiers_string tier_of);
          check =
            (fun () ->
              Check.placement inst.pl ~tier_of ~solver_objective
                ~reference:(Reference.float refs ("solve/" ^ inst.name)));
        }
    | Error m ->
        { label = inst.name; latency_ms; raw_ms; canon = "error " ^ m; check = fail_check m }

  let round refs env ctx = round_of (List.mapi (run_one refs ctx) env)
end

(* ---- search: §4.3 max-rate queries ------------------------------------ *)

module Search = struct
  (* the library's search defaults with every budget in work units:
     gap 0.005 and 5000 nodes per probe, no wall-clock limit *)
  let options = { Rs.default_search_options with Lp.Branch_bound.time_limit = infinity }

  (* Rate_search's default relative precision *)
  let tol = 0.01

  type inst = { name : string; pl : P.t }
  type env = inst list

  let placements tr =
    let speech = Setup.spec tr (Setup.speech_raw tr) in
    List.map (fun n -> (Printf.sprintf "eeg%d" n, P.of_spec (snd (Setup.eeg_spec tr n)))) [ 4; 5; 6; 7 ]
    @ [ ("speech", P.of_spec speech) ]
    @ List.init 6 (fun k ->
          ( Printf.sprintf "synth%d" (k + 1),
            P.of_spec (Apps.Synthetic.random_spec ~seed:(k + 1) ~n_ops:40 ()) ))

  let setup tr ~seed:_ = List.map (fun (name, pl) -> { name; pl }) (placements tr)

  (* B&B roots seen through the on_node hook ({!Probes}); a probe lasts
     from its root to the next root or the search's end.  Only the
     traced run passes the hook. *)
  let probe_hook tr =
    let probes = Probes.create () and starts = ref [] in
    let on_node = Probes.hook probes ~on_root:(fun () -> starts := now () :: !starts) in
    let finish t1 =
      let rec spans t1 = function
        | [] -> ()
        | t0 :: rest ->
            Trace.record tr "rate_search.probe" ~t0 ~t1;
            spans t0 rest
      in
      spans t1 !starts;
      Trace.count tr "rate_search.probes" (Float.of_int probes.roots);
      Trace.count tr "lp.bb.nodes" (Float.of_int probes.expansions)
    in
    (on_node, finish)

  let search tr pl =
    match tr with
    | None -> Rs.search_placement ~options ~tol pl
    | Some _ ->
        let on_node, finish = probe_hook tr in
        let options = { options with on_node = Some on_node } in
        Trace.span tr "rate_search" (fun () ->
            let r =
              lp_counted tr ~also:[ "rate_search.pivots" ] (fun () ->
                  Rs.search_placement ~options ~tol pl)
            in
            finish (now ());
            Trace.count tr "rate_search.searches" 1.;
            Option.iter
              (fun (r : Rs.placement_result) ->
                if r.placement_exact then Trace.count tr "rate_search.exact" 1.;
                (* the other B&B figures are seen only for the probe
                   whose placement the search returns *)
                count_bb ~nodes:false tr r.placement_report.solver)
              r;
            r)

  let run_one refs ctx qid inst =
    let r, raw_ms, k =
      Speed.measure (fun () -> Trace.span ctx.tr ~qid "query" (fun () -> search ctx.tr inst.pl))
    in
    let latency_ms = raw_ms *. k in
    match r with
    | Some { placement_multiplier = rate; placement_report = rep; placement_exact } ->
        {
          label = inst.name;
          latency_ms;
          raw_ms;
          canon =
            Printf.sprintf "rate=%h exact=%b obj=%h tiers=%s" rate placement_exact
              rep.objective (tiers_string rep.tier_of);
          check =
            (fun () ->
              Check.search inst.pl ~rate ~tier_of:rep.tier_of ~objective:rep.objective ~tol
                ~reference_rate:(Reference.float refs ("search/" ^ inst.name)));
        }
    | None ->
        {
          label = inst.name;
          latency_ms;
          raw_ms;
          canon = "none";
          check = fail_check "no feasible rate";
        }

  let round refs env ctx = round_of (List.mapi (run_one refs ctx) env)
end

(* ---- serve: a long-lived placement service ----------------------------- *)

module Serve = struct
  (* Catalogue: each placement at three rates under its boundary
     (near-repeats of one another, so a miss on a resident structure
     warm-starts) plus, for the cheap ones, a max-rate search.  The
     rates stay under the boundary so that every query is placed.

     Traffic: popularity is Zipf-like with exponent 0.8, inside the
     0.64-0.83 Breslau et al. measured on web proxy request streams
     ("Web Caching and Zipf-like Distributions: Evidence and
     Implications", INFOCOM 1999).  The cache holds an eighth of the
     catalogue, as the service's LRU churn test holds 4 entries over
     its 8 instances x (3 rates + search).  Batches of 8 give each of
     the 2 shards 4 queries.  Over a round this mix measured about a
     third hits, a fifth warm starts and the rest cold misses, with
     about two evictions every three queries (README.md). *)
  let fractions = [ 0.5; 0.7; 0.9 ]
  let capacity = 4
  let batch_size = 8
  let batches_per_round = 64
  let zipf_s = 0.8

  type entry = { label : string; query : Svc.query }

  type session = { svc : Svc.t; stream : Zipf.t }

  type env = {
    catalogue : entry array;
    seed : int;
    sessions : (string, session) Hashtbl.t;  (** one per run mode *)
    verified : (string, (unit, string) result) Hashtbl.t;
  }

  (* (name, placement, a rate a little under its boundary, searched?):
     an eeg4 search takes ~40 times the other misses, and a rare miss
     that costly would decide the median round by itself *)
  let placements tr =
    let speech_raw = Setup.speech_raw tr in
    let speech = Setup.spec tr speech_raw in
    let _, eeg4 = Setup.eeg_spec tr 4 in
    [
      ("speech", P.of_spec speech, 0.085, true);
      ("speech-star4", Setup.star ~n_leaves:4 speech, 0.085, true);
      ("speech-4tier", Setup.four_tier tr speech_raw speech, 0.085, true);
      ("eeg4", P.of_spec eeg4, 4.8, false);
    ]
    @ List.init 4 (fun k ->
          ( Printf.sprintf "synth%d" (k + 1),
            P.of_spec (Apps.Synthetic.random_spec ~seed:(k + 1) ~n_ops:20 ()),
            0.3,
            true ))

  (* rank order interleaves the placements, so the popular head mixes
     structures; searches sit in the tail *)
  let catalogue tr =
    let pls = placements tr in
    let rate f =
      List.map
        (fun (name, pl, base, _) ->
          { label = Printf.sprintf "%s@%g" name f;
            query = { Svc.placement = pl; request = Svc.Rate (f *. base) } })
        pls
    in
    let searches =
      List.filter_map
        (fun (name, pl, _, searched) ->
          if searched then
            Some { label = name ^ "/search"; query = { Svc.placement = pl; request = Svc.Search } }
          else None)
        pls
    in
    Array.of_list (List.concat_map rate fractions @ searches)

  let setup tr ~seed =
    { catalogue = catalogue tr; seed; sessions = Hashtbl.create 4; verified = Hashtbl.create 64 }

  (* every mode replays the same query stream into its own service, so
     the traced and untraced services see identical histories *)
  let session env mode =
    match Hashtbl.find_opt env.sessions mode with
    | Some s -> s
    | None ->
        let s =
          {
            svc = Svc.create ~capacity ();
            stream = Zipf.create ~seed:env.seed ~n:(Array.length env.catalogue) ~s:zipf_s;
          }
        in
        Hashtbl.replace env.sessions mode s;
        s

  let check_response refs env (e : entry) (r : Svc.response) =
    let key = e.label ^ " " ^ r.digest in
    match Hashtbl.find_opt env.verified key with
    | Some v -> v
    | None ->
        let v =
          match r.answer with
          | Svc.Placed { rate; report } -> (
              let scaled = P.scale_rate e.query.placement rate in
              match
                Check.placement scaled ~tier_of:report.tier_of
                  ~solver_objective:report.objective
                  ~reference:(P.objective_value scaled ~tier_of:report.tier_of)
              with
              | Error m -> Error m
              | Ok () -> Check.digest ~reference:(Reference.find refs ("serve/" ^ e.label)) r.digest)
          | Svc.Degraded _ -> Error "degraded answer"
          | Svc.Infeasible -> Error "infeasible answer"
          | Svc.Failed m -> Error ("failed: " ^ m)
        in
        Hashtbl.replace env.verified key v;
        v

  let round refs env ctx =
    let mode =
      Printf.sprintf "%s/%d" (if ctx.tr = None then "plain" else "traced") ctx.shards
    in
    let s = session env mode in
    let busy = ref 0. and work = ref 0. and raw_work = ref 0. in
    let outcomes = ref [] in
    for b = 1 to batches_per_round do
      let picks = Array.of_list (List.map (fun k -> env.catalogue.(k)) (Zipf.take s.stream batch_size)) in
      let queries = Array.map (fun e -> e.query) picks in
      let c0 = Svc.counters s.svc in
      let responses, raw_ms, k =
        Speed.measure (fun () ->
            Trace.span ctx.tr ~qid:b "service" (fun () ->
                lp_counted ctx.tr (fun () -> Svc.run_batch ~shards:ctx.shards s.svc queries)))
      in
      let c1 = Svc.counters s.svc in
      work := !work +. (raw_ms *. k);
      raw_work := !raw_work +. raw_ms;
      Trace.count ctx.tr "service.queries" (Float.of_int (c1.queries - c0.queries));
      Trace.count ctx.tr "service.hits" (Float.of_int (c1.hits - c0.hits));
      Trace.count ctx.tr "service.warm_starts" (Float.of_int (c1.warm_starts - c0.warm_starts));
      Trace.count ctx.tr "service.evictions" (Float.of_int (c1.evictions - c0.evictions));
      Array.iteri
        (fun i (r : Svc.response) ->
          if r.served <> Svc.Hit then begin
            busy := !busy +. r.latency_ms;
            match r.answer with
            | Svc.Placed { report; _ } | Svc.Degraded { report; _ } -> count_bb ctx.tr report.solver
            | _ -> ()
          end;
          let e = picks.(i) in
          (* a query's latency is its batch's completion time *)
          outcomes :=
            { label = e.label; latency_ms = raw_ms *. k; raw_ms; canon = r.digest;
              check = (fun () -> check_response refs env e r) }
            :: !outcomes)
        responses
    done;
    Trace.count ctx.tr "service.solve_ms" !busy;
    { outcomes = List.rev !outcomes; work_ms = !work; raw_work_ms = !raw_work; events = 0;
      busy_ms = !busy }
end

(* ---- deploy: the simulated testbed ------------------------------------- *)

module Deploy = struct
  let motes = 20
  let sim_seconds = 60.
  let source_seed = 1000  (* Apps.Speech.testbed_sources' default *)
  let fleet_nodes = 100_000
  let fleet_seconds = 2.

  (* the run seed picks one of these simulator seed pairs (speech
     testbed, synthetic fleet); each has its stored reference digests *)
  let variants = [| (5, 11); (6, 12); (7, 13); (8, 14) |]

  type env = {
    speech : Apps.Speech.t;
    frames : (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array2.t array;
        (** per mote: window x sample *)
    variant : int;
    fleet : Netsim.Testbed.fleet;
    order : [ `Cut of int | `Fleet ] list;
  }

  let variant_of_seed seed =
    let n = Array.length variants in
    ((seed mod n) + n) mod n

  (* The source windows Apps.Speech.testbed_sources would generate live:
     mote [n]'s stream is a Siggen generator seeded [source_seed + n],
     one frame per sample event in sequence order.  Stored as 16-bit
     samples (the generator's are 12-bit), a quarter of the memory of
     ready-made values. *)
  let pregenerate () =
    let per_mote = int_of_float (Float.ceil (sim_seconds *. Apps.Speech.frame_rate)) + 1 in
    Array.init motes (fun n ->
        let g =
          Dsp.Siggen.Speech.create ~seed:(source_seed + n) ~sample_rate:Apps.Speech.sample_rate ()
        in
        let a =
          Bigarray.Array2.create Bigarray.int16_signed Bigarray.c_layout per_mote
            Apps.Speech.frame_samples
        in
        for w = 0 to per_mote - 1 do
          Array.iteri (fun i x -> a.{w, i} <- x) (Dsp.Siggen.Speech.frame g Apps.Speech.frame_samples)
        done;
        a)

  let pregenerated_sources env =
    [
      {
        Netsim.Testbed.source = env.speech.source;
        rate = Apps.Speech.frame_rate;
        gen =
          (fun ~node ~seq ->
            let a = env.frames.(node) in
            Dataflow.Value.Int16_arr (Array.init Apps.Speech.frame_samples (fun i -> a.{seq, i})));
      };
    ]

  let live_sources env = Apps.Speech.testbed_sources ~seed:source_seed ~rate_mult:1.0 env.speech

  let setup _tr ~seed =
    let variant = variant_of_seed seed in
    let speech = Apps.Speech.build () in
    let frames = pregenerate () in
    let _, fleet_seed = variants.(variant) in
    let fleet = Netsim.Testbed.synthetic ~nodes:fleet_nodes ~seed:fleet_seed () in
    let order = List.map (fun c -> `Cut c) (Apps.Speech.relevant_cutpoints speech) @ [ `Fleet ] in
    { speech; frames; variant; fleet; order }

  let label = function `Cut c -> Printf.sprintf "speech-cut%d" c | `Fleet -> "fleet"

  let speech_config env =
    let sim_seed, _ = variants.(env.variant) in
    Netsim.Testbed.default_config ~n_nodes:motes ~duration:sim_seconds ~seed:sim_seed
      ~faults:{ Netsim.Faults.none with burst = Some (Netsim.Faults.burst_of_loss 0.1) }
      ~transport:(Netsim.Transport.default_reliable ()) ~platform:Setup.tmote
      ~link:Netsim.Link.cc2420 ()

  let run_cut ?(sources = pregenerated_sources) env cut =
    let a = Apps.Speech.cut_assignment env.speech cut in
    Netsim.Testbed.run (speech_config env) ~graph:env.speech.graph
      ~node_of:(fun i -> a.(i)) ~sources:(sources env)

  let run_fleet env ~domains =
    let _, fleet_seed = variants.(env.variant) in
    let f = env.fleet in
    let cfg =
      Netsim.Testbed.default_config ~n_nodes:fleet_nodes ~duration:fleet_seconds ~seed:fleet_seed
        ~cells:f.cells ~domains ~platform:Setup.tmote ~link:Netsim.Link.cc2420 ()
    in
    Netsim.Testbed.run cfg ~graph:f.graph ~node_of:(fun i -> i = f.source_op) ~sources:f.sources

  let reference_key env q = Printf.sprintf "deploy/v%d/%s" env.variant (label q)

  let run_one refs env ctx qid q =
    let r, raw_ms, k =
      Speed.measure (fun () ->
          Trace.span ctx.tr ~qid "query" (fun () ->
              Trace.span ctx.tr "netsim" (fun () ->
                  match q with
                  | `Cut c -> run_cut env c
                  | `Fleet -> run_fleet env ~domains:ctx.domains)))
    in
    Trace.count ctx.tr "netsim.events" (Float.of_int r.events_processed);
    Trace.count ctx.tr "netsim.retransmissions" (Float.of_int r.retransmissions);
    let digest = Check.netsim_digest r in
    ( r.events_processed,
      {
        label = label q;
        latency_ms = raw_ms *. k;
        raw_ms;
        canon = digest;
        check =
          (fun () ->
            Result.bind
              (match q with `Cut _ -> Check.conservation r | `Fleet -> Ok ())
              (fun () -> Check.digest ~reference:(Reference.find refs (reference_key env q)) digest));
      } )

  let round refs env ctx =
    let rs = List.mapi (run_one refs env ctx) env.order in
    { (round_of (List.map snd rs)) with events = List.fold_left (fun a (e, _) -> a + e) 0 rs }
end
