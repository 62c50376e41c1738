(* Fault-contained serving benchmark: goodput under injected solver
   faults, gap-certified degradation under work-unit budgets, and
   checkpoint save/restore latency.

   The same 32-query eeg14/eeg22/synthetic fleet batch as the service
   bench is served under seeded fault plans at rates 0 .. 0.4 — each on
   a fresh service, so every sweep point does identical work — and
   under shrinking branch-and-bound node budgets.  Every faulted run
   must conserve ok + degraded + failed = queries, and the 10 % point
   is re-run on a second fresh service to confirm the containment layer
   replays answers and counters exactly.  Finally the warm
   service is checkpointed, the snapshot reloaded, and the whole batch
   replayed byte-identically through the restored cache.

   Writes BENCH_robust.json at the repo root:

     dune exec bench/main.exe -- robust
     dune exec bench/main.exe -- robust-smoke   (CI: asserts, seconds)

   DESIGN.md §17. *)

type sweep_point = {
  label : string;
  wall_ms : float;
  ok : int;
  degraded : int;
  failed : int;
  retries : int;
  deaths : int;
}

let check label ok =
  if not ok then begin
    Printf.eprintf "robust bench: FAILED: %s\n" label;
    exit 1
  end

let fleet_queries () =
  let q placement request = { Wishbone.Service.placement; request } in
  let rate pl r = q pl (Wishbone.Service.Rate r) in
  let search pl = q pl Wishbone.Service.Search in
  let app_pl spec = Wishbone.Placement.of_spec spec in
  let eeg14 =
    app_pl
      (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
         ~platform:Profiler.Platform.tmote_sky
         (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ~n_channels:14 ())))
  in
  let eeg22 =
    app_pl
      (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
         ~platform:Profiler.Platform.tmote_sky
         (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ())))
  in
  let synth seed =
    app_pl (Apps.Synthetic.random_spec ~seed ~n_ops:12 ())
  in
  let per_app pl =
    [ rate pl 0.4; rate pl 0.7; rate pl 1.0; rate pl 1.3; rate pl 0.7 ]
  in
  Array.of_list
    (per_app eeg14 @ per_app eeg22
    @ List.concat_map
        (fun seed -> [ rate (synth seed) 0.8; rate (synth seed) 1.2 ])
        [ 1; 2; 3; 4; 5 ]
    @ List.map (fun seed -> search (synth seed)) [ 1; 2; 3; 4 ]
    @ [ rate (synth 1) 0.8; rate (synth 2) 1.2; search (synth 1);
        search (synth 2); rate (synth 3) 0.8 ]
    @ [ rate eeg14 0.4; rate eeg22 1.0; rate (synth 4) 1.2 ])

let digests responses =
  Array.map (fun (r : Wishbone.Service.response) -> r.Wishbone.Service.digest)
    responses

let sweep_point ~label ?options ?fault_plan ?(retries = 1) queries =
  let svc = Wishbone.Service.create ~capacity:64 ?options ~retries ?fault_plan () in
  let t0 = Unix.gettimeofday () in
  let responses = Wishbone.Service.run_batch svc queries in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let c = Wishbone.Service.counters svc in
  check
    (label ^ ": ok + degraded + failed <> queries")
    (c.Wishbone.Service.ok + c.Wishbone.Service.degraded
     + c.Wishbone.Service.failed
    = c.Wishbone.Service.queries);
  ( svc,
    responses,
    {
      label;
      wall_ms;
      ok = c.Wishbone.Service.ok;
      degraded = c.Wishbone.Service.degraded;
      failed = c.Wishbone.Service.failed;
      retries = c.Wishbone.Service.retries;
      deaths = c.Wishbone.Service.worker_deaths;
    } )

(* serve [queries] under [fault_plan] on two fresh services: answers
   and containment counters must agree exactly *)
let replayed ~fault_plan queries =
  let svc, r1, p1 = sweep_point ~label:"first" ~fault_plan queries in
  let _, r2, p2 = sweep_point ~label:"replay" ~fault_plan queries in
  check "replay: digests differ" (digests r1 = digests r2);
  check "replay: containment counters differ"
    ((p1.ok, p1.degraded, p1.failed, p1.retries, p1.deaths)
    = (p2.ok, p2.degraded, p2.failed, p2.retries, p2.deaths));
  (svc, p1)

let point_json p =
  Printf.sprintf
    "    {\"point\": \"%s\", \"wall_ms\": %.4f, \"ok\": %d, \"degraded\": %d, \
     \"failed\": %d, \"retries\": %d, \"worker_deaths\": %d}"
    p.label p.wall_ms p.ok p.degraded p.failed p.retries p.deaths

let run () =
  Bench_util.header
    "fault-contained serving: goodput, degradation, checkpoints";
  Bench_util.paper_vs
    "injected solver faults are contained to Failed answers; budgets \
     degrade with a certified gap; snapshots replay byte-identically";
  let queries = fleet_queries () in
  let n = Array.length queries in
  (* goodput vs fault rate, one fresh service per point *)
  let fault_rates = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  let fault_points =
    List.map
      (fun rate ->
        let fault_plan =
          if rate = 0.0 then Wishbone.Service.Fault_plan.none
          else Wishbone.Service.Fault_plan.seeded ~rate 1
        in
        let _, _, p =
          sweep_point ~label:(Printf.sprintf "fault_rate=%.2f" rate)
            ~fault_plan queries
        in
        Bench_util.row
          "faults %.2f  %8.1f ms  ok %2d  degraded %2d  failed %2d  retries \
           %2d  deaths %d\n"
          rate p.wall_ms p.ok p.degraded p.failed p.retries p.deaths;
        p)
      fault_rates
  in
  (* the 10% point must replay exactly *)
  let plan10 = Wishbone.Service.Fault_plan.seeded ~rate:0.1 1 in
  ignore (replayed ~fault_plan:plan10 queries);
  Bench_util.row "10%% faults served twice: byte-identical\n";
  (* goodput vs node budget, faults off *)
  let budgets = [ 1; 2; 8; max_int ] in
  let budget_points =
    List.map
      (fun b ->
        let label =
          if b = max_int then "node_budget=inf"
          else Printf.sprintf "node_budget=%d" b
        in
        let options =
          { Lp.Branch_bound.default_options with max_nodes = b }
        in
        let _, _, p = sweep_point ~label ~options queries in
        Bench_util.row "budget %-8s  %8.1f ms  ok %2d  degraded %2d  failed %2d\n"
          (if b = max_int then "inf" else string_of_int b)
          p.wall_ms p.ok p.degraded p.failed;
        p)
      budgets
  in
  (* checkpoint round trip on a warm faults-off service *)
  let svc, responses, _ = sweep_point ~label:"warm" queries in
  let path = Filename.temp_file "wishbone_bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Wishbone.Service.checkpoint svc path;
      let save_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let size = (Unix.stat path).Unix.st_size in
      let t1 = Unix.gettimeofday () in
      let revived, outcome = Wishbone.Service.restore path in
      let load_ms = (Unix.gettimeofday () -. t1) *. 1000. in
      let restored =
        match outcome with
        | Wishbone.Service.Restored k -> k
        | Wishbone.Service.Cold_start reason ->
            check ("restore went cold: " ^ reason) false;
            0
      in
      let replay = Wishbone.Service.run_batch revived queries in
      check "restored replay differs from the live service"
        (digests replay = digests responses);
      Bench_util.row
        "checkpoint: save %.2f ms, %d bytes, load %.2f ms, %d entries, \
         replay byte-identical\n"
        save_ms size load_ms restored;
      let oc = open_out "BENCH_robust.json" in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"robust_service\",\n\
        \  \"n_queries\": %d,\n\
        \  \"fault_sweep\": [\n%s\n  ],\n\
        \  \"budget_sweep\": [\n%s\n  ],\n\
        \  \"replay_identity_at_10pct\": true,\n\
        \  \"checkpoint\": {\"save_ms\": %.4f, \"bytes\": %d, \"load_ms\": \
         %.4f, \"entries\": %d, \"replay_identical\": true}\n\
         }\n"
        n
        (String.concat ",\n" (List.map point_json fault_points))
        (String.concat ",\n" (List.map point_json budget_points))
        save_ms size load_ms restored;
      close_out oc);
  Bench_util.row "wrote BENCH_robust.json\n"

(* CI smoke: the acceptance batch — 32 queries over eeg14/eeg22 and
   synthetic instances at a 10% injected fault rate — served twice on
   fresh services with byte-identity and conservation asserts, plus a
   kill-and-restore replay.  Seconds, not minutes. *)
let smoke () =
  Bench_util.header "fault-contained serving: smoke";
  let queries = fleet_queries () in
  check "acceptance batch is 32 queries" (Array.length queries = 32);
  let plan = Wishbone.Service.Fault_plan.seeded ~rate:0.1 1 in
  let svc2, p1 = replayed ~fault_plan:plan queries in
  check "smoke: conservation" (p1.ok + p1.degraded + p1.failed = 32);
  (* kill-and-restore: checkpoint a served service, reload, replay *)
  let path = Filename.temp_file "wishbone_smoke" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wishbone.Service.checkpoint svc2 path;
      let revived, outcome =
        Wishbone.Service.restore ~fault_plan:plan path
      in
      (match outcome with
      | Wishbone.Service.Restored _ -> ()
      | Wishbone.Service.Cold_start reason ->
          check ("smoke: restore went cold: " ^ reason) false);
      let replay = Wishbone.Service.run_batch revived queries in
      let replay2 = Wishbone.Service.run_batch svc2 queries in
      check "smoke: restored replay differs from the live service"
        (digests replay = digests replay2));
  Bench_util.row
    "smoke ok: 32 queries at 10%% faults, served twice byte-identical, ok %d \
     degraded %d failed %d (retries %d, deaths %d), kill-and-restore replay \
     byte-identical\n"
    p1.ok p1.degraded p1.failed p1.retries p1.deaths
