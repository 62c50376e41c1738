(* Fleet placement service regression suite (DESIGN.md §16).

   Four groups:
   - a pinned 32-query mixed eeg14/eeg22/synthetic batch whose
     response digests must be identical for shard counts 1/2/4 and
     equal to the direct no-service solve path, with exact cache
     counters;
   - qcheck: cache-hit replay is byte-identical to the cold solve,
     and an evicted entry re-solves to the first answer;
   - cache safety: the instance key covers every budget, so specs
     equal modulo CPU (or radio) budget never collide, and the query
     key separates rates and searches;
   - LRU churn: a seeded workload against a capacity-4 cache keeps
     the resident bound, conserves the counter algebra, and serves
     only direct-path answers throughout. *)

open Wishbone

let spec_exn ?mode ~platform raw =
  match Spec.of_profile ?mode ~node_platform:platform raw with
  | Ok s -> s
  | Error m -> failwith m

let q placement request = { Service.placement; request }
let rate pl r = q pl (Service.Rate r)
let search pl = q pl Service.Search

let digests responses =
  Array.map (fun (r : Service.response) -> r.Service.digest) responses

(* direct-path reference digests, memoised per cache key *)
let direct_digests svc queries =
  let memo = Hashtbl.create 16 in
  Array.map
    (fun qu ->
      let key = Service.query_key svc qu in
      match Hashtbl.find_opt memo key with
      | Some d -> d
      | None ->
          let d = Service.answer_digest (Service.solve_direct qu) in
          Hashtbl.add memo key d;
          d)
    queries

let synth seed = Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:8 ())

(* ---- pinned mixed batch: shard determinism ------------------------ *)

(* short profiles: the batch exercises the service, not the profiler *)
let mixed_batch =
  lazy
    (let eeg14 =
       Placement.of_spec
         (spec_exn ~mode:Movable.Permissive
            ~platform:Profiler.Platform.tmote_sky
            (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ~n_channels:14 ())))
     in
     let eeg22 =
       Placement.of_spec
         (spec_exn ~mode:Movable.Permissive
            ~platform:Profiler.Platform.tmote_sky
            (Apps.Eeg.profile ~duration:10. (Apps.Eeg.build ())))
     in
     let s seed = Placement.of_spec (Apps.Synthetic.random_spec ~seed ~n_ops:12 ()) in
     Array.of_list
       ([ rate eeg14 0.4; rate eeg14 0.7; rate eeg14 1.0; rate eeg14 1.3;
          rate eeg14 0.7 ]
       @ [ rate eeg22 0.4; rate eeg22 0.7; rate eeg22 1.0; rate eeg22 1.3;
           rate eeg22 0.7 ]
       @ List.concat_map
           (fun seed -> [ rate (s seed) 0.8; rate (s seed) 1.2 ])
           [ 1; 2; 3; 4; 5 ]
       @ List.map (fun seed -> search (s seed)) [ 1; 2; 3; 4 ]
       @ [ rate (s 1) 0.8; rate (s 2) 1.2; search (s 1); search (s 2);
           rate (s 3) 0.8 ]
       @ [ rate eeg14 0.4; rate eeg22 1.0; rate (s 4) 1.2 ]))

let test_shard_determinism () =
  let queries = Lazy.force mixed_batch in
  Alcotest.(check int) "batch size" 32 (Array.length queries);
  let run shards =
    let svc = Service.create ~capacity:64 () in
    let responses = Service.run_batch ~shards svc queries in
    (digests responses, Service.counters svc, svc)
  in
  let d1, c1, svc1 = run 1 in
  let d2, c2, _ = run 2 in
  let d4, c4, _ = run 4 in
  Alcotest.(check (array string)) "shards=2 digests" d1 d2;
  Alcotest.(check (array string)) "shards=4 digests" d1 d4;
  (* counters are a pure function of the query history *)
  let pp c =
    Printf.sprintf "q%d h%d m%d w%d i%d e%d r%d" c.Service.queries
      c.Service.hits c.Service.misses c.Service.warm_starts c.Service.inserts
      c.Service.evictions c.Service.resident
  in
  Alcotest.(check string) "shards=2 counters" (pp c1) (pp c2);
  Alcotest.(check string) "shards=4 counters" (pp c1) (pp c4);
  (* 10 duplicate queries in the batch, nothing evicted at capacity 64 *)
  Alcotest.(check string) "exact counters" "q32 h10 m22 w0 i22 e0 r22" (pp c1);
  (* and the whole thing equals the no-service direct path *)
  Alcotest.(check (array string))
    "direct path" (direct_digests svc1 queries) d1

(* ---- qcheck: replay and eviction equivalences --------------------- *)

let prop_replay_equals_cold =
  QCheck.Test.make ~count:40 ~name:"cache-hit replay = cold solve"
    QCheck.small_int (fun seed ->
      let options = Lp.Branch_bound.default_options in
      let pl = synth (1 + seed) in
      let queries = [| rate pl 0.9; rate pl 1.2; search pl; rate pl 0.9 |] in
      let svc = Service.create ~capacity:8 ~options () in
      let cold = digests (Service.run_batch svc queries) in
      let warm = digests (Service.run_batch svc queries) in
      let direct =
        Array.map
          (fun qu -> Service.answer_digest (Service.solve_direct ~options qu))
          queries
      in
      cold = warm && cold = direct)

let prop_evict_then_requery =
  QCheck.Test.make ~count:40 ~name:"eviction then requery = first solve"
    QCheck.small_int (fun seed ->
      let a = synth (1 + seed) and b = synth (1000 + seed) in
      (* capacity 1: b's insert evicts a, so the requery re-solves *)
      let svc = Service.create ~capacity:1 () in
      let first = (Service.run_batch svc [| rate a 0.9 |]).(0) in
      let _ = Service.run_batch svc [| rate b 0.9 |] in
      let again = (Service.run_batch svc [| rate a 0.9 |]).(0) in
      let c = Service.counters svc in
      first.Service.digest = again.Service.digest
      && again.Service.served <> Service.Hit
      && c.Service.hits = 0 && c.Service.misses = 3
      && c.Service.inserts = 3 && c.Service.evictions = 2
      && c.Service.resident = 1)

(* ---- cache safety: the key covers every budget -------------------- *)

let test_key_covers_budgets () =
  let spec = Apps.Synthetic.random_spec ~seed:5 ~n_ops:8 () in
  let pl = Placement.of_spec spec in
  let tighter_cpu =
    Placement.of_spec { spec with Spec.cpu_budget = spec.Spec.cpu_budget /. 2. }
  in
  let tighter_net =
    Placement.of_spec { spec with Spec.net_budget = spec.Spec.net_budget /. 2. }
  in
  Alcotest.(check bool) "cpu budget in key" false
    (Service.instance_key pl = Service.instance_key tighter_cpu);
  Alcotest.(check bool) "net budget in key" false
    (Service.instance_key pl = Service.instance_key tighter_net);
  let svc = Service.create () in
  Alcotest.(check bool) "rate in key" false
    (Service.query_key svc (rate pl 0.9) = Service.query_key svc (rate pl 1.1));
  Alcotest.(check bool) "search is its own key" false
    (Service.query_key svc (rate pl 0.9) = Service.query_key svc (search pl));
  (* and equal queries do collide, or the cache would never hit *)
  Alcotest.(check string) "identical queries share the key"
    (Service.query_key svc (rate pl 0.9))
    (Service.query_key svc (rate pl 0.9))

(* ---- LRU churn under a seeded workload ---------------------------- *)

let test_lru_churn () =
  let capacity = 4 in
  let svc = Service.create ~capacity () in
  let rng = Prng.create 99 in
  let instances = Array.init 8 (fun i -> synth (200 + i)) in
  let total = ref 0 in
  for _ = 1 to 12 do
    let n = 2 + Prng.int rng 4 in
    let batch =
      Array.init n (fun _ ->
          let pl = instances.(Prng.int rng 8) in
          if Prng.bool rng 0.2 then search pl
          else rate pl (0.8 +. (0.2 *. Float.of_int (Prng.int rng 3))))
    in
    total := !total + n;
    let responses = Service.run_batch ~shards:2 svc batch in
    Alcotest.(check (array string))
      "batch equals direct path" (direct_digests svc batch)
      (digests responses);
    let c = Service.counters svc in
    Alcotest.(check bool) "resident bound" true
      (c.Service.resident <= capacity);
    Alcotest.(check int) "hits + misses = queries" c.Service.queries
      (c.Service.hits + c.Service.misses);
    Alcotest.(check int) "inserts - evictions = resident" c.Service.resident
      (c.Service.inserts - c.Service.evictions)
  done;
  let c = Service.counters svc in
  Alcotest.(check int) "every query counted" !total c.Service.queries;
  Alcotest.(check bool) "churn evicted something" true
    (c.Service.evictions > 0)

let () =
  Alcotest.run "service"
    [
      ( "determinism",
        [
          Alcotest.test_case "32-query batch, shards 1/2/4" `Quick
            test_shard_determinism;
        ] );
      ( "replay",
        [
          QCheck_alcotest.to_alcotest prop_replay_equals_cold;
          QCheck_alcotest.to_alcotest prop_evict_then_requery;
        ] );
      ( "cache-safety",
        [
          Alcotest.test_case "keys cover budgets and requests" `Quick
            test_key_covers_budgets;
        ] );
      ( "lru",
        [ Alcotest.test_case "seeded churn" `Quick test_lru_churn ] );
    ]
