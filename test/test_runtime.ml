(* Runtime engine tests: depth-first traversal semantics, crossing
   detection, per-node state replication, partition invariance. *)

open Dataflow

let add_one v =
  match v with
  | Value.Int i -> (Value.Int (i + 1), Workload.make ~int_ops:1. ())
  | _ -> invalid_arg "expected int"

let build_pipeline n =
  (* source -> inc^n -> sink *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s0 = Builder.source b ~name:"src" () in
      src := Builder.op_id s0;
      let rec chain s i =
        if i = 0 then s
        else chain (Builder.map b ~name:(Printf.sprintf "inc%d" i) add_one s) (i - 1)
      in
      let last = chain s0 n in
      Builder.sink b ~name:"sink" last);
  (Builder.build b, !src)

let test_full_traversal () =
  let g, src = build_pipeline 3 in
  let exec = Runtime.Exec.full g in
  let fired = Runtime.Exec.fire exec ~op:src ~port:0 (Value.Int 0) in
  Alcotest.(check int) "no crossings" 0 (List.length fired.crossings);
  Alcotest.(check (list bool)) "sink got 3" [ true ]
    (List.map (fun v -> Value.equal v (Value.Int 3)) fired.sink_values);
  Alcotest.(check int) "sink count" 1 (Runtime.Exec.sink_count exec);
  (* every op fired exactly once *)
  for i = 0 to Graph.n_ops g - 1 do
    Alcotest.(check int) "fires" 1 (Runtime.Exec.op_fires exec i)
  done

let test_edge_stats () =
  let g, src = build_pipeline 2 in
  let exec = Runtime.Exec.full g in
  for i = 0 to 9 do
    ignore (Runtime.Exec.fire exec ~op:src ~port:0 (Value.Int i))
  done;
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check int) "elements" 10 (Runtime.Exec.edge_elements exec e.eid);
      Alcotest.(check int) "bytes" 40 (Runtime.Exec.edge_bytes exec e.eid))
    (Graph.edges g)

let test_crossing_detection () =
  let g, src = build_pipeline 3 in
  (* put source + first inc on the node: one crossing edge *)
  let order = Graph.topo_order g in
  let node_set = [ order.(0); order.(1) ] in
  let exec = Runtime.Exec.create ~member:(fun i -> List.mem i node_set) g in
  let fired = Runtime.Exec.fire exec ~op:src ~port:0 (Value.Int 0) in
  Alcotest.(check int) "one crossing" 1 (List.length fired.crossings);
  let c = List.hd fired.crossings in
  Alcotest.(check bool) "crossing carries inc1 output" true
    (Value.equal c.Runtime.Exec.value (Value.Int 1));
  Alcotest.(check int) "no sink on node side" 0 (List.length fired.sink_values)

let test_fire_nonmember_rejected () =
  let g, src = build_pipeline 1 in
  let exec = Runtime.Exec.create ~member:(fun i -> i <> src) g in
  Alcotest.check_raises "not a member"
    (Invalid_argument "Exec.fire: operator is not a member of this partition")
    (fun () -> ignore (Runtime.Exec.fire exec ~op:src ~port:0 Value.Unit))

let build_counter_graph () =
  (* stateful counter: emits the number of elements seen so far *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s0 = Builder.source b ~name:"src" () in
      src := Builder.op_id s0;
      let counted =
        Builder.stateful b ~name:"count"
          ~init:(fun () ->
            let n = ref 0 in
            fun ~port:_ _ ->
              incr n;
              ([ Value.Int !n ], Workload.make ~int_ops:1. ()))
          [ s0 ]
      in
      Builder.sink b ~name:"sink" counted);
  (Builder.build b, !src)

let test_stateful_state_persists () =
  let g, src = build_counter_graph () in
  let exec = Runtime.Exec.full g in
  let out i = (Runtime.Exec.fire exec ~op:src ~port:0 (Value.Int i)).sink_values in
  Alcotest.(check bool) "1st" true (out 0 = [ Value.Int 1 ]);
  Alcotest.(check bool) "2nd" true (out 0 = [ Value.Int 2 ]);
  Runtime.Exec.reset exec;
  Alcotest.(check bool) "after reset" true (out 0 = [ Value.Int 1 ])

let test_replicated_state_per_node () =
  (* a replicated stateful operator on the "server" keeps one counter
     per node id: the per-node state table of §2.1.1 *)
  let g, src = build_counter_graph () in
  let exec =
    Runtime.Exec.create
      ~replicated:(fun i -> (Graph.op g i).Op.namespace = Op.Node)
      ~member:(fun _ -> true)
      g
  in
  let out node = (Runtime.Exec.fire ~node exec ~op:src ~port:0 Value.Unit).sink_values in
  Alcotest.(check bool) "node 0 first" true (out 0 = [ Value.Int 1 ]);
  Alcotest.(check bool) "node 0 second" true (out 0 = [ Value.Int 2 ]);
  Alcotest.(check bool) "node 1 has fresh state" true (out 1 = [ Value.Int 1 ]);
  Alcotest.(check bool) "node 0 unaffected" true (out 0 = [ Value.Int 3 ])

let test_unreplicated_state_shared () =
  let g, src = build_counter_graph () in
  let exec = Runtime.Exec.create ~member:(fun _ -> true) g in
  let out node = (Runtime.Exec.fire ~node exec ~op:src ~port:0 Value.Unit).sink_values in
  Alcotest.(check bool) "node 0" true (out 0 = [ Value.Int 1 ]);
  Alcotest.(check bool) "node 1 shares the instance" true (out 1 = [ Value.Int 2 ])

(* ---- split node/server execution: a two-tier Multirun ---- *)

(* tier 0 = node, tier 1 = server *)
let split ~n_nodes ~on_node g =
  Runtime.Multirun.create ~n_nodes ~n_tiers:2
    ~tier_of:(fun i -> if on_node i then 0 else 1)
    g

let test_split_matches_full () =
  let g, src = build_pipeline 4 in
  let order = Graph.topo_order g in
  (* cut after 2 ops *)
  let node_set = [ order.(0); order.(1) ] in
  let split = split ~n_nodes:1 ~on_node:(fun i -> List.mem i node_set) g in
  let outs = Runtime.Multirun.inject split ~source:src (Value.Int 10) in
  Alcotest.(check bool) "sink value" true (outs = [ Value.Int 14 ]);
  let elems, bytes = Runtime.Multirun.link_traffic split 0 in
  Alcotest.(check int) "one crossing element" 1 elems;
  Alcotest.(check int) "crossing bytes" 4 bytes

let test_split_source_must_be_on_node () =
  let g, src = build_pipeline 1 in
  let split = split ~n_nodes:1 ~on_node:(fun _ -> false) g in
  Alcotest.check_raises "source misplaced"
    (Invalid_argument "Multirun.inject: source operator is on the root tier")
    (fun () -> ignore (Runtime.Multirun.inject split ~source:src Value.Unit))

let test_split_multi_node_isolation () =
  let g, src = build_counter_graph () in
  (* counter relocated to the server: replicated per node *)
  let split = split ~n_nodes:2 ~on_node:(fun i -> i = src) g in
  let o1 = Runtime.Multirun.inject ~node:0 split ~source:src Value.Unit in
  let o2 = Runtime.Multirun.inject ~node:1 split ~source:src Value.Unit in
  let o3 = Runtime.Multirun.inject ~node:0 split ~source:src Value.Unit in
  Alcotest.(check bool) "n0 w1" true (o1 = [ Value.Int 1 ]);
  Alcotest.(check bool) "n1 w1 (own state)" true (o2 = [ Value.Int 1 ]);
  Alcotest.(check bool) "n0 w2" true (o3 = [ Value.Int 2 ])

(* partition invariance: for any cut of a pipeline, outputs equal the
   unpartitioned run (lossless channel) *)
let prop_partition_invariance =
  QCheck.Test.make ~count:60 ~name:"any pipeline cut preserves semantics"
    QCheck.(pair (int_range 1 6) (int_range 0 100000))
    (fun (len, seed) ->
      let g, src = build_pipeline len in
      let order = Graph.topo_order g in
      let n = Graph.n_ops g in
      let rng = Prng.create seed in
      let k = 1 + Prng.int rng (n - 1) in
      let node_set = Array.sub order 0 k in
      let full = Runtime.Exec.full g in
      let split =
        split ~n_nodes:1 ~on_node:(fun i -> Array.exists (( = ) i) node_set) g
      in
      let inputs = List.init 5 (fun i -> Value.Int (Prng.int rng 100 + i)) in
      List.for_all
        (fun v ->
          let a = (Runtime.Exec.fire full ~op:src ~port:0 v).sink_values in
          let b = Runtime.Multirun.inject split ~source:src v in
          List.length a = List.length b && List.for_all2 Value.equal a b)
        inputs)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "runtime"
    [
      ( "exec",
        [
          tc "full traversal" test_full_traversal;
          tc "edge statistics" test_edge_stats;
          tc "crossing detection" test_crossing_detection;
          tc "non-member rejected" test_fire_nonmember_rejected;
          tc "stateful persistence + reset" test_stateful_state_persists;
          tc "replicated per-node state" test_replicated_state_per_node;
          tc "unreplicated shared state" test_unreplicated_state_shared;
        ] );
      ( "splitrun",
        [
          tc "matches full run" test_split_matches_full;
          tc "source placement" test_split_source_must_be_on_node;
          tc "multi-node isolation" test_split_multi_node_isolation;
          QCheck_alcotest.to_alcotest prop_partition_invariance;
        ] );
    ]
