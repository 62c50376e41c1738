(* Tests of the benchmark's own logic: the tail-percentile rule, the
   seeded Zipf query stream, probe counting through the B&B hook, and
   the answer checker's rejections. *)

open Perfbench
module P = Wishbone.Placement

let floats n = List.init n (fun i -> Float.of_int (i + 1))

let tail_rule () =
  (* p90 of 100 samples has exactly ten beyond it: reported *)
  Alcotest.(check (option (float 0.))) "100 samples" (Some 90.) (Stats.tail (floats 100) 0.9);
  (* 99 samples leave nine beyond: withheld *)
  Alcotest.(check (option (float 0.))) "99 samples" None (Stats.tail (floats 99) 0.9);
  Alcotest.(check (option (float 0.))) "no samples" None (Stats.tail [] 0.9);
  Alcotest.(check int) "beyond p50 of 20" 10 (Stats.beyond ~n:20 0.5);
  (* 0.07 * 100 rounds to just above 7 *)
  Alcotest.(check int) "beyond p7 of 100" 93 (Stats.beyond ~n:100 0.07);
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "odd median" 3. (Stats.median [ 5.; 1.; 3. ])

let zipf_stream () =
  let draw seed = Zipf.take (Zipf.create ~seed ~n:32 ~s:1.1) 500 in
  Alcotest.(check (list int)) "same seed, same stream" (draw 7) (draw 7);
  Alcotest.(check bool) "another seed, another stream" true (draw 7 <> draw 8);
  let s = draw 7 in
  Alcotest.(check bool) "ranks in range" true (List.for_all (fun k -> k >= 0 && k < 32) s);
  let count k = List.length (List.filter (( = ) k) s) in
  Alcotest.(check bool) "rank 0 most popular" true (count 0 > count 1 && count 1 > count 31)

(* the Figure 3 example at CPU budget 3: optimum 6 *)
let fig3 () =
  let pl = P.of_spec (Apps.Synthetic.fig3_spec ~cpu_budget:3.) in
  match P.solve pl with
  | P.Partitioned r -> (pl, r)
  | _ -> Alcotest.fail "fig3 must partition"

let is_ok = function Ok () -> true | Error _ -> false

let checker_objective () =
  let pl, r = fig3 () in
  let check ~solver ~reference =
    is_ok (Check.placement pl ~tier_of:r.tier_of ~solver_objective:solver ~reference)
  in
  Alcotest.(check bool) "true answer accepted" true (check ~solver:r.objective ~reference:r.objective);
  Alcotest.(check bool) "perturbed reference rejected" false
    (check ~solver:r.objective ~reference:(r.objective *. (1. +. 1e-8)));
  Alcotest.(check bool) "perturbed solver objective rejected" false
    (check ~solver:(r.objective +. 1e-3) ~reference:r.objective);
  let moved = Array.map (fun t -> 1 - t) r.tier_of in
  Alcotest.(check bool) "moved assignment rejected" false
    (is_ok (Check.placement pl ~tier_of:moved ~solver_objective:r.objective ~reference:r.objective))

let checker_rate () =
  let pl, r = fig3 () in
  let check ~rate ~reference_rate =
    is_ok
      (Check.search pl ~rate ~tier_of:r.tier_of ~objective:r.objective ~tol:0.01 ~reference_rate)
  in
  Alcotest.(check bool) "rate within tol" true (check ~rate:1. ~reference_rate:1.005);
  Alcotest.(check bool) "perturbed rate rejected" false (check ~rate:1. ~reference_rate:1.02)

let checker_digest () =
  let d = Digest.to_hex (Digest.string "answer") in
  Alcotest.(check bool) "equal digest" true (is_ok (Check.digest ~reference:d d));
  let flipped = String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) d in
  Alcotest.(check bool) "perturbed digest rejected" false (is_ok (Check.digest ~reference:d flipped))

(* B&B roots through the on_node hook *)
let probe_sequences () =
  let roots calls =
    let t = Probes.create () in
    List.iter (fun (nodes, pivots, global) -> ignore (Probes.observe t ~nodes ~pivots ~global)) calls;
    t.roots
  in
  Alcotest.(check int) "root then its expansions" 1 (roots [ (0, 0, 0); (0, 4, 4); (1, 6, 6) ]);
  Alcotest.(check int) "0-pivot root then its expansion" 1 (roots [ (0, 0, 7); (0, 0, 7); (1, 2, 9) ]);
  Alcotest.(check int) "root-only solve then a root" 2 (roots [ (0, 0, 0); (0, 0, 3); (0, 2, 5) ]);
  Alcotest.(check int) "two solved roots" 2 (roots [ (0, 0, 0); (0, 1, 1); (0, 0, 1); (0, 1, 2) ])

(* x + y >= 8 and x + y <= 3 over integers in [0, 10] *)
let infeasible_ilp () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~hi:10. ~integer:true p in
  let y = Lp.Problem.add_var ~hi:10. ~integer:true p in
  Lp.Problem.add_constr p [ (x, 1.); (y, 1.) ] Lp.Problem.Ge 8.;
  Lp.Problem.add_constr p [ (x, 1.); (y, 1.) ] Lp.Problem.Le 3.;
  Lp.Problem.set_objective p Lp.Problem.Minimize [ (x, 1.); (y, 2.) ];
  p

(* maximise 5x + 4y, 6x + 4y <= 24, x + 2y <= 6.5, integers *)
let feasible_ilp () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~hi:10. ~integer:true p in
  let y = Lp.Problem.add_var ~hi:10. ~integer:true p in
  Lp.Problem.add_constr p [ (x, 6.); (y, 4.) ] Lp.Problem.Le 24.;
  Lp.Problem.add_constr p [ (x, 1.); (y, 2.) ] Lp.Problem.Le 6.5;
  Lp.Problem.set_objective p Lp.Problem.Maximize [ (x, 5.); (y, 4.) ];
  p

let probe_after_infeasible_root () =
  let t = Probes.create () in
  let options =
    { Lp.Branch_bound.default_options with on_node = Some (Probes.hook t ~on_root:ignore) }
  in
  let status p = fst (Lp.Branch_bound.solve ~options p) in
  (match status (infeasible_ilp ()) with
  | Lp.Solution.Infeasible -> ()
  | _ -> Alcotest.fail "first probe must be root-infeasible");
  (match status (feasible_ilp ()) with
  | Lp.Solution.Optimal _ -> ()
  | _ -> Alcotest.fail "second probe must solve");
  Alcotest.(check int) "both roots counted" 2 t.roots

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "tail needs ten beyond" `Quick tail_rule ]);
      ("zipf", [ Alcotest.test_case "seeded stream" `Quick zipf_stream ]);
      ( "probes",
        [
          Alcotest.test_case "hook call sequences" `Quick probe_sequences;
          Alcotest.test_case "root-infeasible probe" `Quick probe_after_infeasible_root;
        ] );
      ( "check",
        [
          Alcotest.test_case "objective" `Quick checker_objective;
          Alcotest.test_case "rate" `Quick checker_rate;
          Alcotest.test_case "digest" `Quick checker_digest;
        ] );
    ]
