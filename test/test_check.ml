(* The correctness-tooling layer itself: certificate checker, seeded
   generators, shrinking, the fuzz driver, and the cross-test pivot
   accounting (DESIGN.md §11). *)

open Check

(* ---- pivot accounting -------------------------------------------

   [Lp.Simplex.cumulative_pivots] is a process-wide counter.  Every
   test suite resets it in its main; this group is the single place
   that asserts its behaviour. *)

let small_lp () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var ~lo:0. ~hi:10. p in
  let y = Lp.Problem.add_var ~lo:0. ~hi:10. p in
  Lp.Problem.add_constr p [ (x, 1.); (y, 2.) ] Lp.Problem.Le 14.;
  Lp.Problem.add_constr p [ (x, 3.); (y, -1.) ] Lp.Problem.Ge 0.;
  Lp.Problem.set_objective p Lp.Problem.Maximize [ (x, 3.); (y, 4.) ];
  p

let solve_warm p = Lp.Sparse.solve_warm (Lp.Sparse.of_problem p)

let test_pivot_accounting () =
  Lp.Simplex.reset_cumulative_pivots ();
  Alcotest.(check int) "reset clears the counter" 0
    (Lp.Simplex.cumulative_pivots ());
  let r = solve_warm (small_lp ()) in
  Alcotest.(check bool) "optimal" true (Lp.Solution.is_optimal r.status);
  Alcotest.(check bool) "solving pivots at least once" true (r.pivots > 0);
  Alcotest.(check int) "counter accumulates exactly the solve's pivots"
    r.pivots
    (Lp.Simplex.cumulative_pivots ());
  let r2 = solve_warm (small_lp ()) in
  Alcotest.(check int) "second solve adds its pivots"
    (r.pivots + r2.pivots)
    (Lp.Simplex.cumulative_pivots ());
  Lp.Simplex.reset_cumulative_pivots ();
  Alcotest.(check int) "reset again" 0 (Lp.Simplex.cumulative_pivots ())

(* ---- certificate checker ---- *)

let is_valid = function Certificate.Valid -> true | Certificate.Invalid _ -> false

let test_certificate_accepts_valid () =
  (* many random LPs: every optimal answer must certify *)
  let rng = Prng.create 2024 in
  let optimal = ref 0 in
  for _ = 1 to 200 do
    let p = Gen.lp rng ~size:7 in
    let r = solve_warm p in
    if Lp.Solution.is_optimal r.status then begin
      incr optimal;
      match Certificate.check_result p r with
      | Certificate.Valid -> ()
      | Certificate.Invalid msgs ->
          Alcotest.failf "valid solve rejected: %s"
            (String.concat "; " msgs)
    end
  done;
  Alcotest.(check bool) "exercised some optimal instances" true (!optimal > 50)

(* a deliberately broken solver: returns a feasible but suboptimal
   vertex (with the basis that genuinely describes that vertex) *)
let test_certificate_catches_suboptimal () =
  let p = small_lp () in
  (* solving the minimisation of the same objective yields the wrong
     vertex for the maximisation, with a perfectly consistent basis *)
  let wrong = Lp.Problem.copy p in
  Lp.Problem.set_objective wrong Lp.Problem.Minimize [ (0, 3.); (1, 4.) ];
  let r = solve_warm wrong in
  let sol = Lp.Solution.get r.status in
  let basis = Option.get r.basis in
  (* same x, same basis, claimed optimal for the maximisation *)
  let claimed =
    { Lp.Solution.x = sol.x;
      objective = Lp.Problem.objective_value p sol.x }
  in
  match Certificate.check p claimed basis with
  | Certificate.Invalid _ -> ()
  | Certificate.Valid ->
      Alcotest.fail "suboptimal vertex passed the certificate"

let test_certificate_catches_corrupt_solution () =
  let p = small_lp () in
  let r = solve_warm p in
  let sol = Lp.Solution.get r.status in
  let basis = Option.get r.basis in
  (* corrupt one coordinate: breaks either feasibility or the
     nonbasic-at-bound conditions *)
  let x = Array.copy sol.Lp.Solution.x in
  x.(0) <- x.(0) +. 1.;
  Alcotest.(check bool) "perturbed point rejected" false
    (is_valid
       (Certificate.check p { sol with Lp.Solution.x } basis));
  (* corrupt the claimed objective *)
  Alcotest.(check bool) "wrong objective rejected" false
    (is_valid
       (Certificate.check p
          { sol with Lp.Solution.objective = sol.objective +. 5. }
          basis))

let test_certificate_catches_corrupt_basis () =
  let p = small_lp () in
  let r = solve_warm p in
  let sol = Lp.Solution.get r.status in
  let basis = Option.get r.basis in
  let stat = Array.copy basis.Lp.Basis.stat in
  (* flip the first nonbasic column's resting bound *)
  let j =
    Array.to_list (Array.mapi (fun j s -> (j, s)) stat)
    |> List.find (fun (_, s) -> s <> Lp.Basis.Basic)
    |> fst
  in
  stat.(j) <-
    (if stat.(j) = Lp.Basis.At_lower then Lp.Basis.At_upper
     else Lp.Basis.At_lower);
  Alcotest.(check bool) "corrupt basis rejected" false
    (is_valid
       (Certificate.check p sol { basis with Lp.Basis.stat }))

(* ---- generator determinism ---- *)

let test_generators_deterministic () =
  let show_spec s = Format.asprintf "%a" Gen.pp_spec s in
  let show_lp p = Format.asprintf "%a" Lp.Problem.pp p in
  let a = Gen.spec (Prng.create 7) Gen.default_cfg in
  let b = Gen.spec (Prng.create 7) Gen.default_cfg in
  Alcotest.(check string) "same seed, same spec" (show_spec a) (show_spec b);
  let pa = Gen.lp (Prng.create 11) ~size:8 in
  let pb = Gen.lp (Prng.create 11) ~size:8 in
  Alcotest.(check string) "same seed, same lp" (show_lp pa) (show_lp pb);
  let c = Gen.spec (Prng.create 8) Gen.default_cfg in
  Alcotest.(check bool) "different seed, different spec" true
    (show_spec a <> show_spec c)

let test_random_cut_single_crossing () =
  let rng = Prng.create 5 in
  for _ = 1 to 50 do
    let s = Gen.spec rng Gen.default_cfg in
    let cut = Gen.random_cut rng s in
    Alcotest.(check bool) "predecessor-closed cut feasible modulo budgets"
      true
      (Array.for_all2
         (fun on p ->
           match p with
           | Wishbone.Movable.Pin_node -> on
           | Wishbone.Movable.Pin_server -> not on
           | Wishbone.Movable.Movable -> true)
         cut s.Wishbone.Spec.placement);
    Array.iter
      (fun (e : Dataflow.Graph.edge) ->
        Alcotest.(check bool) "no server->node edge" false
          ((not cut.(e.src)) && cut.(e.dst)))
      (Dataflow.Graph.edges s.Wishbone.Spec.graph)
  done

(* ---- shrinking ---- *)

let test_shrink_lp_minimises () =
  let rng = Prng.create 13 in
  let p = Gen.lp rng ~size:8 in
  (* pretend the failure is "some constraint mentions variable 0" *)
  let pred p' =
    Array.exists
      (fun (c : Lp.Problem.constr) ->
        List.exists (fun (v, coef) -> v = 0 && coef <> 0.) c.Lp.Problem.terms)
      (Lp.Problem.constrs p')
  in
  Alcotest.(check bool) "original fails" true (pred p);
  let small = Shrink.problem pred p in
  Alcotest.(check bool) "shrunk still fails" true (pred small);
  Alcotest.(check int) "one constraint left" 1
    (Lp.Problem.n_constrs small);
  Alcotest.(check int) "one variable left" 1 (Lp.Problem.n_vars small);
  let nonzeros =
    Array.fold_left
      (fun acc (c : Lp.Problem.constr) ->
        acc + List.length c.Lp.Problem.terms)
      0
      (Lp.Problem.constrs small)
  in
  Alcotest.(check int) "one coefficient left" 1 nonzeros

let test_shrink_spec_minimises () =
  let rng = Prng.create 17 in
  let s = Gen.spec rng { Gen.default_cfg with Gen.n_ops = 10 } in
  (* pretend the failure is "total bandwidth exceeds 50" *)
  let pred s' =
    Array.fold_left ( +. ) 0. s'.Wishbone.Spec.bandwidth > 50.
  in
  Alcotest.(check bool) "original fails" true (pred s);
  let small = Shrink.spec pred s in
  Alcotest.(check bool) "shrunk still fails" true (pred small);
  Alcotest.(check bool) "fewer or equal ops" true
    (Dataflow.Graph.n_ops small.Wishbone.Spec.graph
    <= Dataflow.Graph.n_ops s.Wishbone.Spec.graph);
  (* minimal: a single edge carries the whole failure *)
  Alcotest.(check int) "one edge left" 1
    (Dataflow.Graph.n_edges small.Wishbone.Spec.graph)

(* ---- the fuzz driver ---- *)

let test_fuzz_bounded_pass () =
  let summary =
    Fuzz.run { Fuzz.default with Fuzz.count = 40; size = 7; seed = 42 }
  in
  Alcotest.(check int) "ran all cases"
    (List.length Fuzz.all_oracles * 40)
    summary.Fuzz.cases_run;
  Alcotest.(check bool) "all oracles passed" true (Fuzz.all_passed summary)

let test_fuzz_replay_deterministic () =
  let cfg =
    { Fuzz.default with Fuzz.count = 15; size = 8; seed = 1234; start = 5 }
  in
  let a = Fuzz.run cfg and b = Fuzz.run cfg in
  Alcotest.(check int) "same case count" a.Fuzz.cases_run b.Fuzz.cases_run;
  Alcotest.(check (list string)) "same failures"
    (List.map (fun f -> f.Fuzz.message) a.Fuzz.failures)
    (List.map (fun f -> f.Fuzz.message) b.Fuzz.failures)

let test_oracles_pass_directly () =
  let rng = Prng.create 99 in
  for _ = 1 to 20 do
    let p = Gen.lp rng ~size:6 in
    (match Oracle.lp_certificate (Prng.create 1) p with
    | Oracle.Pass -> ()
    | Oracle.Fail m -> Alcotest.failf "lp_certificate: %s" m);
    let ilp = Gen.ilp rng ~size:5 in
    (match Oracle.ilp_brute ilp with
    | Oracle.Pass -> ()
    | Oracle.Fail m -> Alcotest.failf "ilp_brute: %s" m);
    let s = Gen.spec rng { Gen.default_cfg with Gen.n_ops = 6 } in
    (match Oracle.cut_enumeration s with
    | Oracle.Pass -> ()
    | Oracle.Fail m -> Alcotest.failf "cut_enumeration: %s" m);
    match Oracle.split_equivalence (Prng.create 2) s with
    | Oracle.Pass -> ()
    | Oracle.Fail m -> Alcotest.failf "split_equivalence: %s" m
  done

(* ---- qcheck: preprocessing does not change the answer ---- *)

let prop_preprocess_invariant =
  QCheck.Test.make ~count:60 ~name:"preprocess on/off agree"
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, tightness3) ->
      let cfg =
        {
          Gen.default_cfg with
          Gen.n_ops = 6;
          tightness = Float.of_int tightness3 /. 2.;
        }
      in
      let spec = Gen.spec (Prng.create seed) cfg in
      let pl = Wishbone.Placement.of_spec spec in
      let a = Wishbone.Placement.solve ~preprocess:true pl in
      let b = Wishbone.Placement.solve ~preprocess:false pl in
      match (a, b) with
      | Wishbone.Placement.Partitioned ra, Wishbone.Placement.Partitioned rb ->
          Float.abs (ra.objective -. rb.objective)
          <= 1e-6 *. (1. +. Float.abs rb.objective)
      | Wishbone.Placement.No_feasible_partition,
        Wishbone.Placement.No_feasible_partition ->
          true
      | _ -> false)

(* ---- rate search edge cases ---- *)

let generous_spec seed =
  Gen.spec (Prng.create seed) { Gen.default_cfg with Gen.tightness = 0. }

let search s =
  Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec s)

let test_rate_search_infeasible_everywhere () =
  (* a node-pinned operator with positive CPU cost and a zero budget
     is infeasible at every positive rate *)
  let s = generous_spec 3 in
  let cpu = Array.copy s.Wishbone.Spec.cpu in
  cpu.(0) <- 0.5 (* the pinned source *);
  let s = { s with Wishbone.Spec.cpu; cpu_budget = 0.; net_budget = 0. } in
  Alcotest.(check bool) "no rate is feasible" true
    (search s = None)

let test_rate_search_feasible_at_full_rate () =
  let s = generous_spec 4 in
  (match Wishbone.Placement.solve (Wishbone.Placement.of_spec s) with
  | Wishbone.Placement.Partitioned _ -> ()
  | _ -> Alcotest.fail "generous spec should be feasible at rate 1");
  match search s with
  | None -> Alcotest.fail "search failed on a feasible instance"
  | Some r ->
      Alcotest.(check bool) "multiplier at least the full rate" true
        (r.Wishbone.Rate_search.placement_multiplier >= 1.)

let test_rate_search_feasibility_monotone () =
  (* once infeasible at some rate, every higher rate is infeasible *)
  let s = Gen.spec (Prng.create 6) { Gen.default_cfg with Gen.tightness = 0.7 } in
  let feasible r =
    match
      Wishbone.Placement.solve
        ~options:Wishbone.Rate_search.default_search_options
        (Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate s r))
    with
    | Wishbone.Placement.Partitioned _ -> true
    | _ -> false
  in
  let rates = [ 0.25; 0.5; 1.; 2.; 4.; 8. ] in
  let flags = List.map feasible rates in
  let rec monotone = function
    | false :: rest -> List.for_all not rest
    | _ :: rest -> monotone rest
    | [] -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "feasibility ladder %s is monotone"
       (String.concat ""
          (List.map (fun b -> if b then "1" else "0") flags)))
    true (monotone flags)

let () =
  (* the pivot counter is process-wide; start every suite from a
     clean slate so no test depends on which suite ran before it *)
  Lp.Simplex.reset_cumulative_pivots ();
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [
      ("pivot_accounting", [ tc "single source of truth" test_pivot_accounting ]);
      ( "certificate",
        [
          tc "accepts valid solves" test_certificate_accepts_valid;
          tc "catches a suboptimal solver" test_certificate_catches_suboptimal;
          tc "catches corrupt solutions" test_certificate_catches_corrupt_solution;
          tc "catches corrupt bases" test_certificate_catches_corrupt_basis;
        ] );
      ( "generators",
        [
          tc "deterministic by seed" test_generators_deterministic;
          tc "random cuts are single-crossing" test_random_cut_single_crossing;
        ] );
      ( "shrink",
        [
          tc "lp minimised" test_shrink_lp_minimises;
          tc "spec minimised" test_shrink_spec_minimises;
        ] );
      ( "fuzz",
        [
          tc "bounded pass" test_fuzz_bounded_pass;
          tc "replay is deterministic" test_fuzz_replay_deterministic;
          tc "oracles pass directly" test_oracles_pass_directly;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_preprocess_invariant ] );
      ( "rate_search",
        [
          tc "infeasible at every rate" test_rate_search_infeasible_everywhere;
          tc "feasible at full rate" test_rate_search_feasible_at_full_rate;
          tc "feasibility monotone in rate" test_rate_search_feasibility_monotone;
        ] );
    ]
