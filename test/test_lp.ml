(* LP / ILP solver tests: hand-checked instances plus randomized
   comparison against exhaustive oracles. *)

open Lp

let check_close ?(tol = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* a cold or warm solve of a problem compiled on the spot *)
let solve_warm ?warm ?lo ?hi p =
  Sparse.solve_warm ?warm ?lo ?hi (Sparse.of_problem p)

let solve_lp p =
  match Sparse.solve p with
  | Solution.Optimal s -> s
  | st -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st

(* ---- basic LPs ---- *)

let test_lp_basic () =
  (* max 3x + 2y st x+y<=4, x+3y<=6 -> (4,0), obj 12 *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 4.;
  Problem.add_constr p [ (x, 1.); (y, 3.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (x, 3.); (y, 2.) ];
  let s = solve_lp p in
  check_close "objective" 12. s.objective;
  check_close "x" 4. s.x.(x);
  check_close "y" 0. s.x.(y)

let test_lp_degenerate () =
  (* multiple optimal bases; classic degeneracy *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 1.;
  Problem.add_constr p [ (x, 1.) ] Problem.Le 1.;
  Problem.add_constr p [ (x, 2.); (y, 2.) ] Problem.Le 2.;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1. s.objective

let test_lp_equality () =
  (* min x + y st x + 2y = 3, x,y >= 0 -> y=1.5, obj 1.5 *)
  let p = Problem.create () in
  let x = Problem.add_var p and y = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Eq 3.;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1.5 s.objective

let test_lp_negative_rhs () =
  (* constraints with negative rhs exercise the row-flip path *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:(-10.) ~hi:10. p in
  Problem.add_constr p [ (x, -1.) ] Problem.Le 5.;  (* x >= -5 *)
  Problem.set_objective p Problem.Minimize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" (-5.) s.x.(x)

let test_lp_upper_bounds () =
  (* optimum at a variable's upper bound (bound-flip machinery) *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:3. p and y = Problem.add_var ~hi:2. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 10.;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 5.) ];
  let s = solve_lp p in
  check_close "objective" 13. s.objective;
  check_close "x" 3. s.x.(x);
  check_close "y" 2. s.x.(y)

let test_lp_free_negative_lo () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:(-4.) ~hi:(-1.) p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" (-1.) s.x.(x)

let test_lp_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 1.) ] Problem.Ge 2.;
  match Sparse.solve p with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_lp_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  match Sparse.solve p with
  | Solution.Unbounded -> ()
  | st -> Alcotest.failf "expected unbounded, got %a" Solution.pp_status st

let test_lp_no_constraints () =
  (* optimum determined purely by bounds *)
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2. ~hi:7. p in
  Problem.set_objective p Problem.Minimize [ (x, 3.) ];
  let s = solve_lp p in
  check_close "objective" 6. s.objective

let test_lp_fixed_var () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2. ~hi:2. p in
  let y = Problem.add_var ~hi:5. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (y, 1.) ];
  let s = solve_lp p in
  check_close "y" 4. s.x.(y)

let test_lp_duplicate_terms () =
  (* duplicate variable indices in a constraint must be summed *)
  let p = Problem.create () in
  let x = Problem.add_var p in
  Problem.add_constr p [ (x, 1.); (x, 1.) ] Problem.Le 4.;  (* 2x <= 4 *)
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s = solve_lp p in
  check_close "x" 2. s.x.(x)

let test_lp_bound_override () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. p in
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s =
    match Sparse.solve ~lo:[| 0. |] ~hi:[| 3. |] p with
    | Solution.Optimal s -> s
    | st -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st
  in
  check_close "x" 3. s.x.(0);
  (* the original problem is untouched *)
  let s2 = solve_lp p in
  check_close "x orig" 10. s2.x.(0)

let test_lp_conflicting_override () =
  let p = Problem.create () in
  let _ = Problem.add_var ~hi:10. p in
  match Sparse.solve ~lo:[| 5. |] ~hi:[| 3. |] p with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_lp_mixed_scale () =
  (* a vacuous huge budget next to a tight small one: the regression
     that once let infeasible branch-and-bound children pass *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p and y = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 2.); (y, 2.) ] Problem.Le 2.;
  Problem.add_constr p [ (x, 8.); (y, 4.) ] Problem.Le 1e9;
  Problem.set_objective p Problem.Maximize [ (x, 1.); (y, 1.) ];
  let s = solve_lp p in
  check_close "objective" 1. s.objective;
  match Sparse.solve ~lo:[| 1.; 1. |] ~hi:[| 1.; 1. |] p with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

(* ---- ILP ---- *)

let solve_ilp p =
  match Branch_bound.solve p with
  | Solution.Optimal s, stats -> (s, stats)
  | st, _ -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st

let test_ilp_knapsack () =
  let p = Problem.create () in
  let a = Problem.add_var ~hi:1. ~integer:true p in
  let b = Problem.add_var ~hi:1. ~integer:true p in
  let c = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (a, 5.); (b, 4.); (c, 3.) ] Problem.Le 8.;
  Problem.set_objective p Problem.Maximize [ (a, 10.); (b, 6.); (c, 4.) ];
  let s, stats = solve_ilp p in
  check_close "objective" 14. s.objective;
  Alcotest.(check bool) "proved" true stats.proved_optimal

let test_ilp_integrality_matters () =
  (* LP relaxation is 2.5; integer optimum is 2 *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. ~integer:true p in
  Problem.add_constr p [ (x, 2.) ] Problem.Le 5.;
  Problem.set_objective p Problem.Maximize [ (x, 1.) ];
  let s, _ = solve_ilp p in
  check_close "x" 2. s.x.(x)

let test_ilp_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. ~integer:true p in
  let y = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Ge 3.;
  match Branch_bound.solve p with
  | Solution.Infeasible, _ -> ()
  | st, _ -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_ilp_gap_between_lp_and_ip () =
  (* equality forcing x + 2y = 3 with binaries: only (1,1) works *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. ~integer:true p in
  let y = Problem.add_var ~hi:1. ~integer:true p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Eq 3.;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let s, _ = solve_ilp p in
  check_close "x" 1. s.x.(x);
  check_close "y" 1. s.x.(y)

let test_ilp_mixed_integer () =
  (* one integer, one continuous *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. ~integer:true p in
  let y = Problem.add_var ~hi:10. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 4.5;
  Problem.set_objective p Problem.Maximize [ (x, 2.); (y, 1.) ];
  let s, _ = solve_ilp p in
  check_close "objective" 8.5 s.objective;
  check_close "x" 4. s.x.(x)

let test_ilp_incumbent_trace () =
  let p = Problem.create () in
  let vars = Array.init 8 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.map (fun v -> (v, 1.)) vars))
    Problem.Le 4.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (i + 1))) vars));
  let s, stats = solve_ilp p in
  check_close "objective" 26. s.objective;
  Alcotest.(check bool) "trace nonempty" true (stats.incumbent_trace <> []);
  Alcotest.(check bool)
    "incumbent time <= total" true
    (stats.time_to_incumbent <= stats.time_total +. 1e-9)

(* ---- warm starts ---- *)

let test_warm_bound_change () =
  (* max 2x + 3y st x + 2y <= 6, x <= 4, y <= 3 -> (4, 1), obj 11;
     then tighten x <= 2 and re-solve from the optimal basis *)
  let p = Problem.create () in
  let x = Problem.add_var ~hi:4. p and y = Problem.add_var ~hi:3. p in
  Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Le 6.;
  Problem.set_objective p Problem.Maximize [ (x, 2.); (y, 3.) ];
  let r = solve_warm p in
  check_close "cold objective" 11. (Solution.get r.Simplex.status).objective;
  let basis =
    match r.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "optimal solve returned no basis"
  in
  let lo = [| 0.; 0. |] and hi = [| 2.; 3. |] in
  let w = solve_warm ~warm:basis ~lo ~hi p in
  Alcotest.(check bool) "warm basis accepted" true w.Simplex.warm_used;
  (* x <= 2 -> (2, 2), obj 10 *)
  check_close "warm objective" 10. (Solution.get w.Simplex.status).objective;
  let c = solve_warm ~lo ~hi p in
  check_close "warm = cold"
    (Solution.get c.Simplex.status).objective
    (Solution.get w.Simplex.status).objective

let test_warm_detects_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:1. p and y = Problem.add_var ~hi:1. p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Ge 1.5;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
  let r = solve_warm p in
  let basis = Option.get r.Simplex.basis in
  (* x, y <= 0.5 makes the covering constraint unsatisfiable *)
  let w = solve_warm ~warm:basis ~lo:[| 0.; 0. |] ~hi:[| 0.5; 0.5 |] p in
  match w.Simplex.status with
  | Solution.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Solution.pp_status st

let test_warm_rescaled_coefficients () =
  (* rate-search shape: same structure, uniformly scaled data *)
  let build scale =
    let p = Problem.create () in
    let x = Problem.add_var ~hi:1. ~integer:true p in
    let y = Problem.add_var ~hi:1. ~integer:true p in
    let z = Problem.add_var ~hi:1. ~integer:true p in
    Problem.add_constr p
      [ (x, 5. *. scale); (y, 4. *. scale); (z, 3. *. scale) ]
      Problem.Le 8.;
    Problem.set_objective p Problem.Maximize [ (x, 10.); (y, 6.); (z, 4.) ];
    p
  in
  let r = solve_warm (build 1.) in
  let basis = Option.get r.Simplex.basis in
  let p2 = build 1.7 in
  let w = solve_warm ~warm:basis p2 in
  let c = solve_warm p2 in
  check_close "rescaled warm = cold"
    (Solution.get c.Simplex.status).objective
    (Solution.get w.Simplex.status).objective

let test_fractional_var_most_fractional () =
  let fv = Branch_bound.fractional_var ~int_tol:1e-6 in
  (* 2.45 is closest to .5 away from an integer: distances .1, .45, .1 *)
  (match fv [ 0; 1; 2 ] [| 0.1; 2.45; 3.9 |] with
  | Some 1 -> ()
  | Some v -> Alcotest.failf "expected var 1 (most fractional), got %d" v
  | None -> Alcotest.fail "expected a fractional var");
  (* ties break towards the lowest index: .3 vs .3 *)
  (match fv [ 0; 1 ] [| 1.3; 2.7 |] with
  | Some 0 -> ()
  | Some v -> Alcotest.failf "tie should pick var 0, got %d" v
  | None -> Alcotest.fail "expected a fractional var");
  (* integral vectors have no branching candidate *)
  match fv [ 0; 1 ] [| 1.0; 2.0 |] with
  | None -> ()
  | Some v -> Alcotest.failf "integral point, but picked %d" v

(* ---- randomized: B&B vs brute force ---- *)

let random_problem seed =
  let rng = Prng.create seed in
  let p = Problem.create () in
  let n = 3 + Prng.int rng 6 in
  let vars =
    Array.init n (fun _ ->
        Problem.add_var ~hi:(Float.of_int (1 + Prng.int rng 3)) ~integer:true p)
  in
  let m = 1 + Prng.int rng 4 in
  for _ = 1 to m do
    let terms =
      Array.to_list
        (Array.map (fun v -> (v, Float.of_int (Prng.int rng 7 - 3))) vars)
    in
    let sense = if Prng.bool rng 0.8 then Problem.Le else Problem.Ge in
    let rhs = Float.of_int (Prng.int rng 10 - 2) in
    Problem.add_constr p terms sense rhs
  done;
  let dir = if Prng.bool rng 0.5 then Problem.Maximize else Problem.Minimize in
  Problem.set_objective p dir
    (Array.to_list
       (Array.map (fun v -> (v, Float.of_int (Prng.int rng 11 - 5))) vars));
  p

let prop_bb_matches_brute =
  QCheck.Test.make ~count:300 ~name:"branch&bound matches brute force"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_problem seed in
      let bb, _ = Branch_bound.solve p in
      let brute = Brute.solve p in
      match (bb, brute) with
      | Solution.Optimal a, Solution.Optimal b ->
          if Float.abs (a.objective -. b.objective) > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: bb=%.9g brute=%.9g" seed
              a.objective b.objective
          else if Problem.constraint_violation p a.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: bb solution infeasible" seed
          else true
      | Solution.Infeasible, Solution.Infeasible -> true
      | Solution.Unbounded, Solution.Unbounded -> true
      | a, b ->
          QCheck.Test.fail_reportf "seed %d: bb=%a brute=%a" seed
            Solution.pp_status a Solution.pp_status b)

let random_lp seed =
  let rng = Prng.create seed in
  let p = Problem.create () in
  let n = 2 + Prng.int rng 5 in
  let vars =
    Array.init n (fun _ -> Problem.add_var ~hi:(Prng.uniform rng 1. 10.) p)
  in
  for _ = 1 to 1 + Prng.int rng 4 do
    let terms =
      Array.to_list (Array.map (fun v -> (v, Prng.uniform rng (-3.) 3.)) vars)
    in
    Problem.add_constr p terms Problem.Le (Prng.uniform rng 0. 10.)
  done;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.map (fun v -> (v, Prng.uniform rng (-2.) 5.)) vars));
  p

let prop_lp_feasible_optimal =
  QCheck.Test.make ~count:300 ~name:"simplex returns feasible points"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_lp seed in
      match Sparse.solve p with
      | Solution.Optimal s ->
          if Problem.constraint_violation p s.x > 1e-5 then
            QCheck.Test.fail_reportf "seed %d: violation %g" seed
              (Problem.constraint_violation p s.x)
          else Float.abs (Problem.objective_value p s.x -. s.objective) < 1e-5
      | Solution.Infeasible -> true
      | Solution.Unbounded | Solution.Iteration_limit -> true)

let prop_lp_relaxation_bounds_ilp =
  QCheck.Test.make ~count:200 ~name:"LP relaxation bounds the ILP optimum"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_problem seed in
      match (Sparse.solve p, Branch_bound.solve p) with
      | Solution.Optimal lp, (Solution.Optimal ip, _) -> (
          match Problem.direction p with
          | Problem.Maximize -> lp.objective >= ip.objective -. 1e-5
          | Problem.Minimize -> lp.objective <= ip.objective +. 1e-5)
      | _ -> true)

(* ---- randomized: warm-started vs cold solves ---- *)

let prop_warm_lp_matches_cold =
  QCheck.Test.make ~count:300 ~name:"warm-started LP matches cold solve"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_lp seed in
      match solve_warm p with
      | { Simplex.status = Solution.Optimal _; basis = Some b; _ } -> (
          (* tighten a few bounds, as branch & bound would *)
          let rng = Prng.create (seed + 77) in
          let vars = Problem.vars p in
          let n = Array.length vars in
          let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
          let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
          for _ = 1 to 1 + Prng.int rng 2 do
            let v = Prng.int rng n in
            if Prng.bool rng 0.5 then
              hi.(v) <- Float.max lo.(v) (hi.(v) /. 2.)
            else lo.(v) <- lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.)
          done;
          let w = solve_warm ~warm:b ~lo ~hi p in
          let c = solve_warm ~lo ~hi p in
          let agree tag (a : Simplex.result) =
            match (a.Simplex.status, c.Simplex.status) with
            | Solution.Optimal a, Solution.Optimal b2 ->
                if Float.abs (a.objective -. b2.objective) > 1e-5 then
                  QCheck.Test.fail_reportf "seed %d: %s=%.9g cold=%.9g" seed
                    tag a.objective b2.objective
                else true
            | Solution.Infeasible, Solution.Infeasible -> true
            | a, b2 ->
                QCheck.Test.fail_reportf "seed %d: %s=%a cold=%a" seed tag
                  Solution.pp_status a Solution.pp_status b2
          in
          agree "warm" w)
      | _ -> true)

(* ---- sparse revised simplex ---- *)

let certified seed tag ?lo ?hi p (r : Simplex.result) =
  match Check.Certificate.check_result ?lo ?hi p r with
  | Check.Certificate.Valid -> true
  | v ->
      QCheck.Test.fail_reportf "seed %d: %s %a: %a" seed tag Solution.pp_status
        r.Simplex.status Check.Certificate.pp_verdict v

(* Ground truth for the LP engine on random LPs: every answer, cold
   and warm-started after a branch & bound-style bound tightening,
   carries its certificate — a dual certificate when optimal, the
   elastic LP when infeasible, a growing box when unbounded. *)
let prop_sparse_certified =
  QCheck.Test.make ~count:1000 ~name:"sparse simplex answers certify (cold+warm)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = Check.Gen.lp rng ~size:(3 + (seed mod 26)) in
      let data = Sparse.of_problem p in
      let cold = Sparse.solve_warm data in
      certified seed "cold" p cold
      &&
      match cold.Simplex.basis with
      | Some b ->
          let vars = Problem.vars p in
          let n = Array.length vars in
          let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
          let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
          let v = Prng.int rng n in
          if Prng.bool rng 0.5 then
            hi.(v) <- Float.max lo.(v) (lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.))
          else lo.(v) <- lo.(v) +. Float.min 2. ((hi.(v) -. lo.(v)) /. 2.);
          certified seed "warm" ~lo ~hi p (Sparse.solve_warm ~warm:b ~lo ~hi data)
      | None -> true)

(* Forrest–Tomlin updates against a fresh refactorisation of the same
   basis: random sparse CSC with an identity head (so a nonsingular
   start exists), a run of random column replacements through
   {!Factor.update}, then FTRAN/BTRAN compared against a from-scratch
   {!Factor.factorize} of the final basis.  The two factors may pivot
   the same columns at different rows, so FTRAN coefficients are
   compared per column and BTRAN inputs are built through each
   factor's own slot convention. *)
let test_ft_update_vs_refresh () =
  let rng = Prng.create 42 in
  for _trial = 1 to 400 do
    let m = 3 + Prng.int rng 20 in
    let extra = 2 + Prng.int rng 20 in
    let ncols = m + extra in
    let cols =
      Array.init ncols (fun j ->
          if j < m then [ (j, 1.) ]
          else begin
            let nnz = 1 + Prng.int rng 4 in
            let seen = Hashtbl.create 4 in
            let l = ref [] in
            for _ = 1 to nnz do
              let i = Prng.int rng m in
              if not (Hashtbl.mem seen i) then begin
                Hashtbl.add seen i ();
                l := (i, Prng.uniform rng (-2.) 2.) :: !l
              end
            done;
            List.sort compare !l
          end)
    in
    let nnz = Array.fold_left (fun a l -> a + List.length l) 0 cols in
    let ptr = Array.make (ncols + 1) 0 in
    for j = 0 to ncols - 1 do
      ptr.(j + 1) <- ptr.(j) + List.length cols.(j)
    done;
    let idx = Array.make (Int.max 1 nnz) 0 in
    let vs = Array.make (Int.max 1 nnz) 0. in
    Array.iteri
      (fun j l ->
        List.iteri
          (fun k (i, v) ->
            idx.(ptr.(j) + k) <- i;
            vs.(ptr.(j) + k) <- v)
          l)
      cols;
    let basis = Array.init m (fun i -> i) in
    let f = Factor.create ~m in
    Alcotest.(check bool)
      "identity head factorises" true
      (Factor.factorize f ~basis ~ptr ~idx ~vs);
    let in_basis = Array.make ncols false in
    Array.iter (fun j -> in_basis.(j) <- true) basis;
    let n_updates = 1 + Prng.int rng 30 in
    let w = Array.make m 0. in
    (try
       for _ = 1 to n_updates do
         let q = ref (Prng.int rng ncols) in
         let guard = ref 0 in
         while in_basis.(!q) && !guard < 100 do
           q := Prng.int rng ncols;
           incr guard
         done;
         if not in_basis.(!q) then begin
           let q = !q in
           Array.fill w 0 m 0.;
           for p = ptr.(q) to ptr.(q + 1) - 1 do
             w.(idx.(p)) <- vs.(p)
           done;
           Factor.ftran f w;
           (* largest |w| row as pivot: always numerically acceptable *)
           let r = ref (-1) in
           let mag = ref 1e-6 in
           for i = 0 to m - 1 do
             if Float.abs w.(i) > !mag then begin
               mag := Float.abs w.(i);
               r := i
             end
           done;
           if !r >= 0 then begin
             Factor.update f ~w ~r:!r;
             in_basis.(basis.(!r)) <- false;
             basis.(!r) <- q;
             in_basis.(q) <- true;
             if Factor.needs_refresh f then raise Exit
           end
         end
       done
     with Exit -> ());
    let basis2 = Array.copy basis in
    let g = Factor.create ~m in
    if Factor.factorize g ~basis:basis2 ~ptr ~idx ~vs then begin
      let b = Array.init m (fun _ -> Prng.uniform rng (-1.) 1.) in
      let x1 = Array.copy b in
      let x2 = Array.copy b in
      Factor.ftran f x1;
      Factor.ftran g x2;
      let coef1 = Hashtbl.create m and coef2 = Hashtbl.create m in
      for r = 0 to m - 1 do
        Hashtbl.replace coef1 basis.(r) x1.(r);
        Hashtbl.replace coef2 basis2.(r) x2.(r)
      done;
      Hashtbl.iter
        (fun c v ->
          let v2 = try Hashtbl.find coef2 c with Not_found -> nan in
          if Float.abs (v -. v2) > 1e-6 || Float.is_nan v2 then
            Alcotest.failf
              "m=%d: FTRAN coefficient of column %d drifted: %.9g vs fresh \
               %.9g"
              m c v v2)
        coef1;
      let cost = Array.init ncols (fun _ -> Prng.uniform rng (-1.) 1.) in
      let y1 = Array.init m (fun r -> cost.(basis.(r))) in
      let y2 = Array.init m (fun r -> cost.(basis2.(r))) in
      Factor.btran f y1;
      Factor.btran g y2;
      for i = 0 to m - 1 do
        if Float.abs (y1.(i) -. y2.(i)) > 1e-6 then
          Alcotest.failf "m=%d: BTRAN row %d drifted: %.9g vs fresh %.9g" m i
            y1.(i) y2.(i)
      done
    end
  done

(* A factor snapshot must replay the identical factorisation: restore
   into a workspace whose state was clobbered by other work, and both
   FTRAN and BTRAN must agree exactly with the factor that was saved. *)
let test_factor_snapshot_roundtrip () =
  let m = 12 in
  let ncols = 2 * m in
  (* identity head, then diagonally dominant columns: any mix of the
     two factorises *)
  let cols =
    Array.init ncols (fun j ->
        if j < m then [ (j, 1.) ]
        else
          List.sort compare [ (j - m, 2.); ((j - m + 1) mod m, 0.5) ])
  in
  let nnz = Array.fold_left (fun a l -> a + List.length l) 0 cols in
  let ptr = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    ptr.(j + 1) <- ptr.(j) + List.length cols.(j)
  done;
  let idx = Array.make nnz 0 and vs = Array.make nnz 0. in
  Array.iteri
    (fun j l ->
      List.iteri
        (fun k (i, v) ->
          idx.(ptr.(j) + k) <- i;
          vs.(ptr.(j) + k) <- v)
        l)
    cols;
  let basis = Array.init m (fun i -> if i mod 2 = 0 then i else m + i) in
  let f = Factor.create ~m in
  Alcotest.(check bool) "factorises" true (Factor.factorize f ~basis ~ptr ~idx ~vs);
  let snap = Factor.snapshot_create ~m in
  Factor.save f snap;
  let probe = Array.init m (fun i -> Float.of_int (i + 1) /. 7.) in
  let want_f = Array.copy probe in
  Factor.ftran f want_f;
  let want_b = Array.copy probe in
  Factor.btran f want_b;
  (* clobber the workspace with a different basis, then restore *)
  let other = Array.init m (fun i -> i) in
  Alcotest.(check bool) "clobber factorises" true
    (Factor.factorize f ~basis:other ~ptr ~idx ~vs);
  Factor.restore snap f;
  let got_f = Array.copy probe in
  Factor.ftran f got_f;
  let got_b = Array.copy probe in
  Factor.btran f got_b;
  for i = 0 to m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "ftran slot %d identical" i)
      true
      (Float.equal want_f.(i) got_f.(i));
    Alcotest.(check bool)
      (Printf.sprintf "btran slot %d identical" i)
      true
      (Float.equal want_b.(i) got_b.(i))
  done

(* Sessions are a pure performance vehicle: a sequence of warm
   bound-tightened solves through one session must return bit-identical
   results to fresh per-solve state. *)
let test_sparse_session_identical () =
  let rng = Prng.create 11 in
  for case = 1 to 40 do
    let p = Check.Gen.lp rng ~size:(4 + (case mod 20)) in
    let data = Sparse.of_problem p in
    let ses = Sparse.session data in
    let r0 = Sparse.solve_warm data in
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Solution.Optimal _, Some warm ->
        let vars = Problem.vars p in
        let n = Array.length vars in
        let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
        let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
        for _round = 1 to 6 do
          let v = Prng.int rng n in
          if Prng.bool rng 0.5 then
            hi.(v) <- Float.max lo.(v) (lo.(v) +. ((hi.(v) -. lo.(v)) /. 2.))
          else lo.(v) <- lo.(v) +. Float.min 2. ((hi.(v) -. lo.(v)) /. 2.);
          let plain = Sparse.solve_warm ~warm ~lo ~hi data in
          let pooled = Sparse.solve_warm ~warm ~lo ~hi ~session:ses data in
          (match (plain.Simplex.status, pooled.Simplex.status) with
          | Solution.Optimal a, Solution.Optimal b ->
              if not (Float.equal a.objective b.objective && a.x = b.x) then
                Alcotest.failf
                  "case %d: session solve diverged: %.17g vs %.17g" case
                  a.objective b.objective
          | a, b ->
              if a <> b then
                Alcotest.failf "case %d: session status diverged" case);
          Alcotest.(check bool)
            "same warm acceptance" plain.Simplex.warm_used
            pooled.Simplex.warm_used
        done
    | _ -> ()
  done

let test_sparse_edge_cases () =
  (* equality rows, negative bounds, duplicate terms, an infeasible
     system, and an unbounded ray: each answer has the expected status
     and passes the certificate *)
  let check_pair name ?(want = "optimal") build =
    let p = build () in
    let r = solve_warm p in
    let got = Format.asprintf "%a" Solution.pp_status r.Simplex.status in
    if not (String.starts_with ~prefix:want got) then
      Alcotest.failf "%s: expected %s, got %s" name want got;
    match Check.Certificate.check_result p r with
    | Check.Certificate.Valid -> ()
    | v ->
        Alcotest.failf "%s: %a" name Check.Certificate.pp_verdict v
  in
  check_pair "equality" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var p and y = Problem.add_var p in
      Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Eq 4.;
      Problem.add_constr p [ (x, 1.); (y, -1.) ] Problem.Le 1.;
      Problem.set_objective p Problem.Maximize [ (x, 3.); (y, 1.) ];
      p);
  check_pair "negative domain" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~lo:(-5.) ~hi:5. p in
      let y = Problem.add_var ~lo:(-3.) ~hi:0. p in
      Problem.add_constr p [ (x, 1.); (y, 2.) ] Problem.Ge (-4.);
      Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 1.) ];
      p);
  check_pair "duplicate terms" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:10. p in
      Problem.add_constr p [ (x, 1.); (x, 1.) ] Problem.Le 6.;
      Problem.set_objective p Problem.Maximize [ (x, 1.) ];
      p);
  check_pair "infeasible" ~want:"infeasible" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:1. p in
      Problem.add_constr p [ (x, 1.) ] Problem.Ge 2.;
      p);
  check_pair "unbounded" ~want:"unbounded" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var p in
      Problem.set_objective p Problem.Maximize [ (x, 1.) ];
      p);
  check_pair "no constraints" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:7. p in
      Problem.set_objective p Problem.Maximize [ (x, 2.) ];
      p);
  check_pair "mixed row scales" (fun () ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:100. p and y = Problem.add_var ~hi:100. p in
      Problem.add_constr p [ (x, 4000.); (y, 1200.) ] Problem.Le 120_000.;
      Problem.add_constr p [ (x, 0.002); (y, 0.009) ] Problem.Le 0.4;
      Problem.set_objective p Problem.Maximize [ (x, 5.); (y, 4.) ];
      p)

(* A pivot tolerance wider than a row's coefficient on x lets the
   ratio test skip the row: x jumps to its upper bound of 1000, which
   leaves the row 240 over its right-hand side (alone on the row) or
   its other column y at -240 (with y on the row).  The endpoint check
   declines, and the cold retry meets the same tolerances and declines
   too.  With no verified answer left the solve must say so, not
   return the point. *)
let test_sparse_retry_gives_up () =
  let options = { Simplex.default_options with feas_tol = 0.5 } in
  List.iter
    (fun with_y ->
      let p = Problem.create () in
      let x = Problem.add_var ~hi:1000. p in
      let row =
        if with_y then [ (x, 0.25); (Problem.add_var p, 1.) ] else [ (x, 0.25) ]
      in
      Problem.add_constr p row Problem.Le 10.;
      Problem.set_objective p Problem.Maximize [ (x, 1.) ];
      let before = (Sparse.counters ()).Sparse.retries in
      let r = Sparse.solve_warm ~options (Sparse.of_problem p) in
      Alcotest.(check bool) "the retry ran" true
        ((Sparse.counters ()).Sparse.retries > before);
      (match (r.Simplex.status, Check.Certificate.check_result p r) with
      | Solution.Iteration_limit, _ | _, Check.Certificate.Valid -> ()
      | st, v ->
          Alcotest.failf "unverified %a: %a" Solution.pp_status st
            Check.Certificate.pp_verdict v);
      (* the default tolerances solve it: x = 40 *)
      check_close "default options" 40. (solve_lp p).objective)
    [ false; true ]

let test_sparse_basis_roundtrip () =
  (* an optimal basis warm-starts a re-solve of the same problem,
     which accepts it and returns the same optimal basis *)
  let p = Problem.create () in
  let vars = Array.init 8 (fun _ -> Problem.add_var ~hi:4. p) in
  Array.iteri
    (fun i v ->
      Problem.add_constr p
        [ (v, 1.); (vars.((i + 1) mod 8), 1.) ]
        Problem.Le 5.)
    vars;
  Problem.set_objective p Problem.Maximize
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (1 + (i mod 3)))) vars));
  let data = Sparse.of_problem p in
  let s = Sparse.solve_warm data in
  let sb =
    match s.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "sparse solve returned no basis"
  in
  let s2 = Sparse.solve_warm ~warm:sb data in
  Alcotest.(check bool) "warm basis accepted" true s2.Simplex.warm_used;
  (* the same basic columns and resting bounds; refactorising may
     permute which row each basic column sits in *)
  Alcotest.(check bool) "same basis back" true
    (Option.map (fun b -> b.Basis.stat) s2.Simplex.basis = Some sb.Basis.stat);
  check_close "objectives agree"
    (Solution.get s.Simplex.status).objective
    (Solution.get s2.Simplex.status).objective

(* ---- branch & bound against ground truth ---- *)

let test_bb_deterministic () =
  (* same problem, twice: bit-identical solution vectors *)
  let p = random_problem 4242 in
  match (Branch_bound.solve p, Branch_bound.solve p) with
  | (Solution.Optimal a, _), (Solution.Optimal b, _) ->
      Alcotest.(check bool) "reproducible" true
        (a.x = b.x && a.objective = b.objective)
  | (a, _), (b, _) ->
      Alcotest.(check string) "same status"
        (Format.asprintf "%a" Solution.pp_status a)
        (Format.asprintf "%a" Solution.pp_status b)

let test_bb_knapsack () =
  let p = Problem.create () in
  let vars = Array.init 12 (fun _ -> Problem.add_var ~hi:1. ~integer:true p) in
  Problem.add_constr p
    (Array.to_list (Array.mapi (fun i v -> (v, Float.of_int (i + 2))) vars))
    Problem.Le 31.;
  Problem.set_objective p Problem.Maximize
    (Array.to_list
       (Array.mapi (fun i v -> (v, Float.of_int ((i * 5 mod 13) + 1))) vars));
  (* exhaustive enumeration against branch & bound *)
  let robj = (Solution.get (Brute.solve p)).objective in
  let st, stats = Branch_bound.solve p in
  check_close "optimum" robj (Solution.get st).objective;
  Alcotest.(check bool) "proved" true stats.Branch_bound.proved_optimal

(* ---- delta-encoded node bounds ---- *)

(* Replaying a root-to-leaf delta chain must agree with eagerly
   maintained bound arrays after every tightening, for random chains
   that revisit variables (later deltas shadow earlier ones). *)
let test_delta_bounds_roundtrip () =
  let rng = Prng.create 23 in
  for _case = 1 to 200 do
    let n = 2 + Prng.int rng 10 in
    let lo0 = Array.init n (fun _ -> Float.of_int (Prng.int rng 3)) in
    let hi0 =
      Array.init n (fun i -> lo0.(i) +. Float.of_int (2 + Prng.int rng 6))
    in
    let eager_lo = Array.copy lo0 and eager_hi = Array.copy hi0 in
    let deltas = ref [] in
    let depth = Prng.int rng 12 in
    for _ = 1 to depth do
      let v = Prng.int rng n in
      let bup = Prng.bool rng 0.5 in
      let bval =
        if bup then Float.min eager_hi.(v) (eager_lo.(v) +. 1.)
        else Float.max eager_lo.(v) (eager_hi.(v) -. 1.)
      in
      if bup then eager_lo.(v) <- bval else eager_hi.(v) <- bval;
      (* chains are stored leaf-first and replayed root-first *)
      deltas := { Branch_bound.bvar = v; bup; bval } :: !deltas
    done;
    let lo, hi = Branch_bound.materialise ~lo0 ~hi0 (List.rev !deltas) in
    if not (lo = eager_lo && hi = eager_hi) then
      Alcotest.failf "delta chain of depth %d does not round-trip" depth
  done;
  (* an empty chain must reproduce the root bounds and not alias them *)
  let lo0 = [| 0.; 1. |] and hi0 = [| 5.; 6. |] in
  let lo, hi = Branch_bound.materialise ~lo0 ~hi0 [] in
  Alcotest.(check bool) "empty chain equals root" true (lo = lo0 && hi = hi0);
  lo.(0) <- 99.;
  hi.(0) <- 99.;
  Alcotest.(check bool) "materialised arrays are copies" true
    (lo0.(0) = 0. && hi0.(0) = 5.)

(* ---- pqueue ---- *)


(* ---- presolve / postsolve ---- *)

(* speech at its boundary rate: every supernode ends up pinned by
   propagation, so presolve leaves a 0 x 0 problem and the answer is
   the fixed point itself *)
let test_presolve_fully_fixed () =
  let raw = Apps.Speech.profile ~duration:30. (Apps.Speech.build ()) in
  let spec =
    match
      Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let pl =
    Wishbone.Placement.scale_rate (Wishbone.Placement.of_spec spec)
      0x1.68155d44ca973p-4
  in
  let c = Wishbone.Preprocess.contract pl.Wishbone.Placement.spec in
  let p =
    (Wishbone.Placement.encode Wishbone.Placement.Restricted pl c)
      .Wishbone.Placement.problem
  in
  let pre = Presolve.run p in
  let st = Presolve.stats pre in
  Alcotest.(check (pair int int)) "presolves to 0 x 0" (0, 0)
    (st.Presolve.rows_after, st.Presolve.cols_after);
  let fixed, _ = Presolve.bounds pre in
  match Branch_bound.solve p with
  | Solution.Optimal sol, stats ->
      Alcotest.(check (array (float 0.))) "the fixed point" fixed sol.x;
      check_close "objective at the fixed point"
        (Problem.objective_value p fixed) sol.objective;
      check_close "placement objective" 457.137198 sol.objective;
      Alcotest.(check bool) "proved" true stats.Branch_bound.proved_optimal;
      (match stats.Branch_bound.root_basis with
      | Some b ->
          let lo, hi = Presolve.bounds pre in
          Alcotest.(check bool) "postsolved root basis certifies" true
            (Check.Certificate.check ~lo ~hi p sol b = Check.Certificate.Valid)
      | None -> Alcotest.fail "no root basis")
  | st, _ -> Alcotest.failf "expected optimal, got %a" Solution.pp_status st

(* x + y >= 8 with x + y <= 3: the second row caps both at 3, after
   which the first cannot hold.  The simplex still has the last word,
   on the original problem, and the hook sees one root and nothing
   else *)
let test_presolve_proves_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var ~hi:10. ~integer:true p in
  let y = Problem.add_var ~hi:10. ~integer:true p in
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Ge 8.;
  Problem.add_constr p [ (x, 1.); (y, 1.) ] Problem.Le 3.;
  Problem.set_objective p Problem.Minimize [ (x, 1.); (y, 2.) ];
  let calls = ref [] in
  let options =
    { Branch_bound.default_options with
      on_node = Some (fun ~nodes ~pivots -> calls := (nodes, pivots) :: !calls)
    }
  in
  let status, stats = Branch_bound.solve ~options p in
  Alcotest.(check bool) "infeasible" true (status = Solution.Infeasible);
  Alcotest.(check (list (pair int int))) "on_node called once, at the root"
    [ (0, 0) ] !calls;
  Alcotest.(check bool) "propagation proved it" true
    stats.Branch_bound.presolve.Presolve.infeasible;
  Alcotest.(check int) "no node explored" 0 stats.Branch_bound.nodes_explored;
  (* presolve reduces nothing, so the root LP settles the verdict *)
  Alcotest.(check int) "the root LP ran" 1 stats.Branch_bound.lp_solves;
  Alcotest.(check int) "nothing reduced" 2
    stats.Branch_bound.presolve.Presolve.rows_after

(* unbounded columns and equality rows: z = 2 fixes z and turns
   x + z >= 3 into x >= 1 and w + 2z <= 5 into w <= 1, leaving the
   equality x + y = 4 + z over the unbounded x, y *)
let test_presolve_infinite_and_equality () =
  let p = Problem.create () in
  let x = Problem.add_var p in
  let y = Problem.add_var p in
  let z = Problem.add_var ~hi:5. ~integer:true p in
  let w = Problem.add_var ~hi:3. ~integer:true p in
  Problem.add_constr p [ (z, 1.) ] Problem.Eq 2.;
  Problem.add_constr p [ (x, 1.); (z, 1.) ] Problem.Ge 3.;
  Problem.add_constr p [ (x, 1.); (y, 1.); (z, -1.) ] Problem.Eq 4.;
  Problem.add_constr p [ (w, 1.); (z, 2.) ] Problem.Le 5.;
  Problem.set_objective p Problem.Minimize
    [ (x, 2.); (y, 1.); (w, -1.); (z, 1.) ];
  let rendered = Format.asprintf "%a" Problem.pp p in
  let pre = Presolve.run p in
  let st = Presolve.stats pre in
  Alcotest.(check (list int)) "rows, cols, fixed after presolve" [ 1; 3; 1 ]
    [ st.Presolve.rows_after; st.Presolve.cols_after; st.Presolve.cols_fixed ];
  Alcotest.(check (array (float 0.))) "x >= 1 and w <= 1 moved onto bounds"
    [| 1.; 0.; 0. |] (Presolve.lo pre);
  Alcotest.(check (array (float 0.))) "upper bounds"
    [| infinity; infinity; 1. |] (Presolve.hi pre);
  match (Branch_bound.solve p, Brute.solve p) with
  | (Solution.Optimal sol, stats), Solution.Optimal brute ->
      check_close "objective" 8. sol.objective;
      check_close "matches enumeration" brute.objective sol.objective;
      Alcotest.(check (float 0.)) "feasible in the original" 0.
        (Problem.constraint_violation p sol.x);
      let lo, hi = Presolve.bounds pre in
      Alcotest.(check bool) "postsolved root basis certifies" true
        (Check.Certificate.check ~lo ~hi p sol
           (Option.get stats.Branch_bound.root_basis)
        = Check.Certificate.Valid);
      Alcotest.(check string) "the caller's problem is untouched" rendered
        (Format.asprintf "%a" Problem.pp p)
  | _ -> Alcotest.fail "expected optimal"

(* a root basis recorded at one rate warm-starts a rate whose presolve
   fixes a different column set (speech) or keeps a different row set
   (synthetic); the answer must be the cold one *)
let test_presolve_warm_across_rates () =
  let placement spec rate =
    let pl =
      Wishbone.Placement.scale_rate (Wishbone.Placement.of_spec spec) rate
    in
    let c = Wishbone.Preprocess.contract pl.Wishbone.Placement.spec in
    (Wishbone.Placement.encode Wishbone.Placement.Restricted pl c)
      .Wishbone.Placement.problem
  in
  let speech =
    match
      Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky
        (Apps.Speech.profile ~duration:10. (Apps.Speech.build ()))
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let synth = Apps.Synthetic.random_spec ~seed:3 ~n_ops:40 () in
  let pair name spec r1 r2 =
    let p1 = placement spec r1 and p2 = placement spec r2 in
    let shape p =
      let st = Presolve.stats (Presolve.run p) in
      (st.Presolve.cols_fixed, st.Presolve.rows_after)
    in
    if shape p1 = shape p2 then
      Alcotest.failf "%s: rates %g and %g presolve alike" name r1 r2;
    List.iter
      (fun (from_p, to_p) ->
        let basis = (snd (Branch_bound.solve from_p)).Branch_bound.root_basis in
        Alcotest.(check bool) (name ^ ": a root basis to carry") true
          (basis <> None);
        let cold, _ = Branch_bound.solve to_p in
        let warm, _ = Branch_bound.solve ?root_basis:basis to_p in
        match (cold, warm) with
        | Solution.Optimal c, Solution.Optimal w ->
            Alcotest.(check (float 0.)) (name ^ ": objective") c.objective
              w.objective;
            Alcotest.(check (array (float 0.))) (name ^ ": point") c.x w.x
        | c, w ->
            Alcotest.(check bool) (name ^ ": status") true (c = w))
      [ (p1, p2); (p2, p1) ]
  in
  pair "speech" speech 0.01 0.05;
  pair "synthetic" synth 0.05 0.2


(* pinned columns leave the search unchanged: the same knapsack with
   three columns pinned in between the free ones (their weight added
   back to the capacity) must explore the same tree, return the same
   free point, and add exactly the pinned columns' objective — also
   when an incumbent seed makes the bounds do the pruning *)
let test_presolve_pins_keep_search () =
  let values = [| 12.; 11.; 9.; 8.; 7.; 6.; 5.; 4. |] in
  let weights = [| 7.; 6.; 5.; 5.; 4.; 3.; 3.; 2. |] in
  let build ~pinned =
    let p = Problem.create () in
    let terms = ref [] and obj = ref [] and cap = ref 17. in
    let free =
      Array.mapi
        (fun i w ->
          if pinned && i mod 3 = 1 then begin
            (* a pinned column: value 1, weight 2, objective -3 or +7 *)
            let z = Problem.add_var ~lo:1. ~hi:1. ~integer:true p in
            terms := (z, 2.) :: !terms;
            obj := (z, if i = 1 then -3. else 7.) :: !obj;
            cap := !cap +. 2.
          end;
          let x = Problem.add_var ~hi:1. ~integer:true p in
          terms := (x, w) :: !terms;
          obj := (x, values.(i)) :: !obj;
          x)
        weights
    in
    Problem.add_constr p (List.rev !terms) Problem.Le !cap;
    Problem.set_objective p Problem.Maximize (List.rev !obj);
    (p, free)
  in
  let p0, free0 = build ~pinned:false and p1, free1 = build ~pinned:true in
  let s0, st0 = solve_ilp p0 and s1, st1 = solve_ilp p1 in
  Alcotest.(check bool) "a real search" true
    (st0.Branch_bound.nodes_explored > 1);
  Alcotest.(check int) "pins removed" 3
    st1.Branch_bound.presolve.Presolve.cols_fixed;
  Alcotest.(check int) "same tree" st0.Branch_bound.nodes_explored
    st1.Branch_bound.nodes_explored;
  Alcotest.(check int) "same LPs" st0.Branch_bound.lp_solves
    st1.Branch_bound.lp_solves;
  Alcotest.(check (array (float 0.))) "same free point"
    (Array.map (fun x -> s0.x.(x)) free0)
    (Array.map (fun x -> s1.x.(x)) free1);
  check_close "objective plus the pins' constant" (s0.objective +. 11.)
    s1.objective;
  (* a near-optimal incumbent seed (the optimum minus its last item)
     prunes against bounds that must carry the same constant *)
  let seed = Array.map (fun (v : Problem.var_info) -> v.lo) (Problem.vars p1) in
  let chosen =
    List.filter (fun i -> s0.x.(free0.(i)) > 0.5) (List.init 8 Fun.id)
  in
  List.iter
    (fun i -> seed.(free1.(i)) <- 1.)
    (List.filteri (fun k _ -> k < List.length chosen - 1) chosen);
  match Branch_bound.solve ~initial:seed p1 with
  | Solution.Optimal s, _ ->
      check_close "seeded solve finds the optimum" s1.objective s.objective
  | st, _ -> Alcotest.failf "seeded solve: %a" Solution.pp_status st

(* Ground truth on generated instances: branch & bound (which always
   presolves) against the unpresolved simplex on pure LPs and against
   exhaustive enumeration on ILPs.  The postsolved point must satisfy
   the original problem: exactly on the integer-data ILPs, within the
   simplex's feasibility tolerance on the real-valued LPs (20000
   generated LPs stayed under 8e-9). *)
let prop_presolved_lp_matches_simplex =
  QCheck.Test.make ~count:300 ~name:"presolved B&B = simplex on LPs"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = Check.Gen.lp (Prng.create seed) ~size:6 in
      let r = solve_warm p in
      match (fst (Branch_bound.solve p), r.Simplex.status) with
      | Solution.Optimal a, Solution.Optimal b ->
          let tol = 1e-6 *. (1. +. Float.abs b.objective) in
          if Float.abs (a.objective -. b.objective) > tol then
            QCheck.Test.fail_reportf "seed %d: bb=%.9g simplex=%.9g" seed
              a.objective b.objective
          else if Problem.constraint_violation p a.x > 1e-7 then
            QCheck.Test.fail_reportf "seed %d: postsolved point violates by %g"
              seed (Problem.constraint_violation p a.x)
          else true
      | a, b ->
          a = b
          || QCheck.Test.fail_reportf "seed %d: bb=%a simplex=%a" seed
               Solution.pp_status a Solution.pp_status b)

let prop_presolved_ilp_matches_brute =
  QCheck.Test.make ~count:300 ~name:"presolved B&B = enumeration on ILPs"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = Check.Gen.ilp rng ~size:6 in
      (* pin some columns, as placement pins do, so that substitution
         and the objective constant are exercised *)
      Array.iteri
        (fun j (v : Problem.var_info) ->
          if Prng.bool rng 0.3 then
            let span = 1 + int_of_float (v.hi -. v.lo) in
            Problem.fix_var p j (v.lo +. Float.of_int (Prng.int rng span)))
        (Problem.vars p);
      match (fst (Branch_bound.solve p), Brute.optimal_points p) with
      | Solution.Optimal a, Some (obj, points) ->
          let proj =
            Array.of_list (List.map (fun v -> a.x.(v)) (Problem.integer_vars p))
          in
          if Float.abs (a.objective -. obj) > 1e-6 then
            QCheck.Test.fail_reportf "seed %d: bb=%.9g brute=%.9g" seed
              a.objective obj
          else if Problem.constraint_violation p a.x <> 0. then
            QCheck.Test.fail_reportf "seed %d: postsolved point violates by %g"
              seed (Problem.constraint_violation p a.x)
          else
            List.mem proj points
            || QCheck.Test.fail_reportf "seed %d: not an optimal point" seed
      | Solution.Infeasible, None -> true
      | a, _ ->
          QCheck.Test.fail_reportf "seed %d: bb=%a, brute disagrees" seed
            Solution.pp_status a)

let test_pqueue_order () =
  let q = Heap.Pqueue.create () in
  let rng = Prng.create 9 in
  let items = List.init 500 (fun i -> (Prng.float rng, i)) in
  List.iter (fun (k, v) -> Heap.Pqueue.push q k v) items;
  Alcotest.(check int) "length" 500 (Heap.Pqueue.length q);
  let rec drain last acc =
    match Heap.Pqueue.pop q with
    | None -> acc
    | Some (k, _) ->
        if k < last then Alcotest.fail "heap order violated";
        drain k (acc + 1)
  in
  Alcotest.(check int) "drained" 500 (drain neg_infinity 0)

let test_pqueue_empty () =
  let q = Heap.Pqueue.create () in
  Alcotest.(check bool) "empty" true (Heap.Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Heap.Pqueue.pop q = None);
  Alcotest.(check bool) "min none" true (Heap.Pqueue.min_key q = None)

let () =
  (* the pivot counter is process-wide; start every suite from a
     clean slate so no test depends on which suite ran before it
     (asserted centrally in test_check.ml) *)
  Lp.Simplex.reset_cumulative_pivots ();
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          tc "basic max" test_lp_basic;
          tc "degenerate" test_lp_degenerate;
          tc "equality" test_lp_equality;
          tc "negative rhs" test_lp_negative_rhs;
          tc "upper bounds" test_lp_upper_bounds;
          tc "negative domain" test_lp_free_negative_lo;
          tc "infeasible" test_lp_infeasible;
          tc "unbounded" test_lp_unbounded;
          tc "no constraints" test_lp_no_constraints;
          tc "fixed variable" test_lp_fixed_var;
          tc "duplicate terms" test_lp_duplicate_terms;
          tc "bound override" test_lp_bound_override;
          tc "conflicting override" test_lp_conflicting_override;
          tc "mixed scale budgets" test_lp_mixed_scale;
        ] );
      ( "branch_bound",
        [
          tc "knapsack" test_ilp_knapsack;
          tc "integrality matters" test_ilp_integrality_matters;
          tc "infeasible" test_ilp_infeasible;
          tc "equality binaries" test_ilp_gap_between_lp_and_ip;
          tc "mixed integer" test_ilp_mixed_integer;
          tc "incumbent trace" test_ilp_incumbent_trace;
        ] );
      ( "warm_start",
        [
          tc "bound change" test_warm_bound_change;
          tc "detects infeasible" test_warm_detects_infeasible;
          tc "rescaled coefficients" test_warm_rescaled_coefficients;
          tc "most-fractional branching" test_fractional_var_most_fractional;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bb_matches_brute;
          QCheck_alcotest.to_alcotest prop_lp_feasible_optimal;
          QCheck_alcotest.to_alcotest prop_lp_relaxation_bounds_ilp;
          QCheck_alcotest.to_alcotest prop_warm_lp_matches_cold;
        ] );
      ( "sparse",
        [
          tc "edge cases" test_sparse_edge_cases;
          tc "basis round-trip" test_sparse_basis_roundtrip;
          tc "session bit-identical" test_sparse_session_identical;
          tc "cold retry gives up unverified" test_sparse_retry_gives_up;
          QCheck_alcotest.to_alcotest prop_sparse_certified;
        ] );
      ( "factor",
        [
          tc "FT updates vs fresh refactorise" test_ft_update_vs_refresh;
          tc "snapshot round-trip" test_factor_snapshot_roundtrip;
        ] );
      (* the group keeps its historical name so test ids stay stable *)
      ( "parallel",
        [
          tc "knapsack all engines" test_bb_knapsack;
          tc "deterministic" test_bb_deterministic;
          tc "delta bounds round-trip" test_delta_bounds_roundtrip;
        ] );
      ( "presolve",
        [
          tc "fully fixed" test_presolve_fully_fixed;
          tc "infeasible by propagation" test_presolve_proves_infeasible;
          tc "infinite bounds and equalities"
            test_presolve_infinite_and_equality;
          tc "warm basis across rates" test_presolve_warm_across_rates;
          tc "pins keep the search" test_presolve_pins_keep_search;
          QCheck_alcotest.to_alcotest prop_presolved_lp_matches_simplex;
          QCheck_alcotest.to_alcotest prop_presolved_ilp_matches_brute;
        ] );
      ( "pqueue",
        [ tc "heap order" test_pqueue_order; tc "empty" test_pqueue_empty ] );
    ]
