(* LP micro-benchmark: the EEG rate search (the paper's §7.2 hot path —
   every bracket/bisection step is a full ILP solve, child LPs
   warm-started from the parent basis, incumbent and root basis carried
   between rate steps), then a fixed-rate re-solve at the rate found.

   Prints total simplex pivots, factorisation work and wall time, and
   writes BENCH_lp.json at the repo root as the regression baseline:

     dune exec bench/main.exe -- lp        -- default 14-channel EEG
     dune exec bench/main.exe -- lp 8      -- smaller instance *)

type work = {
  pivots : int;
  refactorisations : int;
  ft_updates : int;
  ft_entries : int;
  wall_s : float;
}

(* run [f] and measure the process-wide LP work it did *)
let measured f =
  let p0 = Lp.Simplex.cumulative_pivots () in
  let c0 = Lp.Sparse.counters () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let c1 = Lp.Sparse.counters () in
  ( r,
    {
      pivots = Lp.Simplex.cumulative_pivots () - p0;
      refactorisations =
        c1.Lp.Sparse.refactorisations - c0.Lp.Sparse.refactorisations;
      ft_updates = c1.Lp.Sparse.ft_updates - c0.Lp.Sparse.ft_updates;
      ft_entries = c1.Lp.Sparse.ft_entries - c0.Lp.Sparse.ft_entries;
      wall_s;
    } )

let work_json w =
  Printf.sprintf
    "\"total_pivots\": %d, \"refactorisations\": %d, \"ft_updates\": %d, \
     \"ft_entries\": %d, \"wall_s\": %.6f"
    w.pivots w.refactorisations w.ft_updates w.ft_entries w.wall_s

let write_json ~n_channels ~search ~lp_solves ~rate ~resolve =
  let cores = Domain.recommended_domain_count () in
  let oc = open_out "BENCH_lp.json" in
  let resolve =
    match resolve with
    | Some (w, objective) ->
        Printf.sprintf "{%s, \"objective\": %.6f}" (work_json w) objective
    | None -> "null"
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"eeg_rate_search\",\n\
    \  \"n_channels\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"search\": {%s, \"final_solve_lps\": %d, \"rate_multiplier\": %.6f},\n\
    \  \"resolve\": %s\n\
     }\n"
    n_channels cores (work_json search) lp_solves rate resolve;
  close_out oc

(* CI smoke: partition the speech and eeg14 instances and check both
   answers against ground truth.  The returned point must satisfy
   every row and be integral, and its objective must equal the pinned
   value and the optimum of the LP relaxation over the presolved box,
   which Check.Certificate certifies independently of the solver — so
   the point is a certified optimum of the ILP.  The eeg14 run must also refactorise
   at least once, which shows that the LU path really ran.  Kept small
   enough that the CI step's wall-clock ceiling (see
   .github/workflows/ci.yml) catches any solver-path regression that
   turns sub-second solves into minutes. *)
let smoke () =
  Bench_util.header "bench smoke: sparse LP against certificate, speech + eeg14";
  let run name rate spec ~expect ~refactorises =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "smoke %s: %s\n" name m;
          exit 1)
        fmt
    in
    let pl = Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec rate) in
    let enc =
      Wishbone.Placement.encode Wishbone.Placement.Restricted pl
        (Wishbone.Preprocess.contract pl.Wishbone.Placement.spec)
    in
    let problem = enc.Wishbone.Placement.problem in
    let c0 = Lp.Sparse.counters () in
    let t0 = Unix.gettimeofday () in
    let sol =
      match Lp.Branch_bound.solve problem with
      | Lp.Solution.Optimal sol, _ -> sol
      | s, _ -> fail "%s" (Format.asprintf "%a" Lp.Solution.pp_status s)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let c1 = Lp.Sparse.counters () in
    (* the LP relaxation over the presolved box, whose integer bounds
       are rounded: still a relaxation of the ILP *)
    let lo, hi = Lp.Presolve.bounds (Lp.Presolve.run problem) in
    let relax = Lp.Sparse.solve_warm ~lo ~hi (Lp.Sparse.of_problem problem) in
    let verdict = Check.Certificate.check_result ~lo ~hi problem relax in
    Bench_util.row "%-8s objective %12.6f (%6.3f s)  LP certificate %s\n" name
      sol.objective dt
      (Format.asprintf "%a" Check.Certificate.pp_verdict verdict);
    let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b) in
    if verdict <> Check.Certificate.Valid then fail "certificate rejected";
    if Lp.Problem.constraint_violation problem sol.x > 1e-6 then
      fail "returned point violates a row";
    if
      List.exists
        (fun v -> Float.abs (sol.x.(v) -. Float.round sol.x.(v)) > 1e-6)
        (Lp.Problem.integer_vars problem)
    then fail "returned point is not integral";
    (match relax.Lp.Simplex.status with
    | Lp.Solution.Optimal r when close r.objective sol.objective -> ()
    | _ -> fail "objective %.9g is not the certified LP optimum" sol.objective);
    if not (close sol.objective expect) then
      fail "objective %.9g, expected %g" sol.objective expect;
    if
      refactorises
      && c1.Lp.Sparse.refactorisations <= c0.Lp.Sparse.refactorisations
    then fail "never refactorised — LU path did not run"
  in
  run "speech" 0.05 ~expect:260. ~refactorises:false
    (Bench_util.spec_exn ~platform:Profiler.Platform.tmote_sky
       (Lazy.force Bench_util.speech_profile));
  run "eeg14" 1.0 ~expect:84. ~refactorises:true
    (Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
       ~platform:Profiler.Platform.tmote_sky
       (Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels:14 ())));
  Bench_util.row "smoke ok\n"

(* Default to 14 channels: the largest EEG instance whose search stays
   clear of the rate search's per-probe budget of 5000 branch & bound
   nodes, so the rate found is the true maximum (up to the search
   tolerance).  At 22 channels probes near the boundary exhaust that
   budget and the search returns a certified lower bound instead. *)
let run ?(n_channels = 14) () =
  Bench_util.header
    (Printf.sprintf "LP micro: warm-started %d-channel EEG rate search"
       n_channels);
  Bench_util.paper_vs
    "MILP folklore: warm-starting child LPs from the parent basis is worth \
     10-100x on tree search";
  let raw = Apps.Eeg.profile ~duration:30. (Apps.Eeg.build ~n_channels ()) in
  let spec =
    Bench_util.spec_exn ~mode:Wishbone.Movable.Permissive
      ~platform:Profiler.Platform.tmote_sky raw
  in
  let result, search =
    measured (fun () ->
        Wishbone.Rate_search.search_placement (Wishbone.Placement.of_spec spec))
  in
  let lp_solves, rate =
    match result with
    | Some r ->
        ( r.Wishbone.Rate_search.placement_report.solver.Lp.Branch_bound
            .lp_solves,
          r.Wishbone.Rate_search.placement_multiplier )
    | None -> (0, nan)
  in
  Bench_util.row "search  %10d pivots  %8.3f s  rate x%.4f\n" search.pivots
    search.wall_s rate;
  (* fixed-rate re-solve at the found rate, with the search's own
     per-probe options *)
  let resolve =
    if Float.is_nan rate then None
    else
      match
        measured (fun () ->
            Wishbone.Placement.solve
              ~options:Wishbone.Rate_search.default_search_options
              (Wishbone.Placement.of_spec (Wishbone.Spec.scale_rate spec rate)))
      with
      | Wishbone.Placement.Partitioned r, w ->
          Bench_util.row "fixed-rate solve at x%.4f: %d pivots %.3f s\n" rate
            w.pivots w.wall_s;
          Some (w, r.Wishbone.Placement.objective)
      | _ -> None
  in
  write_json ~n_channels ~search ~lp_solves ~rate ~resolve;
  Bench_util.row "wrote BENCH_lp.json\n"
