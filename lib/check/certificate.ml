type verdict = Valid | Invalid of string list

let pp_verdict ppf = function
  | Valid -> Format.fprintf ppf "valid"
  | Invalid msgs ->
      Format.fprintf ppf "@[<v>invalid:@,%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut
           Format.pp_print_string)
        msgs

(* Gaussian elimination with partial pivoting over a dense matrix.
   [a] is m x m and is consumed; returns None when the matrix is
   numerically singular. *)
let solve_linear a b =
  let m = Array.length b in
  let x = Array.copy b in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let piv = ref k in
       for i = k + 1 to m - 1 do
         if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
       done;
       if Float.abs a.(!piv).(k) < 1e-11 then begin
         ok := false;
         raise Exit
       end;
       if !piv <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(!piv);
         a.(!piv) <- tmp;
         let t = x.(k) in
         x.(k) <- x.(!piv);
         x.(!piv) <- t
       end;
       for i = k + 1 to m - 1 do
         let f = a.(i).(k) /. a.(k).(k) in
         if f <> 0. then begin
           for j = k to m - 1 do
             a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
           done;
           x.(i) <- x.(i) -. (f *. x.(k))
         end
       done
     done
   with Exit -> ());
  if not !ok then None
  else begin
    for k = m - 1 downto 0 do
      let s = ref x.(k) in
      for j = k + 1 to m - 1 do
        s := !s -. (a.(k).(j) *. x.(j))
      done;
      x.(k) <- !s /. a.(k).(k)
    done;
    Some x
  end

(* the problem's own bounds, unless overridden *)
let bounds ?lo ?hi problem =
  let vars = Lp.Problem.vars problem in
  let own f = Array.map f vars in
  ( Option.value lo ~default:(own (fun (v : Lp.Problem.var_info) -> v.lo)),
    Option.value hi ~default:(own (fun (v : Lp.Problem.var_info) -> v.hi)) )

let check ?(tol = 1e-6) ?lo ?hi problem (sol : Lp.Solution.t)
    (basis : Lp.Basis.t) =
  let n = Lp.Problem.n_vars problem in
  let constrs = Lp.Problem.constrs problem in
  let m = Array.length constrs in
  let lo, hi = bounds ?lo ?hi problem in
  let errs = ref [] in
  let fail fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  if Array.length sol.x <> n then
    fail "solution has %d entries for %d variables" (Array.length sol.x) n;
  if Array.length lo <> n || Array.length hi <> n then
    fail "bound overrides have the wrong length";
  if !errs <> [] then Invalid (List.rev !errs)
  else begin
    (* column layout mirroring the solver's tableau, unscaled *)
    let n_slack =
      Array.fold_left
        (fun acc (c : Lp.Problem.constr) ->
          match c.sense with Le | Ge -> acc + 1 | Eq -> acc)
        0 constrs
    in
    let ncols = n + n_slack + m in
    let slack_row = Array.make n_slack 0 in
    let slack_sign = Array.make n_slack 0. in
    let k = ref 0 in
    Array.iteri
      (fun i (c : Lp.Problem.constr) ->
        match c.sense with
        | Le ->
            slack_row.(!k) <- i;
            slack_sign.(!k) <- 1.;
            incr k
        | Ge ->
            slack_row.(!k) <- i;
            slack_sign.(!k) <- -1.;
            incr k
        | Eq -> ())
      constrs;
    (* column j of the augmented system as a dense length-m vector *)
    let column j =
      let col = Array.make m 0. in
      if j < n then
        Array.iteri
          (fun i (c : Lp.Problem.constr) ->
            List.iter
              (fun (v, coef) -> if v = j then col.(i) <- col.(i) +. coef)
              c.terms)
          constrs
      else if j < n + n_slack then col.(slack_row.(j - n)) <- slack_sign.(j - n)
      else col.(j - n - n_slack) <- 1.;
      col
    in
    let col_lo j = if j < n then lo.(j) else 0. in
    let col_hi j =
      if j < n then hi.(j) else if j < n + n_slack then infinity else 0.
    in
    (* minimisation-space costs *)
    let minimize = Lp.Problem.direction problem = Lp.Problem.Minimize in
    let cost = Array.make ncols 0. in
    List.iter
      (fun (v, coef) ->
        cost.(v) <- cost.(v) +. (if minimize then coef else -.coef))
      (Lp.Problem.objective problem);
    (* ---- primal feasibility and the full augmented point ---- *)
    let z = Array.make ncols 0. in
    Array.blit sol.x 0 z 0 n;
    for j = 0 to n - 1 do
      let scale = 1. +. Float.max (Float.abs lo.(j)) (Float.abs sol.x.(j)) in
      if sol.x.(j) < lo.(j) -. (tol *. scale) then
        fail "x%d = %g below lower bound %g" j sol.x.(j) lo.(j);
      if sol.x.(j) > hi.(j) +. (tol *. scale) then
        fail "x%d = %g above upper bound %g" j sol.x.(j) hi.(j)
    done;
    Array.iteri
      (fun i (c : Lp.Problem.constr) ->
        let lhs =
          List.fold_left
            (fun acc (v, coef) -> acc +. (coef *. sol.x.(v)))
            0. c.terms
        in
        let scale = 1. +. Float.max (Float.abs lhs) (Float.abs c.rhs) in
        (match c.sense with
        | Le ->
            if lhs > c.rhs +. (tol *. scale) then
              fail "row %d (%s): %g > rhs %g" i c.cname lhs c.rhs
        | Ge ->
            if lhs < c.rhs -. (tol *. scale) then
              fail "row %d (%s): %g < rhs %g" i c.cname lhs c.rhs
        | Eq ->
            if Float.abs (lhs -. c.rhs) > tol *. scale then
              fail "row %d (%s): %g <> rhs %g" i c.cname lhs c.rhs);
        ())
      constrs;
    (* slack values close the equality system exactly *)
    for s = 0 to n_slack - 1 do
      let c = constrs.(slack_row.(s)) in
      let lhs =
        List.fold_left
          (fun acc (v, coef) -> acc +. (coef *. sol.x.(v)))
          0. c.terms
      in
      z.(n + s) <- slack_sign.(s) *. (c.rhs -. lhs)
    done;
    let obj_at_x = Lp.Problem.objective_value problem sol.x in
    let obj_scale =
      1. +. Float.max (Float.abs obj_at_x) (Float.abs sol.objective)
    in
    if Float.abs (obj_at_x -. sol.objective) > tol *. obj_scale then
      fail "reported objective %g but c.x = %g" sol.objective obj_at_x;
    (* ---- basis shape ---- *)
    if not (Lp.Basis.compatible basis ~rows:m ~cols:ncols) then begin
      fail "basis incompatible with a %d x %d tableau" m ncols;
      Invalid (List.rev !errs)
    end
    else begin
      let is_basic = Array.make ncols false in
      Array.iter (fun j -> is_basic.(j) <- true) basis.rows;
      Array.iteri
        (fun j st ->
          let basic_flag = st = Lp.Basis.Basic in
          if basic_flag <> is_basic.(j) then
            fail "column %d: status %s disagrees with basis rows" j
              (if basic_flag then "Basic" else "nonbasic"))
        basis.stat;
      (* nonbasic columns must rest at their recorded bound *)
      for j = 0 to ncols - 1 do
        let scale = 1. +. Float.abs z.(j) in
        match basis.stat.(j) with
        | Lp.Basis.Basic -> ()
        | Lp.Basis.At_lower ->
            if Float.abs (z.(j) -. col_lo j) > tol *. scale then
              fail "nonbasic column %d at_lower but value %g <> %g" j z.(j)
                (col_lo j)
        | Lp.Basis.At_upper ->
            let up = col_hi j in
            if up = infinity then
              fail "nonbasic column %d at_upper with infinite bound" j
            else if Float.abs (z.(j) -. up) > tol *. scale then
              fail "nonbasic column %d at_upper but value %g <> %g" j z.(j)
                up
      done;
      (* ---- duals: B^T y = c_B ---- *)
      let bt =
        Array.init m (fun i ->
            let col = column basis.rows.(i) in
            Array.init m (fun j -> col.(j)))
      in
      (* bt currently holds B's columns as rows, i.e. B^T already *)
      let c_b = Array.map (fun j -> cost.(j)) basis.rows in
      match solve_linear bt c_b with
      | None -> Invalid (List.rev ("singular basis matrix" :: !errs))
      | Some y ->
          (* reduced costs and their sign conditions *)
          let d = Array.make ncols 0. in
          for j = 0 to ncols - 1 do
            let col = column j in
            let yaj = ref 0. in
            for i = 0 to m - 1 do
              yaj := !yaj +. (y.(i) *. col.(i))
            done;
            d.(j) <- cost.(j) -. !yaj
          done;
          let dtol = tol *. 100. in
          for j = 0 to ncols - 1 do
            let fixed = col_hi j -. col_lo j <= tol in
            match basis.stat.(j) with
            | Lp.Basis.Basic ->
                if Float.abs d.(j) > dtol *. (1. +. Float.abs cost.(j)) then
                  fail "basic column %d has reduced cost %g" j d.(j)
            | Lp.Basis.At_lower ->
                if (not fixed) && d.(j) < -.dtol then
                  fail "column %d at lower bound has reduced cost %g < 0" j
                    d.(j)
            | Lp.Basis.At_upper ->
                if (not fixed) && d.(j) > dtol then
                  fail "column %d at upper bound has reduced cost %g > 0" j
                    d.(j)
          done;
          (* ---- duality gap: c.z = y.b + sum_j d_j z_j ---- *)
          let primal = ref 0. in
          for j = 0 to ncols - 1 do
            primal := !primal +. (cost.(j) *. z.(j))
          done;
          let dual = ref 0. in
          Array.iteri
            (fun i (c : Lp.Problem.constr) ->
              dual := !dual +. (y.(i) *. c.rhs))
            constrs;
          for j = 0 to ncols - 1 do
            if basis.stat.(j) <> Lp.Basis.Basic then
              dual := !dual +. (d.(j) *. z.(j))
          done;
          let scale =
            1. +. Float.max (Float.abs !primal) (Float.abs !dual)
          in
          if Float.abs (!primal -. !dual) > dtol *. scale then
            fail "duality gap: primal %g vs dual %g" !primal !dual;
          if !errs = [] then Valid else Invalid (List.rev !errs)
    end
  end

(* Solve with the LP engine, then certify the answer independently:
   [Ok objective] only for a certified optimum. *)
let certified_optimum ~tol ~lo ~hi problem =
  let r = Lp.Sparse.solve_warm ~lo ~hi (Lp.Sparse.of_problem problem) in
  match (r.status, r.basis) with
  | Lp.Solution.Optimal sol, Some b -> (
      match check ~tol ~lo ~hi problem sol b with
      | Valid -> Ok sol.objective
      | Invalid msgs -> Error (String.concat "; " msgs))
  | status, _ -> Error (Format.asprintf "%a" Lp.Solution.pp_status status)

(* The elastic LP: every row gets nonnegative violation columns
   ([Le] -e, [Ge] +e, [Eq] +e+ -e-) and the total violation is
   minimised.  It is always feasible and bounded below by 0; its
   optimum is 0 exactly when the original rows admit a point in the
   box. *)
let elastic ~lo ~hi problem =
  let p = Lp.Problem.create () in
  Array.iteri
    (fun j l -> ignore (Lp.Problem.add_var ~lo:l ~hi:(Float.max l hi.(j)) p))
    lo;
  let viol = ref [] in
  let elastic_var () =
    let e = Lp.Problem.add_var p in
    viol := (e, 1.) :: !viol;
    e
  in
  Array.iter
    (fun (c : Lp.Problem.constr) ->
      let extra =
        match c.sense with
        | Lp.Problem.Le -> [ (elastic_var (), -1.) ]
        | Lp.Problem.Ge -> [ (elastic_var (), 1.) ]
        | Lp.Problem.Eq -> [ (elastic_var (), 1.); (elastic_var (), -1.) ]
      in
      Lp.Problem.add_constr p (c.terms @ extra) c.sense c.rhs)
    (Lp.Problem.constrs problem);
  Lp.Problem.set_objective p Lp.Problem.Minimize !viol;
  p

let certify_infeasible ~tol ~lo ~hi problem =
  let conflict = ref false in
  Array.iteri
    (fun j l ->
      if l > hi.(j) +. (tol *. (1. +. Float.abs l)) then conflict := true)
    lo;
  if !conflict then Valid (* an empty box needs no LP *)
  else
    let p = elastic ~lo ~hi problem in
    let lo, hi = bounds p in
    match certified_optimum ~tol ~lo ~hi p with
    | Ok total when total > tol -> Valid
    | Ok total ->
        Invalid
          [ Printf.sprintf
              "infeasible verdict, but the elastic LP reaches total \
               violation %g" total ]
    | Error why ->
        Invalid [ "infeasible verdict, elastic LP not certified: " ^ why ]

(* Box every infinite upper bound at [m] and at [2m]: an unbounded LP's
   boxed optimum must improve with the box, a bounded one's would stay
   put once the box contains its optimum. *)
let certify_unbounded ~tol ~lo ~hi problem =
  if Array.for_all Float.is_finite hi then
    Invalid [ "unbounded verdict, but every variable is bounded" ]
  else
    (* the largest finite bound or right-hand side *)
    let magnitude =
      Array.fold_left
        (fun acc v ->
          if Float.is_finite v then Float.max acc (Float.abs v) else acc)
        0.
        (Array.concat
           [ Array.map
               (fun (c : Lp.Problem.constr) -> c.rhs)
               (Lp.Problem.constrs problem);
             lo; hi ])
    in
    let boxed m = Array.map (fun h -> if Float.is_finite h then h else m) hi in
    let m = 1e3 *. (1. +. magnitude) in
    let maximize = Lp.Problem.direction problem = Lp.Problem.Maximize in
    match
      ( certified_optimum ~tol ~lo ~hi:(boxed m) problem,
        certified_optimum ~tol ~lo ~hi:(boxed (2. *. m)) problem )
    with
    | Ok small, Ok large ->
        let gain = if maximize then large -. small else small -. large in
        if gain > tol *. (1. +. Float.abs small) then Valid
        else
          Invalid
            [ Printf.sprintf
                "unbounded verdict, but the boxed optimum stays at %g \
                 when the box doubles" small ]
    | Error why, _ | _, Error why ->
        Invalid [ "unbounded verdict, boxed LP not certified: " ^ why ]

let check_result ?(tol = 1e-6) ?lo ?hi problem (r : Lp.Simplex.result) =
  let lo, hi = bounds ?lo ?hi problem in
  match r.status with
  | Lp.Solution.Optimal sol -> (
      match r.basis with
      | Some b -> check ~tol ~lo ~hi problem sol b
      | None -> Invalid [ "optimal result carries no basis" ])
  | Lp.Solution.Infeasible -> certify_infeasible ~tol ~lo ~hi problem
  | Lp.Solution.Unbounded -> certify_unbounded ~tol ~lo ~hi problem
  | Lp.Solution.Iteration_limit -> Valid
