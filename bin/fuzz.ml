(* Randomized correctness fuzzing: seeded generators + the nine
   oracles of lib/check (DESIGN.md §11).  Exit status 0 iff every
   case passed. *)

open Cmdliner

let run seed count start size oracles no_shrink verbose =
  let oracles =
    match oracles with
    | [] -> Check.Fuzz.all_oracles
    | names ->
        List.map
          (fun n ->
            match Check.Fuzz.oracle_of_name n with
            | Some o -> o
            | None ->
                Printf.eprintf
                  "fuzz: unknown oracle %S (known: %s)\n" n
                  (String.concat ", "
                     (List.map Check.Fuzz.oracle_name
                        Check.Fuzz.all_oracles));
                exit 2)
          names
  in
  let cfg =
    {
      Check.Fuzz.seed;
      count;
      start;
      size;
      oracles;
      shrink = not no_shrink;
      verbose;
    }
  in
  let summary = Check.Fuzz.run ~out:Format.err_formatter cfg in
  Check.Fuzz.pp_summary Format.std_formatter summary;
  if Check.Fuzz.all_passed summary then 0 else 1

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let count =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Cases per oracle.")

let start =
  Arg.(
    value & opt int 0
    & info [ "start" ] ~docv:"I"
        ~doc:"First case index; use with --count 1 to replay one case.")

let size =
  Arg.(
    value & opt int 8
    & info [ "size" ] ~docv:"N"
        ~doc:"Approximate instance size (operators / LP variables).")

let oracles =
  Arg.(
    value & opt_all string []
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:
          "Oracle to run (repeatable): lp-certificate, ilp-brute, \
           cut-enumeration, split-equivalence, degradation, \
           service-equivalence, \
           degraded-soundness ($(b,degraded) for short), \
           tree-equivalence ($(b,tree) for short), \
           sim-determinism ($(b,sim) for short).  Default: all \
           nine.")

let no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Report failures without minimising them.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Progress.")

let cmd =
  let doc = "randomized correctness oracles for the Wishbone reproduction" in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed $ count $ start $ size $ oracles $ no_shrink $ verbose)

let () = exit (Cmd.eval' cmd)
