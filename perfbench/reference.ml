(* The stored reference answers: one [key value] pair per line, values
   as hex floats or hex digests.  Regenerate with [main.exe --calibrate]. *)

let path = "perfbench/reference.txt"

let load file =
  let tbl = Hashtbl.create 64 in
  let ic = open_in file in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (String.trim (String.sub line i (String.length line - i)))
         | None -> failwith ("reference: malformed line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

let find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None -> failwith ("reference: no entry for " ^ key)

let float tbl key = float_of_string (find tbl key)
