(* What the runner needs from a workload, and the inputs the
   workloads share. *)

type t = {
  name : string;
  cycle : int;  (* a run ends only after a whole number of cycles of ops *)
  setup : Spans.t -> unit;
      (* one-time work plus one untimed warm-up op; replaces any
         earlier set-up *)
  op : Spans.t -> bool;  (* run the next op; [false] = wrong answer *)
  probe : Spans.t -> unit;
      (* traced run only: one unit of extra layer measurement, run in a
         phase of its own after the traced ops *)
  probes_per_op : unit -> float;  (* probe units that one traced op stands for *)
  work : unit -> int * int;
      (* simulated WAM instructions and trace references done by ops
         so far *)
  sim_stats : unit -> string;
      (* every simulated statistic of the ops run so far, as text *)
  reset_counters : unit -> unit;
  layer_metrics : ops:int -> (string * float) list;
      (* the workload's own per-layer counts since [reset_counters] *)
  checks : unit -> string list;  (* model checks to print *)
}

(* Distinct positive input seeds derived from the workload seed. *)
let derive seed k = 1 + (((seed * 1_000_003) + (k * 7919)) land 0xFFFFFF)

type bench = { b : Benchlib.Programs.benchmark; oracle : Oracle.t }

let rec size = function
  | Prolog.Term.Struct (_, args) ->
    List.fold_left (fun acc t -> acc + size t) 1 args
  | _ -> 1

let expr_size query =
  match Prolog.Parser.term_of_string query with
  | Prolog.Term.Struct (_, e :: _) -> size e
  | t -> size t

(* deriv's cost follows the size of its random expression, which varies
   tenfold between seeds.  Draw expressions until one has exactly as
   many nodes as the paper-default expression, so every seed gives the
   same input size and a run's cost does not depend on its seed. *)
let deriv_query ~seed =
  let target = expr_size (Benchlib.Inputs.deriv_query ()) in
  let rec draw s =
    let q = Benchlib.Inputs.deriv_query ~seed:s () in
    if expr_size q = target then q else draw (s + 1)
  in
  draw (derive seed 1)

(* qsort's cost follows the shape of its quicksort recursion, which the
   relative order of the list fixes; between random lists it moves the
   8-PE run's memory use by over 10%.  Keep the order (ties included)
   of the paper-default list and draw the values from [seed]. *)
let qsort_list ~seed =
  let shape = Benchlib.Inputs.random_list ~n:900 ~seed:7 ~bound:10000 in
  let distinct = List.sort_uniq compare shape in
  let rnd = Benchlib.Inputs.lcg seed and drawn = Hashtbl.create 1024 in
  while Hashtbl.length drawn < List.length distinct do
    Hashtbl.replace drawn (rnd 10000) ()
  done;
  let values = List.sort compare (List.of_seq (Hashtbl.to_seq_keys drawn)) in
  let map = Hashtbl.create 1024 in
  List.iter2 (Hashtbl.replace map) distinct values;
  List.map (Hashtbl.find map) shape

(* The four paper benchmarks at their default sizes, with contents drawn
   from [seed]. *)
let benchmarks ~seed =
  let open Benchlib in
  let qlist = qsort_list ~seed:(derive seed 2) and mseed = derive seed 3 in
  let mk name src query answer_var oracle =
    { b = { Programs.name; src; query; answer_var }; oracle }
  in
  [
    mk "deriv" Programs.deriv (deriv_query ~seed) "" Oracle.no_answer;
    mk "tak" Programs.tak (Inputs.tak_query ~x:12 ~y:7 ~z:3 ()) "A"
      (Oracle.tak_answer ~x:12 ~y:7 ~z:3);
    mk "qsort" Programs.qsort
      (Printf.sprintf "qsort([%s], S)" (String.concat ", " (List.map string_of_int qlist)))
      "S" (Oracle.qsort_answer qlist);
    mk "matrix" Programs.matrix (Inputs.matrix_query ~n:15 ~seed:mseed ()) "C"
      (Oracle.matrix_answer ~n:15 ~seed:mseed);
  ]

(* Outcome and answer binding of one run, as [Runner.answers_agree]
   compares them. *)
let answer var = function
  | Wam.Seq.Failure -> (false, None)
  | Wam.Seq.Success bindings -> (true, List.assoc_opt var bindings)

let agree (s1, a1) (s2, a2) =
  s1 = s2
  &&
  match (a1, a2) with
  | Some t1, Some t2 -> Prolog.Term.equal t1 t2
  | None, None -> true
  | Some _, None | None, Some _ -> false

let correct bench (ok, ans) = ok && bench.oracle ans

let area_refs st =
  String.concat ","
    (List.map
       (fun a -> Printf.sprintf "%s:%d" (Trace.Area.slug a) (Trace.Areastats.refs st a))
       Trace.Area.all)

let n_pes = 8
