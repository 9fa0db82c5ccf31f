(* Tests of the benchmark itself: the oracles accept the engine's
   answers and reject corrupted ones, and the loop counts a rejected
   answer as a failed op. *)

open Perfbench

let fails = ref 0

let check name cond =
  if not cond then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end

let run_answer src query var =
  match fst (Wam.Seq.solve ~src ~query ()) with
  | Wam.Seq.Success b -> List.assoc_opt var b
  | Wam.Seq.Failure -> None

(* Swap the first two elements of a list, or bump the first integer in
   it: a plausible wrong answer. *)
let rec corrupt t =
  match t with
  | Prolog.Term.Int i -> Prolog.Term.Int (i + 1)
  | Prolog.Term.Struct (".", [ Prolog.Term.Int a; Prolog.Term.Struct (".", [ Prolog.Term.Int b; rest ]) ])
    when a <> b ->
    Prolog.Term.cons (Prolog.Term.Int b) (Prolog.Term.cons (Prolog.Term.Int a) rest)
  | Prolog.Term.Struct (".", [ h; rest ]) -> Prolog.Term.cons (corrupt h) rest
  | t -> t

(* Every op answers with [answer]; the loop must count each rejected
   one as failed. *)
let failed_ops oracle answer =
  let r = Loop.run ~seconds:0.0 ~cycle:4 (fun _ -> oracle answer) in
  check "loop runs whole cycles" (r.attempted mod 4 = 0);
  (r.attempted, r.failed)

let oracle_case name src query var oracle =
  let answer = run_answer src query var in
  check (name ^ ": engine answer accepted") (oracle answer);
  let bad = Option.map corrupt answer in
  check (name ^ ": corrupted answer differs") (bad <> answer);
  let attempted, failed = failed_ops oracle bad in
  check (name ^ ": corrupted answer counted as failed op") (attempted = failed && failed > 0);
  let _, failed = failed_ops oracle answer in
  check (name ^ ": correct answer not counted") (failed = 0)

let () =
  let open Benchlib in
  oracle_case "qsort" Programs.qsort (Inputs.qsort_query ~n:30 ~seed:11 ()) "S"
    (Oracle.qsort_answer (Inputs.random_list ~n:30 ~seed:11 ~bound:10000));
  oracle_case "tak" Programs.tak (Inputs.tak_query ~x:9 ~y:5 ~z:2 ()) "A"
    (Oracle.tak_answer ~x:9 ~y:5 ~z:2);
  oracle_case "matrix" Programs.matrix (Inputs.matrix_query ~n:4 ~seed:9 ()) "C"
    (Oracle.matrix_answer ~n:4 ~seed:9);
  (* a served answer set is compared with the memo-less server's *)
  let src = Programs.tak in
  let oracle = Server.Serve.create (Server.Serve.config ~workers:1 ~src ()) in
  let query = "tak(8, 4, 2, A)" in
  let answers = Server.Serve.run_direct oracle query in
  let exp = { Serving.texts = Serving.answer_texts answers; instr = 0; refs = 0 } in
  let response answers =
    match Server.Serve.serve oracle [ { Server.Serve.rq_id = 0; rq_query = query } ] with
    | [ rs ] -> { rs with rs_answers = answers }
    | _ -> assert false
  in
  check "serve: direct answer accepted" (Serving.response_ok exp (response answers));
  let bad = List.map (List.map (fun (v, t) -> (v, corrupt t))) answers in
  let attempted, failed =
    failed_ops (fun rs -> Serving.response_ok exp rs) (response bad)
  in
  check "serve: corrupted answer counted as failed op" (attempted = failed && failed > 0);
  (* the tail is the highest ladder percentile with ten samples beyond *)
  let p, _, beyond = Loop.tail (Array.init 100 Fun.id) in
  check "tail of 100 samples is p90" (p = 90.0 && beyond = 10);
  let p, _, _ = Loop.tail (Array.init 5 Fun.id) in
  check "tail of 5 samples is p50" (p = 50.0);
  (* self time excludes child spans *)
  let tr = Spans.create () in
  Spans.set_op tr 0;
  Spans.span tr ~layer:"a" "outer" (fun () ->
      Spans.span tr ~layer:"b" "inner" (fun () -> Unix.sleepf 0.002));
  let self = Spans.self_ns tr ~setup:false in
  check "self time of a parent excludes its child" (self "a" < self "b");
  check "busy time of a parent includes its child"
    (Spans.busy_ns tr ~setup:false "outer" >= Spans.busy_ns tr ~setup:false "inner");
  if !fails > 0 then exit 1;
  print_endline "perfbench selftest: ok"
