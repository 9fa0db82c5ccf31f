(* serve: a closed loop with one client sending one request per
   [Serve.serve] call.  Requests are zipf-sampled (s = 1.1) from a
   pool of 72 distinct benchmark queries; the memo table holds about
   half the pool's answers, so hits (the median op) mix with full
   misses (parse, compile, machine set-up, run: the tail op) and with
   memo inserts and evictions. *)

open Workload

let mix = [ ("deriv", 24); ("qsort", 24); ("tak", 12); ("matrix", 12) ]
let zipf_s = 1.1
let stream = 1 lsl 16  (* requests generated; a long run cycles them *)

type expected = {
  texts : string list;  (* canonical answer texts from [Serve.run_direct] *)
  instr : int;  (* sequential WAM instructions of one miss *)
  refs : int;
}

let answer_texts answers = List.map Memo.Canon.answer_text answers

(* A response is correct when it carries no error and its answer set is
   the memo-less server's. *)
let response_ok exp (rs : Server.Serve.response) =
  rs.rs_error = None && answer_texts rs.rs_answers = exp.texts

type counters = {
  mutable ops : int;
  mutable hits : int;
  mutable missed : string list;  (* traced ops that missed, newest first *)
  mutable replay : string list;
  mutable replays : int;
  mutable replay_instr : int;
  mutable replay_alloc : float;
  mutable totals : Memo.Table.totals option;
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let make ~seed =
  let tseed = derive seed 4 in
  let src = Server.Traffic.database mix in
  let pool = Server.Traffic.pool mix ~seed:tseed in
  let requests = Server.Traffic.requests mix ~seed:tseed ~s:zipf_s ~n:stream in
  let expected = Hashtbl.create 128 in
  let server = ref None and memo = ref None in
  let cursor = ref 0 in
  let instr = ref 0 and refs = ref 0 in
  let c =
    { ops = 0; hits = 0; missed = []; replay = []; replays = 0; replay_instr = 0; replay_alloc = 0.0;
      totals = None }
  in
  let next () =
    let rq = requests.(!cursor mod stream) in
    incr cursor;
    rq
  in
  let account (rs : Server.Serve.response) =
    let exp = Hashtbl.find expected rs.rs_query in
    c.ops <- c.ops + 1;
    if rs.rs_lane = Server.Serve.Hit then c.hits <- c.hits + 1
    else begin
      instr := !instr + exp.instr;
      refs := !refs + exp.refs
    end;
    response_ok exp rs
  in
  (* untraced: the server's own entry point; traced: the lane
     primitives [Serve.serve] is built from, one span each *)
  let op tr =
    let srv = Option.get !server in
    let rq = next () in
    if not tr.Spans.on then
      match Server.Serve.serve srv [ rq ] with
      | [ rs ] -> account rs
      | _ -> false
    else begin
      let key =
        Spans.span tr ~layer:"memo" "memo.key" (fun () ->
            Result.to_option (Memo.Canon.key_of_query rq.rq_query))
      in
      let rs =
        match
          Spans.span tr ~layer:"memo" "memo.lookup" (fun () ->
              Server.Serve.lookup_hit srv ~t0:0.0 ~key rq)
        with
        | Some rs -> rs
        | None ->
          ignore
            (Spans.span tr ~layer:"costan" "costan.verdict" (fun () ->
                 Server.Serve.verdict srv rq.rq_query));
          c.missed <- rq.rq_query :: c.missed;
          Spans.span tr ~layer:"server" "server.compute" (fun () ->
              Server.Serve.compute srv ~t0:0.0 ~key rq)
      in
      account rs
    end
  in
  (* A miss split into layers: the parse, compile and run that
     [Serve.compute] does inside, replayed through the public entry
     points, for each miss of the traced ops in turn. *)
  let probe tr =
    if c.replay = [] then c.replay <- List.rev c.missed;
    match c.replay with
    | [] -> ()
    | query :: rest ->
      c.replay <- rest;
      Spans.span tr ~layer:"bench" "probe.miss_replay" (fun () ->
          let db =
            Spans.span tr ~layer:"prolog" "prolog.parse" (fun () ->
                Prolog.Database.of_string src)
          in
          let prog =
            Spans.span tr ~layer:"wam.compile" "wam.compile" (fun () ->
                Wam.Program.of_database ~parallel:false db ~query ())
          in
          let a0 = alloc_words () in
          let _, m =
            Spans.span tr ~layer:"wam.run" "wam.run" (fun () ->
                Wam.Seq.run_all ~max_solutions:1 prog)
          in
          c.replays <- c.replays + 1;
          c.replay_alloc <- c.replay_alloc +. (alloc_words () -. a0);
          c.replay_instr <- c.replay_instr + Wam.Machine.total_instr m)
  in
  let setup tr =
    Hashtbl.reset expected;
    let oracle = Server.Serve.create (Server.Serve.config ~workers:1 ~src ()) in
    let sizing = Memo.Table.create ~shards:1 ~capacity_words:0 () in
    Array.iter
      (fun query ->
        let answers = Server.Serve.run_direct oracle query in
        let st = Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr () in
        let _, m =
          Wam.Seq.solve_all ~sink:(Trace.Areastats.sink st) ~max_solutions:1 ~src
            ~query ()
        in
        Hashtbl.replace expected query
          {
            texts = answer_texts answers;
            instr = Wam.Machine.total_instr m;
            refs = Trace.Areastats.total st;
          };
        match Memo.Canon.key_of_query query with
        | Ok key -> ignore (Memo.Table.insert sizing key answers)
        | Error _ -> ())
      pool;
    (* the memo holds about half of what the whole pool's answers take *)
    let words = (Memo.Table.totals sizing).words in
    let table = Memo.Table.create ~shards:1 ~capacity_words:(words / 2) () in
    memo := Some table;
    server := Some (Server.Serve.create (Server.Serve.config ~workers:1 ~memo:table ~src ()));
    ignore (op tr)
  in
  let sim_stats () =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun q ->
              let e = Hashtbl.find expected q in
              Printf.sprintf "%s instr=%d refs=%d answers=%s\n" q e.instr e.refs
                (String.concat ";" e.texts))
            pool))
  in
  let totals () = Memo.Table.totals (Option.get !memo) in
  let reset_counters () =
    c.ops <- 0;
    c.hits <- 0;
    c.missed <- [];
    c.replay <- [];
    c.replays <- 0;
    c.replay_instr <- 0;
    c.replay_alloc <- 0.0;
    c.totals <- Some (totals ())
  in
  let miss_ratio () = float_of_int (c.ops - c.hits) /. float_of_int (max 1 c.ops) in
  let layer_metrics ~ops =
    let per x = x /. float_of_int (max 1 ops) in
    (* replayed misses stand for the misses of the traced ops *)
    let per_op_of_replays x = x /. float_of_int (max 1 c.replays) *. miss_ratio () in
    let t1 = totals () and t0 = Option.get c.totals in
    [
      ("memo.hit_ratio", per (float_of_int c.hits));
      ("memo.inserts", per (float_of_int (t1.inserts - t0.inserts)));
      ("memo.evictions", per (float_of_int (t1.evictions - t0.evictions)));
      ("wam.run.alloc_words", per_op_of_replays c.replay_alloc);
      ("wam.run.instructions", per_op_of_replays (float_of_int c.replay_instr));
    ]
  in
  {
    name = "serve";
    cycle = 1;
    setup;
    op;
    probe;
    probes_per_op = miss_ratio;
    work = (fun () -> (!instr, !refs));
    sim_stats;
    reset_counters;
    layer_metrics;
    checks = (fun () -> []);
  }
