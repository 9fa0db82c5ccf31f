(* Whole-benchmark pipeline: analyze, annotate with the certifier
   bridge, run at several PE counts, and score the static summaries
   against the dynamic trace.

   Per benchmark:
     1. global groundness/sharing analysis seeds call patterns;
     2. the annotator rebuilds the database (the same transform the
        runner compiles), with refmap's certifier scoring every
        emitted parallel group;
     3. [Static.build] summarizes the compiled code; a seeded defect,
        if any, damages the summaries (or the certifier) here;
     4. RAP-WAM runs at each PE count; the soundness oracle checks
        every attributed access against the summaries, and tracecheck
        replays the same traces as the dynamic cross-check;
     5. shareability tags are scored against the per-address ground
        truth of the largest run. *)

type analysis = {
  bench : Benchlib.Programs.benchmark;
  front : Benchlib.Driver.front;
  static : Static.t;
  stats : Prolog.Annotate.stats;
  certify : Certify.report;
  analysis_ms : float;
}

type pe_run = {
  n_pes : int;
  records : int;
  violations : Oracle.violation list;
  tracecheck_clean : bool;
}

type report = {
  a : analysis;
  runs : pe_run list;
  tags : Oracle.tag_score;  (** scored at the largest PE count *)
  oracle_ok : bool;
  audit_ok : bool;  (** claimed static_safe matches the clean re-derivation *)
  certified_tracecheck_clean : bool;
  uncertified_but_raced : int;
}

let analyze ?defect (b : Benchlib.Programs.benchmark) =
  let front = Benchlib.Driver.front b in
  let patterns = front.Benchlib.Driver.patterns in
  let prog =
    Benchlib.Runner.prepare ~parallel:true
      ~transform:front.Benchlib.Driver.transform b
  in
  let t0 = Unix.gettimeofday () in
  let static = Static.build ~patterns prog in
  Option.iter (fun d -> Defects.apply d static) defect;
  let certifier =
    match defect with
    | Some d when Defects.forces_certify d -> fun _ _ -> true
    | _ -> Certify.certifier static
  in
  let ann_db, stats =
    Prolog.Annotate.database_stats ~patterns ~certifier front.Benchlib.Driver.db
  in
  let certify = Certify.database static ann_db in
  let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  { bench = b; front; static; stats; certify; analysis_ms }

let run ?defect ?(pes = Benchlib.Driver.default_pes) b =
  let a = analyze ?defect b in
  let pes = List.sort_uniq compare pes in
  let runs_raw =
    List.map
      (fun n_pes ->
        let r =
          Benchlib.Runner.run_rapwam ~keep_trace:true
            ~transform:a.front.Benchlib.Driver.transform ~n_pes b
        in
        let c = Collect.of_buffer a.static r.Benchlib.Runner.trace in
        let tc = Tracecheck.check_buffer r.Benchlib.Runner.trace in
        ( {
            n_pes;
            records = c.Collect.records;
            violations = Oracle.check a.static c;
            tracecheck_clean = Tracecheck.ok tc;
          },
          c ))
      pes
  in
  let runs = List.map fst runs_raw in
  let tags =
    match List.rev runs_raw with
    | (_, c) :: _ -> Oracle.score_tags a.static c
    | [] -> Oracle.score_tags a.static (Collect.create a.static)
  in
  let all_clean = List.for_all (fun r -> r.tracecheck_clean) runs in
  {
    a;
    runs;
    tags;
    oracle_ok = List.for_all (fun r -> r.violations = []) runs;
    audit_ok =
      a.stats.Prolog.Annotate.static_safe = a.certify.Certify.certified;
    certified_tracecheck_clean = all_clean;
    uncertified_but_raced =
      (if all_clean then 0
       else a.certify.Certify.total - a.certify.Certify.certified);
  }

(* ------------------------------------------------------------------ *)
(* JSON.                                                              *)

let json_of_report r =
  let b = Buffer.create 1024 in
  let cert = r.a.certify in
  Printf.bprintf b
    "{\"bench\": %S, \"preds\": %d, \"parallel\": %b, \"analysis_ms\": %.3f, \
     \"closure_iterations\": %d"
    r.a.bench.Benchlib.Programs.name
    (Hashtbl.length r.a.static.Static.preds)
    r.a.static.Static.parallel r.a.analysis_ms r.a.static.Static.iterations;
  Printf.bprintf b
    ", \"groups_total\": %d, \"groups_certified\": %d, \"all_certified\": %b, \
     \"static_safe\": %d, \"auto_groups\": %d, \"audit_ok\": %b"
    cert.Certify.total cert.Certify.certified
    (cert.Certify.total > 0 && cert.Certify.certified = cert.Certify.total)
    r.a.stats.Prolog.Annotate.static_safe r.a.stats.Prolog.Annotate.groups
    r.audit_ok;
  Printf.bprintf b
    ", \"tag_addrs\": %d, \"tag_dyn_shared\": %d, \"tag_predicted_shared\": \
     %d, \"tag_precision\": %.4f, \"tag_recall\": %.4f, \
     \"baseline_precision\": %.4f, \"precision_ge_baseline\": %b"
    r.tags.Oracle.addrs r.tags.Oracle.dyn_shared r.tags.Oracle.predicted_shared
    r.tags.Oracle.precision r.tags.Oracle.recall r.tags.Oracle.baseline_precision
    (r.tags.Oracle.precision >= r.tags.Oracle.baseline_precision);
  Printf.bprintf b
    ", \"oracle_ok\": %b, \"certified_tracecheck_clean\": %b, \
     \"uncertified_but_raced\": %d, \"runs\": ["
    r.oracle_ok r.certified_tracecheck_clean r.uncertified_but_raced;
  List.iteri
    (fun i run ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"pes\": %d, \"records\": %d, \"oracle_violations\": %d, \
         \"tracecheck_clean\": %b}"
        run.n_pes run.records
        (List.length run.violations)
        run.tracecheck_clean)
    r.runs;
  Buffer.add_string b "]}";
  Buffer.contents b

let tool =
  {
    Benchlib.Driver.fixtures = [];
    defects = Defects.all;
    run = (fun defect pes b -> run ?defect ~pes b);
    clean = (fun r -> r.oracle_ok && r.audit_ok && r.certified_tracecheck_clean);
    fires =
      (fun r -> function
        | Benchlib.Driver.Oracle -> not r.oracle_ok
        | Audit -> not r.audit_ok
        | Answers | Lint -> false);
    json_of_report;
  }
