(* Whole-benchmark binding-analysis pipeline.

   Per benchmark:
     1. the determinacy pipeline of lib/detan runs first (sound plan):
        its groundness patterns seed the instantiation half of the
        domain and its chain certificates seed the conditionality
        half;
     2. {!Absint} scans the annotated database (query modelled as a
        headless clause) and computes the uninit / rigid / no-trail
        certificates as greatest fixpoints -- weakened first when a
        defect is seeded;
     3. the program is compiled twice with the SAME det plan: baseline
        (no bind plan) and bind (plan applied); the two code arrays
        are address-aligned, wamlint verifies the bind code;
     4. at each PE count both versions run; answer sets must agree,
        the bind trace must be tracecheck-clean, and the {!Oracle}
        replays the baseline trace auditing every certified site;
     5. per-area reference counts of both runs quantify what the
        specialization bought (trail first, the paper's Figure-4
        levers). *)

type analysis = {
  bench : Benchlib.Programs.benchmark;
  det_a : Detan.Driver.analysis;
  absr : Absint.result;
  plan : Plan.t;
  base_prog : Wam.Program.t;  (** det plan only *)
  bind_prog : Wam.Program.t;  (** det plan + bind plan *)
  lint_diags : Wam.Wamlint.diag list;  (** wamlint over the bind code *)
  analysis_ms : float;
}

(* The bind build's checks: the site oracle replays the base trace,
   tracecheck the bind trace. *)
type checks = { oracle : Oracle.report; trace_summary : Tracecheck.summary }

type pe_run = checks Benchlib.Driver.pe_run
(** The variant is the bind build. *)

type report = {
  a : analysis;
  runs : pe_run list;
  oracle_ok : bool;
  answers_ok : bool;
  trace_ok : bool;
  lint_clean : bool;
  trail_drop : bool;
      (** trail references never above baseline at any PE count, and
          strictly below wherever the baseline trails at all *)
}

let certs_any r =
  r.a.plan.Plan.n_uninit > 0 || r.a.plan.Plan.n_rigid > 0
  || r.a.plan.Plan.n_value_nt > 0
  || r.a.plan.Plan.n_nt_builtin > 0

let analyze ?defect (b : Benchlib.Programs.benchmark) =
  let det_a = Detan.Driver.analyze b in
  let t0 = Unix.gettimeofday () in
  let { Benchlib.Driver.db; patterns; transform } = det_a.Detan.Driver.front in
  let query_db =
    Prolog.Database.of_string
      ("'$bindan_query' :- " ^ b.Benchlib.Programs.query ^ ".")
  in
  let weakening = Defects.weakening ?defect () in
  let uninit_escape, wrong_builtin = Defects.plan_flags ?defect () in
  let absr =
    Absint.analyze ~weakening ~db:(transform db) ~query_db ~patterns
      ~chains:det_a.Detan.Driver.det_chains ()
  in
  let plan = Plan.of_result ~uninit_escape ~wrong_builtin absr in
  let base_prog =
    Benchlib.Runner.prepare ~parallel:true ~det:det_a.Detan.Driver.plan
      ~transform b
  in
  let bind_prog =
    Benchlib.Runner.prepare ~parallel:true ~det:det_a.Detan.Driver.plan
      ~bind:plan.Plan.plan ~transform b
  in
  let lint_diags = Wam.Wamlint.check_program bind_prog in
  let analysis_ms =
    det_a.Detan.Driver.analysis_ms +. ((Unix.gettimeofday () -. t0) *. 1000.)
  in
  { bench = b; det_a; absr; plan; base_prog; bind_prog; lint_diags; analysis_ms }

let run ?defect ?(pes = Benchlib.Driver.default_pes) ?on_pair b =
  let a = analyze ?defect b in
  let runs =
    Benchlib.Driver.paired ?on_pair ~pes
      ~run:(fun bind n_pes ->
        Benchlib.Runner.run_rapwam ~keep_trace:true
          ~transform:a.det_a.Detan.Driver.front.Benchlib.Driver.transform
          ~det:a.det_a.Detan.Driver.plan
          ?bind:(if bind then Some a.plan.Plan.plan else None)
          ~n_pes b)
      (fun base bind ->
        {
          oracle =
            Oracle.check ~symbols:a.base_prog.Wam.Program.symbols
              ~base_code:a.base_prog.Wam.Program.code
              ~bind_code:a.bind_prog.Wam.Program.code
              base.Benchlib.Runner.trace;
          trace_summary = Tracecheck.check_buffer bind.Benchlib.Runner.trace;
        })
  in
  let all f = List.for_all (fun (r : pe_run) -> f r) runs in
  let rep =
    {
      a;
      runs;
      oracle_ok = all (fun r -> Oracle.ok r.checks.oracle);
      answers_ok = all (fun r -> r.answers_equal);
      trace_ok = all (fun r -> Tracecheck.ok r.checks.trace_summary);
      lint_clean = a.lint_diags = [];
      trail_drop = false;
    }
  in
  {
    rep with
    trail_drop =
      certs_any rep
      && all (fun r ->
             let b, s = Benchlib.Driver.area_refs r Trace.Area.Trail in
             s <= b && (b = 0 || s < b));
  }

(* ------------------------------------------------------------------ *)
(* JSON.                                                              *)

let json_of_report r =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\"bench\": %S, \"analysis_ms\": %.3f, \"global_cp_free\": %b, \
     \"sites_scanned\": %d, \"uninit_certs\": %d, \"rigid_certs\": %d, \
     \"value_nt_certs\": %d, \"nt_builtin_certs\": %d"
    r.a.bench.Benchlib.Programs.name r.a.analysis_ms
    r.a.absr.Absint.global_cp_free r.a.absr.Absint.n_sites
    r.a.plan.Plan.n_uninit r.a.plan.Plan.n_rigid r.a.plan.Plan.n_value_nt
    r.a.plan.Plan.n_nt_builtin;
  Printf.bprintf b ", \"facts\": %s" (Facts.json_of_facts r.a.absr.Absint.facts);
  Printf.bprintf b
    ", \"oracle_ok\": %b, \"answers_ok\": %b, \"tracecheck_ok\": %b, \
     \"lint_clean\": %b, \"trail_drop\": %b, \"runs\": ["
    r.oracle_ok r.answers_ok r.trace_ok r.lint_clean r.trail_drop;
  List.iteri
    (fun i (run : pe_run) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"pes\": %d, \"records\": %d, \"oracle_sites\": %d, \
         \"oracle_windows\": %d, \"oracle_violations\": %d, \
         \"answers_equal\": %b, \"tracecheck_violations\": %d, \
         \"base_total_refs\": %d, \"bind_total_refs\": %d, \
         \"trail_elided\": %d, \"deref_skipped\": %d, \"areas\": ["
        run.n_pes run.base_total_refs run.checks.oracle.Oracle.sites_checked
        run.checks.oracle.Oracle.windows
        (List.length run.checks.oracle.Oracle.violations)
        run.answers_equal run.checks.trace_summary.Tracecheck.n_violations
        run.base_total_refs run.variant_total_refs run.trail_elided
        run.deref_skipped;
      List.iteri
        (fun j (d : Benchlib.Driver.area_delta) ->
          if j > 0 then Buffer.add_string b ", ";
          Printf.bprintf b
            "{\"area\": \"%s\", \"base_reads\": %d, \"base_writes\": %d, \
             \"bind_reads\": %d, \"bind_writes\": %d}"
            (Trace.Area.slug d.ad_area)
            d.ad_base_reads d.ad_base_writes d.ad_variant_reads
            d.ad_variant_writes)
        run.areas;
      Buffer.add_string b "]}")
    r.runs;
  Buffer.add_string b "]}";
  Buffer.contents b

let tool =
  {
    Benchlib.Driver.fixtures = Fixtures.all;
    defects = Defects.all;
    run = (fun defect pes b -> run ?defect ~pes b);
    clean = (fun r -> r.oracle_ok && r.answers_ok && r.trace_ok && r.lint_clean);
    fires =
      (fun r -> function
        | Benchlib.Driver.Oracle -> not r.oracle_ok
        | Answers -> not r.answers_ok
        | Lint -> not r.lint_clean
        | Audit -> false);
    json_of_report;
  }
