(* bindan: static binding & instantiation analysis driving trail-check
   elision and deref-free specialized unification.

     bindan --benchmarks --pes 1,4,8
     bindan --bench qsort --json BENCH_bindan.json
     bindan --bench deriv --defect cond_blind
     bindan --bench tak --facts

   For each benchmark the tool seeds the domain from the groundness
   analysis and detan's chain certificates, computes the uninit /
   rigid / no-trail certificates, compiles the program twice with the
   same det plan (baseline and bind), lints the bind code, runs both
   at each PE count, compares answer sets, tracechecks the bind
   trace, and replays the baseline trace through the site oracle.

   --defect weakens one analysis rule first and expects its detector
   (oracle or wamlint) to object; exit status is nonzero exactly when
   something was flagged, so CI asserts detection with a plain `!`
   negation. *)

let pp_report verbose (r : Bindan.Driver.report) =
  let a = r.Bindan.Driver.a in
  Format.printf
    "%-12s sites %-4d certs: %d uninit, %d rigid, %d value_nt, %d builtin_nt%s  \
     %s %s %s %s@."
    a.Bindan.Driver.bench.Benchlib.Programs.name a.Bindan.Driver.absr.Bindan.Absint.n_sites
    a.Bindan.Driver.plan.Bindan.Plan.n_uninit a.Bindan.Driver.plan.Bindan.Plan.n_rigid
    a.Bindan.Driver.plan.Bindan.Plan.n_value_nt
    a.Bindan.Driver.plan.Bindan.Plan.n_nt_builtin
    (if a.Bindan.Driver.absr.Bindan.Absint.global_cp_free then " (cp-free)"
     else "")
    (if r.Bindan.Driver.oracle_ok then "oracle ok" else "ORACLE VIOLATIONS")
    (if r.Bindan.Driver.answers_ok then "answers ok" else "ANSWERS DIFFER")
    (if r.Bindan.Driver.trace_ok then "trace ok" else "TRACE DIRTY")
    (if r.Bindan.Driver.lint_clean then "lint ok" else "LINT DIRTY");
  List.iter
    (fun (run : Bindan.Driver.pe_run) ->
      let oracle = run.Benchlib.Driver.checks.Bindan.Driver.oracle in
      let tr_base, tr_bind = Benchlib.Driver.area_refs run Trace.Area.Trail in
      Format.printf
        "  %dpe: %d records, %d site(s), %d window(s), %d violation(s); trail \
         %d -> %d, elided %d, deref skipped %d@."
        run.Benchlib.Driver.n_pes run.Benchlib.Driver.base_total_refs
        oracle.Bindan.Oracle.sites_checked oracle.Bindan.Oracle.windows
        (List.length oracle.Bindan.Oracle.violations)
        tr_base tr_bind run.Benchlib.Driver.trail_elided
        run.Benchlib.Driver.deref_skipped;
      List.iteri
        (fun i v ->
          if i < 8 || verbose then
            Format.printf "    %a@." Bindan.Oracle.pp_violation v)
        oracle.Bindan.Oracle.violations)
    r.Bindan.Driver.runs;
  if not r.Bindan.Driver.lint_clean then
    List.iter
      (fun d -> Format.printf "    %a@." Wam.Wamlint.pp_diag d)
      a.Bindan.Driver.lint_diags;
  if verbose then
    Format.printf "%a@." Bindan.Facts.pp a.Bindan.Driver.absr.Bindan.Absint.facts

let pp_facts _defect (b : Benchlib.Programs.benchmark) =
  let a = Bindan.Driver.analyze b in
  Format.printf "== %s ==@.%a@." b.Benchlib.Programs.name Bindan.Facts.pp
    a.Bindan.Driver.absr.Bindan.Absint.facts

let () =
  Benchlib.Cli.main ~name:"bindan"
    ~doc:
      "static binding & instantiation analysis: trail-check elision, \
       deref-free specialized unification, and the trace-replay site oracle"
    ~pes_doc:"PE counts both machines run and the oracle is checked at."
    ~defect_doc:
      "Weaken the analysis with the named seeded defect first and expect \
       its detector (oracle or wamlint) to flag it; exit 1 on detection, 0 \
       when it escapes."
    ~stop:
      ("facts", "Print the per-predicate binding facts and stop.", pp_facts)
    ~pp_report Bindan.Driver.tool
