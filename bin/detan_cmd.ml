(* detan: static determinacy analysis driving choice-point elision and
   shallow backtracking.

     detan --benchmarks --pes 1,4,8
     detan --bench qsort --json BENCH_detan.json
     detan --bench deriv --defect force_certify
     detan --bench tak --counts

   For each benchmark the tool grades every predicate on the
   success-count lattice, certifies try chains whose alternatives are
   provably dead after the first commit, compiles the program twice
   (baseline and det), lints the det code, runs both at each PE count,
   compares answer sets, and replays the baseline trace through the
   soundness oracle: a backtrack that commits inside an alternative
   the det compile elided is a violation.

   --defect weakens one analysis rule first and expects its detector
   (oracle, answer-set comparison, or wamlint) to object; exit status
   is nonzero exactly when something was flagged, so CI asserts
   detection with a plain `!` negation. *)

let pp_report verbose (r : Detan.Driver.report) =
  let a = r.Detan.Driver.a in
  let el = a.Detan.Driver.elision in
  Format.printf
    "%-12s preds %d (det %d, %d det arms)  chains %d/%d det, %d var-pruned  \
     %s %s %s@."
    a.Detan.Driver.bench.Benchlib.Programs.name
    (List.length a.Detan.Driver.counts)
    a.Detan.Driver.det_preds a.Detan.Driver.det_arms el.Detan.Driver.chains_det
    el.Detan.Driver.chains_total el.Detan.Driver.dead_var_chains
    (if r.Detan.Driver.oracle_ok then "oracle ok" else "ORACLE VIOLATIONS")
    (if r.Detan.Driver.answers_ok then "answers ok" else "ANSWERS DIFFER")
    (if r.Detan.Driver.lint_clean then "lint ok" else "LINT DIRTY");
  List.iter
    (fun (run : Detan.Driver.pe_run) ->
      let oracle = run.Benchlib.Driver.checks in
      let cp_base, cp_det =
        Benchlib.Driver.area_refs run Trace.Area.Choice_point
      in
      let tr_base, tr_det = Benchlib.Driver.area_refs run Trace.Area.Trail in
      Format.printf
        "  %dpe: %d records, %d trial(s), %d violation(s); cp %d -> %d, \
         trail %d -> %d, elided %d@."
        run.Benchlib.Driver.n_pes run.Benchlib.Driver.base_total_refs
        oracle.Detan.Oracle.trials
        (List.length oracle.Detan.Oracle.violations)
        cp_base cp_det tr_base tr_det run.Benchlib.Driver.cp_elided;
      List.iteri
        (fun i v ->
          if i < 8 || verbose then
            Format.printf "    %a@." Detan.Oracle.pp_violation v)
        oracle.Detan.Oracle.violations)
    r.Detan.Driver.runs;
  if not r.Detan.Driver.lint_clean then
    List.iter
      (fun d -> Format.printf "    %a@." Wam.Wamlint.pp_diag d)
      a.Detan.Driver.lint_diags;
  if verbose then
    List.iter
      (fun ((name, arity), (t, d)) ->
        Format.printf "    %s/%d: %d/%d chains det@." name arity d t)
      el.Detan.Driver.per_pred

let pp_counts _defect (b : Benchlib.Programs.benchmark) =
  let a = Detan.Driver.analyze b in
  Format.printf "== %s ==@." b.Benchlib.Programs.name;
  List.iter
    (fun ((name, arity), c) ->
      Format.printf "  %-24s %s@."
        (Printf.sprintf "%s/%d" name arity)
        (Detan.Lattice.to_string c))
    a.Detan.Driver.counts

let () =
  Benchlib.Cli.main ~name:"detan"
    ~doc:
      "static determinacy analysis: choice-point elision certificates, \
       shallow-backtracking compile, and the trace-replay soundness oracle"
    ~pes_doc:"PE counts both machines run and the oracle is checked at."
    ~defect_doc:
      "Weaken the analysis with the named seeded defect first and expect \
       its detector (oracle, answer comparison or wamlint) to flag it; exit \
       1 on detection, 0 when it escapes."
    ~stop:
      ( "counts",
        "Print the per-predicate success-count grades and stop.",
        pp_counts )
    ~pp_report Detan.Driver.tool
