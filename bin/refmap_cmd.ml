(* refmap: static memory-area access analysis over compiled RAP-WAM
   code — certifies parallel groups race-free, predicts shareability
   tags, and checks both against real traces.

     refmap --benchmarks --pes 1,4,8
     refmap --bench qsort --json BENCH_refmap.json
     refmap --bench deriv --defect trail-blind
     refmap --bench qsort --summaries

   For each benchmark the tool runs the global analysis + annotator
   (with the summaries acting as the race-freedom certifier), builds
   the static summaries over the compiled code, runs RAP-WAM at each
   PE count, and checks the soundness oracle (every dynamic access
   within its predicate's summary), the certification audit, and the
   tag precision/recall against the per-address ground truth.

   --defect damages the analysis first and expects its detector to
   object; exit status is nonzero exactly when something was flagged,
   so CI asserts detection with a plain `!` negation. *)

let pp_report verbose (r : Refmap.Driver.report) =
  let cert = r.Refmap.Driver.a.Refmap.Driver.certify in
  Format.printf "%-8s preds %-3d groups %d/%d certified  %s@."
    r.Refmap.Driver.a.Refmap.Driver.bench.Benchlib.Programs.name
    (Hashtbl.length r.Refmap.Driver.a.Refmap.Driver.static.Refmap.Static.preds)
    cert.Refmap.Certify.certified cert.Refmap.Certify.total
    (if r.Refmap.Driver.oracle_ok then "oracle ok" else "ORACLE VIOLATIONS");
  List.iter
    (fun (run : Refmap.Driver.pe_run) ->
      Format.printf "  %dpe: %d records, %d violation(s), tracecheck %s@."
        run.Refmap.Driver.n_pes run.Refmap.Driver.records
        (List.length run.Refmap.Driver.violations)
        (if run.Refmap.Driver.tracecheck_clean then "clean" else "DIRTY");
      List.iteri
        (fun i v ->
          if i < 8 || verbose then
            Format.printf "    %a@." Refmap.Oracle.pp_violation v)
        run.Refmap.Driver.violations)
    r.Refmap.Driver.runs;
  Format.printf
    "  tags: %d addrs, %d shared; precision %.3f (baseline %.3f) recall %.3f@."
    r.Refmap.Driver.tags.Refmap.Oracle.addrs
    r.Refmap.Driver.tags.Refmap.Oracle.dyn_shared
    r.Refmap.Driver.tags.Refmap.Oracle.precision
    r.Refmap.Driver.tags.Refmap.Oracle.baseline_precision
    r.Refmap.Driver.tags.Refmap.Oracle.recall;
  if not r.Refmap.Driver.audit_ok then
    Format.printf "  AUDIT: claimed static_safe %d but clean re-derivation \
                   certifies %d@."
      r.Refmap.Driver.a.Refmap.Driver.stats.Prolog.Annotate.static_safe
      cert.Refmap.Certify.certified;
  if verbose then
    List.iter
      (fun e -> Format.printf "  %a@." Refmap.Certify.pp_entry e)
      cert.Refmap.Certify.entries

let pp_summaries defect (b : Benchlib.Programs.benchmark) =
  let a = Refmap.Driver.analyze ?defect b in
  Format.printf "== %s ==@.%a@." b.Benchlib.Programs.name Refmap.Static.pp
    a.Refmap.Driver.static

let () =
  Benchlib.Cli.main ~name:"refmap"
    ~doc:
      "static memory-area access analysis: parcall race-freedom \
       certification and shareability-tag prediction"
    ~pes_doc:"PE counts the soundness oracle is checked at."
    ~defect_doc:
      "Damage the analysis with the named seeded defect first and expect \
       the oracle (or the certification audit) to flag it; exit 1 on \
       detection, 0 when it escapes."
    ~stop:
      ( "summaries",
        "Print the per-predicate area/mode summaries and stop.",
        pp_summaries )
    ~pp_report Refmap.Driver.tool
