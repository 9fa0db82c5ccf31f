(* Whole-benchmark determinacy pipeline.

   Per benchmark:
     1. global groundness analysis seeds call patterns (the same
        analysis the annotator consumes);
     2. the success-count fixpoint ({!Counts}) grades every predicate
        on the lattice, and the exclusion test ({!Exclusion}) builds
        the compiler plan -- weakened first when a defect is seeded;
     3. the program is compiled twice: baseline (no plan, chains
        logged) and det (plan applied, choice points elided); wamlint
        verifies the det code, including its chain shapes;
     4. at each PE count both versions run; answer sets must agree,
        and the {!Oracle} replays the baseline trace checking that no
        elided alternative was ever needed;
     5. per-area reference counts of both runs quantify what the
        elision bought (choice-point and trail traffic). *)

type key = string * int

type elision = {
  chains_total : int;  (** multi-alternative chains emitted (det compile) *)
  chains_det : int;  (** of which choice-point free *)
  dead_var_chains : int;  (** variable-dispatch chains pruned to fail *)
  per_pred : (key * (int * int)) list;  (** pred -> (chains, det chains) *)
}

type analysis = {
  bench : Benchlib.Programs.benchmark;
  front : Benchlib.Driver.front;
  plan : Wam.Compile.det_plan;
  counts : (key * Lattice.t) list;  (** success-count grade per predicate *)
  det_preds : int;  (** predicates graded deterministic (<> Multi) *)
  det_arms : int;
      (** parcall arms whose predicate the lattice grades deterministic
          (annotator tally: no redo can re-enter such arms, so the
          parcall skips their marker bookkeeping) *)
  base_prog : Wam.Program.t;
  base_chains : Wam.Compile.chain_info list;
  certified : Wam.Compile.chain_info list;
      (** baseline chains the plan certifies (the oracle's watch list) *)
  dead : Wam.Compile.chain_info list;
      (** baseline variable chains the plan prunes (must never run) *)
  det_chains : Wam.Compile.chain_info list;
  elision : elision;
  lint_diags : Wam.Wamlint.diag list;  (** wamlint over the det code *)
  analysis_ms : float;
}

type pe_run = Oracle.report Benchlib.Driver.pe_run
(** The oracle replays the base trace; the variant is the det build. *)

type report = {
  a : analysis;
  runs : pe_run list;
  oracle_ok : bool;
  answers_ok : bool;
  lint_clean : bool;
  cp_drop : bool;
      (** choice-point references strictly below baseline at every PE
          count (expected whenever anything was certified) *)
  trail_drop : bool;  (** same for trail references (non-strict) *)
}

let analyze ?defect (b : Benchlib.Programs.benchmark) =
  let front = Benchlib.Driver.front b in
  let { Benchlib.Driver.db; patterns; transform } = front in
  let t0 = Unix.gettimeofday () in
  let plan = Defects.plan ?defect ~patterns () in
  let counts_tbl = Counts.of_database ~patterns (transform db) in
  let counts = Counts.report (transform db) counts_tbl in
  let det_preds =
    List.length (List.filter (fun (_, c) -> Lattice.deterministic c) counts)
  in
  let det_arms =
    (* score the annotation's parcall arms against the lattice: an arm
       graded deterministic ({1}, {0,1} or {0}) has no second solution,
       so backtracking never re-enters it and the parcall can skip its
       marker bookkeeping (a failing arm fails the whole CGE) *)
    let determinacy key =
      match List.assoc_opt key counts with
      | Some c -> Lattice.deterministic c
      | None -> false
    in
    let _, stats = Prolog.Annotate.database_stats ~patterns ~determinacy db in
    stats.Prolog.Annotate.det_arms
  in
  let base_ref = ref [] in
  let base_prog =
    Benchlib.Runner.prepare ~parallel:true ~chains:base_ref ~transform b
  in
  let det_ref = ref [] in
  let det_prog =
    Benchlib.Runner.prepare ~parallel:true ~det:plan ~chains:det_ref ~transform
      b
  in
  let lint_diags = Wam.Wamlint.check_program det_prog in
  let base_chains = List.rev !base_ref in
  let det_chains = List.rev !det_ref in
  (* Re-derive the certificate for each baseline chain: compilation is
     deterministic, so these are the same (pred, bucket, clauses)
     triples the det compile decided on, at baseline addresses. *)
  let clauses_of (ci : Wam.Compile.chain_info) =
    let arr =
      Array.of_list
        (Prolog.Database.clauses base_prog.Wam.Program.db ci.ci_pred)
    in
    List.map (fun i -> arr.(i)) ci.ci_clauses
  in
  let is_dead (ci : Wam.Compile.chain_info) =
    ci.ci_bucket = "var" && plan.Wam.Compile.det_dead_var ci.ci_pred
  in
  let dead = List.filter is_dead base_chains in
  let certified =
    List.filter
      (fun (ci : Wam.Compile.chain_info) ->
        (not (is_dead ci))
        && snd ci.ci_pred < 256
        && plan.Wam.Compile.det_certify ~db:base_prog.Wam.Program.db
             ~pred:ci.ci_pred ~bucket:ci.ci_bucket (clauses_of ci))
      base_chains
  in
  let per_pred =
    List.fold_left
      (fun acc (ci : Wam.Compile.chain_info) ->
        let t, d =
          match List.assoc_opt ci.ci_pred acc with
          | Some td -> td
          | None -> (0, 0)
        in
        (ci.ci_pred, (t + 1, d + if ci.ci_det then 1 else 0))
        :: List.remove_assoc ci.ci_pred acc)
      [] det_chains
    |> List.sort compare
  in
  let elision =
    {
      chains_total = List.length det_chains;
      chains_det =
        List.length
          (List.filter (fun (ci : Wam.Compile.chain_info) -> ci.ci_det) det_chains);
      dead_var_chains = List.length dead;
      per_pred;
    }
  in
  let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  {
    bench = b;
    front;
    plan;
    counts;
    det_preds;
    det_arms;
    base_prog;
    base_chains;
    certified;
    dead;
    det_chains;
    elision;
    lint_diags;
    analysis_ms;
  }

let run ?defect ?(pes = Benchlib.Driver.default_pes) ?on_pair b =
  let a = analyze ?defect b in
  let runs =
    Benchlib.Driver.paired ?on_pair ~pes
      ~run:(fun det n_pes ->
        Benchlib.Runner.run_rapwam ~keep_trace:true
          ~transform:a.front.Benchlib.Driver.transform
          ?det:(if det then Some a.plan else None)
          ~n_pes b)
      (fun base _ ->
        Oracle.check ~code:a.base_prog.Wam.Program.code ~chains:a.certified
          ~dead:a.dead base.Benchlib.Runner.trace)
  in
  let drop area better =
    List.for_all
      (fun r ->
        let base, det = Benchlib.Driver.area_refs r area in
        better det base)
      runs
  in
  let certified_any = a.certified <> [] || a.dead <> [] in
  {
    a;
    runs;
    oracle_ok =
      List.for_all
        (fun (r : pe_run) -> r.checks.Oracle.violations = [])
        runs;
    answers_ok =
      List.for_all (fun (r : pe_run) -> r.Benchlib.Driver.answers_equal) runs;
    lint_clean = a.lint_diags = [];
    cp_drop = certified_any && drop Trace.Area.Choice_point ( < );
    trail_drop = certified_any && drop Trace.Area.Trail ( <= );
  }

(* ------------------------------------------------------------------ *)
(* JSON.                                                              *)

let json_of_report r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"bench\": %S, \"analysis_ms\": %.3f, \"preds\": %d, \"det_preds\": %d, \
     \"det_arms\": %d"
    r.a.bench.Benchlib.Programs.name r.a.analysis_ms
    (List.length r.a.counts)
    r.a.det_preds r.a.det_arms;
  Printf.bprintf b
    ", \"chains_total\": %d, \"chains_det\": %d, \"dead_var_chains\": %d, \
     \"certified_chains\": %d"
    r.a.elision.chains_total r.a.elision.chains_det
    r.a.elision.dead_var_chains
    (List.length r.a.certified);
  Buffer.add_string b ", \"elision\": [";
  List.iteri
    (fun i ((name, arity), (t, d)) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"pred\": \"%s/%d\", \"chains\": %d, \"det\": %d}"
        name arity t d)
    r.a.elision.per_pred;
  Printf.bprintf b
    "], \"oracle_ok\": %b, \"answers_ok\": %b, \"lint_clean\": %b, \
     \"cp_drop\": %b, \"trail_drop\": %b, \"runs\": ["
    r.oracle_ok r.answers_ok r.lint_clean r.cp_drop r.trail_drop;
  List.iteri
    (fun i (run : pe_run) ->
      let cp = Benchlib.Driver.area_refs run Trace.Area.Choice_point in
      let trail = Benchlib.Driver.area_refs run Trace.Area.Trail in
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"pes\": %d, \"records\": %d, \"oracle_violations\": %d, \
         \"oracle_trials\": %d, \"answers_equal\": %b, \"base_cp_refs\": %d, \
         \"det_cp_refs\": %d, \"base_trail_refs\": %d, \"det_trail_refs\": \
         %d, \"base_total_refs\": %d, \"det_total_refs\": %d, \
         \"det_cp_created\": %d, \"det_cp_elided\": %d}"
        run.n_pes run.base_total_refs
        (List.length run.checks.Oracle.violations)
        run.checks.Oracle.trials run.answers_equal (fst cp) (snd cp)
        (fst trail) (snd trail) run.base_total_refs run.variant_total_refs
        run.cp_created run.cp_elided)
    r.runs;
  Buffer.add_string b "]}";
  Buffer.contents b

let tool =
  {
    Benchlib.Driver.fixtures = Fixtures.all;
    defects = Defects.all;
    run = (fun defect pes b -> run ?defect ~pes b);
    clean = (fun r -> r.oracle_ok && r.answers_ok && r.lint_clean);
    fires =
      (fun r -> function
        | Benchlib.Driver.Oracle -> not r.oracle_ok
        | Answers -> not r.answers_ok
        | Lint -> not r.lint_clean
        | Audit -> false);
    json_of_report;
  }
