(* The analysis driver shared by refmap, detan and bindan.

   Every static analysis runs the same pipeline around its own
   analysis and oracle:

     1. the global groundness analysis seeds call patterns, and the
        annotator rebuilds the database from them ({!front});
     2. RAP-WAM runs the program at each PE count ({!default_pes});
        an analysis that compiles twice runs a base and a variant
        build side by side and compares them ({!paired});
     3. the analysis's checks score every run; a seeded {!defect}
        must trip its designated detector ({!detected}); the reports
        are written as JSON ({!json_of_reports}).

   An analysis hands {!Cli.main} one {!t}: its fixtures, defect
   registry, run function and report accessors. *)

type front = {
  db : Prolog.Database.t;  (** the parsed benchmark source *)
  patterns : Prolog.Abspat.t;  (** inferred call patterns *)
  transform : Prolog.Database.t -> Prolog.Database.t;
      (** the annotator the runner compiles through *)
}

let front (b : Programs.benchmark) =
  let db = Prolog.Database.of_string b.Programs.src in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string b.Programs.query ]
      db
  in
  let patterns = Analysis.Summary.patterns summary in
  { db; patterns; transform = Prolog.Annotate.database ~patterns }

let default_pes = [ 1; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Paired base/variant runs.                                          *)

type area_delta = {
  ad_area : Trace.Area.t;
  ad_base_reads : int;
  ad_base_writes : int;
  ad_variant_reads : int;
  ad_variant_writes : int;
}

type 'c pe_run = {
  n_pes : int;
  answers_equal : bool;
  areas : area_delta list;  (** every area, in [Trace.Area.all] order *)
  base_total_refs : int;
  variant_total_refs : int;
  cp_created : int;  (** variant run: try executions *)
  cp_elided : int;  (** variant run: shallow chain entries *)
  trail_elided : int;  (** variant run: untrailed certified bindings *)
  deref_skipped : int;  (** variant run: deref-free certified reads *)
  checks : 'c;  (** the analysis's own checks of this pair *)
}

(* Base and variant references (reads + writes) to one area. *)
let area_refs run area =
  let d = List.find (fun d -> d.ad_area = area) run.areas in
  (d.ad_base_reads + d.ad_base_writes, d.ad_variant_reads + d.ad_variant_writes)

(* [run variant n_pes] runs the base ([false]) or variant ([true])
   build; [checks base variant] scores the pair while both traces are
   alive, and so does [on_pair n_pes base variant] (the bench prices
   them). *)
let paired ?on_pair ~pes ~run checks =
  List.map
    (fun n_pes ->
      let base = run false n_pes in
      let variant = run true n_pes in
      Option.iter (fun f -> f n_pes base variant) on_pair;
      let stats (r : Runner.result) = r.Runner.area_stats in
      {
        n_pes;
        answers_equal = Runner.answers_agree base variant;
        areas =
          List.map
            (fun ar ->
              {
                ad_area = ar;
                ad_base_reads = Trace.Areastats.reads (stats base) ar;
                ad_base_writes = Trace.Areastats.writes (stats base) ar;
                ad_variant_reads = Trace.Areastats.reads (stats variant) ar;
                ad_variant_writes = Trace.Areastats.writes (stats variant) ar;
              })
            Trace.Area.all;
        base_total_refs = base.Runner.total_refs;
        variant_total_refs = variant.Runner.total_refs;
        cp_created = variant.Runner.cp_created;
        cp_elided = variant.Runner.cp_elided;
        trail_elided = variant.Runner.trail_elided;
        deref_skipped = variant.Runner.deref_skipped;
        checks = checks base variant;
      })
    (List.sort_uniq compare pes)

(* ------------------------------------------------------------------ *)
(* Seeded defects and the analysis record.                            *)

(* Which check must object to a seeded defect: the trace-replay
   oracle, the base/variant answer comparison, wamlint over the
   emitted code, or refmap's certification audit. *)
type detector = Oracle | Answers | Lint | Audit

let detector_name = function
  | Oracle -> "oracle"
  | Answers -> "answers"
  | Lint -> "lint"
  | Audit -> "audit"

type defect = {
  name : string;
  detector : detector;
  description : string;
  probes : Programs.benchmark list;
      (** fixture programs, beyond the pool, shaped to trip it *)
}

type 'r t = {
  fixtures : Programs.benchmark list;  (** added to the CLI's pool *)
  defects : defect list;
  run : defect option -> int list -> Programs.benchmark -> 'r;
  clean : 'r -> bool;  (** every check of the report passed *)
  fires : 'r -> detector -> bool;  (** the detector objects to the report *)
  json_of_report : 'r -> string;
}

(* A seeded defect is detected when its designated detector fires on
   at least one report. *)
let detected t d reports = List.exists (fun r -> t.fires r d.detector) reports

let json_of_reports t rs =
  "[\n  " ^ String.concat ",\n  " (List.map t.json_of_report rs) ^ "\n]\n"
