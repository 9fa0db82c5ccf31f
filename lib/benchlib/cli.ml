(* Shared cmdliner vocabulary and run loop of the analysis CLIs.

   Every analysis binary (detan, refmap, tracecheck, bindan, ...)
   parses the same argument families: a benchmark selection drawn
   from a pool, PE-count lists, the --quick trace-size switch, a
   seeded-defect selector, --verbose and --json FILE.  This module
   holds the converters, the argument builders (parameterized on the
   name pool and defaults), the helpers every tool repeats (resolving
   a selection against its pool, writing a JSON report file) and
   {!main}, the whole command of an analysis built on {!Driver}. *)

open Cmdliner

(* A strictly positive count (PE counts, violation caps). *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
      Error
        (`Msg (Printf.sprintf "%d is not a positive count (expected >= 1)" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive count, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let names_of pool =
  List.map (fun (b : Programs.benchmark) -> b.Programs.name) pool

let bench_arg ?(doc = "Benchmark(s) to analyze (default: all).") names =
  Arg.(
    value
    & opt (list (enum (List.map (fun n -> (n, n)) names))) []
    & info [ "b"; "bench" ] ~docv:"NAME[,NAME...]" ~doc)

let benchmarks_flag =
  Arg.(
    value & flag
    & info [ "benchmarks" ] ~doc:"Analyze every shipped benchmark (default).")

let pes_arg ?(doc = "PE counts the analysis is checked at.") default =
  Arg.(value & opt (list pos_int) default & info [ "p"; "pes" ] ~docv:"LIST" ~doc)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use the reduced benchmark inputs (CI-sized traces).")

let defect_arg ~doc names =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "defect" ] ~docv:"NAME" ~doc)

let verbose_flag =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print per-item decisions and all violations.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the reports as JSON.")

(* Resolve a --bench selection against the tool's pool (cmdliner's
   enum already rejected unknown names, but a name can still miss the
   pool when --quick swaps input sizes). *)
let select ~pool = function
  | [] -> pool
  | names ->
    List.map
      (fun n ->
        match
          List.find_opt (fun (b : Programs.benchmark) -> b.Programs.name = n) pool
        with
        | Some b -> b
        | None -> invalid_arg ("unknown benchmark " ^ n))
      names

(* Write a report file when --json was given. *)
let write_json json_out contents =
  Option.iter
    (fun path -> Resilience.Atomic_io.write_string path contents)
    json_out

let eval cmd = match Cmd.eval_value cmd with Ok _ -> () | Error _ -> exit 1

(* ------------------------------------------------------------------ *)
(* The analysis CLIs.                                                 *)

(* One invocation.  With the stop flag, print [stop]'s view of each
   benchmark and stop.  Clean: run the pool, print every report and a
   FAIL line for each benchmark whose checks object.  Under --defect:
   run the damaged analysis over the pool plus the defect's probes and
   print one line saying whether any report trips its detector.  The
   exit status is 1 exactly when something was flagged (a failure when
   clean, the expected outcome under --defect), so CI asserts
   detection with a plain `!` negation. *)
let run_analysis (tool : _ Driver.t) ~pp_report ~stop bench_names pes quick
    defect stop_flag verbose json_out =
  let pool =
    (if quick then Inputs.small_benchmarks () else Inputs.default_benchmarks ())
    @ tool.Driver.fixtures
  in
  let benchmarks = select ~pool bench_names in
  let defect =
    Option.map
      (fun n -> List.find (fun (d : Driver.defect) -> d.name = n) tool.defects)
      defect
  in
  if stop_flag then List.iter (stop defect) benchmarks
  else begin
    let reports, flagged =
      match defect with
      | None ->
        let reports =
          List.map
            (fun (b : Programs.benchmark) ->
              let r = tool.run None pes b in
              pp_report verbose r;
              if not (tool.clean r) then
                Format.printf "  FAIL: %s@." b.Programs.name;
              r)
            benchmarks
        in
        (reports, not (List.for_all tool.clean reports))
      | Some d ->
        let fresh (p : Programs.benchmark) =
          not
            (List.exists
               (fun (b : Programs.benchmark) -> b.Programs.name = p.Programs.name)
               benchmarks)
        in
        let reports =
          List.map (tool.run defect pes)
            (benchmarks @ List.filter fresh d.probes)
        in
        let hit = Driver.detected tool d reports in
        if hit then
          Format.printf "defect %s detected (%s)@." d.name
            (Driver.detector_name d.detector)
        else Format.printf "MISSED: seeded defect %s escaped detection@." d.name;
        (reports, hit)
    in
    write_json json_out (Driver.json_of_reports tool reports);
    if flagged then exit 1
  end

(* The whole command of an analysis: [stop] is the print-and-stop flag
   as (name, doc, printer). *)
let main ~name ~doc ~pes_doc ~defect_doc ~stop:(stop_name, stop_doc, stop)
    ~pp_report (tool : _ Driver.t) =
  let bench_doc =
    if tool.Driver.fixtures = [] then "Benchmark(s) to analyze (default: all)."
    else "Benchmark(s) to analyze (default: all, plus the fixtures)."
  in
  eval
    (Cmd.v (Cmd.info name ~doc)
       Term.(
         const (fun bench _benchmarks ->
             run_analysis tool ~pp_report ~stop bench)
         $ bench_arg ~doc:bench_doc
             (Programs.all_names @ names_of tool.fixtures)
         $ benchmarks_flag
         $ pes_arg ~doc:pes_doc Driver.default_pes
         $ quick_arg
         $ defect_arg ~doc:defect_doc
             (List.map (fun (d : Driver.defect) -> d.name) tool.defects)
         $ Arg.(value & flag & info [ stop_name ] ~doc:stop_doc)
         $ verbose_flag $ json_arg))
