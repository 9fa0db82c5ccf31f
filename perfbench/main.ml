(* The benchmark runner: one workload, one seed, one measured run.

     main.exe --workload emulate|figure4|serve --seed N --seconds S --trace 0|1

   --trace 0 times the workload untraced and prints the end-to-end
   metrics; --trace 1 runs it untraced, then with spans, then runs its
   probes with spans, and prints the per-layer metrics, the self time
   of every layer and the tracing overhead.  Every metric is printed as "metric NAME VALUE
   UNIT"; the last line is one JSON object with the same numbers. *)

open Perfbench

let setups = 7  (* set-up is repeated and its median reported *)

(* The simulated statistics are fingerprinted on the inputs of this
   seed, whatever the run's own seed, and compared with the digests
   recorded in this file. *)
let digest_seed = 1
let digests_file = "perfbench/sim_digest.txt"

let make name ~seed =
  match name with
  | "emulate" -> Emulate.make ~seed
  | "figure4" -> Figure4.make ~seed
  | "serve" -> Serving.make ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

let workloads = [ "emulate"; "figure4"; "serve" ]

let sim_digest name =
  let w = make name ~seed:digest_seed in
  w.Workload.setup Spans.off;
  for _ = 2 to w.cycle do
    ignore (w.op Spans.off)
  done;
  Digest.to_hex (Digest.string (w.sim_stats ()))

let recorded_digest name =
  match In_channel.with_open_text digests_file In_channel.input_all with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ n; d ] when n = name -> Some d
           | _ -> None)
  | exception Sys_error _ -> None

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_tail_us", "us");
    ("minstr_per_s", "Minstr/s");
    ("mref_per_s", "Mref/s");
    ("alloc_words_per_op", "words");
    ("peak_heap_words", "words");
  ]

let layers =
  [ "bench"; "prolog"; "wam.compile"; "wam.run"; "rapwam"; "trace"; "tracecheck";
    "cachesim"; "costan"; "memo"; "server" ]

let per_layer =
  [
    ("wam.compile.busy_s", "s");
    ("wam.seq.busy_s", "s");
    ("wam.seq.instructions", "count");
    ("rapwam.create.busy_s", "s");
    ("rapwam.run.busy_s", "s");
    ("rapwam.instructions", "count");
    ("rapwam.rounds", "count");
    ("rapwam.parcalls", "count");
    ("rapwam.goals_stolen", "count");
    ("rapwam.ns_per_instr", "ns");
    ("trace.refs", "count");
    ("trace.areastats.busy_s", "s");
    ("rapwam.tracegen.busy_s", "s");
    ("trace.buffer_words", "words");
    ("tracecheck.busy_s", "s");
    ("tracecheck.accesses", "count");
    ("tracecheck.violations", "count");
  ]
  @ List.concat_map
      (fun k ->
        let p = "cachesim." ^ Figure4.slug k in
        [ (p ^ ".busy_s", "s"); (p ^ ".bus_words", "words"); (p ^ ".misses", "count") ])
      Figure4.kinds
  @ [
      ("memo.key.busy_s", "s");
      ("memo.lookup.busy_s", "s");
      ("memo.hit_ratio", "ratio");
      ("memo.inserts", "count");
      ("memo.evictions", "count");
      ("costan.verdict.busy_s", "s");
      ("server.compute.busy_s", "s");
      ("prolog.parse.busy_s", "s");
      ("wam.run.busy_s", "s");
      ("wam.run.alloc_words", "words");
      ("wam.run.instructions", "count");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("sim.digest_match", "bool");
      ("trace.overhead_ratio", "ratio");
      ("trace.ops", "count");
    ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_s" l, "s")) layers

let number v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %s %s\n" n (number v) u) metrics;
  let fields =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let print_run_facts (w : Workload.t) (r : Loop.result) =
  let p, v, beyond = Loop.tail r.lat_ns in
  Printf.printf "ops %d failed %d failed_ops_ratio %s elapsed_s %.3f\n" r.attempted
    r.failed
    (number (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
    r.elapsed_s;
  Printf.printf "latency_tail is p%g = %.3f us with %d of %d samples beyond it\n" p
    (float_of_int v /. 1e3) beyond r.attempted;
  List.iter (Printf.printf "check %s\n") (w.checks ())

let digest_match name =
  let got = sim_digest name in
  let want = recorded_digest name in
  let ok = want = Some got in
  Printf.printf "sim.digest_match %b (%s digest %s, recorded %s; inputs of seed %d)\n" ok
    name got (Option.value ~default:"none" want) digest_seed;
  print_endline
    "model: unvalidated (the repo holds no numeric results from the paper)";
  ok

let timed ~seconds (w : Workload.t) tr =
  Loop.run ~seconds ~cycle:w.cycle (fun i ->
      Spans.set_op tr i;
      Spans.span tr ~layer:"bench" "op" (fun () -> w.op tr))

(* Each set-up starts from a fresh instance and a compacted heap, so no
   set-up pays for the garbage of the one before. *)
let untraced_run ~seconds fresh =
  let last = ref None in
  let times =
    List.init setups (fun _ ->
        last := None;
        Gc.compact ();
        let w = fresh () in
        Gc.compact ();
        let t0 = Clock.now_ns () in
        w.Workload.setup Spans.off;
        last := Some w;
        Clock.seconds_since t0)
  in
  let w = Option.get !last in
  Gc.compact ();
  let (i0, r0) = w.work () in
  let r = timed ~seconds w Spans.off in
  let (i1, r1) = w.work () in
  let peak = (Gc.quick_stat ()).top_heap_words in
  let n = float_of_int r.attempted in
  let rate x = float_of_int x /. r.elapsed_s /. 1e6 in
  let _, tail, _ = Loop.tail r.lat_ns in
  print_run_facts w r;
  Printf.printf "setup_s runs: %s\n" (String.concat " " (List.map number times));
  ignore (digest_match w.name);
  print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
    (List.map
       (fun (name, unit) ->
         let v =
           match name with
           | "setup_s" -> Loop.median times
           | "ops_per_s" -> n /. r.elapsed_s
           | "latency_p50_us" -> float_of_int (Loop.percentile r.lat_ns 50.0) /. 1e3
           | "latency_tail_us" -> float_of_int tail /. 1e3
           | "minstr_per_s" -> rate (i1 - i0)
           | "mref_per_s" -> rate (r1 - r0)
           | "alloc_words_per_op" -> r.alloc_words /. n
           | "peak_heap_words" -> float_of_int peak
           | _ -> assert false
         in
         (name, v, unit))
       end_to_end)

(* One set-up, then a third of the budget each for: ops untraced, the
   same ops traced, and the workload's probes traced.  The overhead of
   tracing is the traced ops' mean time over the untraced ops'; for
   serve that compares the lane primitives with spans against
   [Serve.serve] itself. *)
let traced_run ~seconds (w : Workload.t) =
  let tr = Spans.create () and pr = Spans.create () in
  w.setup tr;
  Gc.compact ();
  let u = timed ~seconds:(seconds /. 3.0) w Spans.off in
  w.reset_counters ();
  let t = timed ~seconds:(seconds /. 3.0) w tr in
  let probes =
    if w.probes_per_op () = 0.0 then 0
    else
      (Loop.run ~seconds:(seconds /. 3.0) ~cycle:1 (fun i ->
           Spans.set_op pr i;
           w.probe pr;
           true))
        .attempted
  in
  let ops = t.attempted in
  print_run_facts w t;
  (* Set-up spans count once; op spans are averaged per op; probe spans
     per probe, times the probes one op stands for. *)
  let per_op = 1e-9 /. float_of_int (max 1 ops) in
  let per_probe = 1e-9 *. w.probes_per_op () /. float_of_int (max 1 probes) in
  let busy name =
    let b =
      (float_of_int (Spans.busy_ns tr ~setup:false name) *. per_op)
      +. (float_of_int (Spans.busy_ns pr ~setup:false name) *. per_probe)
    in
    if b > 0.0 then b else float_of_int (Spans.busy_ns tr ~setup:true name) *. 1e-9
  in
  (* Self times cover the traced ops only.  A probe re-measures part of
     an op (the Areastats sink, the inside of a miss), so its time is
     reported in its own busy metrics, not added to a layer. *)
  let op_self = Spans.self_ns tr ~setup:false in
  let self layer = float_of_int (op_self layer) *. per_op in
  let setup_self = Spans.self_ns tr ~setup:true in
  List.iter
    (fun l ->
      let ns = setup_self l in
      if ns > 0 then Printf.printf "set-up self time %s %.6f s\n" l (float_of_int ns *. 1e-9))
    layers;
  let own = w.layer_metrics ~ops in
  let mean_ns (r : Loop.result) =
    float_of_int (Array.fold_left ( + ) 0 r.lat_ns) /. float_of_int (max 1 r.attempted)
  in
  let per_untraced_op x = float_of_int x /. float_of_int (max 1 u.attempted) in
  let digest_ok = digest_match w.name in
  let value name =
    match List.assoc_opt name own with
    | Some v -> v
    | None -> (
      match name with
      | "rapwam.ns_per_instr" -> (
        match List.assoc_opt "rapwam.instructions" own with
        | Some i when i > 0.0 -> busy "rapwam.run" /. i *. 1e9
        | _ -> 0.0)
      | "trace.areastats.busy_s" ->
        let null = busy "rapwam.run.null_sink" in
        if null > 0.0 then busy "rapwam.run" -. null else 0.0
      | "tracecheck.busy_s" -> busy "tracecheck"
      | "gc.minor_collections" -> per_untraced_op u.minor_collections
      | "gc.major_collections" -> per_untraced_op u.major_collections
      | "sim.digest_match" -> if digest_ok then 1.0 else 0.0
      | "trace.overhead_ratio" -> (mean_ns t /. mean_ns u) -. 1.0
      | "trace.ops" -> float_of_int ops
      | _ when String.starts_with ~prefix:"self." name ->
        self (String.sub name 5 (String.length name - 7))
      | _ when String.ends_with ~suffix:".busy_s" name ->
        let span = String.sub name 0 (String.length name - 7) in
        (* a Figure-4 protocol's time is per grid cycle: all its sizes *)
        if String.starts_with ~prefix:"cachesim." name then busy span *. float_of_int w.cycle
        else busy span
      | _ -> 0.0)
  in
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  List.iter
    (fun (spans, phase) ->
      let file = Printf.sprintf "_perfbench/spans-%s-%s.tsv" w.name phase in
      Spans.write spans file;
      Printf.printf "spans: %d written to %s\n" spans.Spans.n file)
    [ (tr, "ops"); (pr, "probes") ];
  let failed = u.failed + t.failed and attempted = u.attempted + t.attempted in
  print_result ~correct:(failed = 0) ~attempted ~failed
    (List.map (fun (name, unit) -> (name, value name, unit)) per_layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let print_digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--print-digest", Arg.Set print_digest, " print every workload's digest and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !print_digest then
    List.iter (fun name -> Printf.printf "%s %s\n" name (sim_digest name)) workloads
  else begin
    if !workload = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "main.exe: --workload, --seconds > 0 and --trace 0|1 are required";
      exit 2
    end;
    let fresh () = make !workload ~seed:!seed in
    if !trace = 0 then untraced_run ~seconds:!seconds fresh
    else traced_run ~seconds:!seconds (fresh ())
  end
