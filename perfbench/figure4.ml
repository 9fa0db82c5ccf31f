(* figure4: set-up generates the four 8-PE traces into [Buffer_sink]s
   and replays each through [Tracecheck]; one op is one Figure-4
   point, one protocol at one cache size simulated over all four
   traces.  Ops cycle through the grid, so every op simulates the same
   references and a run covers each point equally often. *)

open Workload

let kinds =
  Cachesim.Protocol.[ Write_in_broadcast; Hybrid; Write_through ]

let slug = function
  | Cachesim.Protocol.Write_in_broadcast -> "write_in_broadcast"
  | Cachesim.Protocol.Hybrid -> "hybrid"
  | Cachesim.Protocol.Write_through -> "write_through"
  | k -> Cachesim.Protocol.kind_name k

let sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let grid =
  Array.of_list (List.concat_map (fun k -> List.map (fun s -> (k, s)) sizes) kinds)

type point = { bus_words : int; misses : int }

let make ~seed =
  let benches = benchmarks ~seed in
  let traces = ref [||] in
  let setup_ok = ref false in
  let accesses = ref 0 and trace_instr = ref 0 in
  let violations = ref 0 and buffer_words = ref 0 in
  let results = Array.make (Array.length grid) None in
  let cursor = ref 0 and total_ops = ref 0 in
  let op tr =
    let i = !cursor mod Array.length grid in
    incr cursor;
    incr total_ops;
    let kind, cache_words = grid.(i) in
    let bus = ref 0 and misses = ref 0 and refs = ref 0 in
    Spans.span tr ~layer:"cachesim" ("cachesim." ^ slug kind) (fun () ->
        Array.iter
          (fun buf ->
            let m = Cachesim.Multi.simulate ~kind ~cache_words ~n_pes buf in
            bus := !bus + m.Cachesim.Metrics.bus_words;
            misses := !misses + Cachesim.Metrics.misses m;
            refs := !refs + Cachesim.Metrics.refs m)
          !traces);
    let p = { bus_words = !bus; misses = !misses } in
    (* every access is simulated, and a point repeats exactly *)
    let same =
      match results.(i) with
      | None ->
        results.(i) <- Some p;
        true
      | Some q -> p = q
    in
    !setup_ok && !refs = !accesses && same
  in
  let setup tr =
    Array.fill results 0 (Array.length results) None;
    accesses := 0;
    trace_instr := 0;
    violations := 0;
    buffer_words := 0;
    let answers_ok = ref true in
    traces :=
      Array.of_list
        (List.map
           (fun bench ->
             let prog =
               Spans.span tr ~layer:"wam.compile" "wam.compile" (fun () ->
                   Benchlib.Runner.prepare ~parallel:true bench.b)
             in
             let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
             let sim =
               Rapwam.Sim.create ~sink:(Trace.Sink.buffer buf) ~n_workers:n_pes prog
             in
             let res =
               Spans.span tr ~layer:"rapwam" "rapwam.tracegen" (fun () ->
                   Rapwam.Sim.run_prepared sim prog)
             in
             if not (correct bench (answer bench.b.answer_var res)) then
               answers_ok := false;
             trace_instr := !trace_instr + Wam.Machine.total_instr sim.Rapwam.Sim.m;
             let s =
               Spans.span tr ~layer:"tracecheck" "tracecheck" (fun () ->
                   Tracecheck.check_buffer buf)
             in
             accesses := !accesses + s.Tracecheck.accesses;
             violations := !violations + s.Tracecheck.n_violations;
             buffer_words := !buffer_words + Trace.Sink.Buffer_sink.length buf;
             buf)
           benches);
    setup_ok := !answers_ok && !violations = 0;
    ignore (op tr)
  in
  let sim_stats () =
    String.concat ""
      (Array.to_list
         (Array.mapi
            (fun i (kind, size) ->
              match results.(i) with
              | Some p ->
                Printf.sprintf "%s %d bus_words=%d misses=%d\n" (slug kind) size
                  p.bus_words p.misses
              | None -> Printf.sprintf "%s %d unsimulated\n" (slug kind) size)
            grid))
    ^ Printf.sprintf "traces instr=%d accesses=%d words=%d\n" !trace_instr !accesses
        !buffer_words
  in
  let layer_metrics ~ops:_ =
    let sum kind f =
      let acc = ref 0 in
      Array.iteri
        (fun i (k, _) ->
          match results.(i) with
          | Some p when k = kind -> acc := !acc + f p
          | _ -> ())
        grid;
      float_of_int !acc
    in
    [
      ("trace.buffer_words", float_of_int !buffer_words);
      ("tracecheck.accesses", float_of_int !accesses);
      ("tracecheck.violations", float_of_int !violations);
    ]
    @ List.concat_map
        (fun k ->
          [
            (Printf.sprintf "cachesim.%s.bus_words" (slug k), sum k (fun p -> p.bus_words));
            (Printf.sprintf "cachesim.%s.misses" (slug k), sum k (fun p -> p.misses));
          ])
        kinds
  in
  (* The paper's qualitative Figure-4 claim: at 8 PEs, write-in
     broadcast caches of 128 words or more keep the traffic ratio below
     0.3.  The repo holds no numeric results from the paper, so this is
     a check of the claim, not an error figure. *)
  let checks () =
    Array.to_list grid
    |> List.mapi (fun i (kind, size) -> (results.(i), kind, size))
    |> List.filter_map (fun (r, kind, size) ->
           match r with
           | Some p when kind = Cachesim.Protocol.Write_in_broadcast && size >= 128 ->
             let ratio = float_of_int p.bus_words /. float_of_int (max 1 !accesses) in
             Some
               (Printf.sprintf "paper-figure4 write_in_broadcast %d words, %d PEs: traffic ratio %.4f < 0.3 %s"
                  size n_pes ratio
                  (if ratio < 0.3 then "holds" else "DOES NOT HOLD"))
           | _ -> None)
  in
  {
    name = "figure4";
    cycle = Array.length grid;
    setup;
    op;
    probe = (fun _ -> ());
    probes_per_op = (fun () -> 0.0);
    work = (fun () -> (!total_ops * !trace_instr, !total_ops * !accesses));
    sim_stats;
    reset_counters = (fun () -> ());
    layer_metrics;
    checks;
  }
