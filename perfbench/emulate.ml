(* emulate: one op is one Figure-2 pass.  Each of the four paper
   benchmarks runs once on the sequential WAM and once on an 8-PE
   RAP-WAM, both counting references per area with an [Areastats]
   sink.  Compilation happens once, in set-up. *)

open Workload

type prepared = { bench : bench; seq : Wam.Program.t; par : Wam.Program.t }

type counters = {
  mutable instr : int;
  mutable refs : int;
  mutable seq_instr : int;
  mutable par_instr : int;
  mutable rounds : int;
  mutable parcalls : int;
  mutable stolen : int;
}

let zero () =
  { instr = 0; refs = 0; seq_instr = 0; par_instr = 0; rounds = 0; parcalls = 0; stolen = 0 }

let areastats () = Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr ()

let make ~seed =
  let benches = benchmarks ~seed in
  let progs = ref [||] in
  let expected = ref None in  (* simulated statistics of the warm-up op *)
  let last = ref "" in
  let total = zero () and layer = ref (zero ()) in
  let run_one tr p =
    let c = !layer in
    let st_seq = areastats () in
    let res, m =
      Spans.span tr ~layer:"wam.run" "wam.seq" (fun () ->
          Wam.Seq.run ~sink:(Trace.Areastats.sink st_seq) p.seq)
    in
    let st = areastats () in
    let sim =
      Spans.span tr ~layer:"rapwam" "rapwam.create" (fun () ->
          Rapwam.Sim.create ~sink:(Trace.Areastats.sink st) ~n_workers:n_pes p.par)
    in
    let pres =
      Spans.span tr ~layer:"rapwam" "rapwam.run" (fun () ->
          Rapwam.Sim.run_prepared sim p.par)
    in
    let pm = sim.Rapwam.Sim.m in
    let var = p.bench.b.answer_var in
    let seq_ans = answer var res and par_ans = answer var pres in
    let si = Wam.Machine.total_instr m and pi = Wam.Machine.total_instr pm in
    let refs = Trace.Areastats.total st_seq + Trace.Areastats.total st in
    List.iter
      (fun c ->
        c.instr <- c.instr + si + pi;
        c.refs <- c.refs + refs;
        c.seq_instr <- c.seq_instr + si;
        c.par_instr <- c.par_instr + pi;
        c.rounds <- c.rounds + sim.Rapwam.Sim.rounds;
        c.parcalls <- c.parcalls + pm.Wam.Machine.parcalls;
        c.stolen <- c.stolen + pm.Wam.Machine.goals_stolen)
      [ total; c ];
    let stats =
      Printf.sprintf
        "%s wam instr=%d data_refs=%d rounds=%d areas=%s\n\
         %s rapwam%d instr=%d data_refs=%d rounds=%d parcalls=%d stolen=%d areas=%s\n"
        p.bench.b.name si (Trace.Areastats.data_refs st_seq) m.Wam.Machine.steps
        (area_refs st_seq) p.bench.b.name n_pes pi (Trace.Areastats.data_refs st)
        sim.Rapwam.Sim.rounds pm.Wam.Machine.parcalls pm.Wam.Machine.goals_stolen
        (area_refs st)
    in
    (correct p.bench seq_ans && agree seq_ans par_ans, stats)
  in
  let op tr =
    let results = Array.map (run_one tr) !progs in
    let ok = Array.for_all fst results in
    last := String.concat "" (Array.to_list (Array.map snd results));
    (* the machines are deterministic: every pass repeats the warm-up's
       statistics exactly *)
    match !expected with
    | None ->
      expected := Some !last;
      ok
    | Some e -> ok && e = !last
  in
  let setup tr =
    expected := None;
    progs :=
      Array.of_list
        (List.map
           (fun bench ->
             Spans.span tr ~layer:"wam.compile" "wam.compile" (fun () ->
                 {
                   bench;
                   seq = Benchlib.Runner.prepare ~parallel:false bench.b;
                   par = Benchlib.Runner.prepare ~parallel:true bench.b;
                 }))
           benches);
    ignore (op tr)
  in
  (* the same [run_prepared] call with [Sink.null], so the cost of the
     [Areastats] sink shows as a difference *)
  let probe tr =
    Spans.span tr ~layer:"bench" "probe.null_sink" (fun () ->
        Array.iter
          (fun p ->
            let sim = Rapwam.Sim.create ~sink:Trace.Sink.null ~n_workers:n_pes p.par in
            Spans.span tr ~layer:"rapwam" "rapwam.run.null_sink" (fun () ->
                ignore (Rapwam.Sim.run_prepared sim p.par)))
          !progs)
  in
  let layer_metrics ~ops =
    let c = !layer and per x = float_of_int x /. float_of_int (max 1 ops) in
    [
      ("wam.seq.instructions", per c.seq_instr);
      ("rapwam.instructions", per c.par_instr);
      ("rapwam.rounds", per c.rounds);
      ("rapwam.parcalls", per c.parcalls);
      ("rapwam.goals_stolen", per c.stolen);
      ("trace.refs", per c.refs);
    ]
  in
  {
    name = "emulate";
    cycle = 1;
    setup;
    op;
    probe;
    probes_per_op = (fun () -> 1.0);
    work = (fun () -> (total.instr, total.refs));
    sim_stats = (fun () -> !last);
    reset_counters = (fun () -> layer := zero ());
    layer_metrics;
    checks = (fun () -> []);
  }
