(* Dynamic access collection from the tagged reference stream.

   Attribution is Wam.Replay's: a Code-area read (instruction fetch)
   selects the owning predicate as the PE's attribution target and
   every data reference is charged to it.  Two refinements keep
   the per-predicate sets honest against the static summaries:

     - message processing: a PE drains its message buffer between
       instructions, so from the first Message-area access until the
       next fetch everything the PE does (trail replay, binding
       resets, frame acks) is runtime machinery, not the stale
       predicate's work — it lands in the [runtime] bucket;
     - pre-fetch activity (query seeding, idle-PE stealing) has no
       current predicate and also lands in [runtime].

   The collector additionally tracks, per address incarnation, which
   PEs touched it — the dynamic shareability ground truth the predicted
   tags are scored against.  An address starts a new incarnation when
   it is touched under a different area than before: a local-stack
   word can be an environment word first and a parcall-frame word
   later, and each incarnation is scored under its own area. *)

type obs = { seen : int array (* bit 0 = read, bit 1 = write seen *) }

type t = {
  replay : Wam.Replay.t;
  by_fid : (int, obs) Hashtbl.t;
  runtime : obs;
  addrs : (int, int * bool * int) Hashtbl.t;
      (** addr -> (first PE, touched by a second PE, area index) of the
          address's current incarnation *)
  mutable retired : (int * (int * bool * int)) list;
      (** earlier incarnations, with their address *)
  in_msg : bool array;  (** per PE: inside a message window *)
  mutable records : int;
}

let create (static : Static.t) =
  {
    replay = Wam.Replay.create static.Static.code;
    by_fid = Hashtbl.create 64;
    runtime = { seen = Array.make Trace.Area.count 0 };
    addrs = Hashtbl.create 4096;
    retired = [];
    in_msg = Wam.Replay.per_pe (fun () -> false);
    records = 0;
  }

let obs_for t fid =
  match Hashtbl.find_opt t.by_fid fid with
  | Some o -> o
  | None ->
    let o = { seen = Array.make Trace.Area.count 0 } in
    Hashtbl.replace t.by_fid fid o;
    o

let bit (op : Trace.Ref_record.op) =
  match op with Trace.Ref_record.Read -> 1 | Trace.Ref_record.Write -> 2

let on_record t (r : Trace.Ref_record.t) =
  t.records <- t.records + 1;
  let pe = r.Trace.Ref_record.pe in
  let addr = r.Trace.Ref_record.addr in
  let area = Trace.Area.to_int r.Trace.Ref_record.area in
  (match Hashtbl.find_opt t.addrs addr with
  | None -> Hashtbl.replace t.addrs addr (pe, false, area)
  | Some ((_, _, area') as info) when area' <> area ->
    t.retired <- (addr, info) :: t.retired;
    Hashtbl.replace t.addrs addr (pe, false, area)
  | Some (first, shared, _) ->
    if (not shared) && first <> pe then
      Hashtbl.replace t.addrs addr (first, true, area));
  let charge _ =
    if r.area = Trace.Area.Message then t.in_msg.(pe) <- true;
    let o =
      if t.in_msg.(pe) then t.runtime
      else
        match Wam.Replay.owner t.replay pe with
        | Some i -> obs_for t (Wam.Replay.fid t.replay i)
        | None -> t.runtime
    in
    o.seen.(area) <- o.seen.(area) lor bit r.op
  in
  Wam.Replay.feed t.replay ~fetch:(fun _ _ -> t.in_msg.(pe) <- false)
    ~data:charge r

let of_buffer static buf =
  let t = create static in
  Trace.Sink.Buffer_sink.iter (on_record t) buf;
  t

let seen_read o area = o.seen.(Trace.Area.to_int area) land 1 <> 0
let seen_write o area = o.seen.(Trace.Area.to_int area) land 2 <> 0

(* Addresses dynamically shared: touched by two PEs, or touched by a
   PE other than the owner of the region the address lies in (a
   cross-PE binding is shared even if the owner never reads it back). *)
let dyn_shared _t addr (first, multi, _) =
  multi
  ||
  let owner = Wam.Layout.pe_of_addr addr in
  owner >= 0 && first <> owner

let fold_addrs f t acc =
  let visit acc addr ((_, _, area) as info) =
    f acc ~addr ~area:(Trace.Area.of_int area) ~shared:(dyn_shared t addr info)
  in
  List.fold_left
    (fun acc (addr, info) -> visit acc addr info)
    (Hashtbl.fold (fun addr info acc -> visit acc addr info) t.addrs acc)
    t.retired
