(* Code-range replay of the reference stream: the one place that turns
   a Code-area read back into an instruction index and remembers, per
   PE, which predicate's code that PE is running. *)

type t = {
  length : int;  (** instructions in the code *)
  ranges : (int * int) array;  (** [Code.ranges] *)
  owners : int option array;  (** per PE: owner range of the last fetch *)
}

let per_pe mk = Array.init (Trace.Ref_record.max_pe + 1) (fun _ -> mk ())

let create code =
  { length = Code.length code; ranges = Code.ranges code; owners = per_pe (fun () -> None) }

let ranges t = t.ranges
let range_of t idx = Code.range_of t.ranges idx
let fid t i = snd t.ranges.(i)
let owner t pe = t.owners.(pe)

let feed t ~fetch ~data (r : Trace.Ref_record.t) =
  if r.area <> Trace.Area.Code then data r
  else
    let idx = r.addr - Layout.code_base in
    if r.op = Trace.Ref_record.Read && idx >= 0 && idx < t.length then begin
      t.owners.(r.pe) <- range_of t idx;
      fetch r idx
    end

let sink t ~fetch ~data : Trace.Sink.t =
  { Trace.Sink.emit = feed t ~fetch ~data; emit_sync = (fun _ -> ()) }

let iter t ~fetch ~data buf = Trace.Sink.Buffer_sink.iter (feed t ~fetch ~data) buf
