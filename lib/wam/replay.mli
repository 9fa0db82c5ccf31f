(** Replay of the tagged reference stream by code range.

    Every tool that explains a run charges each reference to the
    instruction its PE last fetched.  An instruction fetch is a
    Code-area read at [Layout.code_base + index]; the compiler lays
    each predicate out contiguously from its entry, so {!Code.ranges}
    partitions the code into owner ranges.  A replay decodes the
    fetches, tracks each PE's current owner range, and hands fetches
    and data references to the consumer's callbacks.  Parallel traces
    interleave PEs; the state is kept per PE, so the same replay
    serves sequential and RAP-WAM runs. *)

type t

val create : Code.t -> t

val ranges : t -> (int * int) array
(** [Code.ranges] of the replayed code, as [(entry, fid)]. *)

val range_of : t -> int -> int option
(** Owner range of an instruction index ({!Code.range_of}). *)

val fid : t -> int -> int
(** Functor id owning range [i]. *)

val owner : t -> int -> int option
(** Owner range of the instruction PE [pe] last fetched: [None]
    before its first fetch (scheduler activity on an idle PE) and
    after a fetch below the first entry. *)

val per_pe : (unit -> 'a) -> 'a array
(** One fresh slot per representable PE ([Trace.Ref_record.max_pe]). *)

val feed :
  t ->
  fetch:(Trace.Ref_record.t -> int -> unit) ->
  data:(Trace.Ref_record.t -> unit) ->
  Trace.Ref_record.t ->
  unit
(** Replay one record.  A Code-area read of an instruction inside the
    code is a fetch: the PE's owner moves to that instruction's range,
    then [fetch r index] runs.  Other Code-area records are dropped;
    every other record goes to [data]. *)

val sink :
  t ->
  fetch:(Trace.Ref_record.t -> int -> unit) ->
  data:(Trace.Ref_record.t -> unit) ->
  Trace.Sink.t
(** {!feed} as a live sink; sync events are ignored. *)

val iter :
  t ->
  fetch:(Trace.Ref_record.t -> int -> unit) ->
  data:(Trace.Ref_record.t -> unit) ->
  Trace.Sink.Buffer_sink.t ->
  unit
(** {!feed} every access of a buffer in order, skipping sync entries. *)
