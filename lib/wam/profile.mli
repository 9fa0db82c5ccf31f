(** Per-predicate dynamic profiling from the reference stream.

    Attribution works by code-range ownership: the compiler lays each
    predicate out contiguously from its entry address, so instruction
    fetches select the owning predicate and subsequent data references
    (by the same PE) are charged to it.  Entry-address fetches count
    procedure calls.  Works for sequential and parallel traces. *)

type counters = {
  fid : int;
  entry : int;
  mutable calls : int;
  mutable instrs : int;
  mutable cp_created : int;  (** [try] fetches: choice points pushed *)
  mutable cp_elided : int;
      (** shallow [try] ([det_try]) fetches: certified chains entered
          shallow instead *)
  mutable trail_elided : int;
      (** fetches of instructions whose spec elides the trail work
          ({!Access.elided}: [_u] gets, [builtin_nt], [put_uninit]) *)
  mutable deref_skipped : int;
      (** fetches of instructions whose spec elides the argument
          dereference ([_r] gets, [_u] gets other than [get_value_u]) *)
  refs : int array;  (** data references, indexed by [Trace.Area.to_int] *)
}

type t

val create : Symbols.t -> Code.t -> t

val sink : t -> Trace.Sink.t
(** Feed this sink (tee it with others) during a run. *)

val data_refs : counters -> int
val spec : t -> counters -> string
(** ["name/arity"]. *)

val ranked : t -> counters list
(** Predicates that did any work, busiest (most data refs) first;
    deterministic order. *)

val pp : Format.formatter -> t -> unit
val to_json : Buffer.t -> t -> unit
