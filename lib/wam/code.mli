(** The code area: a growable instruction table with a predicate entry
    map and backpatching support for forward labels.

    Instruction "addresses" are indices into the table; for tracing
    they map into the shared read-only code region. *)

type t

val create : unit -> t

val here : t -> int
(** Address of the next instruction to be emitted. *)

val emit : t -> Instr.t -> int
(** Append an instruction; returns its address. *)

val patch : t -> int -> Instr.t -> unit
(** Replace the instruction at an address (label backpatching). *)

val fetch : t -> int -> Instr.t
val length : t -> int

val set_entry : t -> int -> int -> unit
(** Bind a predicate (functor id) to its entry address. *)

val entry : t -> int -> int option

val ranges : t -> (int * int) array
(** Predicate code ranges as [(entry, fid)], sorted by entry.  The
    compiler lays each predicate out contiguously from its entry, so
    range [i] spans from its entry up to the next range's entry. *)

val range_of : (int * int) array -> int -> int option
(** Index of the range owning an instruction address (the greatest
    entry [<=] it), by binary search; [None] below the first entry. *)

val trace_addr : int -> int
(** Code-region address of an instruction, for trace records. *)

val pp : Symbols.t -> Format.formatter -> t -> unit
(** Disassembly listing. *)
