(** Tagged data cells, encoded in a single OCaml [int] (low 3 bits =
    tag, payload = [word asr 3]).

    An unbound variable is a [Ref] whose payload is its own address. *)

type view =
  | Ref of int  (** variable; unbound iff [mem.(a) = ref_ a] *)
  | Str of int  (** pointer to a [Fun] cell *)
  | Lis of int  (** pointer to a cons pair at [a], [a+1] *)
  | Con of int  (** atom, payload is the symbol id *)
  | Num of int  (** integer *)
  | Fun of int  (** functor word heading a [Str] block *)
  | Raw of int  (** machine control word *)

(** {1 Constructors} *)

val ref_ : int -> int
val str : int -> int
val lis : int -> int
val con : int -> int
val num : int -> int
(** Unchecked: an integer outside {!fits_num} would silently wrap. *)

val fun_ : int -> int
val raw : int -> int

val min_num : int
val max_num : int
(** The [Num] payload range: 60-bit two's complement, [-2^59 .. 2^59-1]. *)

val fits_num : int -> bool

(** {1 Inspection} *)

val view : int -> view
val tag : int -> int
val payload : int -> int
val is_ref : int -> bool
val is_raw : int -> bool
val to_string : int -> string
