(** The RAP-WAM instruction set: the standard WAM repertoire plus the
    parallel extensions.  Labels are absolute code addresses; [-1] as a
    switch target means "fail". *)

type reg =
  | X of int  (** temporary/argument register (no memory traffic) *)
  | Y of int  (** permanent variable slot in the environment *)

(** Binding-certified specialization of a base instruction (lib/bindan
    proves the fact at compile time; the compiler only emits a spec
    the base instruction has a form for):
    - [`Plain]: the base instruction;
    - [`Rigid] ([_r]): the argument register holds a non-reference
      cell at deref depth 0, so the argument deref loop is skipped.
      A Ref contradicts the certificate and fails;
    - [`Uncond] ([_u], [builtin_nt], [put_uninit]): every binding the
      instruction makes is unconditional — the cell was created after
      every enclosing choice point and parcall trail floor — so the
      trail test and write are elided.  A get with a free argument
      overwrites the self-reference directly (no deref read); a put
      creates the cell with an untraced store, its self-reference
      initialization being dead. *)
type spec = [ `Plain | `Rigid | `Uncond ]

type uspec = [ `Plain | `Uncond ]
(** The specs of base instructions with no rigid form. *)

type t =
  (* put group: load argument registers before a call *)
  | Put_variable of reg * int * uspec
      (** create an unbound variable (heap for X, environment for Y)
          and load it into A_i *)
  | Put_value of reg * int
  | Put_unsafe_value of int * int
      (** like [Put_value Y] but globalizes a still-unbound environment
          variable before the environment is deallocated (LCO) *)
  | Put_constant of int * int  (** atom id, A_i *)
  | Put_integer of int * int
  | Put_nil of int
  | Put_structure of int * int  (** functor id, A_i; enters write mode *)
  | Put_list of int
  (* get group: head argument unification *)
  | Get_variable of reg * int
  | Get_value of reg * int * spec
  | Get_constant of int * int * uspec
  | Get_integer of int * int * uspec
  | Get_nil of int * uspec
  | Get_structure of int * int * spec
      (** read mode on a matching structure, write mode on a variable *)
  | Get_list of int * spec
  (* unify group: structure arguments, read or write mode *)
  | Unify_variable of reg
  | Unify_value of reg
  | Unify_local_value of reg
      (** like [Unify_value] but globalizes unbound stack variables in
          write mode *)
  | Unify_constant of int
  | Unify_integer of int
  | Unify_nil
  | Unify_void of int  (** skip (read) or create (write) n cells *)
  (* control *)
  | Allocate of int  (** push an environment with n permanent slots *)
  | Deallocate
  | Call of int  (** predicate functor id; saves CP, sets B0 *)
  | Execute of int  (** last-call transfer *)
  | Proceed
  | Jump of int
  | Halt_ok  (** the query succeeded *)
  (* choice *)
  | Try of int * bool
      (** push a choice point, continue at the label.  With the shallow
          flag (a determinacy-certified chain, lib/detan) the registers
          are snapshotted into the worker-private shallow frame
          instead: no choice-point words written, nothing trailed until
          the clause commits *)
  | Retry of int * bool
      (** update the alternative (of the shallow frame when shallow),
          continue at the label *)
  | Trust of int * bool
      (** pop the choice point (deactivate the shallow frame), continue
          at the label *)
  (* indexing *)
  | Switch_on_term of {
      var_l : int;
      con_l : int;
      int_l : int;
      lis_l : int;
      str_l : int;
    }  (** dispatch on the dereferenced first argument's tag *)
  | Switch_on_constant of (int * int) array * int
      (** (atom id, label) table plus a default (variable-headed
          clauses) *)
  | Switch_on_integer of (int * int) array * int
  | Switch_on_structure of (int * int) array * int
  (* cut *)
  | Neck_cut  (** discard choice points newer than B0 *)
  | Get_level of int  (** Y_n := B0 *)
  | Cut_to of int  (** discard down to the level saved in Y_n *)
  (* escapes *)
  | Builtin of Builtin.t * int * uspec
      (** builtin, arity (args in A1..An) *)
  (* RAP-WAM parallel extensions *)
  | Check_ground of reg * int
      (** jump to the sequential version unless the register holds a
          ground term *)
  | Check_indep of reg * reg * int
  | Check_size of reg * int * int
      (** (register, minimum size, else-label): jump to the sequential
          version unless the term's size (structure cells walked, bounded
          by the constant) reaches the minimum — the granularity-control
          guard emitted by [bin/annotate --granularity] *)
  | Alloc_parcall of int * int
      (** (number of PUSHED goals, join address): push a parcall frame
          and make it the backtrack barrier; the CGE's first goal runs
          inline afterwards *)
  | Push_goal of int * int * int
      (** (slot, predicate functor id, arity): copy A1..An into a goal
          frame on the own goal stack *)
  | Par_join
      (** run own pending goals / wait for remote check-ins; continue
          when the parcall's counter reaches zero; entry point of the
          failure protocol *)
  | Goal_done  (** return point of popped and stolen goals *)

val opcode : t -> int
(** Opcode number of a (base, spec) pair: the base instructions are
    0–46, the shallow chain forms 47–49 and the binding
    specializations 50–60. *)

val opcode_count : int
val opcode_name : int -> string

val spec : t -> spec
(** The instruction's spec; [`Plain] for bases without the field. *)

val plain : t -> t
(** The base instruction: the same operands with spec [`Plain]
    (the shallow flag is kept). *)

val pp_reg : Format.formatter -> reg -> unit
val pp : Format.formatter -> t -> unit
