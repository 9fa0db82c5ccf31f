(* The RAP-WAM instruction set: the standard WAM repertoire (put/get/
   unify groups, control, choice, indexing, cut) plus the parallel
   extensions (CGE checks, parcall allocation, goal pushing, join).

   Labels are absolute code addresses (patched by the compiler); [-1]
   as a switch target means "fail". *)

type reg = X of int | Y of int

(* Binding-certified specializations (lib/bindan): the analysis proves
   an argument's instantiation and binding conditionality at compile
   time, so the generic deref / trail-test / heap-cell work can be
   dropped.  [`Rigid] reads a rigid depth-0 argument (the register
   already holds a non-reference cell: no deref loop, a Ref is a
   certified-fact violation and fails).  [`Uncond] binds without the
   trail test or write: a get overwrites a certified-free
   self-reference directly, a put skips the dead self-reference init.
   Each base carries only the specs the compiler can emit for it. *)
type spec = [ `Plain | `Rigid | `Uncond ]
type uspec = [ `Plain | `Uncond ]

type t =
  (* put group: load argument registers before a call *)
  | Put_variable of reg * int * uspec
  | Put_value of reg * int
  | Put_unsafe_value of int * int (* Y index, A *)
  | Put_constant of int * int (* atom id, A *)
  | Put_integer of int * int
  | Put_nil of int
  | Put_structure of int * int (* functor id, A *)
  | Put_list of int
  (* get group: head argument unification *)
  | Get_variable of reg * int
  | Get_value of reg * int * spec
  | Get_constant of int * int * uspec
  | Get_integer of int * int * uspec
  | Get_nil of int * uspec
  | Get_structure of int * int * spec
  | Get_list of int * spec
  (* unify group: structure arguments, in read or write mode *)
  | Unify_variable of reg
  | Unify_value of reg
  | Unify_local_value of reg
  | Unify_constant of int
  | Unify_integer of int
  | Unify_nil
  | Unify_void of int
  (* control *)
  | Allocate of int (* n permanent variables *)
  | Deallocate
  | Call of int (* predicate functor id *)
  | Execute of int
  | Proceed
  | Jump of int
  | Halt_ok (* query succeeded *)
  (* choice *)
  (* the shallow flag marks a determinacy-certified chain (lib/detan):
     same alternative layout, but the frame is a worker-private
     shallow snapshot (registers + an undo log) — no choice-point-area
     words are written and nothing is trailed until the clause
     commits *)
  | Try of int * bool
  | Retry of int * bool
  | Trust of int * bool
  (* indexing *)
  | Switch_on_term of {
      var_l : int;
      con_l : int;
      int_l : int;
      lis_l : int;
      str_l : int;
    }
  | Switch_on_constant of (int * int) array * int (* table, default *)
  | Switch_on_integer of (int * int) array * int
  | Switch_on_structure of (int * int) array * int (* functor id keys *)
  (* cut *)
  | Neck_cut
  | Get_level of int (* Yn := B0 *)
  | Cut_to of int (* cut to choice point saved in Yn *)
  (* escapes *)
  | Builtin of Builtin.t * int * uspec (* builtin, arity *)
  (* RAP-WAM parallel extensions *)
  | Check_ground of reg * int (* else-label: run sequential version *)
  | Check_indep of reg * reg * int
  | Check_size of reg * int * int (* minimum term size, else-label *)
  | Alloc_parcall of int * int (* pushed-goal count, join address *)
  | Push_goal of int * int * int (* slot, predicate functor id, arity *)
  | Par_join
  | Goal_done (* return point of a parallel goal *)

(* The specialized forms keep the numbers they had as separate
   opcodes (47-60), so frequency tables and listings are unchanged. *)
let by_spec (s : spec) plain rigid uncond =
  match s with `Plain -> plain | `Rigid -> rigid | `Uncond -> uncond

let by_uspec (s : uspec) plain uncond =
  match s with `Plain -> plain | `Uncond -> uncond

let opcode = function
  | Put_variable (_, _, s) -> by_uspec s 0 58
  | Put_value _ -> 1
  | Put_unsafe_value _ -> 2
  | Put_constant _ -> 3
  | Put_integer _ -> 4
  | Put_nil _ -> 5
  | Put_structure _ -> 6
  | Put_list _ -> 7
  | Get_variable _ -> 8
  | Get_value (_, _, s) -> by_spec s 9 52 60
  | Get_constant (_, _, s) -> by_uspec s 10 55
  | Get_integer (_, _, s) -> by_uspec s 11 59
  | Get_nil (_, s) -> by_uspec s 12 56
  | Get_structure (_, _, s) -> by_spec s 13 50 53
  | Get_list (_, s) -> by_spec s 14 51 54
  | Unify_variable _ -> 15
  | Unify_value _ -> 16
  | Unify_local_value _ -> 17
  | Unify_constant _ -> 18
  | Unify_integer _ -> 19
  | Unify_nil -> 20
  | Unify_void _ -> 21
  | Allocate _ -> 22
  | Deallocate -> 23
  | Call _ -> 24
  | Execute _ -> 25
  | Proceed -> 26
  | Jump _ -> 27
  | Halt_ok -> 28
  | Try (_, sh) -> if sh then 47 else 29
  | Retry (_, sh) -> if sh then 48 else 30
  | Trust (_, sh) -> if sh then 49 else 31
  | Switch_on_term _ -> 32
  | Switch_on_constant _ -> 33
  | Switch_on_integer _ -> 34
  | Switch_on_structure _ -> 35
  | Neck_cut -> 36
  | Get_level _ -> 37
  | Cut_to _ -> 38
  | Builtin (_, _, s) -> by_uspec s 39 57
  | Check_ground _ -> 40
  | Check_indep _ -> 41
  | Alloc_parcall _ -> 42
  | Push_goal _ -> 43
  | Par_join -> 44
  | Goal_done -> 45
  | Check_size _ -> 46

let names =
  [|
    "put_variable"; "put_value"; "put_unsafe_value"; "put_constant";
    "put_integer"; "put_nil"; "put_structure"; "put_list"; "get_variable";
    "get_value"; "get_constant"; "get_integer"; "get_nil"; "get_structure";
    "get_list"; "unify_variable"; "unify_value"; "unify_local_value";
    "unify_constant"; "unify_integer"; "unify_nil"; "unify_void"; "allocate";
    "deallocate"; "call"; "execute"; "proceed"; "jump"; "halt"; "try";
    "retry"; "trust"; "switch_on_term"; "switch_on_constant";
    "switch_on_integer"; "switch_on_structure"; "neck_cut"; "get_level";
    "cut_to"; "builtin"; "check_ground"; "check_indep"; "alloc_parcall";
    "push_goal"; "par_join"; "goal_done"; "check_size"; "det_try";
    "det_retry"; "det_trust"; "get_structure_r"; "get_list_r";
    "get_value_r"; "get_structure_u"; "get_list_u"; "get_constant_u";
    "get_nil_u"; "builtin_nt"; "put_uninit"; "get_integer_u"; "get_value_u";
  |]

let opcode_count = Array.length names

let opcode_name n =
  if n >= 0 && n < opcode_count then names.(n) else Printf.sprintf "op%d" n

let spec : t -> spec = function
  | Get_value (_, _, s) | Get_structure (_, _, s) | Get_list (_, s) -> s
  | Put_variable (_, _, s)
  | Get_constant (_, _, s)
  | Get_integer (_, _, s)
  | Get_nil (_, s)
  | Builtin (_, _, s) ->
    (s :> spec)
  | _ -> `Plain

let plain = function
  | Put_variable (r, a, _) -> Put_variable (r, a, `Plain)
  | Get_value (r, a, _) -> Get_value (r, a, `Plain)
  | Get_constant (c, a, _) -> Get_constant (c, a, `Plain)
  | Get_integer (n, a, _) -> Get_integer (n, a, `Plain)
  | Get_nil (a, _) -> Get_nil (a, `Plain)
  | Get_structure (f, a, _) -> Get_structure (f, a, `Plain)
  | Get_list (a, _) -> Get_list (a, `Plain)
  | Builtin (b, n, _) -> Builtin (b, n, `Plain)
  | i -> i

let pp_reg fmt = function
  | X n -> Format.fprintf fmt "X%d" n
  | Y n -> Format.fprintf fmt "Y%d" n

let pp fmt i =
  let name = opcode_name (opcode i) in
  match i with
  | Put_variable (r, a, _) | Put_value (r, a) | Get_variable (r, a)
  | Get_value (r, a, _) ->
    Format.fprintf fmt "%s %a, A%d" name pp_reg r a
  | Put_unsafe_value (y, a) -> Format.fprintf fmt "%s Y%d, A%d" name y a
  | Put_constant (c, a) | Put_integer (c, a) | Put_structure (c, a)
  | Get_constant (c, a, _) | Get_integer (c, a, _) | Get_structure (c, a, _) ->
    Format.fprintf fmt "%s %d, A%d" name c a
  | Put_nil a | Put_list a | Get_nil (a, _) | Get_list (a, _) ->
    Format.fprintf fmt "%s A%d" name a
  | Unify_variable r | Unify_value r | Unify_local_value r ->
    Format.fprintf fmt "%s %a" name pp_reg r
  | Unify_constant c | Unify_integer c -> Format.fprintf fmt "%s %d" name c
  | Unify_nil | Deallocate | Proceed | Halt_ok | Neck_cut | Par_join
  | Goal_done ->
    Format.pp_print_string fmt name
  | Unify_void n | Allocate n | Call n | Execute n | Jump n | Try (n, _)
  | Retry (n, _) | Trust (n, _) | Get_level n | Cut_to n ->
    Format.fprintf fmt "%s %d" name n
  | Alloc_parcall (k, join) ->
    Format.fprintf fmt "%s %d, join:%d" name k join
  | Switch_on_term { var_l; con_l; int_l; lis_l; str_l } ->
    Format.fprintf fmt "%s v:%d c:%d i:%d l:%d s:%d" name var_l con_l int_l
      lis_l str_l
  | Switch_on_constant (tbl, d)
  | Switch_on_integer (tbl, d)
  | Switch_on_structure (tbl, d) ->
    Format.fprintf fmt "%s [%s] else:%d" name
      (String.concat "; "
         (Array.to_list
            (Array.map (fun (k, l) -> Printf.sprintf "%d->%d" k l) tbl)))
      d
  | Builtin (b, n, _) -> Format.fprintf fmt "%s %s/%d" name (Builtin.name b) n
  | Check_ground (r, l) -> Format.fprintf fmt "%s %a, else:%d" name pp_reg r l
  | Check_indep (r1, r2, l) ->
    Format.fprintf fmt "%s %a, %a, else:%d" name pp_reg r1 pp_reg r2 l
  | Check_size (r, k, l) ->
    Format.fprintf fmt "%s %a, %d, else:%d" name pp_reg r k l
  | Push_goal (slot, f, n) ->
    Format.fprintf fmt "%s slot:%d pred:%d/%d" name slot f n
