(* Tagged data cells, encoded in a single OCaml int.

   The simulated memory is word-addressed and every word is a tagged
   cell, as in the WAM.  Encoding: low 3 bits = tag, payload = word
   asr 3 (arithmetic shift so integers and raw control words keep their
   sign).

     Ref a   unbound/bound variable; unbound iff mem[a] = Ref a
     Str a   pointer to a Fun cell at address a
     Lis a   pointer to a cons pair at addresses a, a+1
     Con c   atom, payload is the symbol id
     Num n   integer
     Fun f   functor word (interned name/arity id); heads Str blocks
     Raw n   machine control word (saved registers, counters, sizes)   *)

type view =
  | Ref of int
  | Str of int
  | Lis of int
  | Con of int
  | Num of int
  | Fun of int
  | Raw of int

let tag_ref = 0
let tag_str = 1
let tag_lis = 2
let tag_con = 3
let tag_num = 4
let tag_fun = 5
let tag_raw = 6

let make tag payload = (payload lsl 3) lor tag

let ref_ a = make tag_ref a
let str a = make tag_str a
let lis a = make tag_lis a
let con c = make tag_con c
let num n = make tag_num n
let fun_ f = make tag_fun f
let raw n = make tag_raw n

let min_num = min_int asr 3
let max_num = max_int asr 3
let fits_num n = n >= min_num && n <= max_num

let tag w = w land 7
let payload w = w asr 3

let view w =
  match w land 7 with
  | 0 -> Ref (w asr 3)
  | 1 -> Str (w asr 3)
  | 2 -> Lis (w asr 3)
  | 3 -> Con (w asr 3)
  | 4 -> Num (w asr 3)
  | 5 -> Fun (w asr 3)
  | 6 -> Raw (w asr 3)
  | t -> invalid_arg (Printf.sprintf "Cell.view: tag %d" t)

let is_ref w = tag w = tag_ref
let is_raw w = tag w = tag_raw

let to_string w =
  match view w with
  | Ref a -> Printf.sprintf "REF %d" a
  | Str a -> Printf.sprintf "STR %d" a
  | Lis a -> Printf.sprintf "LIS %d" a
  | Con c -> Printf.sprintf "CON %d" c
  | Num n -> Printf.sprintf "NUM %d" n
  | Fun f -> Printf.sprintf "FUN %d" f
  | Raw n -> Printf.sprintf "RAW %d" n
