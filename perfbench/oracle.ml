(* Answer oracles that do not use the engine: each recomputes a
   benchmark's answer in plain OCaml from the same generated input. *)

open Prolog

let rec tak x y z =
  if x <= y then z else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)

let ints_of_term t =
  match Term.to_list t with
  | Some xs ->
    List.fold_right
      (fun x acc ->
        match (x, acc) with
        | Term.Int i, Some l -> Some (i :: l)
        | _ -> None)
      xs (Some [])
  | None -> None

let matrix_of_term t =
  match Term.to_list t with
  | Some rows ->
    List.fold_right
      (fun r acc ->
        match (ints_of_term r, acc) with
        | Some row, Some m -> Some (row :: m)
        | _ -> None)
      rows (Some [])
  | None -> None

(* The integers of [Inputs.matrix_text], row-major, read without the
   Prolog reader. *)
let matrix_of_text ~n text =
  let nums = ref [] and cur = ref None in
  let flush () =
    Option.iter (fun v -> nums := v :: !nums) !cur;
    cur := None
  in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        let d = Char.code c - Char.code '0' in
        cur := Some ((10 * Option.value ~default:0 !cur) + d)
      | _ -> flush ())
    text;
  flush ();
  let a = Array.of_list (List.rev !nums) in
  if Array.length a <> n * n then invalid_arg "Oracle.matrix_of_text";
  List.init n (fun i -> List.init n (fun j -> a.((i * n) + j)))

let product a b =
  let b = Array.of_list (List.map Array.of_list b) in
  List.map
    (fun row ->
      List.init (Array.length b.(0)) (fun j ->
          List.fold_left ( + ) 0 (List.mapi (fun k x -> x * b.(k).(j)) row)))
    a

(* The expected binding of a benchmark's answer variable, as an OCaml
   check on the engine's term. *)
type t = Prolog.Term.t option -> bool

let tak_answer ~x ~y ~z : t = function
  | Some (Term.Int v) -> v = tak x y z
  | _ -> false

let qsort_answer list : t =
  let expected = List.sort compare list in
  function Some t -> ints_of_term t = Some expected | None -> false

let matrix_answer ~n ~seed : t =
  let a = matrix_of_text ~n (Benchlib.Inputs.matrix_text ~n ~seed) in
  let b = matrix_of_text ~n (Benchlib.Inputs.matrix_text ~n ~seed:(seed + 1)) in
  let expected = product a b in
  function Some t -> matrix_of_term t = Some expected | None -> false

(* deriv binds no answer variable; success is all there is to check. *)
let no_answer : t = fun _ -> true
