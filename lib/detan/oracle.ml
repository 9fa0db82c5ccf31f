(* Dynamic soundness oracle for choice-point elision.

   Replays the BASELINE (non-det) trace of a run and checks, for every
   chain the analysis certifies, that no alternative the det compile
   would have elided is ever genuinely needed.  "Needed" is judged the
   way the shallow machine would: entering an elided alternative is
   harmless while it only tests (head unification, guards) and fails;
   it is a soundness violation the moment the trial reaches a
   committing instruction (user call, parcall, neck cut of a deeper
   commitment, proceed) AFTER an earlier alternative of the same frame
   already committed -- det-mode would have discarded the frame at
   that earlier commit and this answer path would not exist.

   Mechanics: Wam.Replay maps each instruction fetch back to its
   instruction index, and the oracle keeps a per-PE shadow stack of
   chain instances:

   - fetch of a certified chain's try      -> push an instance;
   - fetch of its retry/trust             -> pop instances above the
     matching one; if that instance had committed, the trial that now
     begins runs in "zombie" mode (det-mode would have elided it);
     a trust additionally marks the instance as popped-on-commit;
   - fetch of any committing instruction  -> a zombie top is a
     violation; an uncommitted top commits (or pops, if the committing
     instruction is the frame's own neck cut -- the cut discards it);
     a trusted top pops.

   Alternatives that are tried and fail before committing (the normal
   shallow-backtracking pattern) never trip the check. *)

type role =
  | R_none
  | R_entry of int
  | R_alt of int * bool (* last? *)
  | R_dead of int  (** entry of a chain det-mode prunes entirely *)

type instance = {
  ic_chain : int;
  mutable committed : bool;
  mutable zombie : bool;
  mutable trusted : bool;
}

type violation = {
  v_pe : int;
  v_pred : string * int;
  v_bucket : string;
  v_chain_start : int;  (** code address of the chain's try *)
  v_addr : int;  (** committing instruction reached by the zombie trial *)
}

type report = {
  chains_checked : int;  (** certified chains watched *)
  fetches : int;  (** Code fetches replayed *)
  trials : int;  (** entries into a watched chain *)
  violations : violation list;
}

let pp_violation fmt v =
  Format.fprintf fmt
    "PE%d: backtrack into elided alternative of %s/%d (%s chain @%d) commits @%d"
    v.v_pe (fst v.v_pred) (snd v.v_pred) v.v_bucket v.v_chain_start v.v_addr

(* [chains] must be the chains of the SAME compile that produced the
   trace (the baseline), filtered down to the certified ones.  [dead]
   chains (switch_on_term variable chains the analysis prunes to
   fail) must never be entered at all: any fetch of their first
   instruction is a violation. *)
let check ~code ~(chains : Wam.Compile.chain_info list)
    ?(dead : Wam.Compile.chain_info list = []) buf =
  let n = Wam.Code.length code in
  let roles = Array.make n R_none in
  let commits = Array.make n false in
  let neck_cut = Array.make n false in
  for a = 0 to n - 1 do
    let i = Wam.Code.fetch code a in
    commits.(a) <- Wam.Exec.commits i;
    neck_cut.(a) <- i = Wam.Instr.Neck_cut
  done;
  let chain_arr = Array.of_list chains in
  Array.iteri
    (fun id (ci : Wam.Compile.chain_info) ->
      for k = 0 to ci.ci_alts - 1 do
        let a = ci.ci_start + k in
        if a >= 0 && a < n then
          roles.(a) <-
            (if k = 0 then R_entry id else R_alt (id, k = ci.ci_alts - 1))
      done)
    chain_arr;
  let dead_arr = Array.of_list dead in
  Array.iteri
    (fun id (ci : Wam.Compile.chain_info) ->
      if ci.ci_start >= 0 && ci.ci_start < n then
        roles.(ci.ci_start) <- R_dead id)
    dead_arr;
  let stacks = Wam.Replay.per_pe (fun () -> []) in
  let fetches = ref 0 in
  let trials = ref 0 in
  let violations = ref [] in
  let violate pe (ci : Wam.Compile.chain_info) idx =
    violations :=
      {
        v_pe = pe;
        v_pred = ci.ci_pred;
        v_bucket = ci.ci_bucket;
        v_chain_start = ci.ci_start;
        v_addr = idx;
      }
      :: !violations
  in
  let on_fetch (r : Trace.Ref_record.t) idx =
    incr fetches;
    let pe = r.pe in
    (match roles.(idx) with
    | R_none -> ()
    | R_dead id -> violate pe dead_arr.(id) idx
    | R_entry id ->
      incr trials;
      stacks.(pe) <-
        { ic_chain = id; committed = false; zombie = false; trusted = false }
        :: stacks.(pe)
    | R_alt (id, last) ->
      (* unwind shadow instances of deeper, already-forgotten frames,
         then re-enter the matching instance *)
      let rec find = function
        | [] ->
          (* no visible try (frame predates the watched window or was
             unwound by a kill): track leniently *)
          [ { ic_chain = id; committed = false; zombie = false; trusted = last } ]
        | inst :: rest when inst.ic_chain = id ->
          incr trials;
          if inst.committed then inst.zombie <- true;
          inst.committed <- false;
          if last then inst.trusted <- true;
          inst :: rest
        | _ :: rest -> find rest
      in
      stacks.(pe) <- find stacks.(pe));
    if commits.(idx) then
      match stacks.(pe) with
      | [] -> ()
      | inst :: rest ->
        if inst.zombie then begin
          violate pe chain_arr.(inst.ic_chain) idx;
          stacks.(pe) <- rest
        end
        else if inst.trusted then stacks.(pe) <- rest
        else if not inst.committed then
          if neck_cut.(idx) then stacks.(pe) <- rest else inst.committed <- true
  in
  Wam.Replay.iter (Wam.Replay.create code) ~fetch:on_fetch ~data:ignore buf;
  {
    chains_checked = Array.length chain_arr;
    fetches = !fetches;
    trials = !trials;
    violations = List.rev !violations;
  }
