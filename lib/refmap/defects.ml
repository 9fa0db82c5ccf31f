(* Seeded analysis defects.

   Each defect damages the analysis in one way a buggy implementation
   could get wrong: four weaken the static summaries (an access class
   the footprint tables forgot), one corrupts the certification
   decision itself.  The soundness oracle must flag the weakened
   summaries with predicate/area/mode diagnostics; the certification
   audit must flag the corrupted certifier.  Used by the defect
   fixtures in the test suite and the [refmap --defect] CLI. *)

let defect name detector description =
  { Benchlib.Driver.name; detector; description; probes = [] }

let all =
  Benchlib.Driver.
    [
      defect "trail-blind" Oracle
        "summaries forget the trail: binding writes no longer record \
         their undo entries";
      defect "heap-read-only" Oracle
        "heap modes capped at read: structure building and bindings \
         invisible to the analysis";
      defect "env-blind" Oracle
        "environment areas erased: permanent variables and frame \
         control words unaccounted";
      defect "choice-blind" Oracle
        "choice-point area erased: clause selection and failure \
         restore unaccounted";
      defect "force-certify" Audit
        "certifier answers yes unconditionally, marking conditional \
         groups static_safe";
    ]

let forces_certify (d : Benchlib.Driver.defect) = d.name = "force-certify"

let erase s area = Summary.set s area Mode.Nil

let cap_at s area m =
  if not (Mode.leq (Summary.get s area) m) then Summary.set s area m

let weaken_summary name s =
  match name with
  | "trail-blind" -> erase s Trace.Area.Trail
  | "heap-read-only" -> cap_at s Trace.Area.Heap Mode.Read
  | "env-blind" ->
    erase s Trace.Area.Env_pvar;
    erase s Trace.Area.Env_control
  | "choice-blind" -> erase s Trace.Area.Choice_point
  | "force-certify" -> ()
  | _ -> invalid_arg (Printf.sprintf "Refmap.Defects.apply: %s" name)

(* Damage [static] in place (summaries are mode vectors; the table
   structure is untouched). *)
let apply (d : Benchlib.Driver.defect) (static : Static.t) =
  let f = weaken_summary d.name in
  Hashtbl.iter
    (fun _ (p : Static.pred) ->
      f p.Static.own;
      f p.Static.closure)
    static.Static.preds;
  f static.Static.program
