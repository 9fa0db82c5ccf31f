(* In-memory span recorder for the traced run.

   A span has a name, the layer it is charged to, a start and end
   (ns), a parent span and the op it belongs to (-1 = set-up).  The
   recorder keeps everything in growable arrays and writes it out
   once, when the run ends.  [off] records nothing, so the untraced
   runs pay one branch per call site. *)

type t = {
  on : bool;
  mutable n : int;
  mutable names : string array;
  mutable layers : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable ops : int array;
  mutable open_ : int list;  (* innermost open span first *)
  mutable op : int;
}

let make on =
  {
    on;
    n = 0;
    names = [||];
    layers = [||];
    starts = [||];
    stops = [||];
    parents = [||];
    ops = [||];
    open_ = [];
    op = -1;
  }

let off = make false
let create () = make true
let set_op t op = if t.on then t.op <- op

let grow t =
  let cap = max 1024 (2 * t.n) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.layers <- ext t.layers "";
  t.starts <- ext t.starts 0;
  t.stops <- ext t.stops 0;
  t.parents <- ext t.parents (-1);
  t.ops <- ext t.ops (-1)

let enter t ~layer name =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.layers.(i) <- layer;
  t.parents.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.ops.(i) <- t.op;
  t.open_ <- i :: t.open_;
  t.starts.(i) <- Clock.now_ns ();
  i

let leave t i =
  t.stops.(i) <- Clock.now_ns ();
  match t.open_ with
  | _ :: rest -> t.open_ <- rest
  | [] -> ()

(* [span t ~layer name f] runs [f] inside a span. *)
let span t ~layer name f =
  if not t.on then f ()
  else begin
    let i = enter t ~layer name in
    match f () with
    | v ->
      leave t i;
      v
    | exception e ->
      leave t i;
      raise e
  end

let duration t i = t.stops.(i) - t.starts.(i)

(* Aggregates over the recorded spans of one phase: set-up spans
   (op -1) or op spans (op >= 0). *)
let in_phase t ~setup i = (t.ops.(i) < 0) = setup

(* Total nanoseconds of the spans named [name]. *)
let busy_ns t ~setup name =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if in_phase t ~setup i && t.names.(i) = name then acc := !acc + duration t i
  done;
  !acc

(* Self time per layer, in ns: each span's duration minus the time its
   child spans cover (children never overlap: one domain, properly
   nested). *)
let self_ns t ~setup =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    if in_phase t ~setup i then begin
      let l = t.layers.(i) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (prev + duration t i - child.(i))
    end
  done;
  fun layer -> Option.value ~default:0 (Hashtbl.find_opt tbl layer)

(* One span per line, tab-separated, times relative to the first
   span. *)
let write t path =
  let t0 = if t.n > 0 then t.starts.(0) else 0 in
  let oc = open_out path in
  output_string oc "span\tparent\top\tlayer\tname\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%d\t%d\n" i t.parents.(i) t.ops.(i)
      t.layers.(i) t.names.(i) (t.starts.(i) - t0) (t.stops.(i) - t0)
  done;
  close_out oc
