(* The closed loop: one client issues op [i+1] only after op [i] has
   returned, on the calling domain, until the time budget is spent and
   a whole number of cycles has run. *)

type result = {
  attempted : int;
  failed : int;  (* wrong answers and exceptions *)
  elapsed_s : float;
  lat_ns : int array;  (* per op, sorted ascending *)
  alloc_words : float;  (* host words allocated by the loop *)
  minor_collections : int;
  major_collections : int;
}

let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

(* [op i] runs op [i] and says whether its answer was correct. *)
let run ~seconds ~cycle (op : int -> bool) =
  let lat = ref (Array.make 4096 0) in
  let n = ref 0 and failed = ref 0 in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let stop = ref false in
  while not !stop do
    let s = Clock.now_ns () in
    let ok = try op !n with _ -> false in
    let e = Clock.now_ns () in
    if not ok then incr failed;
    if !n = Array.length !lat then begin
      let b = Array.make (2 * !n) 0 in
      Array.blit !lat 0 b 0 !n;
      lat := b
    end;
    !lat.(!n) <- e - s;
    incr n;
    stop := e - t0 >= budget_ns && !n mod cycle = 0
  done;
  let elapsed_s = Clock.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let lat_ns = Array.sub !lat 0 !n in
  Array.sort compare lat_ns;
  {
    attempted = !n;
    failed = !failed;
    elapsed_s;
    lat_ns;
    alloc_words = alloc g1 -. alloc g0;
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
  }

(* Nearest-rank percentile of sorted samples. *)
let rank n p = max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))
let percentile sorted p = sorted.(rank (Array.length sorted) p)

(* The tail: the highest percentile of this ladder with at least ten
   samples beyond it (p50 when there are too few samples for any). *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail sorted =
  let n = Array.length sorted in
  let beyond p = n - 1 - rank n p in
  let p =
    match List.find_opt (fun p -> beyond p >= 10) ladder with
    | Some p -> p
    | None -> 50.0
  in
  (p, percentile sorted p, beyond p)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
