(* The traced run's span ledger and the statistics every workload shares.

   Spans are recorded only by the benchmark's own code, around its calls
   into the libraries' public functions, on the calling domain.  Each span
   keeps its name, start, end, parent span and the operation it belongs
   to; they stay in memory and are written out once, when the run ends.
   A span's self time is its duration minus the time covered by its
   children (children never overlap: they run one after another on the
   same domain). *)

let now () = Unix.gettimeofday ()

type span = {
  id : int;
  name : string;
  op : int;
  op_name : string;  (** the operation's root span name *)
  parent : int;  (** -1 for an operation's root span *)
  t0 : float;
  t1 : float;
}

let recording = ref false
let closed : span list ref = ref []
let next_id = ref 0
let next_op = ref 0
let open_spans : int list ref = ref []
let current_op = ref (-1)
let current_op_name = ref ""

(* Tags later spans with an operation recorded without a root span (a
   served job's decode, submit and encode happen at different times). *)
let set_op id name =
  current_op := id;
  current_op_name := name

let fresh_op () =
  let id = !next_op in
  incr next_op;
  id

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      open_spans := List.tl !open_spans;
      closed :=
        { id; name; op = !current_op; op_name = !current_op_name; parent; t0; t1 }
        :: !closed)

(* [span name f] runs [f] inside a child span of the current operation. *)
let span name f = if !recording then record name f else f ()

(* [op name f] runs [f] as a new operation: a root span whose id every
   nested span shares. *)
let op name f =
  if not !recording then f ()
  else begin
    set_op (fresh_op ()) name;
    Fun.protect ~finally:(fun () -> set_op (-1) "") (fun () -> record name f)
  end

(* Self times in ms, grouped by "operation/span" name. *)
let self_ms () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Option.value (Hashtbl.find_opt children s.parent) ~default:0.0
          +. (s.t1 -. s.t0)))
    !closed;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      let key = s.op_name ^ "/" ^ s.name in
      Hashtbl.replace by_name key
        ((1e3 *. self) :: Option.value (Hashtbl.find_opt by_name key) ~default:[]))
    !closed;
  by_name

let write_jsonl path =
  let module J = Harness.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("id", J.Int s.id);
                ("name", J.Str s.name);
                ("op", J.Int s.op);
                ("op_name", J.Str s.op_name);
                ("parent", J.Int s.parent);
                ("start_s", J.Float s.t0);
                ("end_s", J.Float s.t1);
              ]));
      output_char oc '\n')
    (List.rev !closed);
  close_out oc

(* ---- statistics ---- *)

(* Linear-interpolated quantile of a non-empty sample, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean xs =
  let n = float_of_int (List.length xs) in
  exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. n)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [repeat ~min_reps ~min_s f] calls [f] until both floors are met and
   returns the per-call seconds. *)
let repeat ~min_reps ~min_s f =
  let start = now () in
  let rec go acc n =
    if n >= min_reps && now () -. start >= min_s then List.rev acc
    else begin
      let t0 = now () in
      f ();
      go ((now () -. t0) :: acc) (n + 1)
    end
  in
  go [] 0

(* Seconds [f] takes. *)
let time f =
  let t0 = now () in
  f ();
  now () -. t0

(* Peak resident set size of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan () /. 1024.0)

(* ---- host reference ---- *)

(* The host reference: a dependent chain of floating point multiply,
   FMA and add that allocates nothing, run on two domains at once (the
   exec solves and the fleet both keep two domains busy), timed until
   both finish.  It reads the speed the host gives two domains at the
   moment and nothing of the program's heap or GC state, and it calls no
   repository code, so no change under test can move it.  Workloads
   divide their times by it, run next to them, to cancel the host's slow
   phases. *)
let reference_sink = ref 0.0
let references : float list ref = ref []

let chain n =
  let hi = ref 1.0 and lo = ref 0.0 in
  for _ = 1 to n do
    let a = !hi *. 1.0000001 in
    lo := !lo +. Float.fma !hi 1.0000001 (-.a);
    hi := a +. 1e-9
  done;
  !hi +. !lo

let reference_ms () =
  let n = 500_000 in
  let t0 = now () in
  let other = Domain.spawn (fun () -> chain n) in
  let mine = chain n in
  reference_sink := mine +. Domain.join other;
  let ms = 1e3 *. (now () -. t0) in
  references := ms :: !references;
  ms
