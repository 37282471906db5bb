(* plan-serve: cost-accounting jobs as JSON lines through the service
   path.  Each line is decoded with [Job.of_json], submitted to an
   in-process fleet of generic instances, and its outcome encoded with
   [Engine.outcome_to_json].  A closed loop keeps two jobs outstanding:
   the next line enters as soon as any job settles.  No numeric kernel
   runs; the work is codec, admission, queueing, settle, planning, cost
   accounting and GC. *)

module Job = Sched.Job
module Fleet = Sched.Fleet
module Engine = Sched.Engine
module Json = Harness.Json
module Report = Harness.Report

let sweeps =
  [
    "table3"; "table4"; "table5"; "table6"; "table7"; "table8"; "table9";
    "table10"; "fleet"; "tallskinny";
  ]

let templates () = Array.of_list (List.concat_map Sched.Sweep.jobs sweeps)

(* The seed's draw order: line k is a uniform draw from the templates
   under a fresh id, so shapes repeat the way a real stream's do. *)
type stream = {
  tpl : Job.t array;
  rng : Dompool.Prng.t;
  mutable k : int;
  seen : (string, unit) Hashtbl.t;  (** full shapes submitted so far *)
  mutable repeats : int;  (** submissions whose shape was seen before *)
}

let stream ~seed =
  let rng = Dompool.Prng.create (Hashtbl.hash (seed, "plan-serve")) in
  { tpl = templates (); rng; k = 0; seen = Hashtbl.create 256; repeats = 0 }

let next_line s =
  let t = s.tpl.(Dompool.Prng.int s.rng (Array.length s.tpl)) in
  s.k <- s.k + 1;
  let id = Printf.sprintf "%s#%d" t.Job.id s.k in
  (t.Job.id, Json.to_string (Job.to_json { t with Job.id = id }))

(* A job's full shape: everything but its id. *)
let shape (j : Job.t) = Json.to_string (Job.to_json { j with Job.id = "" })

let outstanding = 2

(* The stream is served in segments of [segment_s], each on a fresh
   fleet.  Between segments, with no fleet alive, the client times the
   host reference [segment_refs] times, so the reference reads the host
   and not the fleet's domains. *)
let segment_s = 5.0
let segment_refs = 3

type pass = {
  latency_ms : float list;  (** line into the decoder -> line out of the encoder *)
  by_template : (string, float list) Hashtbl.t;  (** latency per template *)
  decode_us : float list;
  submit_us : float list;
  encode_us : float list;
  settle_ms : float list;  (** the outcome's [elapsed_ms] *)
  queue_wait_ms : float list;
  jobs : int;  (** settled *)
  failed : int;
  wall_s : float;  (** summed segment wall time, first submission to last settle *)
  ref_ms : float list;  (** host reference loops, run between segments *)
  util_mean : float;
  steals : int;
  minor_words : float;
  major : int;
  repeat_share : float;  (** over the stream so far *)
  out : string;  (** file of the outcome lines, for the checks after the pass *)
  problems : string list;
}

(* Outcome lines go to a file as [lsq_cli serve] writes them to stdout;
   holding them in memory would grow the live heap every major
   collection must walk, and so slow the run as it goes. *)
let pass ~instances ~seconds ~min_jobs ~out s =
  let oc = open_out out in
  let g0 = Gc.quick_stat () in
  let m = Mutex.create () and cv = Condition.create () in
  let settled = Queue.create () in
  let on_outcome o =
    Mutex.lock m;
    Queue.push o settled;
    Condition.signal cv;
    Mutex.unlock m
  in
  let config =
    { (Fleet.Config.batch ~parallel:instances ()) with retain_outcomes = false }
  in
  let entered = Hashtbl.create 16 and by_template = Hashtbl.create 256 in
  let lat = ref [] and dec = ref [] and sub = ref [] and enc = ref [] in
  let settle = ref [] and qwait = ref [] and refs = ref [] in
  let failed = ref 0 and problems = ref [] and inflight = ref 0 in
  let jobs = ref 0 and busy = ref 0.0 and utils = ref [] and steals = ref 0 in
  let problem fmt = Printf.ksprintf (fun p -> problems := p :: !problems) fmt in
  let reference () =
    for _ = 1 to segment_refs do
      refs := Ledger.reference_ms () :: !refs
    done
  in
  let submit_next fleet =
    let template, line = next_line s in
    let k = s.k and op = Ledger.fresh_op () in
    Ledger.set_op op "job";
    let t0 = Ledger.now () in
    match Ledger.span "job.of_json" (fun () -> Job.of_json (Json.of_string line)) with
    | exception e ->
      incr failed;
      problem "line %d does not decode: %s" k (Printexc.to_string e)
    | job -> (
      let t1 = Ledger.now () in
      let sh = shape job in
      if Hashtbl.mem s.seen sh then s.repeats <- s.repeats + 1
      else Hashtbl.replace s.seen sh ();
      match Ledger.span "fleet.submit" (fun () -> Fleet.submit fleet job) with
      | Ok ticket ->
        let t2 = Ledger.now () in
        Hashtbl.replace entered ticket (op, t0, template);
        dec := (1e6 *. (t1 -. t0)) :: !dec;
        sub := (1e6 *. (t2 -. t1)) :: !sub;
        incr inflight
      | Error r ->
        incr failed;
        problem "line %d rejected: %s" k (Fleet.reject_message r))
  in
  let segment () =
    let fleet = Fleet.create ~on_outcome config in
    let t_seg = Ledger.now () in
    let more () =
      let now = Ledger.now () in
      let elapsed = now -. t_seg in
      elapsed < segment_s && (!busy +. elapsed < seconds || !jobs < min_jobs)
    in
    for _ = 1 to outstanding do
      submit_next fleet
    done;
    let last = ref t_seg in
    while !inflight > 0 do
      Mutex.lock m;
      while Queue.is_empty settled do
        Condition.wait cv m
      done;
      let o = Queue.pop settled in
      Mutex.unlock m;
      decr inflight;
      let op, t_in, template = Hashtbl.find entered o.Engine.index in
      Hashtbl.remove entered o.Engine.index;
      Ledger.set_op op "job";
      let t0 = Ledger.now () in
      let line =
        Ledger.span "engine.outcome_to_json" (fun () ->
            Json.to_string (Engine.outcome_to_json o))
      in
      let t1 = Ledger.now () in
      last := t1;
      let l = 1e3 *. (t1 -. t_in) in
      lat := l :: !lat;
      Hashtbl.replace by_template template
        (l :: Option.value (Hashtbl.find_opt by_template template) ~default:[]);
      enc := (1e6 *. (t1 -. t0)) :: !enc;
      settle := o.Engine.elapsed_ms :: !settle;
      qwait := o.Engine.timing.Engine.queue_wait_ms :: !qwait;
      output_string oc line;
      output_char oc '\n';
      incr jobs;
      if more () then submit_next fleet
    done;
    Ledger.set_op (-1) "";
    busy := !busy +. (!last -. t_seg);
    let util (st : Fleet.stats) = st.Fleet.utilization in
    utils := List.map util (Fleet.stats fleet) @ !utils;
    steals := !steals + Fleet.steals fleet;
    Fleet.shutdown fleet
  in
  reference ();
  while !busy < seconds || !jobs < min_jobs do
    segment ();
    reference ()
  done;
  let g1 = Gc.quick_stat () in
  close_out oc;
  {
    latency_ms = !lat;
    by_template;
    decode_us = !dec;
    submit_us = !sub;
    encode_us = !enc;
    settle_ms = !settle;
    queue_wait_ms = !qwait;
    jobs = !jobs;
    failed = !failed;
    wall_s = !busy;
    ref_ms = !refs;
    util_mean = Ledger.mean !utils;
    steals = !steals;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    repeat_share = float_of_int s.repeats /. float_of_int (max 1 s.k);
    out;
    problems = List.rev !problems;
  }

(* One pass out of consecutive passes over one stream. *)
let merge passes =
  let cat f = List.concat_map f passes in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let by_template = Hashtbl.create 256 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun t ls ->
          let prev = Option.value (Hashtbl.find_opt by_template t) ~default:[] in
          Hashtbl.replace by_template t (ls @ prev))
        p.by_template)
    passes;
  let last = List.hd (List.rev passes) in
  {
    last with
    latency_ms = cat (fun p -> p.latency_ms);
    by_template;
    decode_us = cat (fun p -> p.decode_us);
    submit_us = cat (fun p -> p.submit_us);
    encode_us = cat (fun p -> p.encode_us);
    settle_ms = cat (fun p -> p.settle_ms);
    queue_wait_ms = cat (fun p -> p.queue_wait_ms);
    jobs = sum (fun p -> p.jobs);
    failed = sum (fun p -> p.failed);
    wall_s = List.fold_left (fun acc p -> acc +. p.wall_s) 0.0 passes;
    ref_ms = cat (fun p -> p.ref_ms);
    util_mean = Ledger.mean (List.map (fun p -> p.util_mean) passes);
    steals = sum (fun p -> p.steals);
    minor_words = List.fold_left (fun acc p -> acc +. p.minor_words) 0.0 passes;
    major = sum (fun p -> p.major);
    problems = cat (fun p -> p.problems);
  }

(* Geometric mean over the job templates of each one's median latency:
   the templates differ a hundredfold in cost, so a pooled median would
   move with the draw's mix. *)
let op_ms p =
  Ledger.geomean
    (Hashtbl.fold (fun _ ls acc -> Ledger.median ls :: acc) p.by_template [])

(* The checks, after the timed window: every outcome is [Completed],
   re-encodes to the same line after [Engine.outcome_of_json], and embeds
   the report a direct [Engine.run_job] of the same job produces.
   Returns the number of failed outcomes and their descriptions. *)
let direct_reports : (string, string) Hashtbl.t = Hashtbl.create 256

let check_lines out =
  let failed = ref 0 and problems = ref [] in
  In_channel.with_open_bin out (fun ic ->
    Seq.iter (fun line ->
      let fail fmt =
        Printf.ksprintf
          (fun p ->
            incr failed;
            problems := p :: !problems)
          fmt
      in
      match Engine.outcome_of_json (Json.of_string line) with
      | exception e -> fail "outcome line does not decode: %s" (Printexc.to_string e)
      | o -> (
        let id = o.Engine.job.Job.id in
        if Json.to_string (Engine.outcome_to_json o) <> line then
          fail "%s: outcome does not round-trip" id
        else
          match o.Engine.status with
          | Engine.Failed f -> fail "%s: failed: %s" id f.Engine.message
          | Engine.Completed r ->
            let key = shape o.Engine.job in
            let direct =
              match Hashtbl.find_opt direct_reports key with
              | Some d -> d
              | None ->
                let d =
                  Json.to_string (Report.to_json (Engine.run_job o.Engine.job))
                in
                Hashtbl.replace direct_reports key d;
                d
            in
            if Json.to_string (Report.to_json r) <> direct then
              fail "%s: report differs from a direct Engine.run_job" id))
      (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  (!failed, List.rev !problems)

(* Direct serial planning calls into [Harness.Runners], one per template
   of each kind: ms per call, by kind. *)
let plan_ms () =
  let by_kind = Hashtbl.create 3 in
  Array.iter
    (fun (j : Job.t) ->
      let dev =
        if Job.is_auto j then Gpusim.Device.v100
        else Gpusim.Device.by_name j.Job.device
      in
      let { Job.complex; rows; prec; dim; tile; solver; _ } = j in
      let call () =
        match j.Job.kind with
        | Job.Qr ->
          ignore (Harness.Runners.qr ~complex ?rows prec dev ~n:dim ~tile)
        | Job.Backsub -> ignore (Harness.Runners.bs ~complex prec dev ~dim ~tile)
        | Job.Solve ->
          ignore
            (Harness.Runners.solve ~complex ~method_:solver ?rows prec dev ~n:dim
               ~tile)
      in
      let t0 = Ledger.now () in
      Ledger.op "plan" (fun () -> Ledger.span "runners.plan" call);
      let ms = 1e3 *. (Ledger.now () -. t0) in
      let k = Job.string_of_kind j.Job.kind in
      let prev = Option.value (Hashtbl.find_opt by_kind k) ~default:[] in
      Hashtbl.replace by_kind k (ms :: prev))
    (templates ());
  fun kind ->
    Ledger.median (Option.value (Hashtbl.find_opt by_kind kind) ~default:[])
