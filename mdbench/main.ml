(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (all closed loops driven from this one process):
   - exec-square  executed square solves, direct engine, 2d/4d/8d
   - exec-tall    executed 1024x32 solves: thin QR, CG, LSQR at 2d/4d
   - plan-serve   cost-accounting JSON-line jobs through a 2-instance fleet
   BENCHMARK.json lists exec-square and plan-serve; exec-tall is too
   unsteady end to end for a bound and is measured in the traced run.

   With --trace 0 it measures the named workload for S seconds and
   reports the end-to-end metrics; with --trace 1 it runs every workload,
   alternating plain and traced rounds (the named one for S seconds, the
   others for S/3), probes the layers directly, and reports the per-layer
   metrics.  Every output is checked; the last stdout line is
   one JSON object {correct, attempted, failed, metrics}, and the exit
   code is 1 when any check failed.  See README.md. *)

let started = Ledger.now ()

module Json = Harness.Json

let workloads = [ "exec-square"; "exec-tall"; "plan-serve" ]

(* ---- results ---- *)

let metrics : (string * (float * string)) list ref = ref []
let put name unit v = metrics := (name, (v, unit)) :: !metrics
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let note_problems ps =
  List.iter (fun p -> prerr_endline ("mdbench: " ^ p)) ps;
  problems := !problems @ ps

let count ~ops ~bad ps =
  attempted := !attempted + ops;
  failed := !failed + bad;
  note_problems ps

let median = Ledger.median

(* Set-up timings, [reps] at a time after a full major collection; their
   median is [setup_s].  exec repeats its set-up between rounds, so the
   median samples the host across the whole run (timed back to back at
   process start, its medians moved by 2x between runs); plan-serve's
   one-millisecond set-up is timed twenty times before the first job. *)
let setups = ref []

let set_up ~reps f () =
  Gc.full_major ();
  for _ = 1 to reps do
    setups := Ledger.time f :: !setups
  done

(* ---- exec workloads ---- *)

let cfgs_of = function "exec-square" -> Exec.square | _ -> Exec.tall

let exec_pass ?between ~traced ~seconds ~min_rounds ~refs runners =
  Ledger.recording := traced;
  let p = Exec.run_pass ?between ~traced ~seconds ~min_rounds ~refs runners in
  Ledger.recording := false;
  count ~ops:p.Exec.solves ~bad:p.Exec.failed p.Exec.problems;
  p

(* The exec set-up: the domain pool and every input built from the seed. *)
let exec_setup ~seed w () =
  ignore (Dompool.Domain_pool.get_default ());
  List.iter (fun c -> (Exec.runner ~seed c).Exec.inputs ()) (cfgs_of w)

let exec_prepare ~seed w =
  set_up ~reps:1 (exec_setup ~seed w) ();
  let runners = List.map (Exec.runner ~seed) (cfgs_of w) in
  let refs = Hashtbl.create 8 in
  (* One untimed round: lazy set-up finishes and the references form. *)
  ignore (exec_pass ~traced:false ~seconds:0.0 ~min_rounds:1 ~refs runners);
  (runners, refs)

let exec_e2e ~seed ~seconds w =
  let runners, refs = exec_prepare ~seed w in
  let p =
    exec_pass ~between:(set_up ~reps:1 (exec_setup ~seed w)) ~traced:false ~seconds
      ~min_rounds:3 ~refs runners
  in
  let rss = Ledger.peak_rss_mb () in
  let ref_ms = Exec.ref_ms p in
  put "op_time_rel" "x" (Exec.op_ms p /. ref_ms);
  put "throughput_rel" "x"
    (float_of_int p.Exec.solves /. p.Exec.wall_s *. ref_ms /. 1e3);
  rss

let exec_layers ~seed ~seconds w =
  let runners, refs = exec_prepare ~seed w in
  (* Plain and traced rounds alternate, so both see the same host phases
     and heap states. *)
  let round traced = exec_pass ~traced ~seconds:0.0 ~min_rounds:1 ~refs runners in
  let start = Ledger.now () in
  let rec go plain traced n =
    if n >= 3 && Ledger.now () -. start >= seconds then (plain, traced)
    else
      let p = round false in
      go (p :: plain) (round true :: traced) (n + 1)
  in
  let plain, traced = go [] [] 0 in
  let plain = Exec.merge plain and traced = Exec.merge traced in
  let self = Ledger.self_ms () in
  let self_med key =
    match Hashtbl.find_opt self key with
    | Some l -> median l
    | None -> failwith ("no spans for " ^ key)
  in
  let samples id = List.assoc id plain.Exec.samples in
  let ms id = median (List.map (fun s -> s.Exec.ms) (samples id)) in
  let explained = ref [] in
  List.iter
    (fun (r : Exec.runner) ->
      let c = r.Exec.cfg in
      let id = c.Exec.id in
      let first = Hashtbl.find refs id in
      let ss = samples id in
      put ("solve_ms_" ^ id) "ms" (ms id);
      put ("sim.launches_" ^ id) "count" (float_of_int first.Exec.launches);
      put ("sim.md_ops_" ^ id) "count" first.Exec.md_ops;
      put ("sim.host_gflops_" ^ id) "GFLOP/s" (first.Exec.flops /. (ms id *. 1e6));
      put ("gc.minor_mwords_" ^ id) "Mwords"
        (median (List.map (fun s -> s.Exec.minor_words /. 1e6) ss));
      put ("gc.major_" ^ id) "count"
        (Ledger.mean (List.map (fun s -> float_of_int s.Exec.major) ss));
      let prec = Multidouble.Precision.label c.Exec.prec in
      let layers =
        match c.Exec.meth with
        | Lsq_core.Solver.Qr_direct when c.Exec.rows = c.Exec.cols ->
          let qr = self_med (id ^ "/blocked_qr.run")
          and qhb = self_med (id ^ "/qhb")
          and bs = self_med (id ^ "/tiled_back_sub.run") in
          put ("qr.ms_" ^ prec) "ms" qr;
          put ("bs.ms_" ^ prec) "ms" bs;
          [ qr; qhb; bs ]
        | Lsq_core.Solver.Qr_direct ->
          let qr = self_med (id ^ "/blocked_qr.factor_thin")
          and bs = self_med (id ^ "/tiled_back_sub.run") in
          put ("qr_thin.ms_" ^ prec) "ms" qr;
          [ qr; bs ]
        | Lsq_core.Solver.Cg_normal | Lsq_core.Solver.Lsqr ->
          let solve = self_med (id ^ "/solver.solve") in
          put ("solver.iters_" ^ id) "count" (float_of_int first.Exec.iters);
          put ("solver.rungs_" ^ id) "count" (float_of_int first.Exec.rungs);
          put ("solver.ms_per_iter_" ^ id) "ms"
            (solve /. float_of_int first.Exec.iters);
          [ solve ]
      in
      let traced_ms =
        median (List.map (fun s -> s.Exec.ms) (List.assoc id traced.Exec.samples))
      in
      explained := (List.fold_left ( +. ) 0.0 layers /. traced_ms) :: !explained)
    runners;
  if w = "exec-tall" then put "cond.ms" "ms" (self_med "cond/cond.cond1")
  else begin
    let ns_per_op id = ms id *. 1e6 /. (Hashtbl.find refs id).Exec.md_ops in
    let over hi lo = ns_per_op hi /. ns_per_op lo in
    put "overhead.ns_per_op_4d_over_2d" "ratio" (over "qr_4d" "qr_2d");
    put "overhead.ns_per_op_8d_over_4d" "ratio" (over "qr_8d" "qr_4d")
  end;
  put ("trace.explained_" ^ w) "ratio" (Ledger.geomean !explained);
  (* Traced and plain rounds are compared in units of their own host
     reference. *)
  let rel p = Exec.op_ms p /. Exec.ref_ms p in
  put ("trace.overhead_" ^ w) "ratio" (rel traced /. rel plain)

(* ---- plan-serve ---- *)

let out_dir = ".mdbench"

(* A pass without its checks: the end-to-end run reads its peak RSS
   between the two. *)
let serve_pass_unchecked ~instances ~seconds ~min_jobs ~traced s =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let out = Filename.concat out_dir "plan-serve-outcomes.jsonl" in
  Ledger.recording := traced;
  let p = Serve.pass ~instances ~seconds ~min_jobs ~out s in
  Ledger.recording := false;
  p

let serve_check p =
  let bad, ps = Serve.check_lines p.Serve.out in
  count
    ~ops:(p.Serve.jobs + p.Serve.failed)
    ~bad:(p.Serve.failed + bad)
    (p.Serve.problems @ ps)

let serve_pass ~instances ~seconds ~min_jobs ~traced s =
  let p = serve_pass_unchecked ~instances ~seconds ~min_jobs ~traced s in
  serve_check p;
  p

let instances = 2

(* The plan-serve set-up: the job stream and a fleet started and
   stopped. *)
let serve_prepare ~seed =
  set_up ~reps:20
    (fun () ->
      ignore (Serve.stream ~seed);
      let config = Sched.Fleet.Config.batch ~parallel:instances () in
      Sched.Fleet.shutdown (Sched.Fleet.create config))
    ();
  let s = Serve.stream ~seed in
  ignore (serve_pass ~instances ~seconds:0.0 ~min_jobs:50 ~traced:false s);
  s

let per_s (p : Serve.pass) = float_of_int p.Serve.jobs /. p.Serve.wall_s

let serve_e2e ~seed ~seconds =
  let s = serve_prepare ~seed in
  let p = serve_pass_unchecked ~instances ~seconds ~min_jobs:100 ~traced:false s in
  let rss = Ledger.peak_rss_mb () in
  serve_check p;
  let ref_ms = median p.Serve.ref_ms in
  put "op_time_rel" "x" (Serve.op_ms p /. ref_ms);
  put "throughput_rel" "x" (per_s p *. ref_ms /. 1e3);
  rss

(* p99 needs at least ten samples beyond it. *)
let tail_jobs = 1000

let serve_layers ~seed ~seconds =
  let s = serve_prepare ~seed in
  (* Plain and traced segments alternate, so both see the same host
     phases and heap states. *)
  let segment traced =
    serve_pass ~instances ~seconds:Serve.segment_s ~min_jobs:0 ~traced s
  in
  let start = Ledger.now () in
  let rec go plain traced =
    let jobs = List.fold_left (fun n p -> n + p.Serve.jobs) 0 plain in
    if traced <> [] && jobs >= tail_jobs && Ledger.now () -. start >= seconds
    then (List.rev plain, List.rev traced)
    else
      let p = segment false in
      go (p :: plain) (segment true :: traced)
  in
  let plain, traced = go [] [] in
  let plain = Serve.merge plain and traced = Serve.merge traced in
  let single =
    serve_pass ~instances:1 ~seconds:0.0 ~min_jobs:plain.Serve.jobs ~traced:false
      (Serve.stream ~seed)
  in
  let self = Ledger.self_ms () in
  let us key = 1e3 *. median (Hashtbl.find self ("job/" ^ key)) in
  let q = Ledger.quantile in
  let jobs = float_of_int plain.Serve.jobs in
  put "jobs_per_s" "1/s" (per_s plain);
  put "latency_p50_ms" "ms" (median plain.Serve.latency_ms);
  put "latency_p99_ms" "ms" (q 0.99 plain.Serve.latency_ms);
  put "latency_samples" "count" jobs;
  put "job.decode_us" "us" (us "job.of_json");
  put "fleet.submit_us" "us" (us "fleet.submit");
  put "engine.encode_us" "us" (us "engine.outcome_to_json");
  put "engine.settle_ms" "ms" (median traced.Serve.settle_ms);
  put "fleet.queue_wait_ms_p50" "ms" (median traced.Serve.queue_wait_ms);
  put "fleet.queue_wait_ms_p99" "ms" (q 0.99 traced.Serve.queue_wait_ms);
  put "fleet.util_mean" "ratio" plain.Serve.util_mean;
  put "fleet.steals" "count" (float_of_int plain.Serve.steals);
  put "fleet.scaling_2v1" "ratio" (per_s plain /. (2.0 *. per_s single));
  put "gc.minor_kwords_per_job" "kwords" (plain.Serve.minor_words /. 1e3 /. jobs);
  put "gc.major_per_1k_jobs" "count"
    (float_of_int plain.Serve.major *. 1e3 /. jobs);
  put "plan.repeat_share" "ratio" plain.Serve.repeat_share;
  let rel (p : Serve.pass) = Serve.op_ms p /. median p.Serve.ref_ms in
  put "trace.overhead_plan-serve" "ratio" (rel traced /. rel plain)

(* ---- probes ---- *)

let probes ~seed =
  List.iter
    (fun (p, (add, mul)) ->
      put ("md.add_ns_" ^ p) "ns" add;
      put ("md.mul_ns_" ^ p) "ns" mul)
    (Probes.md_ops ());
  List.iter (fun (n, v) -> put n "GFLOP/s" v) (Probes.flat_kernels ());
  List.iter
    (fun (c : Exec.cfg) ->
      let ms, ok = Probes.host_ref ~seed c in
      if ok then count ~ops:1 ~bad:0 []
      else
        count ~ops:1 ~bad:1
          [ "host_ref " ^ c.Exec.id ^ ": forward error over the bound" ];
      put ("host_ref.ms_" ^ Multidouble.Precision.label c.Exec.prec) "ms" ms)
    Exec.square;
  put "ref.ms" "ms" (median !Ledger.references);
  let plan = Serve.plan_ms () in
  List.iter
    (fun k -> put ("plan.ms_" ^ k) "ms" (plan k))
    [ "qr"; "backsub"; "solve" ];
  let all, per_table = Paper.rel_errors "mdbench/paper_tables.csv" in
  put "paper_rel_err" "ratio" all;
  List.iter (fun (t, e) -> put ("paper_rel_err." ^ t) "ratio" e) per_table

(* ---- the declared metric set ---- *)

(* The run must emit exactly the metrics BENCHMARK.json declares for its
   mode, with the declared units. *)
let check_spec ~trace =
  let key = if trace then "per_layer" else "end_to_end" in
  let declared () =
    let spec =
      Json.of_string
        (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    in
    let field k m = Json.get_string (Json.member k m) in
    List.map
      (fun m -> (field "name" m, field "unit" m))
      (Json.get_list (Json.member key spec))
  in
  match declared () with
  | exception e -> note_problems [ "BENCHMARK.json: " ^ Printexc.to_string e ]
  | declared ->
    let emitted = List.map (fun (n, (_, u)) -> (n, u)) !metrics in
    let missing = List.filter (fun d -> not (List.mem d emitted)) declared in
    let extra = List.filter (fun e -> not (List.mem e declared)) emitted in
    let report fmt l =
      note_problems (List.map (fun (n, u) -> Printf.sprintf fmt key n u) l)
    in
    report "declared %s metric %s (%s) not emitted" missing;
    report "%s: emitted %s (%s) is not declared" extra

(* ---- command line ---- *)

let run ~trace ~seed ~seconds w =
  if trace then begin
    List.iter
      (fun w' ->
        let seconds = if w' = w then seconds else seconds /. 3.0 in
        if w' = "plan-serve" then serve_layers ~seed ~seconds
        else exec_layers ~seed ~seconds w')
      workloads;
    probes ~seed;
    Ledger.write_jsonl
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w seed))
  end
  else begin
    let rss =
      if w = "plan-serve" then serve_e2e ~seed ~seconds
      else exec_e2e ~seed ~seconds w
    in
    put "setup_s" "s" (median !setups);
    put "peak_rss_mb" "MB" rss
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload exec-square|exec-tall|plan-serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 30.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || !seconds <= 0.0 then usage ();
  let seed = !seed and w = !workload in
  (try run ~trace:!trace ~seed ~seconds:!seconds w
   with e -> count ~ops:1 ~bad:1 [ "run aborted: " ^ Printexc.to_string e ]);
  let ms = List.rev !metrics in
  List.iter
    (fun (n, (v, _)) ->
      if not (Float.is_finite v) then
        note_problems [ n ^ " is not a finite number" ])
    ms;
  check_spec ~trace:!trace;
  List.iter (fun (n, (v, u)) -> Printf.printf "%-34s %14.6g %s\n" n v u) ms;
  Printf.printf "(%s, seed %d, %.1f s in all)\n" w seed (Ledger.now () -. started);
  let correct = !failed = 0 && !problems = [] in
  let metric (n, (v, u)) =
    let v = if Float.is_finite v then v else 0.0 in
    (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj (List.map metric ms));
          ]));
  exit (if correct then 0 else 1)
