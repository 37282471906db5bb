(* The executed workloads: verified least-squares solves through
   [Lsq_core.Solver.Make(K).solve], one client, configurations run
   round-robin so a slow phase of the host hits every precision alike.

   Every operation rebuilds its system from the seed (outside the timed
   call), so each round is an independent run of the seed: the
   bit-for-bit and exact-count guards below therefore hold across runs
   of one seed, not only across reuses of one input. *)

module P = Multidouble.Precision
module Solver = Lsq_core.Solver
module Sim = Gpusim.Sim

type cfg = {
  id : string;
  prec : P.tag;
  meth : Solver.method_;
  rows : int;
  cols : int;
  tile : int;
}

let cfg ?(meth = Solver.Qr_direct) id prec ~rows ~cols ~tile =
  { id; prec; meth; rows; cols; tile }

(* exec-square: the direct engine at the three precisions, with the
   dimension shrinking as the precision grows so that one round costs
   about the same at each. *)
let square =
  [
    cfg "qr_2d" P.DD ~rows:128 ~cols:128 ~tile:32;
    cfg "qr_4d" P.QD ~rows:64 ~cols:64 ~tile:16;
    cfg "qr_8d" P.OD ~rows:32 ~cols:32 ~tile:8;
  ]

(* exec-tall: 1024 x 32 overdetermined systems; the direct engine takes
   its thin path, the iterative engines their refinement ladders. *)
let tall =
  let t ?meth id prec = cfg ?meth id prec ~rows:1024 ~cols:32 ~tile:32 in
  [
    t "thin_2d" P.DD;
    t ~meth:Solver.Cg_normal "cg_2d" P.DD;
    t ~meth:Solver.Lsqr "lsqr_2d" P.DD;
    t ~meth:Solver.Cg_normal "cg_4d" P.QD;
    t ~meth:Solver.Lsqr "lsqr_4d" P.QD;
  ]

let device = Gpusim.Device.v100

(* One executed solve, as the benchmark saw it. *)
type sample = {
  ms : float;  (** host time of the timed call(s) *)
  fwd_ok : bool;  (** forward error under the bound *)
  digest : string;  (** of the solution's limb bits *)
  launches : int;
  md_ops : float;  (** multiple double operations over all stages *)
  flops : float;  (** Table-1 double flops over all stages *)
  iters : int;
  rungs : int;
  minor_words : float;
  major : int;
  counted : bool;
      (** the counts above are the engine's own (false for the direct
          solve called layer by layer, whose counts live in the layers) *)
}

type runner = {
  cfg : cfg;
  plain : unit -> sample;  (** one [Solver.solve] call *)
  traced : unit -> sample;  (** the same solve through its layers, in spans *)
  inputs : unit -> unit;  (** rebuild the system (set-up timing) *)
}

(* [Runners.verify_solve]'s forward-error bound, in units of eps. *)
let fwd_bound = 1e10

module Runner (K : Mdlinalg.Scalar.S) = struct
  module S = Solver.Make (K)
  module M = Mdlinalg.Mat.Make (K)
  module V = Mdlinalg.Vec.Make (K)
  module Rand = Mdlinalg.Randmat.Make (K)
  module Qr = Lsq_core.Blocked_qr.Make (K)
  module Bs = Lsq_core.Tiled_back_sub.Make (K)

  let inputs ~seed c =
    let rng = Dompool.Prng.create (Hashtbl.hash (seed, c.id)) in
    let a = Rand.matrix rng c.rows c.cols in
    let b, x = Rand.rhs_for rng a in
    (a, b, x)

  let digest (x : V.t) =
    let buf = Buffer.create (Array.length x * K.width * 8) in
    Array.iter
      (fun v ->
        Array.iter
          (fun f -> Buffer.add_int64_le buf (Int64.bits_of_float f))
          (K.to_planes v))
      x;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let fwd_ok x x_true =
    let err =
      K.R.to_float (V.norm (V.sub x x_true)) /. K.R.to_float (V.norm x_true)
    in
    Float.is_finite err && err < fwd_bound *. K.R.eps

  let counts (stages : Gpusim.Profile.row list) =
    List.fold_left
      (fun (l, ops, fl) (r : Gpusim.Profile.row) ->
        ( l + r.launches,
          ops +. Gpusim.Counter.total r.ops,
          fl +. Gpusim.Counter.flops K.prec r.ops ))
      (0, 0.0, 0.0) stages

  let sample ~ms ~g0 ~g1 ~x ~x_true (r : S.result) =
    let launches, md_ops, flops = counts r.S.stages in
    let iters, rungs =
      match r.S.iter with
      | Some it -> (it.Solver.iterations, List.length it.Solver.ladder)
      | None -> (0, 0)
    in
    {
      ms;
      fwd_ok = fwd_ok x x_true;
      digest = digest x;
      launches;
      md_ops;
      flops;
      iters;
      rungs;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      counted = true;
    }

  let solve c a b = S.solve ~method_:c.meth ~device ~a ~b ~tile:c.tile ()

  let plain ~seed c () =
    let a, b, x_true = inputs ~seed c in
    let g0 = Gc.quick_stat () in
    let t0 = Ledger.now () in
    let r = solve c a b in
    let ms = 1e3 *. (Ledger.now () -. t0) in
    let g1 = Gc.quick_stat () in
    sample ~ms ~g0 ~g1 ~x:r.S.x ~x_true r

  (* Q^H b exactly as the direct solver's Q^T*b kernel computes it. *)
  let qhb q b ~n =
    let mrows = Array.length b in
    Array.init n (fun j ->
        let s = ref K.zero in
        for i = 0 to mrows - 1 do
          s := K.add !s (K.mul (K.conj (M.get q i j)) b.(i))
        done;
        !s)

  (* The direct solve, called layer by layer: the same kernels in the
     same order as [Least_squares.solve] / [solve_thin], so the solution
     must equal the plain call's bit for bit. *)
  let direct c a b =
    let n = c.cols in
    let top r = M.sub_matrix r ~r0:0 ~r1:n ~c0:0 ~c1:n in
    if c.rows = c.cols then begin
      let qr =
        Ledger.span "blocked_qr.run" (fun () ->
            Qr.run ~execute:true ~device ~a ~tile:c.tile ())
      in
      let qtb = Ledger.span "qhb" (fun () -> qhb qr.Qr.q b ~n) in
      let u = top qr.Qr.r in
      (Ledger.span "tiled_back_sub.run" (fun () ->
           Bs.run ~device ~u ~b:qtb ~tile:c.tile ()))
        .Bs.x
    end
    else begin
      let sim = Sim.create ~execute:true ~device ~prec:K.prec () in
      let qtb = V.copy b in
      let r =
        Ledger.span "blocked_qr.factor_thin" (fun () ->
            Qr.factor_thin sim a ~b:qtb ~tile:c.tile)
      in
      let u = top r in
      (Ledger.span "tiled_back_sub.run" (fun () ->
           Bs.run ~device ~u ~b:(Array.sub qtb 0 n) ~tile:c.tile ()))
        .Bs.x
    end

  (* The ladder's start rung is chosen from cond1 of the double
     precision normal matrix; this is that estimate, timed on its own. *)
  let cond a =
    let module KD = (val Solver.scalar_of P.D : Mdlinalg.Scalar.S) in
    let module Rf = Lsq_core.Refine.Make_scalar (KD) (K) in
    let module CD = Mdlinalg.Cond.Make (KD) in
    Ledger.op "cond" (fun () ->
        Ledger.span "cond.cond1" (fun () ->
            let ad = Rf.demote_mat a in
            ignore (CD.cond1 (Rf.ML.matmul (Rf.ML.adjoint ad) ad))))

  let traced ~seed c () =
    let a, b, x_true = inputs ~seed c in
    let g0 = Gc.quick_stat () in
    let t0 = Ledger.now () in
    let x, r =
      Ledger.op c.id (fun () ->
          match c.meth with
          | Solver.Qr_direct -> (direct c a b, None)
          | Solver.Cg_normal | Solver.Lsqr ->
            let r = Ledger.span "solver.solve" (fun () -> solve c a b) in
            (r.S.x, Some r))
    in
    let ms = 1e3 *. (Ledger.now () -. t0) in
    let g1 = Gc.quick_stat () in
    if Solver.is_iterative c.meth then cond a;
    match r with
    | Some r -> sample ~ms ~g0 ~g1 ~x ~x_true r
    | None ->
      {
        ms;
        fwd_ok = fwd_ok x x_true;
        digest = digest x;
        launches = 0;
        md_ops = 0.0;
        flops = 0.0;
        iters = 0;
        rungs = 0;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        counted = false;
      }

  let make ~seed c =
    {
      cfg = c;
      plain = plain ~seed c;
      traced = traced ~seed c;
      inputs = (fun () -> ignore (inputs ~seed c));
    }
end

let runner ~seed c =
  let (module K) = Solver.scalar_of c.prec in
  let module R = Runner (K) in
  R.make ~seed c

(* ---- one pass of a workload ---- *)

type pass = {
  samples : (string * sample list) list;  (** per configuration, in order *)
  solves : int;
  failed : int;
  wall_s : float;  (** wall time of the complete rounds, [between] excluded *)
  ref_ms : float list;  (** the host reference, timed before every solve *)
  problems : string list;
}

(* Round-robin rounds until [seconds] of rounds have elapsed (at least
   [min_rounds]), with [between] run after each round, off the clock.
   Each sample is checked: the forward error, and the solution bits and
   exact counts against the configuration's reference sample (the first
   plain one). *)
let run_pass ?(between = ignore) ~traced ~seconds ~min_rounds
    ~(refs : (string, sample) Hashtbl.t) runners =
  let acc = Hashtbl.create 8 in
  let failed = ref 0 and solves = ref 0 in
  let problems = ref [] and refs_ms = ref [] in
  let problem c fmt =
    Printf.ksprintf
      (fun s -> problems := Printf.sprintf "%s: %s" c.id s :: !problems)
      fmt
  in
  let check c s =
    let ok = ref s.fwd_ok in
    if not s.fwd_ok then problem c "forward error over %g eps" fwd_bound;
    (match Hashtbl.find_opt refs c.id with
    | None when s.counted -> Hashtbl.replace refs c.id s
    | None ->
      ok := false;
      problem c "no reference solve before the traced one"
    | Some r ->
      if r.digest <> s.digest then begin
        ok := false;
        problem c "solution bits differ from the first solve"
      end;
      if
        s.counted
        && (r.launches, r.md_ops, r.iters, r.rungs)
           <> (s.launches, s.md_ops, s.iters, s.rungs)
      then begin
        ok := false;
        problem c
          "exact counts moved: launches %d->%d md_ops %.0f->%.0f iters \
           %d->%d rungs %d->%d"
          r.launches s.launches r.md_ops s.md_ops r.iters s.iters r.rungs
          s.rungs
      end);
    if not !ok then incr failed
  in
  let start = Ledger.now () in
  let rounds = ref 0 and off = ref 0.0 in
  let elapsed () = Ledger.now () -. start -. !off in
  while !rounds < min_rounds || elapsed () < seconds do
    List.iter
      (fun r ->
        refs_ms := Ledger.reference_ms () :: !refs_ms;
        let s =
          match (if traced then r.traced else r.plain) () with
          | s -> Some s
          | exception e ->
            incr failed;
            problem r.cfg "raised %s" (Printexc.to_string e);
            None
        in
        incr solves;
        Option.iter
          (fun s ->
            check r.cfg s;
            Hashtbl.replace acc r.cfg.id
              (s :: Option.value (Hashtbl.find_opt acc r.cfg.id) ~default:[]))
          s)
      runners;
    incr rounds;
    let t0 = Ledger.now () in
    between ();
    off := !off +. (Ledger.now () -. t0)
  done;
  {
    samples =
      List.map
        (fun r ->
          ( r.cfg.id,
            List.rev (Option.value (Hashtbl.find_opt acc r.cfg.id) ~default:[])
          ))
        runners;
    solves = !solves;
    failed = !failed;
    wall_s = elapsed ();
    ref_ms = !refs_ms;
    problems = List.rev !problems;
  }

(* One pass out of several of the same runners. *)
let merge passes =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  {
    samples =
      List.map
        (fun (id, _) ->
          (id, List.concat_map (fun p -> List.assoc id p.samples) passes))
        (List.hd passes).samples;
    solves = sum (fun p -> p.solves);
    failed = sum (fun p -> p.failed);
    wall_s = List.fold_left (fun acc p -> acc +. p.wall_s) 0.0 passes;
    ref_ms = List.concat_map (fun p -> p.ref_ms) passes;
    problems = List.concat_map (fun p -> p.problems) passes;
  }

(* Geometric mean over the configurations of each one's median ms. *)
let op_ms pass =
  Ledger.geomean
    (List.map
       (fun (_, ss) -> Ledger.median (List.map (fun s -> s.ms) ss))
       pass.samples)

let ref_ms pass = Ledger.median pass.ref_ms
