(* Per-layer probes the traced run makes directly on a layer's public
   functions: multiple double scalar operations, the flat microkernels on
   blocks shaped like the exec workloads', and the single-threaded host
   QR baseline.  Each probe repeats until a time floor and reports the
   median. *)

module P = Multidouble.Precision

(* Keeps results alive so the arithmetic cannot be elided. *)
let sink = ref 0.0

let reps f = Ledger.median (Ledger.repeat ~min_reps:5 ~min_s:0.15 f)

(* ns per operation of a dependent chain of [n] adds or muls. *)
let md_ns (type a) (module S : Multidouble.Md_sig.S with type t = a) =
  let n = 20_000 in
  let rng = Dompool.Prng.create 7 in
  let x0 = S.add_float (S.of_float (Dompool.Prng.sym_float rng)) 0.5 in
  let tiny = S.mul_float (S.of_float (Dompool.Prng.float rng)) 1e-9 in
  let near_one = S.add_float tiny 1.0 in
  let chain op y () =
    let x = ref x0 in
    for _ = 1 to n do
      x := op !x y
    done;
    sink := S.to_float !x
  in
  let per s = 1e9 *. s /. float_of_int n in
  (per (reps (chain S.add tiny)), per (reps (chain S.mul near_one)))

let md_ops () =
  let open Multidouble in
  [
    ("2d", md_ns (module Double_double));
    ("4d", md_ns (module Quad_double));
    ("8d", md_ns (module Octo_double));
  ]

(* Table-1 GFLOP/s of one full sweep of matmul_block over an
   [n x inner] by [inner x n] product, and of gemv_block over a
   [rows x cols] matrix. *)
module Flat (K : Mdlinalg.Scalar.S) = struct
  module F = Mdlinalg.Flat_kernels.Make (K)

  let rng = Dompool.Prng.create 11
  let staged rows cols = F.stage ~rows ~cols ~get:(fun _ _ -> K.random rng)
  let pair_flops = float_of_int (P.add_flops K.prec + P.mul_flops K.prec)

  let matmul ~n ~inner =
    let a = staged n inner and b = staged inner n in
    let c = F.alloc ~rows:n ~cols:n in
    let threads = inner in
    let blocks = n * n / threads in
    let s =
      reps (fun () ->
          for blk = 0 to blocks - 1 do
            F.matmul_block ~threads a b c blk
          done)
    in
    float_of_int (n * n * inner) *. pair_flops /. s /. 1e9

  let gemv ~rows ~cols =
    let a = staged rows cols and x = staged cols 1 in
    let y = F.alloc ~rows ~cols:1 in
    let threads = cols in
    let s =
      reps (fun () ->
          for blk = 0 to (rows / threads) - 1 do
            F.gemv_block ~threads a x y blk
          done)
    in
    float_of_int (rows * cols) *. pair_flops /. s /. 1e9
end

let matmul prec ~n ~inner =
  let (module K) = Lsq_core.Solver.scalar_of prec in
  let module F = Flat (K) in
  F.matmul ~n ~inner

let gemv prec ~rows ~cols =
  let (module K) = Lsq_core.Solver.scalar_of prec in
  let module F = Flat (K) in
  F.gemv ~rows ~cols

let flat_kernels () =
  [
    ("flat.matmul_gflops_2d", matmul P.DD ~n:128 ~inner:32);
    ("flat.matmul_gflops_4d", matmul P.QD ~n:64 ~inner:16);
    ("flat.matmul_gflops_8d", matmul P.OD ~n:32 ~inner:8);
    ("flat.gemv_gflops_2d", gemv P.DD ~rows:1024 ~cols:32);
    ("flat.gemv_gflops_4d", gemv P.QD ~rows:1024 ~cols:32);
  ]

(* The plain single-threaded baseline: unblocked host Householder QR,
   Q^H b, host back substitution, on the exec-square system. *)
let host_ref ~seed (c : Exec.cfg) =
  let (module K) = Lsq_core.Solver.scalar_of c.Exec.prec in
  let module R = Exec.Runner (K) in
  let module H = Mdlinalg.Host_qr.Make (K) in
  let module T = Mdlinalg.Host_tri.Make (K) in
  let a, b, x_true = R.inputs ~seed c in
  let n = c.Exec.cols in
  let t0 = Ledger.now () in
  let q, r = H.factor a in
  let u = R.M.sub_matrix r ~r0:0 ~r1:n ~c0:0 ~c1:n in
  let x = T.back_substitute u (R.qhb q b ~n) in
  let ms = 1e3 *. (Ledger.now () -. t0) in
  (ms, R.fwd_ok x x_true)
