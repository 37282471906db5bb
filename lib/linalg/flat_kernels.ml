(* Allocation-free limb-planar ("flat") kernels on staggered planes.

   The simulator's hot kernels — the register-loading matrix product, the
   back substitution inner products and their relatives — normally execute
   through a [Scalar.S], boxing one record per multiple double operation.
   At paper-scale dimensions the resulting allocation traffic, not the
   arithmetic, dominates host wall time.

   This module executes the same kernels directly on staggered limb
   planes ([Nd_flat.planes]: one flat [Bigarray] of float64 words per
   limb), through the limb-generic [Nd_flat.plan] record: precision
   selection happens exactly once, at functor application, when the plan
   is resolved from the limb count — every kernel below is written once
   against the record, for any supported width (double double, quad
   double, octo double, and any future Expansion precision alike).  The
   plan's engines replay the boxed operation sequences floating point
   operation for floating point operation, so the flat kernels produce
   results that are limb for limb identical to the generic path; the
   solvers exploit that to switch paths on a pure capability check
   ([available]) with no numerical consequences.

   The matrix product and the back substitution panel update run as
   register-tiled, cache-blocked microkernels.  The tile geometry comes
   from the cost model: NR = 8 output columns per micro-tile (one 64-byte
   line of each B limb plane), KC chosen so the B panel of a chunk
   (KC * NR elements * width limbs * 8 bytes, double-buffered) fits in a
   32 KiB L1 slice — 128 for double double, 64 for quad double, 32 for
   octo double.  A micro-tile is one call of the plan's fused
   [mac_lanes] with NR lanes, and every lane's operation sequence is
   exactly the untiled per-element sequence (clear, ascending-k
   multiply-accumulate, store); spilling the partial accumulator to the
   C planes between KC chunks is a plain limb copy in both directions,
   so tiling preserves bit-identity.  What tiling buys is locality: the
   inner loop walks a row of B unit-stride across the lanes (the untiled
   loop walked B with column stride) and reuses each A element NR times
   and each B panel across every row of the block.  Every other
   dot-shaped kernel (clear or load, ascending multiply-accumulates,
   store) is one [mac_lanes] per output element or lane group too, so
   the engines decide how lanes run — the double double engine keeps
   them in registers — and this module never tests a limb width.

   The solvers stage once per factorization or solve, as the paper's
   device does: the blocked QR state ([Qr] below) stages A into limb
   planes at the modeled host -> device transfer, runs every panel,
   product and elementwise-addition kernel on one plane workspace, and
   unstages Q and R once at the device -> host transfer; the back
   substitution state ([Bs]) does the same for its matrix and vectors.
   The one-shot [stage]/[unstage] helpers serve the iterative engines
   and the tests.

   Block-level entry points take the same [blk] argument as the generic
   [Sim.launch] bodies and write the same disjoint index ranges, so they
   are safe under [Domain_pool.parallel_for] without further locking. *)

open Multidouble

(* Global switch, for benchmarks and the equivalence tests; the solvers
   consult it through [available]. *)
let enabled = ref true

(* The register-tile geometry and its per-tile operation/traffic counts,
   for the roofline classification of the microkernels (computed here
   because [Obs] deliberately knows nothing about precisions). *)
type tile = {
  mr : int; (* output rows per micro-tile *)
  nr : int; (* output columns per micro-tile (lanes) *)
  kc : int; (* inner-dimension chunk per cache block *)
  flops : float; (* double precision flops of one full tile *)
  bytes : float; (* bytes moved by one full tile (A, B panels + C spill) *)
}

module Make (K : Scalar.S) = struct
  (* A staged operand: [K.width] planes of rows*cols doubles, row-major —
     the layout of [Staggered], without the [K.t] matrix behind it. *)
  type planes = { rows : int; cols : int; p : Nd_flat.planes }

  (* THE dispatch point: the kernel-ops record for this scalar's limb
     count, resolved here and nowhere else.  [None] only for widths
     without a flat engine (plain double). *)
  let plan = Nd_flat.plan ~limbs:K.width

  (* The flat plane covers every real uninstrumented multiple double
     precision with a plan; complex and instrumented scalars keep the
     generic path. *)
  let available () =
    !enabled && K.flat_ok && (not K.is_complex) && Option.is_some plan

  (* Each block builds one context, sized for its widest [mac_lanes]
     call, and reuses it for every element.  Blocks run in parallel, so
     contexts are never shared between them; contexts kept per domain
     and reused across blocks were measured slower (the 4d products'
     kernel spans grew by a quarter). *)
  let the_plan () =
    match plan with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Flat_kernels: no flat plan for width %d" K.width)

  (* Tile geometry from the cost model (see the header comment).  One
     full tile performs mr*nr*kc fused multiply-accumulates, each one
     multiple double mul + add (Table 1 flops), and moves the A column
     strip, the B panel and the C micro-tile (in and out) once. *)
  let nr_tile = 8
  let kc_tile = max 16 (32768 / (2 * nr_tile * K.width * 8))

  let tile =
    let mr = 1 and nr = nr_tile and kc = kc_tile in
    let fma =
      Precision.add_flops K.prec + Precision.mul_flops K.prec
    in
    {
      mr;
      nr;
      kc;
      flops = float_of_int (mr * nr * kc * fma);
      bytes =
        float_of_int (((mr * kc) + (kc * nr) + (2 * mr * nr)) * K.width * 8);
    }

  let alloc ~rows ~cols =
    { rows; cols; p = Nd_flat.make_planes ~limbs:K.width (rows * cols) }

  let stage ~rows ~cols ~get =
    let t = alloc ~rows ~cols in
    let limbs = Array.make K.width 0.0 in
    for i = 0 to rows - 1 do
      let base = i * cols in
      for j = 0 to cols - 1 do
        K.to_planes_into (get i j) limbs;
        for pl = 0 to K.width - 1 do
          Nd_flat.set t.p pl (base + j) limbs.(pl)
        done
      done
    done;
    t

  (* [of_limbs] renormalizes, but flat results come out of the same
     renormalization the generic operations end with, so unstaging is the
     identity on them (and on any normalized input).  [K.of_planes]
     copies its argument, so the limb buffer is safely reused. *)
  let unstage t ~store =
    let limbs = Array.make K.width 0.0 in
    for i = 0 to t.rows - 1 do
      let base = i * t.cols in
      for j = 0 to t.cols - 1 do
        for pl = 0 to K.width - 1 do
          limbs.(pl) <- Nd_flat.get t.p pl (base + j)
        done;
        store i j (K.of_planes limbs)
      done
    done

  let stage_vec ~n ~get = stage ~rows:n ~cols:1 ~get:(fun i _ -> get i)
  let unstage_vec t ~store = unstage t ~store:(fun i _ s -> store i s)

  (* Read element [i] of a staged vector back as a boxed scalar (probe
     reads for verification; the hot paths never box). *)
  let read_el (p : Nd_flat.planes) i =
    K.of_planes (Array.init K.width (fun pl -> Nd_flat.get p pl i))

  (* ---- The register-loading matrix product, one [Sim.launch] block:
     output elements [blk*threads, (blk+1)*threads), each a dot product
     of a row of [a] with a column of [b].  Identical operation sequence
     per element to the generic body ([s := K.add !s (K.mul aik bkj)]),
     executed as the tiled microkernel described in the header: KC
     chunks outermost (the B panel of a chunk stays cache resident
     across every row of the block), then rows, then NR-lane column
     tiles, one [mac_lanes] each.  Partial sums spill to the C planes
     between chunks — an exact limb copy. ---- *)

  let matmul_block ~threads (a : planes) (b : planes) (c : planes) blk =
    let total = c.rows * c.cols in
    let lo = blk * threads in
    let hi = min total (lo + threads) in
    if lo < hi then begin
      let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
      let ctx = make_ctx ~lanes:nr_tile () in
      let inner = a.cols and cols_o = c.cols and bcols = b.cols in
      let row_lo = lo / cols_o and row_hi = (hi - 1) / cols_o in
      (* An empty inner dimension still runs one (empty) chunk: every
         output is the cleared empty sum. *)
      let chunks = max 1 ((inner + kc_tile - 1) / kc_tile) in
      for ch = 0 to chunks - 1 do
        let k0 = ch * kc_tile in
        let len = min kc_tile (inner - k0) in
        for i = row_lo to row_hi do
          let jstart = if i = row_lo then lo mod cols_o else 0 in
          let jstop =
            if i = row_hi then ((hi - 1) mod cols_o) + 1 else cols_o
          in
          let j0 = ref jstart in
          while !j0 < jstop do
            let lanes = min nr_tile (jstop - !j0) in
            mac_lanes ctx
              a.p ((i * inner) + k0) 1
              b.p ((k0 * bcols) + !j0) bcols
              c.p ((i * cols_o) + !j0)
              ~lanes ~len ~load:(k0 > 0);
            j0 := !j0 + lanes
          done
        done
      done
    end

  (* ---- Tiled back substitution, stage 2.  [vp] is the full dim-by-dim
     matrix with inverted diagonal tiles, [bdp] the evolving right-hand
     side, [xp] the solution; all three stay staged across the whole
     sweep and only [xp] is unstaged at the end. ---- *)

  (* x_i := U_i^{-1} b_i: row r of the tile at [r0] dots the inverse row
     (upper triangular, columns r..n-1) with the right-hand side tile. *)
  let bs_xi_block ~dim ~r0 ~n (vp : planes) (bdp : planes) (xp : planes) =
    let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
    let ctx = make_ctx () in
    for r = 0 to n - 1 do
      let d = r0 + r in
      mac_lanes ctx vp.p ((d * dim) + d) 1 bdp.p d 1 xp.p d ~lanes:1
        ~len:(n - r) ~load:false
    done

  (* b_j := b_j - A_{j,i} x_i: block [rj] subtracts the full n-by-n tile
     product from its right-hand side tile.  The panel update runs as an
     MR-laned microkernel: up to [nr_tile] rows accumulate side by side,
     each in its own context, so one read of x[r0 + c] feeds every lane
     while the lanes walk their own rows of [v] — the same x reuse the
     matrix product gets from its B panel.  Per row the sequence is
     still clear, ascending-c multiply-accumulate, subtract: identical
     to the untiled loop. *)
  let bs_update_block ~dim ~r0 ~rj ~n (vp : planes) (xp : planes)
      (bdp : planes) =
    let { Nd_flat.make_ctx; clear; mul_add; sub_from; _ } = the_plan () in
    let ctxs = Array.init nr_tile (fun _ -> make_ctx ()) in
    let v = vp.p and x = xp.p and bd = bdp.p in
    let r = ref 0 in
    while !r < n do
      let nl = min nr_tile (n - !r) in
      for l = 0 to nl - 1 do
        clear (Array.unsafe_get ctxs l)
      done;
      for c = 0 to n - 1 do
        let xi = r0 + c in
        for l = 0 to nl - 1 do
          mul_add (Array.unsafe_get ctxs l) v (((rj + !r + l) * dim) + r0 + c) x xi
        done
      done;
      for l = 0 to nl - 1 do
        sub_from (Array.unsafe_get ctxs l) bd (rj + !r + l)
      done;
      r := !r + nl
    done

  (* ---- Plane-level microkernels, used by the equivalence tests and the
     kernel benchmark (the entry points above are their consumers in
     kernel-shaped form). All write-backs follow the generic argument
     order: [K.add dst src], [K.sub dst src]. ---- *)

  (* out[oidx] := sum_i a[i] * b[i] over n vector elements. *)
  let dot ~n (a : planes) (b : planes) (out : planes) oidx =
    let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
    let ctx = make_ctx () in
    mac_lanes ctx a.p 0 1 b.p 0 1 out.p oidx ~lanes:1 ~len:n ~load:false

  (* y[i] := y[i] + alpha * x[i]; [alpha] is a staged single element.
     NR elements per [mac_lanes], each lane one multiply-accumulate. *)
  let axpy ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
    let ctx = make_ctx ~lanes:nr_tile () in
    let i = ref 0 in
    while !i < n do
      let lanes = min nr_tile (n - !i) in
      mac_lanes ctx alpha.p 0 0 x.p !i 0 y.p !i ~lanes ~len:1 ~load:true;
      i := !i + lanes
    done

  (* ---- The iterative engines' kernels: matrix-vector products (one
     [Sim.launch] block of output rows each) and the BLAS-1 recurrences.
     Per output element the sequence is the untiled clear /
     ascending-index multiply-accumulate / store, so the flat path stays
     bit-identical to the boxed accumulator loop. ---- *)

  (* y[i] := sum_k a[i, k] * x[k] for rows [blk*threads, (blk+1)*threads). *)
  let gemv_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
    let ctx = make_ctx () in
    let m = a.rows and n = a.cols in
    let lo = blk * threads in
    let hi = min m (lo + threads) in
    for i = lo to hi - 1 do
      mac_lanes ctx a.p (i * n) 1 x.p 0 1 y.p i ~lanes:1 ~len:n ~load:false
    done

  (* y[j] := sum_i a[i, j] * x[i] — the transposed product walks each
     column with the row pitch, the strided access of the cost model. *)
  let gemv_t_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
    let ctx = make_ctx () in
    let m = a.rows and n = a.cols in
    let lo = blk * threads in
    let hi = min n (lo + threads) in
    for j = lo to hi - 1 do
      mac_lanes ctx a.p j n x.p 0 1 y.p j ~lanes:1 ~len:m ~load:false
    done

  (* y[i] := x[i] + alpha * y[i] (the CG direction update p := r + beta p
     and LSQR's w recurrence). *)
  let xpay ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; add; store; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      mul_set ctx alpha.p 0 y.p i;
      add ctx x.p i;
      store ctx y.p i
    done

  (* y[i] := alpha * x[i]; in-place ([x == y]) is safe, each element is
     read before it is stored. *)
  let scal ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; store; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      mul_set ctx alpha.p 0 x.p i;
      store ctx y.p i
    done

  (* a[i, j] := a[i, j] - x[i] * y[j], the Householder panel update. *)
  let rank1_sub (a : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; sub_from; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to a.rows - 1 do
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        mul_set ctx x.p i y.p j;
        sub_from ctx a.p (base + j)
      done
    done

  (* dst[i] := dst[i] + src[i], elementwise over whole planes — the
     operation sequence of the QR's "Q + QWY" / "R + YWTC" kernels
     ([Qr.add_block]), over a whole plane instead of a window. *)
  let ewadd (dst : planes) (src : planes) =
    let { Nd_flat.make_ctx; load; add; store; _ } = the_plan () in
    let ctx = make_ctx () in
    let total = dst.rows * dst.cols in
    for i = 0 to total - 1 do
      load ctx dst.p i;
      add ctx src.p i;
      store ctx dst.p i
    done

  (* ---- The back substitution device state, both paths behind one
     type.  [Tiled_back_sub] previously matched on a flat option at
     every read, check, corruption and snapshot site; all of that now
     lives here, so the solver is written once against this module.

     The flat arm stages the matrix (with its inverted diagonal tiles),
     the right-hand side and the solution into limb planes ONCE and
     every inner-product kernel runs on them allocation free; only the
     solution is unstaged at the end.  The boxed arm works on the host
     [K.t] arrays directly.  The modeled launch costs are computed by
     the solver and shared by both arms, so device timing is path
     independent.

     The fault plane closures ([flip], [check]) are passed in by the
     solver: they come from [Fault], which this library deliberately
     does not depend on. *)
  module Bs = struct
    type repr = Flat of { vp : planes; bdp : planes; xp : planes } | Boxed

    type t = {
      dim : int;
      v : K.t array; (* row-major dim*dim, inverted diagonal tiles *)
      bd : K.t array;
      x : K.t array;
      repr : repr;
    }

    (* A saved prefix of the right-hand side, for update replays. *)
    type b_snapshot = Planes of Nd_flat.planes | Scalars of K.t array

    let create ~execute ~dim ~v ~bd ~x =
      let repr =
        if execute && available () then
          Flat
            {
              vp = stage ~rows:dim ~cols:dim ~get:(fun i j -> v.((i * dim) + j));
              bdp = stage_vec ~n:dim ~get:(fun i -> bd.(i));
              xp = alloc ~rows:dim ~cols:1;
            }
        else Boxed
      in
      { dim; v; bd; x; repr }

    (* x_i := U_i^{-1} b_i on the tile at diagonal offset [r0]; identical
       operation sequence on both arms. *)
    let xi_block t ~r0 ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_xi_block ~dim:t.dim ~r0 ~n vp bdp xp
      | Boxed ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = r to n - 1 do
              s :=
                K.add !s
                  (K.mul t.v.(((r0 + r) * dim) + r0 + c) t.bd.(r0 + c))
            done;
            t.x.(r0 + r) <- !s
          done

    (* b_j := b_j - A_{j,i} x_i for the block at row offset [rj]. *)
    let update_block t ~r0 ~rj ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_update_block ~dim:t.dim ~r0 ~rj ~n vp xp bdp
      | Boxed ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = 0 to n - 1 do
              s :=
                K.add !s
                  (K.mul t.v.(((rj + r) * dim) + r0 + c) t.x.(r0 + c))
            done;
            t.bd.(rj + r) <- K.sub t.bd.(rj + r) !s
          done

    (* Probe reads for the ABFT tile verdict. *)
    let x_at t i =
      match t.repr with Flat { xp; _ } -> read_el xp.p i | Boxed -> t.x.(i)

    let b_at t i =
      match t.repr with Flat { bdp; _ } -> read_el bdp.p i | Boxed -> t.bd.(i)

    (* On the flat path the raw limb expansion of x[i] must still satisfy
       the validator (the renorm invariant); the boxed representation
       renormalizes on read, so there is nothing extra to check. *)
    let x_limbs_ok t ~check i =
      match t.repr with
      | Flat { xp; _ } ->
          check (Array.init K.width (fun pl -> Nd_flat.get xp.p pl i))
      | Boxed -> true

    (* Feed every limb word of the (constant through stage 2) matrix to
       [f]: plane-major over the staged planes, element-major over the
       boxed scalars — each arm in its own storage order, so a digest
       taken before the sweep convicts any corruption of exactly the
       words the kernels read. *)
    let iter_u_limbs t f =
      match t.repr with
      | Flat { vp; _ } ->
          Array.iter
            (fun plane ->
              for i = 0 to Nd_flat.plane_dim plane - 1 do
                f (Bigarray.Array1.unsafe_get plane i)
              done)
            vp.p
      | Boxed -> Array.iter (fun s -> Array.iter f (K.to_planes s)) t.v

    (* Bit-flip corruptor over the resident device state, one element
       picked weighted by size, one limb plane, one bit ([flip]).  On the
       flat arm faults strike the staggered limb planes directly (raw
       word flips, exactly the paper's device layout); on the boxed arm
       one scalar goes through a limb flip and the renormalizing
       round-trip. *)
    let corrupt t rng ~flip =
      let dim = t.dim in
      let pick = Dompool.Prng.int rng ((dim * dim) + dim + dim) in
      let name, idx =
        if pick < dim * dim then ("U", pick)
        else if pick < (dim * dim) + dim then ("b", pick - (dim * dim))
        else ("x", pick - (dim * dim) - dim)
      in
      match t.repr with
      | Flat { vp; bdp; xp } ->
          let pl = match name with "U" -> vp | "b" -> bdp | _ -> xp in
          let p = Dompool.Prng.int rng (Array.length pl.p) in
          let bit = Dompool.Prng.int rng 64 in
          Nd_flat.set pl.p p idx (flip (Nd_flat.get pl.p p idx) bit);
          Printf.sprintf "%s[%d] plane %d bit %d (raw)" name idx p bit
      | Boxed ->
          let arr = match name with "U" -> t.v | "b" -> t.bd | _ -> t.x in
          let planes = K.to_planes arr.(idx) in
          let p = Dompool.Prng.int rng (Array.length planes) in
          let bit = Dompool.Prng.int rng 64 in
          planes.(p) <- flip planes.(p) bit;
          arr.(idx) <- K.of_planes planes;
          Printf.sprintf "%s[%d] plane %d bit %d" name idx p bit

    (* Every limb word of b below [r0] still finite? (The update replay
       verdict.) *)
    let b_finite_below t ~r0 =
      let ok = ref true in
      (match t.repr with
      | Flat { bdp; _ } ->
          for pl = 0 to K.width - 1 do
            for i = 0 to r0 - 1 do
              if not (Float.is_finite (Nd_flat.get bdp.p pl i)) then ok := false
            done
          done
      | Boxed ->
          for i = 0 to r0 - 1 do
            if not (K.is_finite t.bd.(i)) then ok := false
          done);
      !ok

    (* The update subtracts in place, so replaying it needs the
       pre-update prefix of b back first.  [Bigarray.Array1.sub] is a
       view into the live plane, so the snapshot copies it into fresh
       storage. *)
    let snapshot_b t ~upto =
      match t.repr with
      | Flat { bdp; _ } ->
          Planes
            (Array.map
               (fun pl ->
                 let saved = Nd_flat.make_plane upto in
                 Bigarray.Array1.blit (Bigarray.Array1.sub pl 0 upto) saved;
                 saved)
               bdp.p)
      | Boxed -> Scalars (Array.sub t.bd 0 upto)

    let restore_b t snap =
      match (snap, t.repr) with
      | Planes saved, Flat { bdp; _ } ->
          Array.iteri
            (fun p sp ->
              let upto = Bigarray.Array1.dim sp in
              Bigarray.Array1.blit sp (Bigarray.Array1.sub bdp.p.(p) 0 upto))
            saved
      | Scalars saved, Boxed -> Array.blit saved 0 t.bd 0 (Array.length saved)
      | _ -> invalid_arg "Flat_kernels.Bs: snapshot from a different path"

    (* Write the staged solution back into the host array (identity on
       the boxed arm, which solved in place). *)
    let unstage_x t =
      match t.repr with
      | Flat { xp; _ } -> unstage_vec xp ~store:(fun i s -> t.x.(i) <- s)
      | Boxed -> ()
  end

  (* ---- The blocked Householder QR device state, both paths behind one
     type, after the [Bs] precedent: [Blocked_qr.factor_gen] is written
     once against this module.

     The flat arm is the paper's device residency: A is staged into the
     R limb planes ONCE (and Q starts as identity planes) at the modeled
     host -> device transfer, every kernel of the factorization — the
     four panel kernels, the three matrix products, the two elementwise
     additions and the thin path's application of Q^H to b — runs on
     planes of one workspace allocated per factorization, and Q and R
     are unstaged ONCE at the device -> host transfer.  Operands a
     matrix product reads in another shape (the transposed W, the Q and
     C sub-blocks, the transposed YWT) are formed by plain limb copies
     inside the workspace.  Only the O(1)-per-column scalar work of
     "beta, v" (sqrt, the division, [unit_phase]) stays boxed.

     The boxed arm is the generic [K.t] loop nest (complex, instrumented
     and plain double scalars, or flat execution switched off), and the
     plan arm touches nothing: cost accounting runs no kernel body, so
     plan mode allocates no matrix, workspace or per-column buffer.

     Per element both executing arms perform the same operation sequence
     ([clear]/[load], ascending multiply-accumulates, the same argument
     order), so Q, R and Q^H b are limb for limb identical.  The modeled
     launch costs are computed by the caller and shared by every arm. *)
  module Qr = struct
    (* Workspace planes, sized for the first (largest) panel; a panel of
       [rows] rows views prefixes of them with its own row pitch. *)
    type flat = {
      rp : Nd_flat.planes; (* R, mrows x ncols *)
      qp : Nd_flat.planes; (* Q, mrows x mrows (empty on the thin path) *)
      bp : Nd_flat.planes; (* the thin path's right-hand side *)
      yp : Nd_flat.planes; (* Y, rows x tile *)
      wp : Nd_flat.planes; (* W, rows x tile *)
      wtp : Nd_flat.planes; (* W^T, tile x rows *)
      ywtp : Nd_flat.planes; (* YWT, rows x rows *)
      ywttp : Nd_flat.planes; (* YWT^T, rows x rows *)
      qsubp : Nd_flat.planes; (* Q[:, c0:], mrows x rows *)
      qwyp : Nd_flat.planes; (* QWY, mrows x rows *)
      csubp : Nd_flat.planes; (* C = R[c0:, c1:], rows x trail *)
      ywtcp : Nd_flat.planes; (* YWTC, rows x trail *)
      vp : Nd_flat.planes; (* the Householder vector, len *)
      wrowp : Nd_flat.planes; (* beta v^H R, tile - l *)
      up : Nd_flat.planes; (* Y^H v_l, then W^H b *)
      betap : Nd_flat.planes; (* beta per panel column *)
      nbetap : Nd_flat.planes; (* -beta per panel column *)
      tmpp : Nd_flat.planes; (* per-row scratch *)
      mutable saved : Nd_flat.planes array option; (* R, Q, b snapshot *)
    }

    type boxed = {
      r : K.t array;
      q : K.t array; (* empty on the thin path *)
      b : K.t array;
      v : K.t array;
      wrow : K.t array;
      u : K.t array;
      mutable y : K.t array;
      mutable w : K.t array;
      mutable ywt : K.t array;
      mutable qwy : K.t array;
      mutable ywtc : K.t array;
      mutable snap : (K.t array * K.t array * K.t array) option;
    }

    type repr = Flat of flat | Boxed of boxed | Plan

    type t = {
      mrows : int;
      ncols : int;
      tile : int;
      thin : bool; (* Q not accumulated: the economy path *)
      rhs : K.t array option; (* the caller's b, overwritten with Q^H b *)
      betas : K.R.t array;
      mutable c0 : int; (* the current panel's first column... *)
      mutable rows : int; (* ...and its row count, mrows - c0 *)
      repr : repr;
    }

    let create ~execute ~accumulate_q ~mrows ~ncols ~tile ~a ~rhs =
      let thin = not accumulate_q in
      let repr =
        match a with
        | Some (a : K.t array) when execute ->
            if available () then begin
              let mk n = Nd_flat.make_planes ~limbs:K.width n in
              let qn = if thin then 0 else mrows * mrows in
              let trail = mrows * max 0 (ncols - tile) in
              let rp =
                (stage ~rows:mrows ~cols:ncols ~get:(fun i j ->
                     a.((i * ncols) + j)))
                  .p
              in
              let qp =
                if thin then mk 0
                else
                  (stage ~rows:mrows ~cols:mrows ~get:(fun i j ->
                       if i = j then K.one else K.zero))
                    .p
              in
              let bp =
                match rhs with
                | Some (b : K.t array) ->
                    (stage_vec ~n:(Array.length b) ~get:(Array.get b)).p
                | None -> mk 0
              in
              Flat
                {
                  rp;
                  qp;
                  bp;
                  yp = mk (mrows * tile);
                  wp = mk (mrows * tile);
                  wtp = mk (mrows * tile);
                  ywtp = mk (mrows * mrows);
                  ywttp = mk qn;
                  qsubp = mk qn;
                  qwyp = mk qn;
                  csubp = mk trail;
                  ywtcp = mk trail;
                  vp = mk mrows;
                  wrowp = mk tile;
                  up = mk tile;
                  betap = mk tile;
                  nbetap = mk tile;
                  tmpp = mk mrows;
                  saved = None;
                }
            end
            else
              Boxed
                {
                  r = Array.copy a;
                  q =
                    (if thin then [||]
                     else
                       Array.init (mrows * mrows) (fun k ->
                           if k / mrows = k mod mrows then K.one else K.zero));
                  b = (match rhs with Some b -> b | None -> [||]);
                  v = Array.make mrows K.zero;
                  wrow = Array.make tile K.zero;
                  u = Array.make tile K.zero;
                  y = [||];
                  w = [||];
                  ywt = [||];
                  qwy = [||];
                  ywtc = [||];
                  snap = None;
                }
        | _ -> Plan
      in
      let betas =
        match repr with Plan -> [||] | _ -> Array.make tile K.R.zero
      in
      { mrows; ncols; tile; thin; rhs; betas; c0 = 0; rows = mrows; repr }

    (* Limb writes and copies of one element (the O(1)-per-column scalar
       work of "beta, v" and the operand shapes of the products). *)
    let write (p : Nd_flat.planes) i x =
      let limbs = K.to_planes x in
      for pl = 0 to K.width - 1 do
        Nd_flat.set p pl i limbs.(pl)
      done

    let copy_el ~src si ~dst di =
      for pl = 0 to K.width - 1 do
        Nd_flat.set dst pl di (Nd_flat.get src pl si)
      done

    (* Start panel [c0]: fresh zero Y and W (rows above the diagonal of
       Y stay zero — the trapezoidal shape). *)
    let begin_panel t ~c0 =
      t.c0 <- c0;
      t.rows <- t.mrows - c0;
      let n = t.rows * t.tile in
      match t.repr with
      | Flat f ->
          Array.iter
            (fun pl -> Bigarray.Array1.(fill (sub pl 0 n) 0.0))
            (Array.append f.yp f.wp)
      | Boxed bx ->
          bx.y <- Array.make n K.zero;
          bx.w <- Array.make n K.zero
      | Plan -> ()

    (* ---- Stage 1: the panel kernels, column [c = c0 + l]. ---- *)

    (* "beta, v" (one block): v := R[c:, c], then the reflector
       v(0) += phase * ||v||, beta = 2 / v^H v. *)
    let beta_v t ~l ~c =
      let len = t.mrows - c in
      match t.repr with
      | Flat f ->
          for i = 0 to len - 1 do
            copy_el ~src:f.rp (((c + i) * t.ncols) + c) ~dst:f.vp i
          done;
          (* ||v||^2 as K.norm2 x = x * x accumulations (real scalars). *)
          let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
          let ctx = make_ctx () in
          let norm2 () =
            mac_lanes ctx f.vp 0 1 f.vp 0 1 f.tmpp 0 ~lanes:1 ~len
              ~load:false;
            K.re (read_el f.tmpp 0)
          in
          let sigma = K.R.sqrt (norm2 ()) in
          if K.R.is_zero sigma then t.betas.(l) <- K.R.zero
          else begin
            let v0 = read_el f.vp 0 in
            write f.vp 0 (K.add v0 (K.scale (K.unit_phase v0) sigma));
            t.betas.(l) <- K.R.div (K.R.of_int 2) (norm2 ())
          end;
          write f.betap l (K.of_real t.betas.(l));
          write f.nbetap l (K.of_real (K.R.neg t.betas.(l)))
      | Boxed bx ->
          let v = bx.v in
          for i = 0 to len - 1 do
            v.(i) <- bx.r.(((c + i) * t.ncols) + c)
          done;
          let norm2 () =
            let s = ref K.R.zero in
            for i = 0 to len - 1 do
              s := K.R.add !s (K.norm2 v.(i))
            done;
            !s
          in
          let sigma = K.R.sqrt (norm2 ()) in
          if K.R.is_zero sigma then t.betas.(l) <- K.R.zero
          else begin
            let phase = K.unit_phase v.(0) in
            v.(0) <- K.add v.(0) (K.scale phase sigma);
            t.betas.(l) <- K.R.div (K.R.of_int 2) (norm2 ())
          end
      | Plan -> ()

    (* Save v into column l of the trapezoidal Y (host side, not a
       kernel). *)
    let save_v t ~l ~c =
      let len = t.mrows - c and r0 = c - t.c0 in
      match t.repr with
      | Flat f ->
          for i = 0 to len - 1 do
            copy_el ~src:f.vp i ~dst:f.yp (((r0 + i) * t.tile) + l)
          done
      | Boxed bx ->
          for i = 0 to len - 1 do
            bx.y.(((r0 + i) * t.tile) + l) <- bx.v.(i)
          done
      | Plan -> ()

    (* "beta*R^T*v", block [blk] < tile - l:
       wrow(blk) = beta v^H R[c:, c + blk]. *)
    let rtv t ~l ~c blk =
      let len = t.mrows - c and j = c + blk in
      if blk < t.tile - l then
        match t.repr with
        | Flat f ->
            let { Nd_flat.make_ctx; mac_lanes; mul_set; store; _ } =
              the_plan ()
            in
            let ctx = make_ctx () in
            mac_lanes ctx f.vp 0 1 f.rp ((c * t.ncols) + j) t.ncols
              f.wrowp blk ~lanes:1 ~len ~load:false;
            mul_set ctx f.wrowp blk f.betap l;
            store ctx f.wrowp blk
        | Boxed bx ->
            let s = ref K.zero in
            for i = 0 to len - 1 do
              s :=
                K.add !s
                  (K.mul (K.conj bx.v.(i)) bx.r.(((c + i) * t.ncols) + j))
            done;
            bx.wrow.(blk) <- K.scale !s t.betas.(l)
        | Plan -> ()

    (* "update R", block [blk]: R[c:, c:c1] -= v wrow, [tile] elements. *)
    let update_r t ~l ~c blk =
      let len = t.mrows - c and w_ = t.tile - l in
      let lo = blk * t.tile in
      let hi = min (len * w_) (lo + t.tile) in
      match t.repr with
      | Flat f ->
          let { Nd_flat.make_ctx; mul_set; sub_from; _ } = the_plan () in
          let ctx = make_ctx () in
          for idx = lo to hi - 1 do
            let i = idx / w_ and jj = idx mod w_ in
            mul_set ctx f.vp i f.wrowp jj;
            sub_from ctx f.rp (((c + i) * t.ncols) + c + jj)
          done
      | Boxed bx ->
          for idx = lo to hi - 1 do
            let i = idx / w_ and jj = idx mod w_ in
            let k = ((c + i) * t.ncols) + c + jj in
            bx.r.(k) <- K.sub bx.r.(k) (K.mul bx.v.(i) bx.wrow.(jj))
          done
      | Plan -> ()

    (* ---- Stage 2: "compute W", column l of the panel. ---- *)

    (* u(blk) = Y[:, blk]^H Y[:, l], block [blk] < l. *)
    let w_u t ~l blk =
      let tile = t.tile in
      if blk < l then
        match t.repr with
        | Flat f ->
            let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
            let ctx = make_ctx () in
            mac_lanes ctx f.yp blk tile f.yp l tile f.up blk ~lanes:1
              ~len:t.rows ~load:false
        | Boxed bx ->
            let s = ref K.zero in
            for i = 0 to t.rows - 1 do
              s :=
                K.add !s
                  (K.mul (K.conj bx.y.((i * tile) + blk)) bx.y.((i * tile) + l))
            done;
            bx.u.(blk) <- !s
        | Plan -> ()

    (* W[i, l] = -beta (Y[i, l] + W[i, :l] u), rows of block [blk]. *)
    let w_z t ~l blk =
      let tile = t.tile in
      let lo = blk * tile in
      let hi = min t.rows (lo + tile) in
      match t.repr with
      | Flat f ->
          let { Nd_flat.make_ctx; mac_lanes; mul_set; store; _ } =
            the_plan ()
          in
          let ctx = make_ctx () in
          for i = lo to hi - 1 do
            let il = (i * tile) + l in
            (* Y[i, l] enters as the accumulator's start value. *)
            copy_el ~src:f.yp il ~dst:f.wp il;
            mac_lanes ctx f.wp (i * tile) 1 f.up 0 1 f.wp il ~lanes:1
              ~len:l ~load:true;
            mul_set ctx f.wp il f.nbetap l;
            store ctx f.wp il
          done
      | Boxed bx ->
          let nbeta = K.R.neg t.betas.(l) in
          for i = lo to hi - 1 do
            let s = ref bx.y.((i * tile) + l) in
            for j = 0 to l - 1 do
              s := K.add !s (K.mul bx.w.((i * tile) + j) bx.u.(j))
            done;
            bx.w.((i * tile) + l) <- K.scale !s nbeta
          done
      | Plan -> ()

    (* ---- The register-loading matrix products.  [launch] runs a body
       over the launch grid; the flat arm first forms the operand shapes
       the microkernel reads by limb copies inside the workspace. ---- *)

    let boxed_matmul ~threads ~rows_o ~cols_o ~inner ~geta ~getb ~store blk =
      let total = rows_o * cols_o in
      let lo = blk * threads in
      let hi = min total (lo + threads) in
      (* Running (row, col) pair instead of a div/mod per element. *)
      let i = ref (lo / cols_o) and j = ref (lo mod cols_o) in
      for _idx = lo to hi - 1 do
        let s = ref K.zero in
        for k = 0 to inner - 1 do
          s := K.add !s (K.mul (geta !i k) (getb k !j))
        done;
        store !i !j !s;
        incr j;
        if !j = cols_o then begin
          j := 0;
          incr i
        end
      done

    let view rows cols p : planes = { rows; cols; p }

    (* "Y*W^T": YWT = Y W^H, rows x rows. *)
    let ywt t launch =
      let rows = t.rows and tile = t.tile in
      match t.repr with
      | Flat f ->
          for k = 0 to tile - 1 do
            for j = 0 to rows - 1 do
              copy_el ~src:f.wp ((j * tile) + k) ~dst:f.wtp ((k * rows) + j)
            done
          done;
          let a = view rows tile f.yp and b = view tile rows f.wtp in
          let c = view rows rows f.ywtp in
          launch (matmul_block ~threads:tile a b c)
      | Boxed bx ->
          let y = bx.y and w = bx.w in
          let ywt = Array.make (rows * rows) K.zero in
          bx.ywt <- ywt;
          launch
            (boxed_matmul ~threads:tile ~rows_o:rows ~cols_o:rows ~inner:tile
               ~geta:(fun i k -> y.((i * tile) + k))
               ~getb:(fun k j -> K.conj w.((j * tile) + k))
               ~store:(fun i j s -> ywt.((i * rows) + j) <- s))
      | Plan -> launch ignore

    (* "Q*WY^T": QWY = Q[:, c0:] (YWT)^H, mrows x rows. *)
    let qwy t launch =
      let m = t.mrows and rows = t.rows and c0 = t.c0 in
      match t.repr with
      | Flat f ->
          for i = 0 to m - 1 do
            for k = 0 to rows - 1 do
              copy_el ~src:f.qp ((i * m) + c0 + k) ~dst:f.qsubp ((i * rows) + k)
            done
          done;
          for k = 0 to rows - 1 do
            for j = 0 to rows - 1 do
              copy_el ~src:f.ywtp ((j * rows) + k) ~dst:f.ywttp ((k * rows) + j)
            done
          done;
          let a = view m rows f.qsubp and b = view rows rows f.ywttp in
          launch (matmul_block ~threads:t.tile a b (view m rows f.qwyp))
      | Boxed bx ->
          let q = bx.q and ywt = bx.ywt in
          let qwy = Array.make (m * rows) K.zero in
          bx.qwy <- qwy;
          launch
            (boxed_matmul ~threads:t.tile ~rows_o:m ~cols_o:rows ~inner:rows
               ~geta:(fun i k -> q.((i * m) + c0 + k))
               ~getb:(fun k j -> K.conj ywt.((j * rows) + k))
               ~store:(fun i j s -> qwy.((i * rows) + j) <- s))
      | Plan -> launch ignore

    (* "YWT*C": YWTC = YWT R[c0:, c1:], rows x trail. *)
    let ywtc t launch =
      let rows = t.rows and n = t.ncols and c0 = t.c0 in
      let c1 = c0 + t.tile in
      let trail = n - c1 in
      match t.repr with
      | Flat f ->
          for k = 0 to rows - 1 do
            for j = 0 to trail - 1 do
              copy_el ~src:f.rp (((c0 + k) * n) + c1 + j)
                ~dst:f.csubp ((k * trail) + j)
            done
          done;
          let a = view rows rows f.ywtp and b = view rows trail f.csubp in
          launch (matmul_block ~threads:t.tile a b (view rows trail f.ywtcp))
      | Boxed bx ->
          let r = bx.r and ywt = bx.ywt in
          let ywtc = Array.make (rows * trail) K.zero in
          bx.ywtc <- ywtc;
          launch
            (boxed_matmul ~threads:t.tile ~rows_o:rows ~cols_o:trail
               ~inner:rows
               ~geta:(fun i k' -> ywt.((i * rows) + k'))
               ~getb:(fun k' j -> r.(((c0 + k') * n) + c1 + j))
               ~store:(fun i j s -> ywtc.((i * trail) + j) <- s))
      | Plan -> launch ignore

    (* ---- The elementwise additions "Q + QWY" (Q[:, c0:] += QWY) and
       "R + YWTC" (R[c0:, c1:] += YWTC): the destination window starts
       at [off] with row pitch [pitch], the source is dense; [tile]
       elements per block. ---- *)

    type sum = Q_plus_qwy | R_plus_ywtc

    let add_block t which blk =
      let c1 = t.c0 + t.tile in
      let rows_o, cols_o, pitch, off =
        match which with
        | Q_plus_qwy -> (t.mrows, t.rows, t.mrows, t.c0)
        | R_plus_ywtc -> (t.rows, t.ncols - c1, t.ncols, (t.c0 * t.ncols) + c1)
      in
      let lo = blk * t.tile in
      let hi = min (rows_o * cols_o) (lo + t.tile) in
      (* Running (row, col) pair instead of two div/mod per element. *)
      let i = ref (lo / cols_o) and j = ref (lo mod cols_o) in
      let next () =
        incr j;
        if !j = cols_o then begin
          j := 0;
          incr i
        end
      in
      match t.repr with
      | Flat f ->
          let { Nd_flat.make_ctx; load; add; store; _ } = the_plan () in
          let ctx = make_ctx () in
          let dst, src =
            match which with
            | Q_plus_qwy -> (f.qp, f.qwyp)
            | R_plus_ywtc -> (f.rp, f.ywtcp)
          in
          for idx = lo to hi - 1 do
            let d = (!i * pitch) + off + !j in
            load ctx dst d;
            add ctx src idx;
            store ctx dst d;
            next ()
          done
      | Boxed bx ->
          let dst, src =
            match which with
            | Q_plus_qwy -> (bx.q, bx.qwy)
            | R_plus_ywtc -> (bx.r, bx.ywtc)
          in
          for idx = lo to hi - 1 do
            let d = (!i * pitch) + off + !j in
            dst.(d) <- K.add dst.(d) src.(idx);
            next ()
          done
      | Plan -> ()

    (* ---- "apply Q^T to b" (thin path): b[c0:] += Y (W^H b[c0:]). ---- *)

    (* u(blk) = W[:, blk]^H b[c0:], block [blk] < tile. *)
    let qtb_u t blk =
      let tile = t.tile and c0 = t.c0 in
      if blk < tile then
        match t.repr with
        | Flat f ->
            let { Nd_flat.make_ctx; mac_lanes; _ } = the_plan () in
            let ctx = make_ctx () in
            mac_lanes ctx f.wp blk tile f.bp c0 1 f.up blk ~lanes:1
              ~len:t.rows ~load:false
        | Boxed bx ->
            let sum = ref K.zero in
            for i = 0 to t.rows - 1 do
              sum :=
                K.add !sum
                  (K.mul (K.conj bx.w.((i * tile) + blk)) bx.b.(c0 + i))
            done;
            bx.u.(blk) <- !sum
        | Plan -> ()

    (* b[c0 + i] += Y[i, :] u, rows of block [blk]. *)
    let qtb_y t blk =
      let tile = t.tile and c0 = t.c0 in
      let lo = blk * tile in
      let hi = min t.rows (lo + tile) in
      match t.repr with
      | Flat f ->
          let { Nd_flat.make_ctx; load; add; store; mac_lanes; _ } =
            the_plan ()
          in
          let ctx = make_ctx () in
          for i = lo to hi - 1 do
            mac_lanes ctx f.yp (i * tile) 1 f.up 0 1 f.tmpp i ~lanes:1
              ~len:tile ~load:false;
            load ctx f.bp (c0 + i);
            add ctx f.tmpp i;
            store ctx f.bp (c0 + i)
          done
      | Boxed bx ->
          for i = lo to hi - 1 do
            let sum = ref K.zero in
            for j = 0 to tile - 1 do
              sum := K.add !sum (K.mul bx.y.((i * tile) + j) bx.u.(j))
            done;
            bx.b.(c0 + i) <- K.add bx.b.(c0 + i) !sum
          done
      | Plan -> ()

    (* ---- The device-resident matrices, for the ABFT probe and
       finiteness sweeps and for the fault plane. ---- *)

    type resident = R | Q | Y | W | B

    let flat_of f = function
      | R -> f.rp
      | Q -> f.qp
      | Y -> f.yp
      | W -> f.wp
      | B -> f.bp

    let boxed_of bx = function
      | R -> bx.r
      | Q -> bx.q
      | Y -> bx.y
      | W -> bx.w
      | B -> bx.b

    (* Element (i, j) of a resident matrix (b is a column). *)
    let at t m i j =
      let pitch =
        match m with R -> t.ncols | Q -> t.mrows | Y | W -> t.tile | B -> 1
      in
      let k = (i * pitch) + j in
      match t.repr with
      | Flat f -> read_el (flat_of f m) k
      | Boxed bx -> (boxed_of bx m).(k)
      | Plan -> K.zero

    (* ---- Panel snapshots for fault replays: R, Q and b as they were
       before the panel.  The flat arm blits planes into storage
       allocated on the first snapshot and reused after. ---- *)

    let snapshot t =
      match t.repr with
      | Flat f ->
          let live = [| f.rp; f.qp; f.bp |] in
          let saved =
            match f.saved with
            | Some s -> s
            | None ->
                let s =
                  Array.map
                    (fun p ->
                      Nd_flat.make_planes ~limbs:K.width
                        (Nd_flat.plane_dim p.(0)))
                    live
                in
                f.saved <- Some s;
                s
          in
          Array.iter2
            (Array.iter2 (fun src dst -> Bigarray.Array1.blit src dst))
            live saved
      | Boxed bx ->
          bx.snap <- Some (Array.copy bx.r, Array.copy bx.q, Array.copy bx.b)
      | Plan -> ()

    let restore t =
      match t.repr with
      | Flat { saved = Some saved; rp; qp; bp; _ } ->
          Array.iter2
            (Array.iter2 (fun src dst -> Bigarray.Array1.blit src dst))
            saved [| rp; qp; bp |]
      | Boxed { snap = Some (r0, q0, b0); r; q; b; _ } ->
          Array.blit r0 0 r 0 (Array.length r);
          Array.blit q0 0 q 0 (Array.length q);
          Array.blit b0 0 b 0 (Array.length b)
      | _ -> ()

    (* Bit-flip corruptor over everything the current panel holds on the
       device: R, Q, the panel's Y/W and (thin path) the right-hand side.
       One element is picked weighted by size, one limb plane, one bit
       of its word ([flip]); both arms draw and flip identically.  The
       thin path's Q is never formed but still counts as resident
       identity storage: a strike there draws its plane and bit and
       changes nothing the factorization reads. *)
    let corrupt t rng ~flip =
      let panel = t.rows * t.tile in
      let targets =
        List.filter
          (fun (_, _, n) -> n > 0)
          ([ ("R", R, t.mrows * t.ncols); ("Q", Q, t.mrows * t.mrows);
             ("Y", Y, panel); ("W", W, panel) ]
          @
          match t.rhs with Some b -> [ ("b", B, Array.length b) ] | None -> [])
      in
      let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 targets in
      let strike name m idx =
        let p = Dompool.Prng.int rng K.width in
        let bit = Dompool.Prng.int rng 64 in
        (if not (m = Q && t.thin) then
           match t.repr with
           | Flat f ->
               let pl = flat_of f m in
               Nd_flat.set pl p idx (flip (Nd_flat.get pl p idx) bit)
           | Boxed bx ->
               let arr = boxed_of bx m in
               let planes = K.to_planes arr.(idx) in
               planes.(p) <- flip planes.(p) bit;
               arr.(idx) <- K.of_planes planes
           | Plan -> ());
        Printf.sprintf "%s[%d] plane %d bit %d" name idx p bit
      in
      let rec pick idx = function
        | [] -> "nothing resident"
        | (name, m, n) :: rest ->
            if idx < n then strike name m idx else pick (idx - n) rest
      in
      if total = 0 then "nothing resident"
      else pick (Dompool.Prng.int rng total) targets

    (* Zero the numerically annihilated subdiagonal of R and bring Q, R
       (and the thin path's Q^H b, written into the caller's array) back
       to the host: the device -> host transfer.  Returns (q, r) as
       row-major arrays; both empty in plan mode, q also on the thin
       path. *)
    let finish t =
      let m = t.mrows and n = t.ncols in
      match t.repr with
      | Flat f ->
          for j = 0 to n - 1 do
            for i = j + 1 to m - 1 do
              for pl = 0 to K.width - 1 do
                Nd_flat.set f.rp pl ((i * n) + j) 0.0
              done
            done
          done;
          let host rows cols p =
            let out = Array.make (rows * cols) K.zero in
            unstage (view rows cols p) ~store:(fun i j x ->
                out.((i * cols) + j) <- x);
            out
          in
          (match t.rhs with
          | Some b ->
              unstage_vec (view (Array.length b) 1 f.bp) ~store:(fun i x ->
                  b.(i) <- x)
          | None -> ());
          ((if t.thin then [||] else host m m f.qp), host m n f.rp)
      | Boxed bx ->
          for j = 0 to n - 1 do
            for i = j + 1 to m - 1 do
              bx.r.((i * n) + j) <- K.zero
            done
          done;
          (bx.q, bx.r)
      | Plan -> ([||], [||])
  end
end
