(** Allocation-free limb-planar ("flat") kernels on staggered planes.

    Executes the simulator's hot kernels directly on staggered limb
    planes (flat [Bigarray] float64 storage, [Multidouble.Nd_flat.fa]),
    through the limb-generic [Multidouble.Nd_flat.plan] record resolved
    once per scalar from its limb count — the single dispatch point.
    Every dot-shaped kernel runs on the plan's fused [mac_lanes].  The plan's engines replay
    the boxed operation sequences floating point operation for floating
    point operation, so the flat kernels are limb for limb identical to
    the generic [Scalar.S] path at every supported width (double double,
    quad double, octo double, and any future Expansion precision);
    consumers switch paths on {!Make.available} with no numerical
    consequences.  The solvers stage once per factorization or solve,
    through device states that put both paths behind one type:
    {!Make.Qr} for the blocked QR (A staged once, Q and R unstaged once)
    and {!Make.Bs} for the back substitution.

    Block-level entry points take the same block index as the generic
    [Sim.launch] bodies and write disjoint index ranges, so they are
    safe under [Domain_pool.parallel_for] without further locking. *)

val enabled : bool ref
(** Global switch, for benchmarks and the equivalence tests; the
    solvers consult it through {!Make.available}. *)

type tile = {
  mr : int;  (** output rows per micro-tile *)
  nr : int;  (** output columns per micro-tile (lanes) *)
  kc : int;  (** inner-dimension chunk per cache block *)
  flops : float;  (** double precision flops of one full tile *)
  bytes : float;  (** bytes moved by one full tile (A, B panels + C spill) *)
}
(** The register-tile geometry of the matrix product microkernel and its
    per-tile operation/traffic counts, for roofline classification
    (computed here because [Obs] deliberately knows nothing about
    precisions). *)

module Make (K : Scalar.S) : sig
  type planes = { rows : int; cols : int; p : Multidouble.Nd_flat.planes }
  (** A staged operand: [K.width] limb planes of [rows * cols] float64
      words, row-major — the layout of [Staggered], held in flat
      [Bigarray] storage.  Concrete so the kernel loops inline. *)

  val available : unit -> bool
  (** The flat plane covers every real uninstrumented width with an
      [Nd_flat] plan (all multiple double precisions); complex,
      instrumented and plain double scalars keep the generic path. *)

  val tile : tile
  (** The microkernel tile resolved for this scalar: NR = 8 column lanes
      (a 64-byte line of each B limb plane), KC sized so a
      double-buffered B panel fits a 32 KiB L1 slice — 128 for double
      double, 64 for quad double, 32 for octo double. *)

  val alloc : rows:int -> cols:int -> planes

  val stage : rows:int -> cols:int -> get:(int -> int -> K.t) -> planes
  (** Staging costs O(elements) conversions, amortized by kernels doing
      O(elements * inner) work on the staged operand. *)

  val unstage : planes -> store:(int -> int -> K.t -> unit) -> unit
  val stage_vec : n:int -> get:(int -> K.t) -> planes
  val unstage_vec : planes -> store:(int -> K.t -> unit) -> unit

  val matmul_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** The register-loading matrix product, one [Sim.launch] block:
      output elements [blk*threads, (blk+1)*threads), each a dot product
      of a row of the first operand with a column of the second.
      Executes as the {!tile}-shaped cache-blocked microkernel; each
      lane replays the untiled per-element operation sequence exactly,
      so the result is bit-identical to the generic loop. *)

  val bs_xi_block :
    dim:int -> r0:int -> n:int -> planes -> planes -> planes -> unit
  (** [bs_xi_block ~dim ~r0 ~n v bd x]: x_i := U_i^{-1} b_i on the tile
      at diagonal offset [r0] of the staged [dim]-by-[dim] matrix [v]
      with inverted diagonal tiles. *)

  val bs_update_block :
    dim:int -> r0:int -> rj:int -> n:int -> planes -> planes -> planes -> unit
  (** [bs_update_block ~dim ~r0 ~rj ~n v x bd]: b_j := b_j - A_(j,i) x_i
      for the block at row offset [rj]. *)

  val dot : n:int -> planes -> planes -> planes -> int -> unit
  (** [dot ~n a b out oidx]: out[oidx] := sum over [n] elements of
      a[i] * b[i]. *)

  val axpy : n:int -> planes -> planes -> planes -> unit
  (** [axpy ~n alpha x y]: y[i] := y[i] + alpha * x[i]; [alpha] is a
      staged single element. *)

  val gemv_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** [gemv_block ~threads a x y blk]: y[i] := sum_k a[i, k] * x[k] for
      the output rows of one launch block.  Per element the untiled
      clear / ascending multiply-accumulate / store sequence, so the
      flat path is bit-identical to the boxed accumulator loop. *)

  val gemv_t_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** The transposed product y[j] := sum_i a[i, j] * x[i] (strided
      column walk). *)

  val xpay : n:int -> planes -> planes -> planes -> unit
  (** [xpay ~n alpha x y]: y[i] := x[i] + alpha * y[i] — the CG
      direction update; [alpha] is a staged single element. *)

  val scal : n:int -> planes -> planes -> planes -> unit
  (** [scal ~n alpha x y]: y[i] := alpha * x[i]; in-place is safe. *)

  val rank1_sub : planes -> planes -> planes -> unit
  (** [rank1_sub a x y]: a[i, j] := a[i, j] - x[i] * y[j], the
      Householder panel update. *)

  val ewadd : planes -> planes -> unit
  (** dst[i] := dst[i] + src[i] elementwise over whole planes — the
      operation sequence of the QR's "Q + QWY" and "R + YWTC" kernels
      ({!Qr.add_block}), over a whole plane instead of a window. *)

  (** The back substitution device state, both paths behind one type:
      the staged-planes arm when flat execution is on, the boxed host
      arrays otherwise.  [Tiled_back_sub] is written once against this
      module; the fault plane closures ([flip], [check]) are passed in
      by the solver so this library does not depend on [Fault]. *)
  module Bs : sig
    type t

    type b_snapshot
    (** A saved prefix of the right-hand side, for update replays. *)

    val create :
      execute:bool ->
      dim:int ->
      v:K.t array ->
      bd:K.t array ->
      x:K.t array ->
      t
    (** [create ~execute ~dim ~v ~bd ~x] captures the device state for
        one stage-2 sweep: [v] the row-major [dim*dim] matrix with
        inverted diagonal tiles, [bd] the evolving right-hand side, [x]
        the solution sink.  Stages all three into limb planes when
        [execute] and {!available}. *)

    val xi_block : t -> r0:int -> n:int -> unit
    (** x_i := U_i^{-1} b_i on the tile at diagonal offset [r0]. *)

    val update_block : t -> r0:int -> rj:int -> n:int -> unit
    (** b_j := b_j - A_(j,i) x_i for the block at row offset [rj]. *)

    val x_at : t -> int -> K.t
    val b_at : t -> int -> K.t

    val x_limbs_ok : t -> check:(float array -> bool) -> int -> bool
    (** On the flat arm, run [check] (a raw-limb validator) on the limb
        expansion of x[i]; trivially true on the boxed arm, which
        renormalizes on read. *)

    val iter_u_limbs : t -> (float -> unit) -> unit
    (** Feed every limb word of the matrix to the callback, in the arm's
        own storage order — digest fodder for ABFT checksums. *)

    val corrupt : t -> Dompool.Prng.t -> flip:(float -> int -> float) -> string
    (** Flip one [flip]-selected bit of one size-weighted element of the
        resident state: raw plane words on the flat arm, a scalar limb
        round-trip on the boxed arm.  Returns a description. *)

    val b_finite_below : t -> r0:int -> bool
    val snapshot_b : t -> upto:int -> b_snapshot
    val restore_b : t -> b_snapshot -> unit

    val unstage_x : t -> unit
    (** Write the staged solution back into the host array (identity on
        the boxed arm, which solved in place). *)
  end

  (** The blocked Householder QR device state, all paths behind one
      type, so [Blocked_qr.factor_gen] is written once against it.

      The flat arm stages A into the R limb planes once (Q starts as
      identity planes), runs every kernel of the factorization — the
      panel kernels, the three matrix products through
      {!matmul_block}, the two elementwise additions and the thin
      path's application of Q^H to b — on one plane workspace
      allocated per factorization, and unstages Q and R once in
      {!finish}.  The boxed arm runs the generic [K.t] loops (complex,
      instrumented and plain double scalars, or {!enabled} off); the
      plan arm (not executing) allocates and touches nothing.  Both
      executing arms perform the same operation sequence per element,
      so results are limb for limb identical.

      Kernel entry points take the launch block index and write
      disjoint ranges per block, like every other block kernel here. *)
  module Qr : sig
    type t

    val create :
      execute:bool ->
      accumulate_q:bool ->
      mrows:int ->
      ncols:int ->
      tile:int ->
      a:K.t array option ->
      rhs:K.t array option ->
      t
    (** [create ~execute ~accumulate_q ~mrows ~ncols ~tile ~a ~rhs]:
        the device state for factoring the row-major [mrows]-by-[ncols]
        matrix [a] (not modified).  Executes only when [execute] and [a]
        is given; [accumulate_q = false] is the economy path, which
        never forms Q and applies the reflectors to [rhs] instead. *)

    val begin_panel : t -> c0:int -> unit
    (** Start the panel whose first column is [c0]: zero Y and W. *)

    val beta_v : t -> l:int -> c:int -> unit
    (** "beta, v" for panel column [l] (matrix column [c]); one block. *)

    val save_v : t -> l:int -> c:int -> unit
    (** Store the Householder vector into column [l] of Y. *)

    val rtv : t -> l:int -> c:int -> int -> unit
    (** "beta*R^T*v", one block per trailing panel column. *)

    val update_r : t -> l:int -> c:int -> int -> unit
    (** "update R": R := R - v (beta v^H R), [tile] elements a block. *)

    val w_u : t -> l:int -> int -> unit
    (** "compute W", first launch: u = Y[:, :l]^H Y[:, l]. *)

    val w_z : t -> l:int -> int -> unit
    (** "compute W", second launch: W[:, l] = -beta (Y[:, l] + W u). *)

    val ywt : t -> ((int -> unit) -> unit) -> unit
    (** [ywt t launch] forms the operands of "Y*W^T" and runs the
        product through [launch] (a body over the launch grid). *)

    val qwy : t -> ((int -> unit) -> unit) -> unit
    (** "Q*WY^T": QWY = Q[:, c0:] (YWT)^H. *)

    val ywtc : t -> ((int -> unit) -> unit) -> unit
    (** "YWT*C": YWTC = YWT R[c0:, c1:]. *)

    type sum = Q_plus_qwy | R_plus_ywtc

    val add_block : t -> sum -> int -> unit
    (** The elementwise additions "Q + QWY" and "R + YWTC". *)

    val qtb_u : t -> int -> unit
    (** Thin path, first launch: u = W^H b[c0:]. *)

    val qtb_y : t -> int -> unit
    (** Thin path, second launch: b[c0:] += Y u. *)

    type resident = R | Q | Y | W | B
    (** The device-resident matrices: R, Q, the panel's Y and W, and the
        thin path's right-hand side b (a column). *)

    val at : t -> resident -> int -> int -> K.t
    (** [at t m i j] reads element (i, j) of [m] (verification probes;
        never the hot loops). *)

    val snapshot : t -> unit
    (** Save R, Q and b (plane blits on the flat arm, into storage
        allocated once). *)

    val restore : t -> unit
    (** Put the last {!snapshot} back. *)

    val corrupt : t -> Dompool.Prng.t -> flip:(float -> int -> float) -> string
    (** Flip one [flip]-selected bit of one limb of one size-weighted
        element of R, Q, Y, W or b; both arms draw and flip
        identically.  Returns a description. *)

    val finish : t -> K.t array * K.t array
    (** Zero the subdiagonal of R, write Q^H b back into the caller's
        right-hand side (thin path) and return Q and R as row-major
        arrays — the device -> host transfer.  Q is empty on the thin
        path, both are empty in plan mode. *)
  end
end
