(* Fidelity of the cost model to the paper: each published kernel / wall
   clock cell of Tables 3-10 (paper_tables.csv) against the same field of
   a direct [Engine.run_job] of the sweep job that models it.  Planning
   only, so the figures are deterministic. *)

module Report = Harness.Report

type cell = { table : string; job : string; field : string; published : float }

let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> go acc
    | line when line.[0] = '#' || String.starts_with ~prefix:"table," line ->
      go acc
    | line -> (
      match String.split_on_char ',' line with
      | [ table; job; field; v ] ->
        go ({ table; job; field; published = float_of_string v } :: acc)
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let modeled (r : Report.t) = function
  | "kernel_ms" -> r.Report.kernel_ms
  | "wall_ms" -> r.Report.wall_ms
  | "qr_kernel_ms" -> (Report.part r Harness.Runners.qr_part).Report.Part.kernel_ms
  | "bs_kernel_ms" -> (Report.part r Harness.Runners.bs_part).Report.Part.kernel_ms
  | f -> failwith ("paper_tables.csv: unknown field " ^ f)

(* Per table and overall: the median of |modeled - published| / published. *)
let rel_errors path =
  let cells = load path in
  let jobs = Hashtbl.create 128 in
  List.iter
    (fun t ->
      List.iter
        (fun (j : Sched.Job.t) -> Hashtbl.replace jobs j.Sched.Job.id j)
        (Sched.Sweep.jobs t))
    (List.sort_uniq compare (List.map (fun c -> c.table) cells));
  let reports = Hashtbl.create 128 in
  let err c =
    let r =
      match Hashtbl.find_opt reports c.job with
      | Some r -> r
      | None ->
        let j =
          match Hashtbl.find_opt jobs c.job with
          | Some j -> j
          | None -> failwith ("paper_tables.csv: no sweep job " ^ c.job)
        in
        let r = Sched.Engine.run_job j in
        Hashtbl.replace reports c.job r;
        r
    in
    Float.abs (modeled r c.field -. c.published) /. c.published
  in
  let errs = List.map (fun c -> (c.table, err c)) cells in
  let tables = List.sort_uniq compare (List.map fst errs) in
  ( Ledger.median (List.map snd errs),
    List.map
      (fun t ->
        let of_t =
          List.filter_map (fun (t', e) -> if t = t' then Some e else None) errs
        in
        (t, Ledger.median of_t))
      tables )
