(* Cross-run regression diffing over the machine-readable artifacts.

   [sintra compare OLD NEW] loads two summaries of the same schema —
   sintra-flight/1 (campaign flight records), sintra-faults/2 (fault
   campaign reports), sintra-bench/1 (bench records) or sintra-svc/1
   (sustained-load service campaigns) — extracts a flat
   list of named metrics from each, and classifies every delta as
   improved / regressed / neutral.  The first file is the baseline, the
   second the candidate; any regression makes the comparison fail, which
   is what turns a checked-in FLIGHT baseline into a CI gate.

   Two classification regimes:

   - strict metrics (safety violations, gating-liveness violations,
     decided counts) regress on ANY worsening — one new safety trip is a
     regression no threshold excuses;

   - thresholded metrics (decide-time percentiles, retransmit totals,
     buffer peaks, crypto op counts) regress only when the candidate is
     worse by more than [max(abs_eps, rel * |baseline|)], so byte-stable
     reruns compare equal and honest noise stays neutral;

   - informational metrics (wall time — the one wall-clock field the
     artifacts carry) are reported but never classified: they vary by
     machine, not by code under test.

   Structural mismatches — different schemas, or flight cells present on
   one side only — are errors, not regressions: the two files do not
   describe the same experiment, so a verdict would be meaningless. *)

type direction = Lower_better | Higher_better | Info

type strictness = Strict | Threshold

type verdict = Improved | Regressed | Neutral | Informational

type row = {
  metric : string;
  dir : direction;
  strict : strictness;
  baseline : float;
  candidate : float;
  verdict : verdict;
}

type thresholds = { rel : float; abs_eps : float }

let default_thresholds = { rel = 0.10; abs_eps = 1e-9 }

type report = {
  schema : string;
  rows : row list;
  regressed : int;
  improved : int;
}

(* ---------- classification ------------------------------------------- *)

let classify th ~dir ~strict ~baseline ~candidate =
  match dir with
  | Info -> Informational
  | Lower_better | Higher_better ->
    (* worse > 0 means the candidate moved in the bad direction *)
    let worse =
      match dir with
      | Lower_better -> candidate -. baseline
      | Higher_better -> baseline -. candidate
      | Info -> 0.0
    in
    let tol =
      match strict with
      | Strict -> 0.0
      | Threshold -> Float.max th.abs_eps (th.rel *. Float.abs baseline)
    in
    if worse > tol then Regressed
    else if worse < -.tol then Improved
    else Neutral

let make_report ~schema th specs =
  let rows =
    List.map
      (fun (metric, dir, strict, baseline, candidate) ->
        { metric;
          dir;
          strict;
          baseline;
          candidate;
          verdict = classify th ~dir ~strict ~baseline ~candidate })
      specs
  in
  { schema;
    rows;
    regressed = List.length (List.filter (fun r -> r.verdict = Regressed) rows);
    improved = List.length (List.filter (fun r -> r.verdict = Improved) rows) }

(* ---------- JSON helpers --------------------------------------------- *)

let ( let* ) = Result.bind

let ( and* ) a b =
  match (a, b) with
  | Ok x, Ok y -> Ok (x, y)
  | Error e, _ -> Error e
  | _, Error e -> Error e

let path_num doc path =
  let rec walk v = function
    | [] -> Obs_json.to_float v
    | k :: rest -> Option.bind (Obs_json.member k v) (fun v -> walk v rest)
  in
  walk doc path

let need_num doc path =
  match path_num doc path with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "missing or non-numeric %S" (String.concat "." path))

(* Informational rows for optional fields, emitted only when both
   documents carry them, so baselines written before a field existed
   still compare. *)
let optional_info a b fields =
  List.filter_map
    (fun (label, path) ->
      match (path_num a path, path_num b path) with
      | Some va, Some vb -> Some (label, Info, Threshold, va, vb)
      | _ -> None)
    fields

(* Stats out of an [Obs_histogram.to_json] object: the sparse
   [[index, count], ...] bucket list reconstructs the same conservative
   percentile the histogram itself reports (bucket upper bound, clamped
   to the observed max). *)
let hist_stats v =
  let num k = Option.bind (Obs_json.member k v) Obs_json.to_float in
  match Option.bind (Obs_json.member "count" v) Obs_json.to_int with
  | None -> None
  | Some 0 -> Some (0, 0.0, 0.0, 0.0)
  | Some count ->
    let sum = Option.value (num "sum") ~default:0.0 in
    let vmax = Option.value (num "max") ~default:0.0 in
    let buckets =
      Option.value
        (Option.bind (Obs_json.member "buckets" v) Obs_json.to_list)
        ~default:[]
      |> List.filter_map (fun pair ->
             match Obs_json.to_list pair with
             | Some [ i; c ] ->
               (match (Obs_json.to_int i, Obs_json.to_int c) with
               | Some i, Some c -> Some (i, c)
               | _ -> None)
             | _ -> None)
    in
    let p95 =
      let target =
        max 1 (min count (int_of_float (ceil (float_of_int count *. 0.95))))
      in
      let rec walk acc = function
        | [] -> vmax
        | (i, c) :: rest ->
          let acc = acc + c in
          if acc >= target then
            if i >= 63 then vmax else Float.min (Float.ldexp 1.0 i) vmax
          else walk acc rest
      in
      walk 0 buckets
    in
    Some (count, sum, vmax, p95)

let hist_mean (count, sum, _, _) =
  if count = 0 then 0.0 else sum /. float_of_int count

(* ---------- per-schema metric extraction ----------------------------- *)

(* flight cells are matched by identity (protocol, policy, mix); a cell
   on one side only is a structural error. *)
let flight_cells doc =
  match Option.bind (Obs_json.member "cells" doc) Obs_json.to_list with
  | None -> Error "missing or non-array \"cells\""
  | Some cells ->
    let tag c =
      let s k =
        Option.value (Option.bind (Obs_json.member k c) Obs_json.to_str)
          ~default:"?"
      in
      Printf.sprintf "%s/%s/%s" (s "protocol") (s "policy") (s "mix")
    in
    Ok (List.map (fun c -> (tag c, c)) cells)

let cell_metrics tag a_cell b_cell =
  let pair name sub =
    let stats c =
      Option.bind (Obs_json.member name c) hist_stats
      |> Option.value ~default:(0, 0.0, 0.0, 0.0)
    in
    let sa = stats a_cell and sb = stats b_cell in
    let pick (_, _, vmax, p95) = function
      | `P95 -> p95
      | `Max -> vmax
    in
    (pick sa sub, pick sb sub)
  in
  let int name =
    let v c =
      Option.value (Option.bind (Obs_json.member name c) Obs_json.to_float)
        ~default:0.0
    in
    (v a_cell, v b_cell)
  in
  let decided_a, decided_b = int "decided" in
  let clock_a, clock_b = pair "decide_clock" `P95 in
  let mean name =
    let m c =
      Option.bind (Obs_json.member name c) hist_stats
      |> Option.value ~default:(0, 0.0, 0.0, 0.0)
      |> hist_mean
    in
    (m a_cell, m b_cell)
  in
  let steps_a, steps_b = mean "steps" in
  let retx_a, retx_b = mean "retransmits" in
  let peak_a, peak_b = pair "buffer_peak" `Max in
  [ (tag ^ " decided", Higher_better, Strict, decided_a, decided_b);
    (tag ^ " decide_clock p95", Lower_better, Threshold, clock_a, clock_b);
    (tag ^ " steps mean", Lower_better, Threshold, steps_a, steps_b);
    (tag ^ " retransmits mean", Lower_better, Threshold, retx_a, retx_b);
    (tag ^ " buffer_peak max", Lower_better, Threshold, peak_a, peak_b) ]

let extract_flight th a b =
  let* runs_a = need_num a [ "runs" ] and* runs_b = need_num b [ "runs" ] in
  let* () =
    if runs_a = runs_b then Ok ()
    else
      Error
        (Printf.sprintf
           "run counts differ (%.0f vs %.0f): not the same experiment shape"
           runs_a runs_b)
  in
  let* cells_a = flight_cells a and* cells_b = flight_cells b in
  let* () =
    let tags cs = List.map fst cs in
    let only_in name xs ys =
      match List.filter (fun t -> not (List.mem t ys)) xs with
      | [] -> Ok ()
      | missing ->
        Error
          (Printf.sprintf "cells only in %s: %s" name
             (String.concat ", " missing))
    in
    let* () = only_in "baseline" (tags cells_a) (tags cells_b) in
    only_in "candidate" (tags cells_b) (tags cells_a)
  in
  let* decided_a = need_num a [ "decided" ]
  and* decided_b = need_num b [ "decided" ] in
  let* safety_a = need_num a [ "violations"; "safety" ]
  and* safety_b = need_num b [ "violations"; "safety" ] in
  let* gating_a = need_num a [ "violations"; "liveness_gating" ]
  and* gating_b = need_num b [ "violations"; "liveness_gating" ] in
  let* dropped_a = need_num a [ "trace"; "dropped_events" ]
  and* dropped_b = need_num b [ "trace"; "dropped_events" ] in
  let anomalies doc kind =
    Option.value
      (path_num doc [ "anomalies"; "counts"; kind ])
      ~default:0.0
  in
  let per_cell =
    List.concat_map
      (fun (tag, cell_a) -> cell_metrics tag cell_a (List.assoc tag cells_b))
      cells_a
  in
  Ok
    (make_report ~schema:"sintra-flight/1" th
       ([ ("decided runs", Higher_better, Strict, decided_a, decided_b);
          ("safety violations", Lower_better, Strict, safety_a, safety_b);
          ( "gating liveness violations",
            Lower_better,
            Strict,
            gating_a,
            gating_b );
          ( "trace dropped_events",
            Lower_better,
            Threshold,
            dropped_a,
            dropped_b );
          ( "anomalies: stall",
            Lower_better,
            Strict,
            anomalies a "stall",
            anomalies b "stall" );
          ( "anomalies: retransmit-storm",
            Lower_better,
            Threshold,
            anomalies a "retransmit-storm",
            anomalies b "retransmit-storm" );
          ( "anomalies: backpressure-peak",
            Lower_better,
            Threshold,
            anomalies a "backpressure-peak",
            anomalies b "backpressure-peak" ) ]
       @ per_cell))

let extract_faults th a b =
  let* safety_a = need_num a [ "violations"; "safety" ]
  and* safety_b = need_num b [ "violations"; "safety" ] in
  let* gating_a = need_num a [ "violations"; "liveness_gating" ]
  and* gating_b = need_num b [ "violations"; "liveness_gating" ] in
  let* liveness_a = need_num a [ "violations"; "liveness" ]
  and* liveness_b = need_num b [ "violations"; "liveness" ] in
  let* retx_a = need_num a [ "link"; "retransmits_total" ]
  and* retx_b = need_num b [ "link"; "retransmits_total" ] in
  let* wall_a = need_num a [ "wall_time_s" ]
  and* wall_b = need_num b [ "wall_time_s" ] in
  Ok
    (make_report ~schema:"sintra-faults/2" th
       [ ("safety violations", Lower_better, Strict, safety_a, safety_b);
         ( "gating liveness violations",
           Lower_better,
           Strict,
           gating_a,
           gating_b );
         ("liveness violations", Lower_better, Threshold, liveness_a, liveness_b);
         ("link retransmits", Lower_better, Threshold, retx_a, retx_b);
         ("wall time (s)", Info, Threshold, wall_a, wall_b) ])

let extract_bench th a b =
  let* vt_a = need_num a [ "virtual_time_total" ]
  and* vt_b = need_num b [ "virtual_time_total" ] in
  let* wall_a = need_num a [ "wall_time_s" ]
  and* wall_b = need_num b [ "wall_time_s" ] in
  let crypto doc =
    match Obs_json.member "crypto_ops" doc with
    | Some (Obs_json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Obs_json.to_float v))
        fields
    | _ -> []
  in
  let ca = crypto a and cb = crypto b in
  let crypto_rows =
    List.filter_map
      (fun (k, va) ->
        Option.map
          (fun vb -> ("crypto " ^ k, Lower_better, Threshold, va, vb))
          (List.assoc_opt k cb))
      ca
  in
  (* throughput extras, when both sides carry them *)
  let tput_rows =
    match (path_num a [ "decided_per_1k_steps" ], path_num b [ "decided_per_1k_steps" ]) with
    | Some va, Some vb ->
      [ ("decided per 1k steps", Higher_better, Threshold, va, vb) ]
    | _ -> []
  in
  Ok
    (make_report ~schema:"sintra-bench/1" th
       ([ ("virtual time total", Lower_better, Threshold, vt_a, vt_b);
          ("wall time (s)", Info, Threshold, wall_a, wall_b) ]
       @ crypto_rows @ tput_rows
       @ optional_info a b
           [ ("sim steps", [ "steps" ]);
             ("sim steps per wall s", [ "steps_per_wall_s" ]) ]))

let extract_svc th a b =
  let* safety_a = need_num a [ "violations"; "safety" ]
  and* safety_b = need_num b [ "violations"; "safety" ] in
  let* cert_a = need_num a [ "requests"; "cert_failures" ]
  and* cert_b = need_num b [ "requests"; "cert_failures" ] in
  let* target_a = need_num a [ "requests"; "target" ]
  and* target_b = need_num b [ "requests"; "target" ] in
  let* compl_a = need_num a [ "requests"; "completed" ]
  and* compl_b = need_num b [ "requests"; "completed" ] in
  let* rate_a = need_num a [ "fastpath"; "rate" ]
  and* rate_b = need_num b [ "fastpath"; "rate" ] in
  let* tput_a = need_num a [ "throughput"; "requests_per_kstep" ]
  and* tput_b = need_num b [ "throughput"; "requests_per_kstep" ] in
  let* peak_a = need_num a [ "memory"; "plain_log_peak" ]
  and* peak_b = need_num b [ "memory"; "plain_log_peak" ] in
  let* retries_a = need_num a [ "loss"; "retries" ]
  and* retries_b = need_num b [ "loss"; "retries" ] in
  let* timeouts_a = need_num a [ "loss"; "timeouts" ]
  and* timeouts_b = need_num b [ "loss"; "timeouts" ] in
  let* wall_a = need_num a [ "wall_time_s" ]
  and* wall_b = need_num b [ "wall_time_s" ] in
  Ok
    (make_report ~schema:"sintra-svc/1" th
       ([ ("safety violations", Lower_better, Strict, safety_a, safety_b);
          ("certificate failures", Lower_better, Strict, cert_a, cert_b);
          ( "missed requests",
            Lower_better,
            Strict,
            target_a -. compl_a,
            target_b -. compl_b );
          ( "requests per 1k steps",
            Higher_better,
            Threshold,
            tput_a,
            tput_b );
          ("fast-path rate", Higher_better, Threshold, rate_a, rate_b);
          ("GC'd log peak", Lower_better, Threshold, peak_a, peak_b);
          ("client retries", Lower_better, Threshold, retries_a, retries_b);
          ( "client timeouts",
            Lower_better,
            Threshold,
            timeouts_a,
            timeouts_b );
          ("wall time (s)", Info, Threshold, wall_a, wall_b) ]
       @ optional_info a b
           [ ("sim steps", [ "throughput"; "steps_total" ]);
             ("sim steps per wall s", [ "throughput"; "steps_per_wall_s" ]) ]))

(* ---------- entry points --------------------------------------------- *)

let schema_of doc =
  match Option.bind (Obs_json.member "schema" doc) Obs_json.to_str with
  | Some s -> Ok s
  | None -> Error "missing \"schema\" member"

let compare_docs ?(thresholds = default_thresholds) ~baseline ~candidate () =
  let* sa = schema_of baseline in
  let* sb = schema_of candidate in
  let* () =
    if sa = sb then Ok ()
    else Error (Printf.sprintf "schema mismatch: %s vs %s" sa sb)
  in
  match sa with
  | "sintra-flight/1" -> extract_flight thresholds baseline candidate
  | "sintra-faults/2" -> extract_faults thresholds baseline candidate
  | "sintra-bench/1" -> extract_bench thresholds baseline candidate
  | "sintra-svc/1" -> extract_svc thresholds baseline candidate
  | s -> Error (Printf.sprintf "cannot compare schema %s" s)

let load_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s ->
    (match Obs_json.of_string (String.trim s) with
    | Ok doc -> Ok doc
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let compare_files ?thresholds a b =
  let* baseline = load_file a in
  let* candidate = load_file b in
  compare_docs ?thresholds ~baseline ~candidate ()

(* ---------- rendering ------------------------------------------------- *)

let verdict_label = function
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Neutral -> "neutral"
  | Informational -> "info"

let pp_report fmt (r : report) =
  Format.fprintf fmt "schema %s: %d metrics, %d improved, %d regressed@."
    r.schema (List.length r.rows) r.improved r.regressed;
  List.iter
    (fun row ->
      let delta = row.candidate -. row.baseline in
      Format.fprintf fmt "  %-9s %-34s %14.2f -> %14.2f  (%+.2f)@."
        (verdict_label row.verdict)
        row.metric row.baseline row.candidate delta)
    r.rows;
  if r.regressed > 0 then
    Format.fprintf fmt "REGRESSION: %d metric(s) worsened@." r.regressed
  else Format.fprintf fmt "no regressions@."

let ok (r : report) = r.regressed = 0
