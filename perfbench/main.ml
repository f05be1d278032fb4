(* Service benchmark: drives the replicated CA, directory and notary
   services end to end through their public entry points (Keyring.deal,
   Service.deploy, Service.Client, Sim.step) and reports certified
   replies per second, wall and virtual latency percentiles and set-up
   time (seconds are calibrated, see the clock below) — or, with --trace 1, a per-layer breakdown measured from
   outside the library with the hooks it already exposes.

   A run is a sequence of episodes.  Each episode deals a fresh keyring,
   deploys n = 4, t = 1 replicas, attaches three closed-loop clients
   (window 4) and drives a fixed, seed-determined batch of requests until
   every one is certified or abandoned by its client.  Episodes repeat
   until the time budget is spent, and the first [w_vt_episodes] always
   run: the simulator is deterministic, so the virtual-time percentiles,
   taken over those, are exactly reproducible per seed on any machine.
   Many short deployments rather than one long one: a lossy deployment's
   figures stay correlated over its whole life, so only averaging over
   deployments steadies them across seeds (on ca-write-lossy, 24
   episodes of 18 requests put the seed-to-seed spread of the median
   virtual latency at 0.025 of its median).

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; any correctness
   violation makes the exit code non-zero. *)

let now = Unix.gettimeofday

(* ---------- workloads ------------------------------------------------ *)

type kind = Ca | Directory | Notary

type workload = {
  w_name : string;
  w_kind : kind;
  w_drop : float;  (** chaos drop on every link between two replicas *)
  w_arq : bool;  (** ARQ endpoint for engine traffic *)
  w_ckpt : int;  (** checkpoint interval (0 = no checkpoint GC) *)
  w_read_frac : float;  (** share of requests sent as fast-path reads *)
  w_resend : float;  (** client resend period, virtual ms *)
  w_requests : int;  (** requests per episode *)
  w_vt_episodes : int;  (** leading episodes the vt percentiles cover *)
}

let workloads =
  [
    {
      w_name = "ca-write-lossy";
      w_kind = Ca;
      w_drop = 0.3;
      w_arq = true;
      w_ckpt = 2;
      w_read_frac = 0.0;
      w_resend = 3_000.;
      w_requests = 18;
      w_vt_episodes = 30;
    };
    {
      w_name = "notary-write";
      w_kind = Notary;
      w_drop = 0.0;
      w_arq = false;
      w_ckpt = 0;
      w_read_frac = 0.0;
      w_resend = 1_500.;
      w_requests = 150;
      w_vt_episodes = 6;
    };
    {
      w_name = "directory-read";
      w_kind = Directory;
      w_drop = 0.0;
      w_arq = false;
      w_ckpt = 2;
      w_read_frac = 0.95;
      w_resend = 1_500.;
      w_requests = 300;
      w_vt_episodes = 8;
    };
  ]

let n = 4
let t = 1
let group_bits = 128
let rsa_bits = 192
let n_clients = 3
let window = 4
let keyspace = 16
let abc_policy = { Abc.default_policy with Abc.max_batch_msgs = 8; window = 2 }

(* Sends per request before a client abandons it (the library default is
   25, i.e. 37.5 virtual s at its 1.5 s resend period).  With 1.5 s
   resends on ca-write-lossy the slowest certificates took about 37
   virtual s, so clients with the default patience gave up on a few of
   them; 100 sends leave every request time to be certified.  Until a
   request is abandoned the bound changes nothing: the resend schedule
   is the same. *)
let max_sends = 100

(* ---------- calibrated clock ----------------------------------------- *)

(* On shared cores a machine's speed can change by a quarter from one
   second to the next (measured on a 2-core container at 2.1 GHz), which
   would swamp any wall-clock bound.
   Every timed interval is therefore scaled by a same-run calibration:
   a fixed stdlib-only work unit (allocation, sorting, hashing — nothing
   from the libraries under test, so no change to them moves it) is
   timed right before each slice of about 40 ms, and the slice's wall
   time is converted to reference seconds, i.e. what it would have taken
   at [ref_unit_s] per unit.  Calibration time itself is not part of any
   slice. *)
let ref_unit_s = 140e-6
let calib_units = 12
let slice_s = 0.04

let calib_unit () =
  let l = List.sort compare (List.init 1500 (fun i -> (i * 7919) land 4095)) in
  let h = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace h (x land 255) x) l;
  let acc = ref 0 in
  List.iteri (fun i x -> acc := !acc + ((i * x) lxor (!acc lsr 3))) l;
  !acc + Hashtbl.length h

(* Reference seconds per wall second, measured now. *)
let calibrate () =
  let t0 = now () in
  let sink = ref 0 in
  for _ = 1 to calib_units do
    sink := !sink + calib_unit ()
  done;
  let per_unit = (now () -. t0) /. float_of_int calib_units in
  ignore (Sys.opaque_identity !sink);
  ref_unit_s /. per_unit

(* A clock that advances in reference seconds; [wall] counts the plain
   seconds of the same slices. *)
module Clock = struct
  type t = {
    mutable base : float;  (** reference seconds of closed slices *)
    mutable wall : float;  (** wall seconds of closed slices *)
    mutable start : float;  (** wall time the open slice began *)
    mutable rate : float;  (** calibration of the open slice *)
  }

  let create () =
    let rate = calibrate () in
    { base = 0.0; wall = 0.0; start = now (); rate }

  let read c = c.base +. ((now () -. c.start) *. c.rate)

  (* Close the open slice once it is [slice_s] old and open the next
     after a fresh calibration. *)
  let tick c =
    let t = now () in
    if t -. c.start >= slice_s then begin
      c.base <- c.base +. ((t -. c.start) *. c.rate);
      c.wall <- c.wall +. (t -. c.start);
      c.rate <- calibrate ();
      c.start <- now ()
    end

  let close c =
    let t = now () in
    c.base <- c.base +. ((t -. c.start) *. c.rate);
    c.wall <- c.wall +. (t -. c.start);
    c.start <- t
end

(* Time [f] in reference seconds (one calibration, then one slice). *)
let timed f =
  let rate = calibrate () in
  let t0 = now () in
  let x = f () in
  ((now () -. t0) *. rate, x)

let mode_of = function
  | Notary -> Service.Confidential
  | Ca | Directory -> Service.Plain

let make_app_of = function
  | Ca -> Ca.make_app
  | Directory -> Directory_service.make_app
  | Notary -> Notary.make_app

let read_only_of = function
  | Ca -> Ca.read_only
  | Directory -> Directory_service.read_only
  | Notary -> Notary.read_only

(* ---------- requests and their expected answers ---------------------- *)

(* What a correct reply to a request looks like; checked on every
   certificate after the run. *)
type expect =
  | Issued of { id : string; pubkey : string }
  | Registered of { digest : string }
  | Bound of { key : string }
  | Lookup of { key : string }
  | Listing

type req = {
  r_read : bool;
  r_expect : expect;
  r_t0 : float;
  r_vt0 : float;
  mutable r_t1 : float;
  mutable r_vt1 : float;
  mutable r_cert : Service.reply_cert option;
  mutable r_calls : int;
}

(* Request [idx] of a run; [bound] collects every (key, value) a
   directory bind may have installed. *)
let make_request wl ~seed ~bound rng idx =
  let read = wl.w_read_frac > 0.0 && Prng.float rng < wl.w_read_frac in
  match (wl.w_kind, read) with
  | Ca, _ ->
    let id = Printf.sprintf "id-%d-%d" seed idx in
    let pubkey = Printf.sprintf "pk-%d" (Prng.bits rng 30) in
    ( false,
      Ca.issue_request ~id ~pubkey ~credentials:"bench!ok",
      Issued { id; pubkey } )
  | Notary, _ ->
    let document = Printf.sprintf "doc-%d-%d" seed idx in
    ( false,
      Notary.register_request ~document,
      Registered { digest = Sha256.digest document } )
  | Directory, false ->
    let key = Printf.sprintf "k-%d" (Prng.int rng keyspace) in
    let value = Printf.sprintf "v-%d-%d" seed idx in
    Hashtbl.add bound key value;
    (false, Directory_service.bind_request ~key ~value, Bound { key })
  | Directory, true ->
    let k = Prng.int rng keyspace in
    if k land 7 = 0 then (true, Directory_service.list_request (), Listing)
    else
      let key = Printf.sprintf "k-%d" k in
      (true, Directory_service.lookup_request ~key, Lookup { key })

(* A lookup answer is correct when it is "none" or a value some bind
   installed: fast-path reads may serve any serialized state, so not
   necessarily the latest one. *)
let check_answer ~bound (r : req) (rc : Service.reply_cert) =
  let resp = rc.Service.rc_response in
  (r.r_read || not rc.Service.rc_fast)
  &&
  match r.r_expect with
  | Issued { id; pubkey } -> (
    match Ca.parse_certificate resp with
    | Some (id', pk', _) -> id = id' && pubkey = pk'
    | None -> false)
  | Registered { digest } -> (
    match Notary.parse_registration resp with
    | Some (_, d) -> d = digest
    | None -> false)
  | Bound { key } -> Codec.decode resp = Some [ "bound"; key ]
  | Lookup { key } -> (
    match Codec.decode resp with
    | Some [ "none"; k ] -> k = key
    | Some [ "value"; k; v ] -> k = key && List.mem v (Hashtbl.find_all bound k)
    | _ -> false)
  | Listing -> (
    match Codec.decode resp with
    | Some ("keys" :: keys) -> List.for_all (Hashtbl.mem bound) keys
    | _ -> false)

(* ---------- spans ------------------------------------------------------ *)

(* Span names.  Payload handlers are attributed by the innermost message
   constructor; "request" spans run from submit to certificate and sit
   outside the step tree. *)
let s_step = 0
let s_frame = 1
let s_reply = 2
let s_submit = 3
let s_request = 4
let s_abc = 5
let s_vba = 6
let s_cbc = 7
let s_abba = 8
let s_scabc = 9
let s_recov = 10
let s_svc_request = 11
let s_svc_query = 12
let s_svc_other = 13

let span_names =
  [|
    "sim.step";
    "link.frame";
    "client.reply";
    "client.submit";
    "request";
    "core.abc";
    "core.vba";
    "core.cbc";
    "core.abba";
    "core.scabc";
    "core.recov";
    "services.request";
    "services.query";
    "services.other";
  |]

let abc_span = function
  | Abc.Request _ | Abc.Proposal _ -> s_abc
  | Abc.Vba_msg (_, Vba.Proposal_cbc _) -> s_cbc
  | Abc.Vba_msg (_, Vba.Abba_msg _) -> s_abba
  | Abc.Vba_msg (_, (Vba.Perm_share _ | Vba.Final_fwd _)) -> s_vba

let payload_span = function
  | Service.Engine (Service.Abc_m m)
  | Service.Engine (Service.Scabc_m (Scabc.Abc_msg m))
  | Service.Engine (Service.Recov_m (Recovery.App m)) ->
    abc_span m
  | Service.Engine (Service.Scabc_m (Scabc.Dec_share _)) -> s_scabc
  | Service.Engine (Service.Recov_m _) -> s_recov
  | Service.Request _ -> s_svc_request
  | Service.Query _ -> s_svc_query
  | Service.Response _ -> s_svc_other

(* In-memory span store: parallel growable arrays plus the stack of open
   spans (the parent of a new span is the innermost open one). *)
module Spans = struct
  type t = {
    mutable len : int;
    mutable name : int array;
    mutable req : int array;
    mutable parent : int array;
    mutable start : float array;
    mutable stop : float array;
    mutable stack : int list;
  }

  let create () =
    let cap = 1 lsl 16 in
    {
      len = 0;
      name = Array.make cap 0;
      req = Array.make cap 0;
      parent = Array.make cap 0;
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
      stack = [];
    }

  let grow s =
    let cap = 2 * Array.length s.name in
    let ext a d =
      let b = Array.make cap d in
      Array.blit a 0 b 0 s.len;
      b
    in
    s.name <- ext s.name 0;
    s.req <- ext s.req 0;
    s.parent <- ext s.parent 0;
    s.start <- ext s.start 0.0;
    s.stop <- ext s.stop 0.0

  let add s ~name ~req ~parent =
    if s.len = Array.length s.name then grow s;
    let i = s.len in
    s.len <- i + 1;
    s.name.(i) <- name;
    s.req.(i) <- req;
    s.parent.(i) <- parent;
    s.start.(i) <- now ();
    i

  (* A nested span: child of the innermost open span. *)
  let enter s name =
    let parent = match s.stack with p :: _ -> p | [] -> -1 in
    let i = add s ~name ~req:(-1) ~parent in
    s.stack <- i :: s.stack;
    i

  let leave s i =
    s.stop.(i) <- now ();
    match s.stack with _ :: rest -> s.stack <- rest | [] -> ()

  (* An asynchronous span (submit to certificate), outside the tree. *)
  let open_async s name ~req = add s ~name ~req ~parent:(-1)
  let close_async s i = s.stop.(i) <- now ()

  (* Self time per name: each span minus its children, in seconds.
     Request spans left open (abandoned requests) are skipped. *)
  let self_times s =
    let self = Array.make (Array.length span_names) 0.0 in
    for i = 0 to s.len - 1 do
      if s.stop.(i) > 0.0 then begin
        let d = s.stop.(i) -. s.start.(i) in
        self.(s.name.(i)) <- self.(s.name.(i)) +. d;
        let p = s.parent.(i) in
        if p >= 0 then self.(s.name.(p)) <- self.(s.name.(p)) -. d
      end
    done;
    self

  (* One TSV line per span: id, name, parent id (-1: none), request
     index (-1: none), start, end (0: never closed). *)
  let write s oc ~cap =
    let k = min s.len cap in
    output_string oc "id\tname\tparent\trequest\tstart\tend\n";
    for i = 0 to k - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\n" i
        span_names.(s.name.(i))
        s.parent.(i) s.req.(i) s.start.(i) s.stop.(i)
    done;
    k
end

(* ---------- episodes ---------------------------------------------------- *)

type stop =
  | After_seconds of float * int
      (** start episodes until this much wall time passed and at least
          this many ran *)
  | After_episodes of int  (** run exactly this many episodes *)

(* Per-layer counts of a traced run, summed over its episodes. *)
type trace_data = {
  mutable pending_peak : int;
  mutable sim_msgs : int;
  mutable sim_bytes : int;
  mutable link_retransmits : int;
  mutable link_buffer_peak : float;
  mutable reads : int;
  mutable fast_hits : int;
  mutable resends : int;
  mutable dup_suppressed : int;
  mutable rejected : int;
  mutable delivered : int;  (** ordered payloads, summed over replicas *)
  mutable rounds : int;  (** agreement rounds, summed over replicas *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let new_trace_data () =
  {
    pending_peak = 0;
    sim_msgs = 0;
    sim_bytes = 0;
    link_retransmits = 0;
    link_buffer_peak = 0.0;
    reads = 0;
    fast_hits = 0;
    resends = 0;
    dup_suppressed = 0;
    rejected = 0;
    delivered = 0;
    rounds = 0;
    minor_words = 0.0;
    major_collections = 0;
  }

(* One episode's results; a run concatenates them. *)
type outcome = {
  o_ref : float;  (** reference seconds of the driven phase, drain included *)
  o_wall : float;  (** wall seconds of the same phase, calibration excluded *)
  o_submitted : int;
  o_certs : int;
  o_lat_wall : float list;  (** reference ms, per certificate *)
  o_lat_vt : float list;  (** virtual ms, per certificate, in request order *)
  o_steps : int;
  o_live_mb : float;  (** heap the deployment retains at the end *)
  o_heap_mb : float;  (** largest major heap seen while driving *)
  o_violations : string list;
}

let max_steps_per_request = 200_000

(* Live major heap in MB; callers collect first. *)
let live_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Deal, deploy and attach the clients; [wrap] is the payload-level
   handler hook. *)
let set_up wl ~seed ~obs ~traced ~wrap =
  let keyring =
    Keyring.deal ~group_bits ~rsa_bits ~seed:(seed + 7770)
      (Adversary_structure.threshold ~n ~t)
  in
  let size =
    if traced then Some (Link.frame_size (Service.msg_size keyring)) else None
  in
  let sim = Sim.create ?size ~obs ~n ~extra:n_clients ~seed () in
  (* Only the replicas' mesh is lossy; client links are loss-free.  A
     client whose replies are all lost is never answered again (its
     plain-mode resend is byte-identical, so Abc.enqueue drops it as
     already delivered) and abandons the request: with lossy client
     links 7-11% of requests failed that way. *)
  if wl.w_drop > 0.0 then begin
    let lossy = { Sim.no_fault with Sim.drop = wl.w_drop } in
    Sim.set_chaos sim
      (Some
         {
           Sim.benign_chaos with
           Sim.links =
             List.concat_map
               (fun i ->
                 List.filter_map
                   (fun j -> if i = j then None else Some ((i, j), lossy))
                   (List.init n Fun.id))
               (List.init n Fun.id);
         })
  end;
  let dep =
    Service.deploy ?wrap ~policy:abc_policy
      ?link:(if wl.w_arq then Some Link.default_policy else None)
      ?ckpt_interval:(if wl.w_ckpt > 0 then Some wl.w_ckpt else None)
      ~read_only:(read_only_of wl.w_kind) ~sim ~keyring
      ~mode:(mode_of wl.w_kind) ~make_app:(make_app_of wl.w_kind) ()
  in
  let clients =
    Array.init n_clients (fun i ->
        Service.Client.create ~resend_after:wl.w_resend ~max_resends:max_sends ~sim ~keyring ~slot:(n + i)
          ~seed:((seed * 131) + i)
          ())
  in
  (keyring, sim, dep, clients)

(* The traced run's recorders, shared by its episodes. *)
type tracer = {
  spans : Spans.t;
  msgs : int array;  (** payload deliveries per span name *)
  td : trace_data;
}

(* One episode: a fresh deployment from [seed] driven through exactly
   [w_requests] requests, then drained until every request is certified
   or abandoned by its client; every output is checked afterwards. *)
let episode wl ~seed ~tracer =
  let traced = Option.is_some tracer in
  let obs = if traced then Obs.create () else Obs.noop in
  let wrap =
    Option.map
      (fun tr _ h ~src m ->
        let name = payload_span m in
        tr.msgs.(name) <- tr.msgs.(name) + 1;
        let i = Spans.enter tr.spans name in
        h ~src m;
        Spans.leave tr.spans i)
      tracer
  in
  (* Compaction hands the previous episode's pools back, so the heap
     sampled below is this episode's own. *)
  Gc.full_major ();
  Gc.compact ();
  let live0 = live_mb () in
  let keyring, sim, dep, clients = set_up wl ~seed ~obs ~traced ~wrap in
  Option.iter
    (fun tr ->
      let timed_slot name p =
        Sim.wrap_handler sim p (fun h ~src m ->
            let i = Spans.enter tr.spans name in
            h ~src m;
            Spans.leave tr.spans i)
      in
      for p = 0 to n - 1 do
        timed_slot s_frame p
      done;
      for i = 0 to n_clients - 1 do
        timed_slot s_reply (n + i)
      done;
      Obs_crypto.enable ())
    tracer;
  let span_enter name =
    match tracer with Some tr -> Spans.enter tr.spans name | None -> -1
  and span_leave i =
    match tracer with Some tr -> Spans.leave tr.spans i | None -> ()
  in
  let gc0 = Gc.quick_stat () in
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let bound = Hashtbl.create 16 in
  let reqs = ref [] and n_reqs = ref 0 in
  let mode = mode_of wl.w_kind in
  let clock = Clock.create () in
  let submit ci =
    let idx = !n_reqs in
    incr n_reqs;
    let read, body, expect = make_request wl ~seed ~bound rng idx in
    let i = span_enter s_submit in
    let span =
      match tracer with
      | Some tr -> Spans.open_async tr.spans s_request ~req:idx
      | None -> -1
    in
    let r =
      {
        r_read = read;
        r_expect = expect;
        r_t0 = Clock.read clock;
        r_vt0 = Sim.clock sim;
        r_t1 = 0.0;
        r_vt1 = 0.0;
        r_cert = None;
        r_calls = 0;
      }
    in
    reqs := r :: !reqs;
    let fin rc =
      r.r_calls <- r.r_calls + 1;
      if r.r_calls = 1 then begin
        r.r_t1 <- Clock.read clock;
        r.r_vt1 <- Sim.clock sim;
        r.r_cert <- Some rc;
        Option.iter (fun tr -> Spans.close_async tr.spans span) tracer
      end
    in
    if read then Service.Client.query clients.(ci) ~mode body fin
    else Service.Client.request clients.(ci) ~mode body fin;
    span_leave i
  in
  (* Closed loop: each client keeps [window] requests in flight until the
     episode's requests are all out. *)
  let top_up () =
    for ci = 0 to n_clients - 1 do
      while
        !n_reqs < wl.w_requests && Service.Client.inflight clients.(ci) < window
      do
        submit ci
      done
    done
  in
  let busy () =
    !n_reqs < wl.w_requests
    || Array.exists (fun c -> Service.Client.inflight c > 0) clients
  in
  let steps = ref 0 and stalled = ref false and pending_peak = ref 0 in
  let heap_peak = ref 0 in
  top_up ();
  while busy () && not !stalled do
    if !steps >= max_steps_per_request * wl.w_requests then stalled := true
    else begin
      incr steps;
      Clock.tick clock;
      let progressed =
        if traced then begin
          let i = span_enter s_step in
          let p = Sim.step sim in
          span_leave i;
          if !steps land 31 = 0 then
            pending_peak := max !pending_peak (Sim.pending_count sim);
          p
        end
        else Sim.step sim
      in
      if !steps land 63 = 0 then
        heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words;
      if progressed then top_up () else stalled := true
    end
  done;
  Clock.close clock;
  let gc1 = Gc.quick_stat () in
  if traced then Obs_crypto.disable ();
  (* Memory the deployment retains after serving the episode, less what
     was live before its set-up (earlier episodes' results). *)
  Gc.full_major ();
  let retained = live_mb () -. live0 in
  (* ---- correctness checks, outside the timed phase ---- *)
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s -> violations := Printf.sprintf "seed %d: %s" seed s :: !violations)
      fmt
  in
  let sum_clients f = Array.fold_left (fun a c -> a + f c) 0 clients in
  if !stalled then
    fail "stalled after %d steps with %d requests unresolved" !steps
      (sum_clients Service.Client.inflight);
  let reqs = Array.of_list (List.rev !reqs) in
  let certs = ref 0 and lat_wall = ref [] and lat_vt = ref [] in
  Array.iteri
    (fun idx r ->
      if r.r_calls > 1 then fail "request %d: callback fired %d times" idx r.r_calls;
      match r.r_cert with
      | None -> ()
      | Some rc ->
        if not (Service.verify_reply_cert keyring rc) then
          fail "request %d: reply certificate does not verify" idx
        else if not (check_answer ~bound r rc) then
          fail "request %d: wrong answer %S" idx rc.Service.rc_response
        else begin
          incr certs;
          lat_wall := ((r.r_t1 -. r.r_t0) *. 1000.0) :: !lat_wall;
          lat_vt := (r.r_vt1 -. r.r_vt0) :: !lat_vt
        end)
    reqs;
  let submitted = sum_clients Service.Client.submitted in
  let answered = Array.fold_left (fun a r -> a + min 1 r.r_calls) 0 reqs in
  if submitted <> Array.length reqs then
    fail "client counts %d submissions, the benchmark %d" submitted
      (Array.length reqs);
  if sum_clients Service.Client.completed <> answered then
    fail "client counts %d completions, %d callbacks fired"
      (sum_clients Service.Client.completed)
      answered;
  (* Every request ends certified, abandoned (counted as failed) or, in
     a stalled run, unfinished (also failed). *)
  if
    answered
    + sum_clients Service.Client.timeouts
    + sum_clients Service.Client.inflight
    <> submitted
  then
    fail "accounting: %d certified + %d abandoned + %d unfinished <> %d submitted"
      answered
      (sum_clients Service.Client.timeouts)
      (sum_clients Service.Client.inflight)
      submitted;
  if sum_clients Service.Client.cert_failures > 0 then
    fail "%d client-side certificate failures"
      (sum_clients Service.Client.cert_failures);
  let nodes = Service.nodes dep in
  Array.iteri
    (fun p nd ->
      if nd.Service.ordered <> nd.Service.executed + nd.Service.dup_suppressed
         || nd.Service.malformed <> 0
      then
        fail
          "replica %d: ordered %d <> executed %d + dup_suppressed %d (malformed %d)"
          p nd.Service.ordered nd.Service.executed nd.Service.dup_suppressed
          nd.Service.malformed)
    nodes;
  let abcs = Array.map Service.abc_of nodes in
  let histories =
    Array.map (function Some a -> Abc.delivered_digests a | None -> []) abcs
  in
  List.iter
    (fun v -> fail "total order: %s" (Oracle.violation_to_string v))
    (Oracle.total_order ~honest:(Pset.full n) histories);
  Option.iter
    (fun { td; _ } ->
      let snap = Obs.snapshot obs in
      let fold_registry f init =
        List.fold_left
          (fun a ((k : Obs_registry.key), v) -> f a k.Obs_registry.name v)
          init snap
      in
      let sum_abc f =
        Array.fold_left (fun a -> function Some x -> a + f x | None -> a) 0 abcs
      in
      let metrics = Sim.metrics sim in
      td.pending_peak <- max td.pending_peak !pending_peak;
      td.sim_msgs <- td.sim_msgs + metrics.Metrics.messages_sent;
      td.sim_bytes <- td.sim_bytes + metrics.Metrics.bytes_sent;
      td.link_retransmits <-
        fold_registry
          (fun a name -> function
            | Obs_registry.Vcounter c when name = "link_retransmit" -> a + c
            | _ -> a)
          td.link_retransmits;
      td.link_buffer_peak <-
        fold_registry
          (fun a name -> function
            | Obs_registry.Vgauge g when name = "link_buffer_peak" -> Float.max a g
            | _ -> a)
          td.link_buffer_peak;
      td.reads <-
        Array.fold_left (fun a r -> if r.r_read then a + 1 else a) td.reads reqs;
      td.fast_hits <- td.fast_hits + sum_clients Service.Client.fastpath_hits;
      td.resends <- td.resends + sum_clients Service.Client.retries;
      td.dup_suppressed <-
        Array.fold_left (fun a nd -> a + nd.Service.dup_suppressed) td.dup_suppressed nodes;
      td.rejected <- td.rejected + sum_clients Service.Client.rejected_replies;
      td.delivered <- td.delivered + sum_abc Abc.delivered_count;
      td.rounds <- td.rounds + sum_abc Abc.current_round;
      td.minor_words <- td.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      td.major_collections <-
        td.major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections))
    tracer;
  {
    o_ref = clock.Clock.base;
    o_wall = clock.Clock.wall;
    o_submitted = submitted;
    o_certs = !certs;
    o_lat_wall = !lat_wall;
    o_lat_vt = List.rev !lat_vt;
    o_steps = Sim.steps sim;
    o_live_mb = retained;
    o_heap_mb = float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1e6;
    o_violations = List.rev !violations;
  }

(* Episode [e] of a run uses seed [seed * 1009 + e]. *)
let drive wl ~seed ~tracer ~stop =
  let t0 = now () in
  let rec go e acc =
    let more =
      match stop with
      | After_episodes k -> e < k
      | After_seconds (s, min) -> e < min || now () -. t0 < s
    in
    if not more then List.rev acc
    else go (e + 1) (episode wl ~seed:((seed * 1009) + e) ~tracer :: acc)
  in
  go 0 []

(* ---------- statistics ------------------------------------------------- *)

(* Nearest-rank percentile; 0 for an empty sample. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let k = int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1 in
    a.(max 0 (min (Array.length a - 1) k))

let median xs = percentile 0.5 xs

(* Per-operation time of [f] in reference microseconds: warmed, then the
   median of [rounds] batches of [batch] calls. *)
let time_us ?(rounds = 15) ~batch f =
  for i = 0 to batch - 1 do
    f i
  done;
  let samples =
    List.init rounds (fun _ ->
        let s, () =
          timed (fun () ->
              for i = 0 to batch - 1 do
                f i
              done)
        in
        s *. 1e6 /. float_of_int batch)
  in
  median samples

(* Kernel micro-timings through the public Bignum / Schnorr_group /
   Sha256 entry points at the deployed group size. *)
let kernel_timings ~seed =
  let g = Schnorr_group.default ~bits:group_bits () in
  let p = g.Schnorr_group.p in
  let rng = Prng.create ~seed:(seed lxor 0xbe7c) in
  let k = 64 in
  let pick a i = a.(i land (k - 1)) in
  let exps = Array.init k (fun _ -> Schnorr_group.random_exponent g rng) in
  let elts = Array.map (Schnorr_group.exp_g g) exps in
  let raw = Array.init k (fun _ -> Prng.bignum_below rng p) in
  let kb = Prng.bytes rng 1024 in
  let sink = ref 0 in
  let keep b = if Bignum.is_even b then incr sink in
  let pow_mod =
    time_us ~batch:200 (fun i ->
        keep (Bignum.pow_mod ~base:(pick raw i) ~exp:(pick exps (i + 1)) ~modulus:p))
  in
  let inv_mod =
    time_us ~batch:200 (fun i -> Option.iter keep (Bignum.inv_mod (pick raw i) p))
  in
  let exp2 =
    time_us ~batch:200 (fun i ->
        keep
          (Schnorr_group.exp2 g (pick elts i) (pick exps (i + 1))
             (pick elts (i + 2)) (pick exps (i + 3))))
  in
  let is_element =
    time_us ~batch:400 (fun i ->
        if Schnorr_group.is_element g (pick raw i) then incr sink)
  in
  let sha =
    time_us ~batch:200 (fun _ ->
        if (Sha256.digest kb).[0] = '\000' then incr sink)
  in
  ignore (Sys.opaque_identity !sink);
  [
    ("num.pow_mod_us", "us", pow_mod);
    ("num.inv_mod_us", "us", inv_mod);
    ("group.exp2_us", "us", exp2);
    ("group.is_element_us", "us", is_element);
    ("hash.sha256_us_per_kb", "us", sha);
  ]

(* ---------- output ------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed ms =
  let metric (name, unit, v) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let report_violations eps =
  let vs = List.concat_map (fun o -> o.o_violations) eps in
  List.iter (fun v -> Printf.eprintf "violation: %s\n%!" v) vs;
  vs = []

let per a b = if b = 0 then 0.0 else a /. float_of_int b
let sum f eps = List.fold_left (fun a o -> a + f o) 0 eps
let sumf f eps = List.fold_left (fun a o -> a +. f o) 0.0 eps

(* Set-up takes a few milliseconds, but from 4 to 45 ms depending on
   the seed's RSA prime search: the median of 40 seeds still moved 0.2
   across runs with seed-derived keys.  So every run times the same
   [setup_seeds] set-ups (never driven) and reports their median, which
   only the machine and the code move. *)
let setup_seeds = 40

let setup_times wl =
  List.init setup_seeds (fun k ->
      Gc.full_major ();
      fst
        (timed (fun () ->
             set_up wl ~seed:(-k - 1) ~obs:Obs.noop ~traced:false ~wrap:None)))

let untraced_run wl ~seed ~seconds =
  let setups = setup_times wl in
  let eps = drive wl ~seed ~tracer:None ~stop:(After_seconds (seconds, wl.w_vt_episodes)) in
  let correct = report_violations eps in
  let certs = sum (fun o -> o.o_certs) eps
  and submitted = sum (fun o -> o.o_submitted) eps in
  let lat_wall = List.concat_map (fun o -> o.o_lat_wall) eps in
  let lat_vt =
    List.concat (List.filteri (fun i _ -> i < wl.w_vt_episodes) (List.map (fun o -> o.o_lat_vt) eps))
  in
  Printf.printf
    "%s seed %d: %d episodes, %d requests, %d certificates (wall-latency \
     samples: %d; virtual-latency samples: %d, from the first %d \
     episodes), %d sim steps, driven for %.3f wall s = %.3f reference s\n"
    wl.w_name seed (List.length eps) submitted certs (List.length lat_wall)
    (List.length lat_vt) wl.w_vt_episodes
    (sum (fun o -> o.o_steps) eps)
    (sumf (fun o -> o.o_wall) eps)
    (sumf (fun o -> o.o_ref) eps);
  print_result ~correct ~attempted:submitted ~failed:(submitted - certs)
    [
      ("certs_per_s", "1/s", float_of_int certs /. sumf (fun o -> o.o_ref) eps);
      ("lat_wall_p50_ms", "ms", percentile 0.5 lat_wall);
      ("lat_wall_p90_ms", "ms", percentile 0.9 lat_wall);
      ("lat_vt_p50", "vms", percentile 0.5 lat_vt);
      ("lat_vt_p90", "vms", percentile 0.9 lat_vt);
      ("certified_frac", "ratio", per (float_of_int certs) submitted);
      ("setup_s", "s", median setups);
      ("peak_heap_mb", "MB", median (List.map (fun o -> o.o_heap_mb) eps));
    ];
  correct

(* Traced run: the seed's episodes are driven untraced for half the time
   budget, then traced over exactly as many episodes.  Each pair must
   agree exactly on virtual latencies, steps and outcomes (tracing may
   not perturb the protocol); the traced copy's spans give the per-layer
   self times. *)
let traced_run wl ~seed ~seconds ~spans_path =
  let kernels = kernel_timings ~seed in
  let plain = drive wl ~seed ~tracer:None ~stop:(After_seconds (seconds /. 2.0, 1)) in
  let tr =
    {
      spans = Spans.create ();
      msgs = Array.make (Array.length span_names) 0;
      td = new_trace_data ();
    }
  in
  Obs_crypto.reset ();
  let traced =
    drive wl ~seed ~tracer:(Some tr) ~stop:(After_episodes (List.length plain))
  in
  let crypto = Obs_crypto.counts () in
  let written =
    match spans_path with
    | None -> 0
    | Some path ->
      let oc = open_out path in
      let k = Spans.write tr.spans oc ~cap:100_000 in
      close_out oc;
      k
  in
  let diverged =
    List.filter_map
      (fun (i, (p, t)) ->
        if p.o_lat_vt = t.o_lat_vt && p.o_steps = t.o_steps
           && p.o_certs = t.o_certs && p.o_submitted = t.o_submitted
        then None
        else
          Some
            (Printf.sprintf
               "episode %d: the traced copy diverged (steps %d vs %d, \
                certificates %d vs %d)"
               i p.o_steps t.o_steps p.o_certs t.o_certs))
      (List.mapi (fun i x -> (i, x)) (List.combine plain traced))
  in
  List.iter (fun v -> Printf.eprintf "violation: %s\n%!" v) diverged;
  let plain_ok = report_violations plain and traced_ok = report_violations traced in
  let correct = plain_ok && traced_ok && diverged = [] in
  let td = tr.td in
  let certs = sum (fun o -> o.o_certs) traced
  and submitted = sum (fun o -> o.o_submitted) traced in
  let ref_t = sumf (fun o -> o.o_ref) traced
  and ref_u = sumf (fun o -> o.o_ref) plain
  and wall_t = sumf (fun o -> o.o_wall) traced in
  let self = Spans.self_times tr.spans in
  let ms_per_cert s = per (s *. 1000.0) certs in
  let count_per_cert x = per (float_of_int x) certs in
  let covered = ref 0.0 in
  Array.iteri (fun i s -> if i <> s_request then covered := !covered +. s) self;
  let core =
    List.concat_map
      (fun (label, s) ->
        [
          (Printf.sprintf "core.%s.ms_per_cert" label, "ms", ms_per_cert self.(s));
          (Printf.sprintf "core.%s.msgs_per_cert" label, "count", count_per_cert tr.msgs.(s));
        ])
      [
        ("abc", s_abc);
        ("vba", s_vba);
        ("cbc", s_cbc);
        ("abba", s_abba);
        ("scabc", s_scabc);
        ("recov", s_recov);
      ]
  in
  let crypto name = Option.value ~default:0 (List.assoc_opt name crypto) in
  let crypto_metrics =
    List.map
      (fun name ->
        (Printf.sprintf "crypto.%s_per_cert" name, "count", count_per_cert (crypto name)))
      [
        "modexp";
        "modexp_window";
        "multi_exp";
        "fixed_base_exp";
        "share_verify";
        "verify";
        "sign";
        "combine";
        "batch_verify_size";
        "hash_to_group";
      ]
  in
  let hits = crypto "recomb_cache_hit" and misses = crypto "recomb_cache_miss" in
  let share s = 100.0 *. s /. wall_t in
  Printf.printf
    "%s seed %d traced: %d episodes, %d requests, %d certificates, %.3f \
     reference s traced vs %.3f untraced; %d spans (%d written); self-time \
     shares of %.3f wall s: sim %.1f%%, link %.1f%%, abc %.1f%%, vba %.1f%%, \
     cbc %.1f%%, abba %.1f%%, scabc %.1f%%, recov %.1f%%, services.request \
     %.1f%%, services.query %.1f%%, client.reply %.1f%%, client.submit \
     %.1f%%, total %.1f%%\n"
    wl.w_name seed (List.length traced) submitted certs ref_t ref_u
    tr.spans.Spans.len written wall_t (share self.(s_step)) (share self.(s_frame))
    (share self.(s_abc)) (share self.(s_vba)) (share self.(s_cbc))
    (share self.(s_abba)) (share self.(s_scabc)) (share self.(s_recov))
    (share self.(s_svc_request)) (share self.(s_svc_query))
    (share self.(s_reply)) (share self.(s_submit)) (share !covered);
  let fint = float_of_int in
  print_result ~correct ~attempted:submitted ~failed:(submitted - certs)
    ([
       ("sim.self_ms_per_cert", "ms", ms_per_cert self.(s_step));
       ("sim.steps_per_cert", "count", count_per_cert (sum (fun o -> o.o_steps) traced));
       ("sim.pending_peak", "count", fint td.pending_peak);
       ("sim.msgs_per_cert", "count", count_per_cert td.sim_msgs);
       ("sim.bytes_per_cert", "B", count_per_cert td.sim_bytes);
       ("link.self_ms_per_cert", "ms", ms_per_cert self.(s_frame));
       ("link.retransmits_per_cert", "count", count_per_cert td.link_retransmits);
       ("link.buffer_peak", "count", td.link_buffer_peak);
     ]
    @ core
    @ [
        ("core.abc.payloads_per_round", "count", per (fint td.delivered) td.rounds);
        ("services.request.ms_per_cert", "ms", ms_per_cert self.(s_svc_request));
        ("services.query.ms_per_cert", "ms", ms_per_cert self.(s_svc_query));
        ("services.fastpath_rate", "ratio", per (fint td.fast_hits) td.reads);
        ("services.resends_per_cert", "count", count_per_cert td.resends);
        ("services.dup_suppressed_per_cert", "count", count_per_cert td.dup_suppressed);
        ("client.reply.ms_per_cert", "ms", ms_per_cert self.(s_reply));
        ("client.submit.ms_per_cert", "ms", ms_per_cert self.(s_submit));
        ("client.rejected_replies", "count", fint td.rejected);
      ]
    @ crypto_metrics
    @ [ ("crypto.recomb_cache_hit_rate", "ratio", per (fint hits) (hits + misses)) ]
    @ kernels
    @ [
        ("gc.minor_words_per_cert", "count", per td.minor_words certs);
        ("gc.major_collections", "count", fint td.major_collections);
        (* Per episode it depends on what is in flight when the episode
           ends, which varies too much between seeds for a bound. *)
        ( "gc.retained_mb",
          "MB",
          sumf (fun o -> o.o_live_mb) traced /. fint (List.length traced) );
        ("trace.overhead_frac", "ratio", (ref_t -. ref_u) /. ref_u);
        ("trace.coverage_frac", "ratio", !covered /. wall_t);
        ("trace.wall_ms_per_cert", "ms", ms_per_cert wall_t);
      ]);
  correct

(* ---------- command line ------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--spans", Arg.Set_string spans, "FILE write traced spans here (TSV)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.w_name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S (have: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.w_name) workloads));
    exit 2
  | Some wl ->
    (* Warm the memoized group parameters so no set-up pays for the
       one-off safe-prime search. *)
    ignore (Schnorr_group.default ~bits:group_bits ());
    let ok =
      if !trace = 0 then untraced_run wl ~seed:!seed ~seconds:!seconds
      else
        traced_run wl ~seed:!seed ~seconds:!seconds
          ~spans_path:(if !spans = "" then None else Some !spans)
    in
    exit (if ok then 0 else 1)
