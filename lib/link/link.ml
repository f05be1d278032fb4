(* Reliable point-to-point channel layer, interposed between the typed
   protocol transport (Proto_io) and the raw network.

   The paper's architecture (Section 2.1) assumes reliable authenticated
   point-to-point links over a fully asynchronous network; the simulator's
   chaos policies deliberately break that assumption with probabilistic
   message loss.  This layer restores it the way real deployments do: a
   per-peer sliding window of sequenced DATA frames, cumulative plus
   selective ACKs, and timer-driven retransmission with exponential
   backoff and deterministic jitter, so that any message sent between two
   live, eventually-connected parties is delivered exactly once.

   Design points:
   - Frames are polymorphic in the payload type, so the same layer runs
     under the typed simulator ([Stack.deploy ?link]) and — via the
     string instantiation in {!Codec} — over a real byte transport.
   - Delivery is reliable and exactly-once but deliberately NOT ordered:
     the protocols above are asynchronous and tolerate reordering, and
     holding back out-of-order frames would add head-of-line latency the
     model does not require.  Receive state is a cumulative watermark
     plus the (window-bounded) set of out-of-order sequence numbers.
   - The retransmit buffer is bounded: at most [policy.window] unacked
     frames per peer are in flight; further sends queue in a FIFO
     backlog that drains as ACKs arrive.  An unreachable peer therefore
     back-pressures the sender (visible through the [link_buffer_peak]
     gauge and a tagged "backpressure" point) instead of flooding the
     network with an unbounded retransmit set.
   - All randomness (retransmit jitter) comes from a PRNG derived from
     [policy.seed] and the party id, so simulated runs remain exactly
     reproducible and two runs with equal seeds retransmit at equal
     virtual times. *)

type 'm frame =
  | Raw of 'm  (* unsequenced passthrough: link-off traffic, injections *)
  | Data of { seq : int; payload : 'm }
  | Ack of { cum : int; sel : int list }

let raw m = Raw m

let payload = function
  | Raw m | Data { payload = m; _ } -> Some m
  | Ack _ -> None

(* Wire-size estimates matching the {!Codec} link-frame format: magic
   (4) + kind (1), DATA adds seq (8) + length prefix (8), ACK adds cum
   (8) + count (8) + 8 bytes per selective entry.  [Raw] deliberately
   costs exactly the payload estimate, so a link-off deployment reports
   byte-identical metrics to the pre-link transport. *)
let data_overhead = 4 + 1 + 8 + 8

let ack_size sel = 4 + 1 + 8 + 8 + (8 * List.length sel)

let frame_size size = function
  | Raw m -> size m
  | Data { payload; _ } -> data_overhead + size payload
  | Ack { sel; _ } -> ack_size sel

let frame_summary summarize = function
  | Raw m -> summarize m
  | Data { seq; payload } -> Printf.sprintf "data#%d %s" seq (summarize payload)
  | Ack { cum; sel } ->
    Printf.sprintf "ack cum=%d sel=[%s]" cum
      (String.concat "," (List.map string_of_int sel))

(* ---------- policy ---------------------------------------------------- *)

type policy = {
  rto : float;
  backoff : float;
  max_rto : float;
  jitter : float;
  window : int;
  ack_delay : float;
  seed : int;
}

let default_policy =
  { rto = 300.0;
    backoff = 2.0;
    max_rto = 4_000.0;
    jitter = 0.1;
    window = 32;
    ack_delay = 0.0;
    seed = 0x114c }

let validate_policy p =
  let bad fmt = Printf.ksprintf invalid_arg ("Link.policy: " ^^ fmt) in
  if not (p.rto > 0.0) then bad "rto %g must be positive" p.rto;
  if not (p.backoff >= 1.0) then bad "backoff %g must be >= 1" p.backoff;
  if not (p.max_rto >= p.rto) then bad "max_rto %g below rto %g" p.max_rto p.rto;
  if not (p.jitter >= 0.0) then bad "jitter %g must be >= 0" p.jitter;
  if p.window < 1 then bad "window %d must be >= 1" p.window;
  if not (p.ack_delay >= 0.0) then bad "ack_delay %g must be >= 0" p.ack_delay

(* ---------- endpoint state ------------------------------------------- *)

type 'm tx = {
  mutable next_seq : int;  (* next sequence number to assign (from 1) *)
  mutable unacked : (int * 'm) list;  (* oldest first; length <= window *)
  backlog : 'm Queue.t;  (* sends beyond the window, FIFO *)
  mutable rto_cur : float;
  mutable timer_armed : bool;
}

type rx = {
  mutable cum : int;  (* every seq <= cum has been delivered *)
  mutable ooo : int list;  (* received seqs > cum, ascending *)
  mutable ack_armed : bool;  (* a delayed-ack timer is pending *)
}

type 'm t = {
  me : int;
  n : int;
  policy : policy;
  prng : Prng.t;
  txs : 'm tx array;
  rxs : rx array;
  raw_send : int -> 'm frame -> unit;
  timer : delay:float -> (unit -> unit) -> unit;
  mutable deliver : src:int -> 'm -> unit;
  obs : Obs.t;
  c_retransmit : Obs_registry.counter;
  c_dup : Obs_registry.counter;
  c_ack_bytes : Obs_registry.counter;
  g_peak : Obs_registry.gauge;
  (* registry-independent mirrors, for tests and per-endpoint queries *)
  mutable retransmits : int;
  mutable dups : int;
  mutable peak : int;
}

let create ?(obs = Obs.noop) ~policy ~me ~n ~raw_send ~timer ~deliver () =
  validate_policy policy;
  let labels = [ ("layer", "link") ] in
  { me;
    n;
    policy;
    (* Per-party stream: equal (seed, me) pairs yield equal jitter
       draws, hence equal retransmit schedules. *)
    prng = Prng.create ~seed:(policy.seed + (me * 0x9e3779b9));
    txs =
      Array.init n (fun _ ->
          { next_seq = 1;
            unacked = [];
            backlog = Queue.create ();
            rto_cur = policy.rto;
            timer_armed = false });
    rxs = Array.init n (fun _ -> { cum = 0; ooo = []; ack_armed = false });
    raw_send;
    timer;
    deliver;
    obs;
    c_retransmit = Obs.counter obs ~labels "link_retransmit";
    c_dup = Obs.counter obs ~labels "link_dup_suppressed";
    c_ack_bytes = Obs.counter obs ~labels "link_ack_bytes";
    g_peak = Obs.gauge obs ~labels "link_buffer_peak";
    retransmits = 0;
    dups = 0;
    peak = 0 }

let set_deliver t deliver = t.deliver <- deliver

(* ---------- sending side ---------------------------------------------- *)

let jittered_delay t tx =
  tx.rto_cur *. (1.0 +. (t.policy.jitter *. Prng.float t.prng))

let note_buffer t tx =
  let depth = List.length tx.unacked + Queue.length tx.backlog in
  if depth > t.peak then begin
    t.peak <- depth;
    Obs_registry.set_max t.g_peak (float_of_int depth)
  end

let send_data t dst seq m = t.raw_send dst (Data { seq; payload = m })

let rec arm_timer t dst =
  let tx = t.txs.(dst) in
  if not tx.timer_armed then begin
    tx.timer_armed <- true;
    t.timer ~delay:(jittered_delay t tx) (fun () -> on_timer t dst)
  end

and on_timer t dst =
  let tx = t.txs.(dst) in
  tx.timer_armed <- false;
  match tx.unacked with
  | [] -> ()  (* everything acked since arming: channel is idle *)
  | unacked ->
    List.iter (fun (seq, m) -> send_data t dst seq m) unacked;
    let k = List.length unacked in
    t.retransmits <- t.retransmits + k;
    Obs_registry.incr ~by:k t.c_retransmit;
    Obs.point t.obs ~party:t.me ~src:dst ~layer:"link" ~tag:"retransmit"
      ?detail:
        (Obs.detailf t.obs "peer %d: %d frames, rto %.0f" dst k tx.rto_cur)
      "retransmit";
    tx.rto_cur <- Float.min t.policy.max_rto (tx.rto_cur *. t.policy.backoff);
    arm_timer t dst

(* Admit one payload into the window and put it on the wire. *)
let admit t dst tx m =
  let seq = tx.next_seq in
  tx.next_seq <- seq + 1;
  tx.unacked <- tx.unacked @ [ (seq, m) ];
  send_data t dst seq m;
  arm_timer t dst

let send t dst m =
  if dst < 0 || dst >= t.n then
    (* Slots outside the server set (e.g. simulator client slots) have
       no link endpoint to ack; pass through unsequenced. *)
    t.raw_send dst (Raw m)
  else begin
    let tx = t.txs.(dst) in
    if List.length tx.unacked < t.policy.window then admit t dst tx m
    else begin
      (* Window full: back-pressure.  The payload waits its turn in the
         FIFO backlog; nothing new reaches the wire for this peer until
         an ACK opens the window. *)
      Queue.push m tx.backlog;
      Obs.point t.obs ~party:t.me ~src:dst ~layer:"link" ~tag:"backpressure"
        ?detail:
          (Obs.detailf t.obs "peer %d: window %d full, backlog %d" dst
             t.policy.window (Queue.length tx.backlog))
        "backpressure"
    end;
    note_buffer t tx
  end

let broadcast t m =
  for dst = 0 to t.n - 1 do
    send t dst m
  done

(* ---------- receiving side -------------------------------------------- *)

let send_ack t dst =
  let rx = t.rxs.(dst) in
  let sel = rx.ooo in
  t.raw_send dst (Ack { cum = rx.cum; sel });
  Obs_registry.incr ~by:(ack_size sel) t.c_ack_bytes

let schedule_ack t src =
  if t.policy.ack_delay <= 0.0 then send_ack t src
  else begin
    let rx = t.rxs.(src) in
    if not rx.ack_armed then begin
      rx.ack_armed <- true;
      t.timer ~delay:t.policy.ack_delay (fun () ->
          rx.ack_armed <- false;
          send_ack t src)
    end
  end

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: rest as l ->
    if x < y then x :: l
    else if x = y then l
    else y :: insert_sorted x rest

let on_data t ~src seq m =
  let rx = t.rxs.(src) in
  if seq <= rx.cum || List.mem seq rx.ooo then begin
    (* Duplicate: the sender missed our ACK (or chaos duplicated the
       frame).  Suppress, but re-ack immediately so retransmission
       stops. *)
    t.dups <- t.dups + 1;
    Obs_registry.incr t.c_dup;
    send_ack t src
  end
  else begin
    rx.ooo <- insert_sorted seq rx.ooo;
    let rec advance () =
      match rx.ooo with
      | s :: rest when s = rx.cum + 1 ->
        rx.cum <- s;
        rx.ooo <- rest;
        advance ()
      | _ -> ()
    in
    advance ();
    (* Exactly-once but unordered: deliver on first receipt. *)
    t.deliver ~src m;
    schedule_ack t src
  end

let on_ack t ~src cum sel =
  let tx = t.txs.(src) in
  let before = List.length tx.unacked in
  tx.unacked <-
    List.filter (fun (seq, _) -> seq > cum && not (List.mem seq sel)) tx.unacked;
  if List.length tx.unacked < before then
    (* Forward progress: the peer is reachable again, reset the backoff. *)
    tx.rto_cur <- t.policy.rto;
  (* Drain the backlog into the freed window. *)
  while
    List.length tx.unacked < t.policy.window
    && not (Queue.is_empty tx.backlog)
  do
    admit t src tx (Queue.pop tx.backlog)
  done;
  if tx.unacked <> [] then arm_timer t src

let handle t ~src frame =
  match frame with
  | Raw m -> t.deliver ~src m
  | Data { seq; payload } ->
    if src >= 0 && src < t.n then on_data t ~src seq payload
    else t.deliver ~src payload  (* sequenced frame from a non-peer slot *)
  | Ack { cum; sel } -> if src >= 0 && src < t.n then on_ack t ~src cum sel

(* ---------- crash-rejoin resynchronization ---------------------------- *)

(* A peer that crashed and came back has lost its endpoint: its fresh tx
   restarts at seq 1, while our rx watermark (and any of its pre-crash
   frames still in flight) remember the dead incarnation.  Naively
   resetting both sides reuses sequence numbers, and a stale in-flight
   DATA frame then occupies a seq the new incarnation will assign — its
   fresh payload would be dup-suppressed and silently lost.  The resync
   below keeps every sequence number monotone instead (TCP-style):

   - Serving side ([prepare_rejoin]): drop all tx state toward the peer
     (its dead incarnation can never ack the old frames, and the
     protocols above re-derive anything that still matters), keep
     [next_seq] so our own numbering never restarts, and fast-forward
     the rx watermark past every seq the dead incarnation could have
     emitted: at most [window] frames beyond the highest we have seen
     were ever in flight, so [maxseen + window] bounds the stale world.
   - Rejoining side ([rejoin]): adopt the resume points the peer
     reported — expect the peer's frames from its [next_seq] (so its
     stale in-flight frames land at or below our watermark and are
     suppressed as the obsolete traffic they are), and start our own
     numbering at the first seq the peer now accepts. *)

let prepare_rejoin t ~peer =
  if peer < 0 || peer >= t.n then invalid_arg "Link.prepare_rejoin";
  let tx = t.txs.(peer) and rx = t.rxs.(peer) in
  tx.unacked <- [];
  Queue.clear tx.backlog;
  tx.rto_cur <- t.policy.rto;
  let maxseen = List.fold_left max rx.cum rx.ooo in
  let restart = maxseen + t.policy.window + 1 in
  rx.cum <- restart - 1;
  rx.ooo <- [];
  (tx.next_seq, restart)

let rejoin t ~peer ~expect ~start =
  if peer < 0 || peer >= t.n then invalid_arg "Link.rejoin";
  if expect >= 1 && start >= 1 then begin
    let rx = t.rxs.(peer) and tx = t.txs.(peer) in
    rx.cum <- max rx.cum (expect - 1);
    rx.ooo <- List.filter (fun s -> s > rx.cum) rx.ooo;
    (* max keeps repeated replies for the same episode idempotent: once
       we have sent at or beyond [start], moving back would reuse seqs. *)
    tx.next_seq <- max tx.next_seq start
  end

(* ---------- introspection --------------------------------------------- *)

let in_flight t dst = List.length t.txs.(dst).unacked
let backlog t dst = Queue.length t.txs.(dst).backlog
let buffer_peak t = t.peak
let retransmits t = t.retransmits
let dup_suppressed t = t.dups
let rto_current t dst = t.txs.(dst).rto_cur
