(* Discrete-event simulator of an asynchronous network under adversarial
   scheduling.

   The model of the paper, Section 2: a static set of servers linked by
   asynchronous authenticated point-to-point channels, where the
   adversary controls the order (and, within the run, the timing) of all
   message deliveries and fully controls corrupted parties.  "The network
   is the adversary": the scheduling policy *is* the adversary's
   strategy, so safety/liveness claims become testable by quantifying
   over seeds and policies.

   Beyond the scheduling policy, a [chaos] specification injects link-
   level faults — probabilistic drop / duplication / deferral with
   per-link rates, and timed partition schedules — all drawn from a
   dedicated seeded PRNG so every run stays exactly reproducible.
   Message loss steps outside the paper's reliable-channel model, so
   under a lossy chaos spec only safety (never liveness) claims are
   meaningful; the fault campaign runner (lib/faults) tracks that
   distinction.

   Virtual time exists only to (a) drive the latency model of the benign
   scheduler and (b) let timeout-based baselines (the CL99-style
   deterministic protocol) express their failure detectors; the
   randomized protocols of the architecture never read the clock. *)

type party = int

type 'msg envelope = {
  src : party;
  dst : party;
  msg : 'msg;
  ready_at : float;  (* earliest "benign" delivery time *)
  dup : bool;  (* a chaos-made duplicate (never re-duplicated) *)
}

type policy =
  | Fifo  (** deliver in send order *)
  | Random_order  (** uniformly random pending message *)
  | Latency_order  (** benign WAN: deliver by ready_at *)
  | Delay_victims of Pset.t
      (** adversarial: messages from/to the victim set are delivered only
          when nothing else is pending *)

(* ---------- chaos: link faults and partition schedules -------------- *)

type link_fault = {
  drop : float;  (* P(delivery attempt silently loses the message) *)
  duplicate : float;  (* P(a second, re-latencied copy is enqueued) *)
  reorder : float;  (* P(the chosen message is pushed back instead) *)
  delay : float;
      (* extra latency as a multiplier on the benign draw: every latency
         on this link becomes latency * (1 + delay).  Deterministic (no
         extra PRNG draw), so delay = 0 reproduces prior schedules
         bit-for-bit. *)
}

let no_fault = { drop = 0.0; duplicate = 0.0; reorder = 0.0; delay = 0.0 }

type partition = {
  from_t : float;
  until_t : float;  (* the cut heals at [until_t] (exclusive window) *)
  cells : Pset.t list;  (* parties in no cell form one implicit cell *)
}

type chaos = {
  default_link : link_fault;
  links : ((party * party) * link_fault) list;  (* per-link overrides *)
  partitions : partition list;
}

let benign_chaos =
  { default_link = no_fault; links = []; partitions = [] }

type chaos_state = {
  spec : chaos;
  crng : Prng.t;
  faults : link_fault array;
      (* the spec's per-link faults resolved once: slot [src * slots + dst]
         holds the first override for that link, else [default_link] *)
}

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Sim.set_chaos: %s rate %g not in [0,1]" what r)

let check_fault lf =
  check_rate "drop" lf.drop;
  check_rate "duplicate" lf.duplicate;
  check_rate "reorder" lf.reorder;
  if not (lf.delay >= 0.0 && lf.delay <= 1_000.0) then
    invalid_arg
      (Printf.sprintf "Sim.set_chaos: delay factor %g not in [0,1000]" lf.delay)

(* [set_chaos] has checked that every override names a link between
   slots. *)
let resolve_faults spec ~slots =
  let faults = Array.make (slots * slots) spec.default_link in
  (* Reversed, so the first override of a link is the one that sticks. *)
  List.iter
    (fun ((src, dst), lf) -> faults.((src * slots) + dst) <- lf)
    (List.rev spec.links);
  faults

(* Cell index of a party; every party outside all listed cells shares
   the implicit cell -1, so two unlisted parties are never separated. *)
let cell_of cells p =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if Pset.mem p c then i else go (i + 1) rest
  in
  go 0 cells

let separated_by pa ~src ~dst tau =
  pa.from_t <= tau && tau < pa.until_t
  && cell_of pa.cells src <> cell_of pa.cells dst

(* Earliest time >= [tau] at which no partition separates src and dst.
   Each hop jumps to a strict-future heal time, so this terminates. *)
let rec release_at spec ~src ~dst tau =
  match
    List.find_opt (fun pa -> separated_by pa ~src ~dst tau) spec.partitions
  with
  | Some pa -> release_at spec ~src ~dst pa.until_t
  | None -> tau

(* ---------- the pending store ---------------------------------------- *)

(* Pending envelopes, indexed by insertion stamp.  Every insertion (send,
   chaos duplicate, chaos deferral) takes the next stamp, so stamp order
   is insertion order and "k-th newest" is a rank query: a Fenwick tree
   over the slots' live flags answers it, and marks removals, in
   O(log n).  When the stamps run out the live envelopes are compacted
   in order to the front of a store sized to the smallest power of two
   that leaves half of it free: it doubles after a burst and shrinks
   after a drain, so insertion stays amortised O(1) plus the tree update
   and the linear scans below walk a store that follows the live count,
   not its peak. *)
module Store = struct
  type 'e t = {
    mutable slot : 'e option array;  (* by stamp; [None] once removed *)
    mutable fen : int array;  (* Fenwick tree of live flags, 1-based *)
    mutable next : int;  (* the next unused stamp *)
    mutable live : int;
    mutable picks : int array;  (* scratch for [select], reused *)
  }

  let initial_cap = 64  (* the least capacity; a power of two *)

  let create () =
    { slot = Array.make initial_cap None;
      fen = Array.make (initial_cap + 1) 0;
      next = 0;
      live = 0;
      picks = Array.make initial_cap 0 }

  let fen_add fen i d =
    let i = ref i in
    while !i < Array.length fen do
      fen.(!i) <- fen.(!i) + d;
      i := !i + (!i land - !i)
    done

  let compact s =
    let cap = ref initial_cap in
    while !cap < 2 * s.live do
      cap := 2 * !cap
    done;
    let cap = !cap in
    let slot = Array.make cap None and fen = Array.make (cap + 1) 0 in
    let j = ref 0 in
    for i = 0 to s.next - 1 do
      match s.slot.(i) with
      | None -> ()
      | e ->
        slot.(!j) <- e;
        incr j
    done;
    (* Linear-time build: slots 1..live are live, the rest free. *)
    for i = 1 to cap do
      if i <= s.live then fen.(i) <- fen.(i) + 1;
      let up = i + (i land -i) in
      if up <= cap then fen.(up) <- fen.(up) + fen.(i)
    done;
    s.slot <- slot;
    s.fen <- fen;
    s.picks <- Array.make cap 0;
    s.next <- s.live

  let push s e =
    if s.next = Array.length s.slot then compact s;
    s.slot.(s.next) <- Some e;
    fen_add s.fen (s.next + 1) 1;
    s.next <- s.next + 1;
    s.live <- s.live + 1

  let take s stamp =
    match s.slot.(stamp) with
    | None -> invalid_arg "Sim.Store.take"
    | Some e ->
      s.slot.(stamp) <- None;
      fen_add s.fen (stamp + 1) (-1);
      s.live <- s.live - 1;
      e

  (* Stamp of the [r]-th oldest live envelope (1-based), by descending
     the Fenwick tree from its top power of two. *)
  let nth_oldest s r =
    let cap = Array.length s.slot in
    let pos = ref 0 and rem = ref r and bit = ref cap in
    while !bit > 0 do
      let up = !pos + !bit in
      if up <= cap && s.fen.(up) < !rem then begin
        pos := up;
        rem := !rem - s.fen.(up)
      end;
      bit := !bit lsr 1
    done;
    !pos

  (* Scans for the linear policies.  Each walks the stamps [0, next)
     in place, evaluates its predicate at most once per envelope and
     allocates nothing per envelope. *)

  (* [f stamp e] on every live envelope, newest first. *)
  let iter_newest s f =
    for i = s.next - 1 downto 0 do
      match s.slot.(i) with
      | Some e -> f i e
      | None -> ()
    done

  let for_all s p =
    let i = ref 0 in
    while
      !i < s.next
      && match s.slot.(!i) with Some e -> p e | None -> true
    do
      incr i
    done;
    !i = s.next

  (* Collect the stamps of the live envelopes satisfying [p], newest
     first, into [s.picks]; returns how many there are, so [s.picks.(k)]
     is the k-th newest of them. *)
  let select s p =
    let c = ref 0 in
    for i = s.next - 1 downto 0 do
      match s.slot.(i) with
      | Some e when p e ->
        s.picks.(!c) <- i;
        incr c
      | _ -> ()
    done;
    !c

  (* Stamp of the oldest live envelope satisfying [p]. *)
  let oldest s p =
    let i = ref 0 and found = ref None in
    while Option.is_none !found && !i < s.next do
      (match s.slot.(!i) with
      | Some e when p e -> found := Some !i
      | _ -> ());
      incr i
    done;
    !found
end

(* ---------- the timer queue ------------------------------------------ *)

type timer = {
  deadline : float;
  tstamp : int;  (* insertion order, the tie-break *)
  owner : party;
  callback : unit -> unit;
}

(* Binary min-heap of timers by (deadline ascending, newer stamp first on
   ties) — the order a stable sort by deadline gives a newest-first
   list.  Stamps are unique, so the pop order does not depend on the
   heap's layout. *)
module Timers = struct
  type t = {
    mutable heap : timer array;
    mutable size : int;
    mutable next : int;  (* the next timer stamp *)
  }

  let dummy = { deadline = 0.0; tstamp = 0; owner = 0; callback = ignore }
  let create () = { heap = Array.make 16 dummy; size = 0; next = 0 }

  let before a b =
    a.deadline < b.deadline || (a.deadline = b.deadline && a.tstamp > b.tstamp)

  let sift_up h i =
    let x = h.heap.(i) and i = ref i in
    while !i > 0 && before x h.heap.((!i - 1) / 2) do
      h.heap.(!i) <- h.heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.heap.(!i) <- x

  let sift_down h i =
    let x = h.heap.(i) and i = ref i and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= h.size then go := false
      else begin
        let c = if l + 1 < h.size && before h.heap.(l + 1) h.heap.(l) then l + 1 else l in
        if before h.heap.(c) x then begin
          h.heap.(!i) <- h.heap.(c);
          i := c
        end
        else go := false
      end
    done;
    h.heap.(!i) <- x

  let add h ~deadline ~owner callback =
    if h.size = Array.length h.heap then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.heap 0 bigger 0 h.size;
      h.heap <- bigger
    end;
    h.heap.(h.size) <- { deadline; tstamp = h.next; owner; callback };
    h.next <- h.next + 1;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  (* Earliest deadline, [infinity] when empty. *)
  let min_deadline h = if h.size = 0 then infinity else h.heap.(0).deadline

  let pop h =
    let top = h.heap.(0) in
    h.size <- h.size - 1;
    h.heap.(0) <- h.heap.(h.size);
    h.heap.(h.size) <- dummy;
    if h.size > 0 then sift_down h 0;
    top

  let filter h keep =
    let j = ref 0 in
    for i = 0 to h.size - 1 do
      if keep h.heap.(i) then begin
        h.heap.(!j) <- h.heap.(i);
        incr j
      end
    done;
    Array.fill h.heap !j (h.size - !j) dummy;
    h.size <- !j;
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done
end

(* ---------- events and state ---------------------------------------- *)

type 'msg handler = src:party -> 'msg -> unit

type drop_reason = Crashed | No_handler | Chaos

let drop_reason_label = function
  | Crashed -> "crashed"
  | No_handler -> "no-handler"
  | Chaos -> "chaos"

(* Optional event trace, for debugging and the CLI's --trace output. *)
type trace_event =
  | Delivered of { at : float; src : party; dst : party; summary : string }
  | Dropped of { at : float; src : party; dst : party; reason : drop_reason }
  | Timer_fired of { at : float; party : party }

type 'msg t = {
  n : int;  (* servers are parties 0 .. n-1; higher ids are clients *)
  slots : int;
  rng : Prng.t;
  mutable policy : policy;
  mutable chaos : chaos_state option;
  mutable clock : float;
  pending : 'msg envelope Store.t;
  handlers : 'msg handler option array;
  crashed : bool array;
  timers : Timers.t;
  metrics : Metrics.t;
  size : 'msg -> int;
  obs : Obs.t;
  mutable tracer : ('msg -> string) option;
  mutable trace : trace_event list;  (* newest first *)
  mutable steps_total : int;  (* completed steps over the sim's lifetime *)
  mutable stall_probe : (unit -> string) option;
      (* protocol-level diagnostics rendered into Out_of_steps *)
}

let create ?(policy = Random_order) ?(extra = 8) ?(size = fun _ -> 1)
    ?(obs = Obs.noop) ~n ~seed () : 'msg t =
  { n;
    slots = n + extra;
    rng = Prng.create ~seed;
    policy;
    chaos = None;
    clock = 0.0;
    pending = Store.create ();
    handlers = Array.make (n + extra) None;
    crashed = Array.make (n + extra) false;
    timers = Timers.create ();
    metrics = Metrics.create ~obs ();
    size;
    obs;
    tracer = None;
    trace = [];
    steps_total = 0;
    stall_probe = None }

let n t = t.n
let clock t = t.clock
let metrics t = t.metrics
let obs t = t.obs
let steps t = t.steps_total
let set_policy t p = t.policy <- p
let set_stall_probe t probe = t.stall_probe <- Some probe

let set_chaos t = function
  | None -> t.chaos <- None
  | Some spec ->
    check_fault spec.default_link;
    List.iter
      (fun ((src, dst), lf) ->
        if src < 0 || src >= t.slots || dst < 0 || dst >= t.slots then
          invalid_arg
            (Printf.sprintf "Sim.set_chaos: link (%d, %d) is not between slots"
               src dst);
        check_fault lf)
      spec.links;
    List.iter
      (fun pa ->
        if not (pa.until_t > pa.from_t) then
          invalid_arg "Sim.set_chaos: empty partition window")
      spec.partitions;
    (* The chaos PRNG is split off the scheduler's at installation time,
       so fault draws never perturb the delivery schedule itself. *)
    t.chaos <-
      Some
        { spec;
          crng = Prng.split t.rng;
          faults = resolve_faults spec ~slots:t.slots }

(* The fault spec of a link; [send] admits only links between slots. *)
let link_fault t cs ~src ~dst = cs.faults.((src * t.slots) + dst)

let set_handler t party (h : 'msg handler) =
  if party < 0 || party >= t.slots then invalid_arg "Sim.set_handler";
  (* Installing a handler on a crashed slot would silently re-arm
     delivery while the crash flag still suppresses timers — a zombie
     that receives but never times out.  The lifecycle is explicit:
     [recover] first, then install the fresh handler. *)
  if t.crashed.(party) then
    invalid_arg "Sim.set_handler: party is crashed (use Sim.recover first)";
  t.handlers.(party) <- Some h

let wrap_handler t party f =
  if party < 0 || party >= t.slots then invalid_arg "Sim.wrap_handler";
  let prev =
    match t.handlers.(party) with
    | Some h -> h
    | None -> fun ~src:_ _ -> ()
  in
  t.handlers.(party) <- Some (f prev)

let enable_trace t ~summarize = t.tracer <- Some summarize
let trace t = List.rev t.trace

let crash t party =
  t.crashed.(party) <- true;
  (* A dead node's timers are inert: purge its pending callbacks so the
     scheduler never has to consider them again (the fire-time guard in
     [fire_due_timers] stays as a second line of defence). *)
  Timers.filter t.timers (fun tm -> tm.owner <> party)

let is_crashed t party = t.crashed.(party)

(* Un-crash a party.  The slot comes back amnesiac: the crash purged its
   timers and [recover] drops its handler, so the old incarnation can
   never fire again; the caller must install a fresh handler (and any
   catch-up logic) before the party participates.  Envelopes addressed
   to the party while it was down were dropped at delivery time and stay
   dropped — recovery does not resurrect lost messages. *)
let recover t party =
  if party < 0 || party >= t.slots then invalid_arg "Sim.recover";
  if not t.crashed.(party) then invalid_arg "Sim.recover: party not crashed";
  t.crashed.(party) <- false;
  t.handlers.(party) <- None

(* Random per-message WAN latency in [10, 100) virtual milliseconds. *)
let latency t = 10.0 +. (90.0 *. Prng.float t.rng)

(* The chaos delay factor of a link (0 without chaos): a deterministic
   multiplier applied after the latency draw, so it stretches the benign
   schedule without consuming randomness. *)
let delay_factor t ~src ~dst =
  match t.chaos with
  | None -> 1.0
  | Some cs -> 1.0 +. (link_fault t cs ~src ~dst).delay

let send t ~src ~dst msg =
  if src < 0 || src >= t.slots || dst < 0 || dst >= t.slots then
    invalid_arg "Sim.send";
  Metrics.incr_sent t.metrics ~bytes:(t.size msg);
  Store.push t.pending
    { src; dst; msg;
      ready_at = t.clock +. (latency t *. delay_factor t ~src ~dst);
      dup = false }

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst msg
  done

let set_timer t party ~delay callback =
  (* A crashed party schedules nothing: without this guard, a callback
     registered after the crash (e.g. by link-layer state the protocol
     left behind) would keep the network non-quiescent forever. *)
  if not t.crashed.(party) then
    Timers.add t.timers ~deadline:(t.clock +. delay) ~owner:party callback

(* Every due timer is popped before any fires, so a timer that a firing
   callback sets (even with a zero delay) waits for the next sweep. *)
let fire_due_timers t =
  let due = ref [] in
  while t.timers.size > 0 && Timers.min_deadline t.timers <= t.clock do
    due := Timers.pop t.timers :: !due
  done;
  List.iter
    (fun tm ->
      if not t.crashed.(tm.owner) then begin
        if t.tracer <> None then
          t.trace <- Timer_fired { at = tm.deadline; party = tm.owner } :: t.trace;
        Obs.point t.obs ~party:tm.owner ~layer:"sim" "timer";
        tm.callback ()
      end)
    (List.rev !due)

let pending_count t = t.pending.live
let timer_count t = t.timers.size

(* Partition gating: an envelope is held back while an active window
   separates its endpoints at its would-be delivery time. *)
let env_release t (e : 'msg envelope) : float =
  let tau = Float.max t.clock e.ready_at in
  match t.chaos with
  | None -> tau
  | Some { spec; _ } -> release_at spec ~src:e.src ~dst:e.dst tau

let env_blocked t e = env_release t e > Float.max t.clock e.ready_at

let partitioned t =
  match t.chaos with
  | Some { spec = { partitions = _ :: _; _ }; _ } -> true
  | _ -> false

(* Pick the stamp of the next envelope to deliver.  The scheduling policy
   only ever chooses among envelopes not held back by a partition; when
   every pending message is blocked, [None] is returned and [do_step]
   advances the clock to the next unblock or timer deadline instead of
   delivering (so open-ended windows are fine: timers keep firing behind
   the cut, and a network that can never heal and has no timers simply
   quiesces).

   Without partitions nothing is blocked, so [Fifo] and [Random_order]
   are rank queries on the store; every other case scans the store,
   newest first, among the envelopes not blocked. *)
let choose t : int option =
  let s = t.pending in
  if s.live = 0 then None
  else
    let partitioned = partitioned t in
    match t.policy with
    | Fifo when not partitioned -> Some (Store.nth_oldest s 1)
    | Random_order when not partitioned ->
      (* the k-th newest is the (live - k)-th oldest *)
      let k = Prng.int t.rng s.live in
      Some (Store.nth_oldest s (s.live - k))
    | policy ->
      let eligible e = not (partitioned && env_blocked t e) in
      (match policy with
      | Fifo -> Store.oldest s eligible
      | Random_order ->
        let c = Store.select s eligible in
        if c = 0 then None else Some s.picks.(Prng.int t.rng c)
      | Latency_order ->
        (* the newest eligible envelope unless a strictly earlier one *)
        let best = ref (-1) and best_t = ref infinity in
        Store.iter_newest s (fun i e ->
            if eligible e then begin
              if !best < 0 then best := i;
              if e.ready_at < !best_t then begin
                best := i;
                best_t := e.ready_at
              end
            end);
        if !best < 0 then None else Some !best
      | Delay_victims victims ->
        let free e =
          eligible e
          && not (Pset.mem e.src victims || Pset.mem e.dst victims)
        in
        let c = Store.select s free in
        if c = 0 then Store.oldest s eligible
        else Some s.picks.(Prng.int t.rng c))

(* Under [Delay_victims], the adversary also out-waits timeouts: when
   only victim traffic remains and a timer is pending, virtual time jumps
   past the earliest deadline before any victim message is released.
   This is exactly the paper's Section 2.2 attack — "the adversary may
   simply delay the communication with a server longer than the timeout
   and the server appears faulty to the others". *)
let adversary_outwaits_timer t : bool =
  match t.policy with
  | Fifo | Random_order | Latency_order -> false
  | Delay_victims victims ->
    t.timers.size > 0
    && t.pending.live > 0
    && Store.for_all t.pending (fun e ->
           Pset.mem e.src victims || Pset.mem e.dst victims)

(* The single choke point for every kind of non-delivery, so all drop
   paths count, trace and observe identically (tagged with the reason). *)
let drop_env t reason (env : 'msg envelope) =
  Metrics.incr_drops t.metrics;
  if reason = Chaos then Metrics.incr_chaos_drops t.metrics;
  if t.tracer <> None then
    t.trace <-
      Dropped { at = t.clock; src = env.src; dst = env.dst; reason } :: t.trace;
  Obs.point t.obs ~party:env.dst ~src:env.src ~layer:"sim"
    ~tag:(drop_reason_label reason) "drop"

let deliver_env t (env : 'msg envelope) =
  if t.crashed.(env.dst) then drop_env t Crashed env
  else
    match t.handlers.(env.dst) with
    | None -> drop_env t No_handler env
    | Some h ->
      Metrics.incr_deliveries t.metrics;
      (match t.tracer with
      | Some summarize ->
        t.trace <-
          Delivered
            { at = t.clock; src = env.src; dst = env.dst;
              summary = summarize env.msg }
          :: t.trace
      | None -> ());
      h ~src:env.src env.msg

(* Take envelope [stamp] out of the store and put it through the chaos
   pipeline (defer / drop / duplicate) and delivery, advancing the clock
   to its release time first. *)
let deliver_pending t stamp : unit =
  let env = Store.take t.pending stamp in
  t.clock <- max t.clock (env_release t env);
  fire_due_timers t;
  match t.chaos with
  | None -> deliver_env t env
  | Some ({ crng; _ } as cs) ->
    let lf = link_fault t cs ~src:env.src ~dst:env.dst in
    (* Defer: push the chosen message back with a fresh latency — an
       extra reordering knob on top of the scheduling policy.  Only
       when other traffic is pending, so a lone message cannot be
       deferred forever. *)
    if lf.reorder > 0.0 && t.pending.live > 0 && Prng.float crng < lf.reorder
    then begin
      Metrics.incr_chaos_reorders t.metrics;
      Store.push t.pending
        { env with ready_at = t.clock +. (latency t *. (1.0 +. lf.delay)) }
    end
    else if lf.drop > 0.0 && Prng.float crng < lf.drop then
      drop_env t Chaos env
    else begin
      if
        lf.duplicate > 0.0 && (not env.dup)
        && Prng.float crng < lf.duplicate
      then begin
        Metrics.incr_chaos_dups t.metrics;
        Metrics.incr_sent t.metrics ~bytes:(t.size env.msg);
        Store.push t.pending
          { env with
            ready_at = t.clock +. (latency t *. (1.0 +. lf.delay));
            dup = true }
      end;
      deliver_env t env
    end

(* Jump the clock to the earliest timer deadline and fire what is due. *)
let advance_to_next_timer t =
  t.clock <- max t.clock (Timers.min_deadline t.timers);
  fire_due_timers t

(* Deliver one message.  Returns false when the network is quiescent. *)
let do_step t : bool =
  if adversary_outwaits_timer t then begin
    advance_to_next_timer t;
    true
  end
  else
  match choose t with
  | Some stamp ->
    deliver_pending t stamp;
    true
  | None when t.pending.live = 0 ->
    (* No traffic: advance time to the next timer, if any. *)
    if t.timers.size = 0 then false
    else begin
      advance_to_next_timer t;
      true
    end
  | None ->
    (* Every pending message is behind a partition.  The step becomes a
       clock advance to the next unblock or timer deadline: when a timer
       fires strictly before the earliest cut heals, virtual time jumps
       only to the deadline (protocols keep retransmitting and probing
       behind the cut instead of sleeping until the heal); otherwise the
       earliest-healing envelope goes through, jumping past the heal.
       With every window open-ended and no timers left the network is
       dead — quiesce rather than crash or spin. *)
    let next_timer = Timers.min_deadline t.timers in
    let best = ref (-1) and best_t = ref infinity in
    Store.iter_newest t.pending (fun i e ->
        let r = env_release t e in
        if r < !best_t then begin
          best := i;
          best_t := r
        end);
    if next_timer < !best_t then begin
      t.clock <- Float.max t.clock next_timer;
      fire_due_timers t;
      true
    end
    else if !best >= 0 then begin
      deliver_pending t !best;
      true
    end
    else false

let step t : bool =
  let progressed = do_step t in
  if progressed then t.steps_total <- t.steps_total + 1;
  progressed

exception
  Out_of_steps of {
    at_clock : float;
    pending : int;
    timers : int;
    detail : string;
  }

(* Run until [until ()] holds or the network is quiescent; raises
   [Out_of_steps] — carrying the clock, pending-message count, live
   timer count and the stall probe's protocol-level diagnostics (e.g.
   per-round in-flight counts of a pipelined atomic broadcast) — if the
   bound is exceeded first. *)
let run ?(max_steps = 2_000_000) ?(until = fun () -> false) t : unit =
  let steps = ref 0 in
  let rec go () =
    if until () then ()
    else if !steps >= max_steps then
      raise
        (Out_of_steps
           { at_clock = t.clock;
             pending = pending_count t;
             timers = timer_count t;
             detail =
               (match t.stall_probe with
               | None -> ""
               | Some probe -> ( try probe () with _ -> "")) })
    else begin
      incr steps;
      if step t then go () else ()
    end
  in
  go ();
  (* One observation per completed run: the histogram sum is the total
     virtual time across every sim an experiment drives. *)
  if Obs.active t.obs then
    Obs.observe t.obs ~labels:[ ("layer", "sim") ] "virtual_time" t.clock
