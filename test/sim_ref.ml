(* Reference scheduler for the differential test (test_scheduler.ml).

   A frozen copy of the list-based [Sim] that preceded the indexed
   pending store and timer heap: every step rebuilds and scans the
   newest-first pending list, and timers are a list sorted on demand.
   It defines the schedules [Sim] must reproduce byte for byte, so it is
   never edited; below this comment the file is that implementation
   verbatim. *)

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
  seq : int;
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

type chaos_state = { spec : chaos; crng : Prng.t }

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

let link_fault_for spec ~src ~dst =
  match List.assoc_opt (src, dst) spec.links with
  | Some lf -> lf
  | None -> spec.default_link

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
  mutable seq : int;
  mutable pending : 'msg envelope list;  (* newest first *)
  handlers : 'msg handler option array;
  crashed : bool array;
  mutable timers : (float * party * (unit -> unit)) list;
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
    seq = 0;
    pending = [];
    handlers = Array.make (n + extra) None;
    crashed = Array.make (n + extra) false;
    timers = [];
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
    List.iter (fun (_, lf) -> check_fault lf) spec.links;
    List.iter
      (fun pa ->
        if not (pa.until_t > pa.from_t) then
          invalid_arg "Sim.set_chaos: empty partition window")
      spec.partitions;
    (* The chaos PRNG is split off the scheduler's at installation time,
       so fault draws never perturb the delivery schedule itself. *)
    t.chaos <- Some { spec; crng = Prng.split t.rng }

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
  t.timers <- List.filter (fun (_, p, _) -> p <> party) t.timers

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
  | Some { spec; _ } -> 1.0 +. (link_fault_for spec ~src ~dst).delay

let send t ~src ~dst msg =
  if dst < 0 || dst >= t.slots then invalid_arg "Sim.send";
  Metrics.incr_sent t.metrics ~bytes:(t.size msg);
  let env =
    { seq = t.seq; src; dst; msg;
      ready_at = t.clock +. (latency t *. delay_factor t ~src ~dst);
      dup = false }
  in
  t.seq <- t.seq + 1;
  t.pending <- env :: t.pending

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst msg
  done

let set_timer t party ~delay callback =
  (* A crashed party schedules nothing: without this guard, a callback
     registered after the crash (e.g. by link-layer state the protocol
     left behind) would keep the network non-quiescent forever. *)
  if not t.crashed.(party) then
    t.timers <- (t.clock +. delay, party, callback) :: t.timers

let fire_due_timers t =
  let due, rest = List.partition (fun (d, _, _) -> d <= t.clock) t.timers in
  t.timers <- rest;
  List.iter
    (fun (d, party, cb) ->
      if not t.crashed.(party) then begin
        if t.tracer <> None then
          t.trace <- Timer_fired { at = d; party } :: t.trace;
        Obs.point t.obs ~party ~layer:"sim" "timer";
        cb ()
      end)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) due)

let pending_count t = List.length t.pending
let timer_count t = List.length t.timers

(* Partition gating: an envelope is held back while an active window
   separates its endpoints at its would-be delivery time. *)
let env_release t (e : 'msg envelope) : float =
  let tau = Float.max t.clock e.ready_at in
  match t.chaos with
  | None -> tau
  | Some { spec; _ } -> release_at spec ~src:e.src ~dst:e.dst tau

let env_blocked t e = env_release t e > Float.max t.clock e.ready_at

(* Pick the index (into [t.pending]) of the next envelope to deliver.
   The scheduling policy only ever chooses among envelopes not held back
   by a partition; when every pending message is blocked, [None] is
   returned and [do_step] advances the clock to the next unblock or
   timer deadline instead of delivering (so open-ended windows are fine:
   timers keep firing behind the cut, and a network that can never heal
   and has no timers simply quiesces). *)
let choose t : int option =
  match t.pending with
  | [] -> None
  | pending ->
    let all = List.mapi (fun i e -> (i, e)) pending in
    let eligible =
      if t.chaos = None then all
      else List.filter (fun (_, e) -> not (env_blocked t e)) all
    in
    (match eligible with
    | [] -> None
    | cands ->
      (match t.policy with
      | Fifo ->
        (* pending is newest-first; FIFO delivers the oldest eligible *)
        Some (fst (List.nth cands (List.length cands - 1)))
      | Random_order ->
        Some (fst (List.nth cands (Prng.int t.rng (List.length cands))))
      | Latency_order ->
        let best = ref 0 and best_t = ref infinity in
        List.iter
          (fun (i, e) ->
            if e.ready_at < !best_t then begin
              best := i;
              best_t := e.ready_at
            end)
          cands;
        Some !best
      | Delay_victims victims ->
        let touched e = Pset.mem e.src victims || Pset.mem e.dst victims in
        let free = List.filter (fun (_, e) -> not (touched e)) cands in
        (match free with
        | [] -> Some (fst (List.nth cands (List.length cands - 1)))
        | _ ->
          let k = Prng.int t.rng (List.length free) in
          Some (fst (List.nth free k)))))

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
    t.timers <> []
    && t.pending <> []
    && List.for_all
         (fun e -> Pset.mem e.src victims || Pset.mem e.dst victims)
         t.pending

let remove_nth l k =
  let rec go i acc = function
    | [] -> invalid_arg "Sim.remove_nth"
    | x :: rest ->
      if i = k then (x, List.rev_append acc rest) else go (i + 1) (x :: acc) rest
  in
  go 0 [] l

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

(* Remove envelope [k] from the queue and put it through the chaos
   pipeline (defer / drop / duplicate) and delivery, advancing the clock
   to its release time first. *)
let deliver_pending t k : unit =
  let env, rest = remove_nth t.pending k in
  t.pending <- rest;
  t.clock <- max t.clock (env_release t env);
  fire_due_timers t;
  match t.chaos with
  | None -> deliver_env t env
  | Some { spec; crng } ->
    let lf = link_fault_for spec ~src:env.src ~dst:env.dst in
    (* Defer: push the chosen message back with a fresh latency — an
       extra reordering knob on top of the scheduling policy.  Only
       when other traffic is pending, so a lone message cannot be
       deferred forever. *)
    if lf.reorder > 0.0 && t.pending <> [] && Prng.float crng < lf.reorder then begin
      Metrics.incr_chaos_reorders t.metrics;
      t.pending <-
        { env with
          ready_at = t.clock +. (latency t *. (1.0 +. lf.delay)) }
        :: t.pending
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
        t.pending <-
          { env with
            seq = t.seq;
            ready_at = t.clock +. (latency t *. (1.0 +. lf.delay));
            dup = true }
          :: t.pending;
        t.seq <- t.seq + 1
      end;
      deliver_env t env
    end

(* Deliver one message.  Returns false when the network is quiescent. *)
let do_step t : bool =
  if adversary_outwaits_timer t then begin
    match List.sort (fun (a, _, _) (b, _, _) -> compare a b) t.timers with
    | [] -> assert false
    | (d, _, _) :: _ ->
      t.clock <- max t.clock d;
      fire_due_timers t;
      true
  end
  else
  match choose t with
  | Some k ->
    deliver_pending t k;
    true
  | None when t.pending = [] ->
    (* No traffic: advance time to the next timer, if any. *)
    (match List.sort (fun (a, _, _) (b, _, _) -> compare a b) t.timers with
    | [] -> false
    | (d, _, _) :: _ ->
      t.clock <- max t.clock d;
      fire_due_timers t;
      true)
  | None ->
    (* Every pending message is behind a partition.  The step becomes a
       clock advance to the next unblock or timer deadline: when a timer
       fires strictly before the earliest cut heals, virtual time jumps
       only to the deadline (protocols keep retransmitting and probing
       behind the cut instead of sleeping until the heal); otherwise the
       earliest-healing envelope goes through, jumping past the heal.
       With every window open-ended and no timers left the network is
       dead — quiesce rather than crash or spin. *)
    let next_timer =
      List.fold_left (fun acc (d, _, _) -> Float.min acc d) infinity t.timers
    in
    let best = ref (-1) and best_t = ref infinity in
    List.iteri
      (fun i e ->
        let r = env_release t e in
        if r < !best_t then begin
          best := i;
          best_t := r
        end)
      t.pending;
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
             pending = List.length t.pending;
             timers = List.length t.timers;
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
