(* Differential guard for the simulator's scheduler: [Sim] (indexed
   pending store, timer heap) against [Sim_ref] (the list scheduler it
   replaced), driven by identical random scripts of sends, timers,
   crashes and recoveries.  After every step both must agree on the
   event trace (deliveries, drops, timer firings), the clock, the step
   count and the pending and timer counts.

   Cells: 200 seeds x {Fifo, Random_order, Latency_order, Delay_victims}
   x {no chaos, drop+duplicate+reorder+delay, partition windows}.  One
   seed in four also injects bursts that push the pending set to several
   hundred envelopes, through multiple compactions and capacity
   doublings of the store; compactions after the pending set falls back
   shrink it again.  One more case takes the clock to infinity, where
   every [ready_at] ties. *)

let n = 4
let extra = 2
let slots = n + extra

(* The operations a script needs, closed over one simulator. *)
type ops = {
  send : src:int -> dst:int -> int -> unit;
  set_timer : int -> delay:float -> (unit -> unit) -> unit;
  set_handler : int -> (src:int -> int -> unit) -> unit;
  crash : int -> unit;
  recover : int -> unit;
  is_crashed : int -> bool;
  step : unit -> bool;
  trace : unit -> Sim.trace_event list;
  clock : unit -> float;
  steps : unit -> int;
  pending : unit -> int;
  timers : unit -> int;
}

let sim_ops (s : int Sim.t) =
  { send = (fun ~src ~dst m -> Sim.send s ~src ~dst m);
    set_timer = (fun p ~delay cb -> Sim.set_timer s p ~delay cb);
    set_handler = (fun p h -> Sim.set_handler s p h);
    crash = Sim.crash s;
    recover = Sim.recover s;
    is_crashed = Sim.is_crashed s;
    step = (fun () -> Sim.step s);
    trace = (fun () -> Sim.trace s);
    clock = (fun () -> Sim.clock s);
    steps = (fun () -> Sim.steps s);
    pending = (fun () -> Sim.pending_count s);
    timers = (fun () -> Sim.timer_count s) }

let ref_reason : Sim_ref.drop_reason -> Sim.drop_reason = function
  | Sim_ref.Crashed -> Sim.Crashed
  | Sim_ref.No_handler -> Sim.No_handler
  | Sim_ref.Chaos -> Sim.Chaos

let ref_event : Sim_ref.trace_event -> Sim.trace_event = function
  | Sim_ref.Delivered { at; src; dst; summary } ->
    Sim.Delivered { at; src; dst; summary }
  | Sim_ref.Dropped { at; src; dst; reason } ->
    Sim.Dropped { at; src; dst; reason = ref_reason reason }
  | Sim_ref.Timer_fired { at; party } -> Sim.Timer_fired { at; party }

let ref_ops (s : int Sim_ref.t) =
  { send = (fun ~src ~dst m -> Sim_ref.send s ~src ~dst m);
    set_timer = (fun p ~delay cb -> Sim_ref.set_timer s p ~delay cb);
    set_handler = (fun p h -> Sim_ref.set_handler s p h);
    crash = Sim_ref.crash s;
    recover = Sim_ref.recover s;
    is_crashed = Sim_ref.is_crashed s;
    step = (fun () -> Sim_ref.step s);
    trace = (fun () -> List.map ref_event (Sim_ref.trace s));
    clock = (fun () -> Sim_ref.clock s);
    steps = (fun () -> Sim_ref.steps s);
    pending = (fun () -> Sim_ref.pending_count s);
    timers = (fun () -> Sim_ref.timer_count s) }

(* ---------- configurations -------------------------------------------- *)

type policy = Fifo | Random_order | Latency_order | Delay_victims

let policy_label = function
  | Fifo -> "fifo"
  | Random_order -> "random"
  | Latency_order -> "latency"
  | Delay_victims -> "delay-victims"

let victims = Pset.of_list [ 0; 4 ]

let sim_policy = function
  | Fifo -> Sim.Fifo
  | Random_order -> Sim.Random_order
  | Latency_order -> Sim.Latency_order
  | Delay_victims -> Sim.Delay_victims victims

let ref_policy = function
  | Fifo -> Sim_ref.Fifo
  | Random_order -> Sim_ref.Random_order
  | Latency_order -> Sim_ref.Latency_order
  | Delay_victims -> Sim_ref.Delay_victims victims

type chaos = No_chaos | Faults | Partitions

let chaos_label = function
  | No_chaos -> "no chaos"
  | Faults -> "drop+dup+reorder+delay"
  | Partitions -> "partitions"

let fault drop duplicate reorder delay =
  { Sim.drop; Sim.duplicate; Sim.reorder; Sim.delay }

let sim_chaos = function
  | No_chaos -> None
  | Faults ->
    Some
      { Sim.default_link = fault 0.1 0.1 0.2 0.5;
        (* (1, 2) is listed twice: the first override must win *)
        links =
          [ ((1, 2), fault 0.4 0.0 0.0 2.0);
            ((2, 1), fault 0.0 0.5 0.5 0.0);
            ((1, 2), fault 0.0 0.0 0.0 0.0);
            ((0, 5), fault 0.3 0.3 0.3 1.0) ];
        partitions = [] }
  | Partitions ->
    Some
      { Sim.default_link = fault 0.05 0.05 0.1 0.0;
        links = [ ((3, 0), fault 0.2 0.0 0.0 1.5) ];
        partitions =
          [ { Sim.from_t = 50.0; until_t = 400.0;
              cells = [ Pset.of_list [ 0; 1 ] ] };
            { Sim.from_t = 300.0; until_t = 900.0;
              cells = [ Pset.singleton 2; Pset.of_list [ 3; 4 ] ] };
            (* open-ended: slot 5 is cut off for good from t = 1500 *)
            { Sim.from_t = 1500.0; until_t = infinity;
              cells = [ Pset.singleton 5 ] } ] }

let ref_fault (lf : Sim.link_fault) =
  { Sim_ref.drop = lf.Sim.drop;
    duplicate = lf.Sim.duplicate;
    reorder = lf.Sim.reorder;
    delay = lf.Sim.delay }

let ref_chaos (c : Sim.chaos) =
  { Sim_ref.default_link = ref_fault c.Sim.default_link;
    links = List.map (fun (l, lf) -> (l, ref_fault lf)) c.Sim.links;
    partitions =
      List.map
        (fun (pa : Sim.partition) ->
          { Sim_ref.from_t = pa.Sim.from_t;
            until_t = pa.Sim.until_t;
            cells = pa.Sim.cells })
        c.Sim.partitions }

(* ---------- the script ------------------------------------------------ *)

(* One script per simulator, seeded identically: as long as the two
   simulators make the same choices, their scripts make the same
   random decisions, and the first divergence shows up in the step's
   comparison. *)
type script = {
  ops : ops;
  rng : Random.State.t;
  mutable budget : int;  (* messages the script may still originate *)
  mutable next_msg : int;
}

(* Coarse delays, so that timers set together share deadlines. *)
let delays = [| 0.0; 0.0; 10.0; 25.0; 25.0; 50.0; 100.0 |]

let send_some sc ~src k =
  for _ = 1 to k do
    if sc.budget > 0 then begin
      sc.budget <- sc.budget - 1;
      sc.next_msg <- sc.next_msg + 1;
      sc.ops.send ~src ~dst:(Random.State.int sc.rng slots) sc.next_msg
    end
  done

let rec arm sc p =
  let delay = delays.(Random.State.int sc.rng (Array.length delays)) in
  sc.ops.set_timer p ~delay (fun () -> on_timer sc p)

and on_timer sc p =
  match Random.State.int sc.rng 10 with
  | 0 | 1 | 2 -> send_some sc ~src:p 1
  | 3 | 4 -> send_some sc ~src:p 2
  | 5 | 6 ->
    (* re-arm, possibly with a zero delay: must wait for the next sweep *)
    arm sc p
  | 7 -> if Random.State.int sc.rng 8 = 0 then sc.ops.crash ((p + 1) mod n)
  | _ -> ()

let on_msg sc p ~src:_ _m =
  match Random.State.int sc.rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 -> send_some sc ~src:p 1
  | 10 | 11 | 12 | 13 -> send_some sc ~src:p 2
  | 14 -> arm sc p
  | 15 ->
    (* two timers set together share a deadline *)
    arm sc p;
    arm sc p
  | 16 -> if Random.State.int sc.rng 4 = 0 then sc.ops.crash (Random.State.int sc.rng slots)
  | _ -> ()

(* The last slot never gets a handler, so deliveries to it drop. *)
let install sc p = sc.ops.set_handler p (fun ~src m -> on_msg sc p ~src m)

let make_script ops seed =
  let sc =
    { ops; rng = Random.State.make [| seed |]; budget = 500; next_msg = 0 }
  in
  for p = 0 to slots - 2 do
    install sc p
  done;
  for p = 0 to n - 1 do
    send_some sc ~src:p 6;
    arm sc p
  done;
  sc

let burst_steps = [ 5; 10; 15; 20 ]
let burst_size = 150

(* Script actions between steps: crashes, recoveries and bursts. *)
let between sc ~burst i =
  (match Random.State.int sc.rng 40 with
  | 0 -> sc.ops.crash (Random.State.int sc.rng slots)
  | 1 | 2 ->
    let p = Random.State.int sc.rng slots in
    if sc.ops.is_crashed p then begin
      sc.ops.recover p;
      if p < slots - 1 then install sc p
    end
  | _ -> ());
  if burst && List.mem i burst_steps then begin
    sc.budget <- sc.budget + burst_size;
    send_some sc ~src:(Random.State.int sc.rng slots) burst_size
  end

(* ---------- the comparison -------------------------------------------- *)

let event_to_string = function
  | Sim.Delivered { at; src; dst; summary } ->
    Printf.sprintf "delivered %h %d->%d %s" at src dst summary
  | Sim.Dropped { at; src; dst; reason } ->
    Printf.sprintf "dropped %h %d->%d %s" at src dst
      (Sim.drop_reason_label reason)
  | Sim.Timer_fired { at; party } -> Printf.sprintf "timer %h %d" at party

let rec first_diff i a b =
  match (a, b) with
  | [], [] -> None
  | x :: a', y :: b' -> if x = y then first_diff (i + 1) a' b' else Some (i, Some x, Some y)
  | x :: _, [] -> Some (i, Some x, None)
  | [], y :: _ -> Some (i, None, Some y)

let show = function None -> "<end>" | Some e -> event_to_string e

let max_steps = 250

(* Drive one (seed, policy, chaos) pair in lockstep; returns the peak
   pending count. *)
let run_pair ~seed ~policy ~chaos =
  let burst = seed mod 4 = 0 in
  let s = Sim.create ~policy:(sim_policy policy) ~extra ~n ~seed () in
  let r = Sim_ref.create ~policy:(ref_policy policy) ~extra ~n ~seed () in
  Sim.enable_trace s ~summarize:string_of_int;
  Sim_ref.enable_trace r ~summarize:string_of_int;
  Option.iter
    (fun c ->
      Sim.set_chaos s (Some c);
      Sim_ref.set_chaos r (Some (ref_chaos c)))
    (sim_chaos chaos);
  let a = make_script (sim_ops s) seed and b = make_script (ref_ops r) seed in
  let fail i what =
    Alcotest.failf "seed %d %s / %s, step %d: %s" seed (policy_label policy)
      (chaos_label chaos) i what
  in
  let peak = ref 0 in
  let rec go i =
    if i <= max_steps then begin
      between a ~burst i;
      between b ~burst i;
      peak := max !peak (a.ops.pending ());
      let pa = a.ops.step () and pb = b.ops.step () in
      if pa <> pb then fail i (Printf.sprintf "step returned %b, reference %b" pa pb);
      (match first_diff 0 (a.ops.trace ()) (b.ops.trace ()) with
      | None -> ()
      | Some (k, x, y) ->
        fail i (Printf.sprintf "trace event %d: %s, reference %s" k (show x) (show y)));
      let check what f =
        let x = f a.ops and y = f b.ops in
        if x <> y then fail i (Printf.sprintf "%s %d, reference %d" what x y)
      in
      if Int64.bits_of_float (a.ops.clock ()) <> Int64.bits_of_float (b.ops.clock ())
      then fail i (Printf.sprintf "clock %h, reference %h" (a.ops.clock ()) (b.ops.clock ()));
      check "steps" (fun o -> o.steps ());
      check "pending" (fun o -> o.pending ());
      check "timers" (fun o -> o.timers ());
      if pa then go (i + 1)
    end
  in
  go 1;
  !peak

let seeds = List.init 200 (fun i -> i + 1)

let cell policy chaos =
  Alcotest.test_case
    (Printf.sprintf "%s, %s: 200 seeds match the reference"
       (policy_label policy) (chaos_label chaos))
    `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let peak = run_pair ~seed ~policy ~chaos in
          (* the bursts put about 600 envelopes in flight; anything
             over 256 takes the store's initial 64 slots through three
             doublings *)
          if seed mod 4 = 0 && peak < 3 * burst_size then
            Alcotest.failf "seed %d: burst script peaked at only %d pending"
              seed peak)
        seeds)

(* A timer with an infinite delay takes the clock to infinity, so every
   later envelope is ready at infinity and [Latency_order] falls back to
   the newest eligible one, as the reference does. *)
let infinite_clock =
  Alcotest.test_case "latency, infinite clock: newest first like the reference"
    `Quick (fun () ->
      let s = Sim.create ~policy:Sim.Latency_order ~extra ~n ~seed:1 () in
      let r = Sim_ref.create ~policy:Sim_ref.Latency_order ~extra ~n ~seed:1 () in
      let a = sim_ops s and b = ref_ops r in
      Sim.enable_trace s ~summarize:string_of_int;
      Sim_ref.enable_trace r ~summarize:string_of_int;
      List.iter
        (fun o ->
          for p = 0 to n - 1 do
            o.set_handler p (fun ~src:_ _ -> ())
          done;
          o.set_timer 0 ~delay:infinity ignore;
          ignore (o.step ());
          List.iter (fun m -> o.send ~src:0 ~dst:(m mod n) m) [ 1; 2; 3 ];
          while o.step () do () done)
        [ a; b ];
      Alcotest.(check (list string)) "trace"
        (List.map event_to_string (b.trace ()))
        (List.map event_to_string (a.trace ()));
      Alcotest.(check int) "all delivered" 4 (List.length (a.trace ())))

let suite =
  ( "scheduler",
    List.concat_map
      (fun policy ->
        List.map (cell policy) [ No_chaos; Faults; Partitions ])
      [ Fifo; Random_order; Latency_order; Delay_victims ]
    @ [ infinite_clock ] )
