(* Facade tying the observability pieces together.

   An [Obs.t] is what gets threaded through the stack: a metrics
   registry plus an optional span tracer.  The [noop] instance is
   inactive — registering against it still hands back real (orphan)
   handles so call sites need no option-juggling, but snapshots are
   empty, [set_tracer] is ignored, and span calls return 0/do nothing.
   Code that conditions on [active] (Proto_io's counting send wrappers
   do) can skip instrumentation entirely in the default path. *)

type t = {
  active : bool;
  registry : Obs_registry.t;
  mutable tracer : Obs_trace.t option;
}

let create ?tracer () =
  { active = true; registry = Obs_registry.create (); tracer }

(* A shared inactive instance.  Its registry exists (so [counter] etc.
   type-check and return usable handles) but is never snapshotted by
   anyone holding only [noop], and its tracer stays [None]. *)
let noop = { active = false; registry = Obs_registry.create (); tracer = None }

let active t = t.active
let registry t = t.registry
let tracer t = if t.active then t.tracer else None

let set_tracer t tr = if t.active then t.tracer <- Some tr

(* ---------- registry conveniences ----------------------------------- *)

let counter t ?labels name = Obs_registry.counter t.registry ?labels name
let gauge t ?labels name = Obs_registry.gauge t.registry ?labels name

let histogram t ?labels name =
  Obs_registry.histogram t.registry ?labels name

let incr t ?labels ?by name =
  if t.active then Obs_registry.incr ?by (counter t ?labels name)

let observe t ?labels name v =
  if t.active then Obs_registry.observe t.registry ?labels name v

let snapshot t = Obs_registry.snapshot t.registry

(* ---------- tracer conveniences ------------------------------------- *)

(* Span id 0 means "no span": returned when tracing is off, accepted and
   ignored by [span_end]. *)
let span_begin t ?party ?src ?tag ?detail ~layer name =
  match tracer t with
  | None -> 0
  | Some tr -> Obs_trace.span_begin tr ?party ?src ?tag ?detail ~layer name

let span_end t ?detail id =
  if id > 0 then
    match tracer t with
    | None -> ()
    | Some tr -> Obs_trace.span_end tr ?detail id

(* Formats exactly when a tracer would record the detail. *)
let detailf t fmt =
  match tracer t with
  | Some _ -> Printf.ksprintf Option.some fmt
  | None -> Printf.ikfprintf (fun () -> None) () fmt

let point t ?party ?src ?tag ?detail ~layer name =
  match tracer t with
  | None -> ()
  | Some tr -> Obs_trace.point tr ?party ?src ?tag ?detail ~layer name
