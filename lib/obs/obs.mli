(** Observability facade: a metrics registry plus an optional span
    tracer, threaded through the simulator and the protocol stack.

    The {!noop} instance is the default everywhere: registering against
    it still returns real handles (so call sites need no options), but
    it is never snapshotted, its tracer stays absent, and span calls
    return 0 / do nothing.  Hot paths test {!active} once and skip
    instrumentation entirely when it is false, which keeps the disabled
    cost near zero. *)

type t

val create : ?tracer:Obs_trace.t -> unit -> t
(** A fresh, active instance with its own registry. *)

val noop : t
(** The shared inactive instance. *)

val active : t -> bool
val registry : t -> Obs_registry.t

val tracer : t -> Obs_trace.t option
(** Always [None] on {!noop}. *)

val set_tracer : t -> Obs_trace.t -> unit
(** Ignored on {!noop}. *)

(** {2 Registry conveniences} *)

val counter : t -> ?labels:Obs_registry.labels -> string -> Obs_registry.counter
val gauge : t -> ?labels:Obs_registry.labels -> string -> Obs_registry.gauge
val histogram : t -> ?labels:Obs_registry.labels -> string -> Obs_histogram.t

val incr : t -> ?labels:Obs_registry.labels -> ?by:int -> string -> unit
val observe : t -> ?labels:Obs_registry.labels -> string -> float -> unit
val snapshot : t -> Obs_registry.snapshot

(** {2 Tracer conveniences}

    Span id 0 means "no span": it is what {!span_begin} returns when no
    tracer is installed, and {!span_end} ignores it, so protocol code
    can store ids unconditionally. *)

val span_begin :
  t ->
  ?party:int ->
  ?src:int ->
  ?tag:string ->
  ?detail:string ->
  layer:string ->
  string ->
  int

val span_end : t -> ?detail:string -> int -> unit

val detailf : t -> ('a, unit, string, string option) format4 -> 'a
(** [detailf t fmt args] is [Some (Printf.sprintf fmt args)] when [t]
    has a tracer and [None] without formatting otherwise: the [?detail]
    of a span or point on a hot path, so a run that records no trace
    (counters only, or disabled) builds no string. *)

val point :
  t ->
  ?party:int ->
  ?src:int ->
  ?tag:string ->
  ?detail:string ->
  layer:string ->
  string ->
  unit
