(** Metrics registry: counters, gauges, and histograms with labels, and
    Prometheus-style text exposition.

    Two registration styles:

    - {e push}: {!counter}/{!gauge}/{!histogram} return an instrument the
      caller updates ({!inc}, {!set}, {!observe});
    - {e pull}: {!probe} registers a closure sampled at {!expose} time —
      this is how the existing ad-hoc stats records ([Dns.Cache.stats],
      the [Netsim.World] fate counters, supervisor restart counts,
      icache hit/miss totals) join the registry without changing their
      own bookkeeping.

    Registering the same (name, labels) pair again replaces the earlier
    series.  {!expose} renders series grouped by name in alphabetical
    order with fixed number formatting, so a deterministic run exposes
    deterministic bytes. *)

type t

val create : unit -> t

type counter
type gauge
type histogram

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val inc : ?by:float -> counter -> unit

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float list ->
  string ->
  histogram
(** [buckets] are upper bounds (a [+Inf] bucket is implicit); the default
    is decades 1 .. 1e6 — suited to instruction counts and µs. *)

val observe : histogram -> float -> unit

val probe :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  kind:[ `Counter | `Gauge ] ->
  string ->
  (unit -> float) ->
  unit
(** Pull-style series: the closure is called at {!expose} time. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1], clamped) by linear
    interpolation over the bucket bounds, Prometheus
    [histogram_quantile]-style: the rank [q * count] is located in the
    cumulative bucket counts and interpolated between the bucket's lower
    and upper bound (the lowest bucket interpolates from 0).  Ranks that
    land in the overflow bucket clamp to the largest finite bound.
    Returns [nan] on an empty histogram. *)

type sample =
  | Value of float
  | Hist of { cumulative : (float * int) list; sum : float; count : int }
      (** [cumulative] pairs each finite upper bound with the cumulative
          count at-or-below it; [count] includes the overflow bucket. *)

val sample_quantile : sample -> float -> float
(** {!quantile} over a scraped {!Hist} sample; [nan] for a {!Value}. *)

val samples : t -> (string * (string * string) list * string * sample) list
(** One [(name, labels, type, sample)] per registered series, sampled
    now, in exposition order (names alphabetical, registration order
    within a name).  This is the scrape surface used by [Monitor]. *)

val expose : t -> string
(** Prometheus text exposition format: [# HELP] / [# TYPE] per metric
    name, then one line per labelled series ([_bucket]/[_sum]/[_count]
    for histograms). *)
