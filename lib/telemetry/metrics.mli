(** Metrics registry: labelled counter and gauge series, and
    Prometheus-style text exposition.

    One registration style: {!probe} registers a closure sampled at
    scrape time.  This is how every stats record ([Dns.Cache.stats],
    the [Netsim.World] fate counters, supervisor restart counts, oracle
    reports, fleet totals) joins the registry without changing its own
    bookkeeping; a test that wants a series it can move registers a
    probe over a ref.

    Registering the same (name, labels) pair again replaces the earlier
    series.  {!expose} renders series grouped by name in alphabetical
    order with fixed number formatting, so a deterministic run exposes
    deterministic bytes. *)

type t

val create : unit -> t

val probe :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  kind:[ `Counter | `Gauge ] ->
  string ->
  (unit -> float) ->
  unit
(** The closure is called at every {!samples} and {!expose}. *)

type sample = Value of float

val samples : t -> (string * (string * string) list * string * sample) list
(** One [(name, labels, type, sample)] per registered series, sampled
    now, in exposition order (names alphabetical, registration order
    within a name).  This is the scrape surface used by [Monitor]. *)

val expose : t -> string
(** Prometheus text exposition format: [# HELP] / [# TYPE] per metric
    name, then one line per labelled series. *)
