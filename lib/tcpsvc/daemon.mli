(** The tcpsvc-sim daemon: a framed binary TCP service.

    Message format: two magic bytes ['Z''Z'], a big-endian u16 tag
    length, then the tag.  The daemon checks the magic host-side (its
    accept loop) and hands the frame to the vulnerable machine code.
    It runs in the daemon host the DNS daemons share
    ({!Loader.Service}): same boot, restart and crash classification;
    what is its own is the magic check and reading the entry's return
    value as handled or rejected. *)

type disposition =
  | Handled
  | Rejected of string  (** bad magic / oversized datagram, or the patched
                            build's length check *)
  | Crashed of Machine.Outcome.stop_reason
  | Compromised of Machine.Outcome.stop_reason
  | Blocked of Machine.Outcome.stop_reason

val pp_disposition : Format.formatter -> disposition -> unit

type config = {
  patched : bool;
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;
}

type t

val create : config -> t
val process : t -> Loader.Process.t
val alive : t -> bool

val frame : tag:string -> string
(** Build a wire message carrying [tag] verbatim. *)

val handle_frame : t -> string -> disposition

val restart : t -> unit
(** Reboot the daemon after a crash (fresh address-space draw derived
    from the boot seed and restart count, as a supervisor restart would
    give). *)
