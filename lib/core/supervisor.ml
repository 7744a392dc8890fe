module Sim = Netsim.Sim
module Rng = Memsim.Rng

type backoff = {
  initial_us : int;
  multiplier : float;
  max_us : int;
  jitter : float;
}

let default_backoff =
  { initial_us = 100_000; multiplier = 2.0; max_us = 10_000_000; jitter = 0.1 }

type policy = { backoff : backoff; burst : int; window_us : int }

let default_policy = { backoff = default_backoff; burst = 4; window_us = 30_000_000 }

type event_kind =
  | Crash_detected of int
  | Restart_scheduled of int
  | Restarted
  | Gave_up
  | Revived

type event = { at : int; kind : event_kind }

let pp_event ppf e =
  match e.kind with
  | Crash_detected n ->
      Format.fprintf ppf "[%8dus] crash detected (%d in window)" e.at n
  | Restart_scheduled d ->
      Format.fprintf ppf "[%8dus] restart scheduled in %dus" e.at d
  | Restarted -> Format.fprintf ppf "[%8dus] restarted" e.at
  | Gave_up -> Format.fprintf ppf "[%8dus] crash loop: giving up" e.at
  | Revived -> Format.fprintf ppf "[%8dus] revived: crash-loop state cleared" e.at

type t = {
  sim : Sim.t;
  alive : unit -> bool;
  restart : unit -> unit;
  policy : policy;
  sup_name : string;
  on_event : event -> unit;
  mutable st : [ `Watching | `Waiting_restart | `Gave_up ];
  mutable restarts : int;
  mutable crashes : int;
  mutable next_delay_us : int;
  mutable crash_times : int list;  (* most recent first, pruned to window *)
  mutable log : event list;  (* most recent first *)
  mutable trace : Telemetry.Trace.t option;
  mutable monitor : Telemetry.Monitor.t option;
}

let supervise ?(policy = default_policy) ?name ?(on_event = ignore) ~kind ~alive
    ~restart sim =
  {
    sim;
    alive;
    restart;
    policy;
    sup_name = Option.value name ~default:kind;
    on_event;
    st = `Watching;
    restarts = 0;
    crashes = 0;
    next_delay_us = policy.backoff.initial_us;
    crash_times = [];
    log = [];
    trace = None;
    monitor = None;
  }

let name t = t.sup_name
let state t = t.st
let restarts t = t.restarts
let crashes t = t.crashes
let gave_up t = t.st = `Gave_up
let events t = List.rev t.log

let set_trace t tr = t.trace <- tr
let set_monitor t m = t.monitor <- m

let record t kind =
  let e = { at = Sim.now t.sim; kind } in
  t.log <- e :: t.log;
  (match t.trace with
  | None -> ()
  | Some tr ->
      let module Tr = Telemetry.Trace in
      Tr.set_now tr e.at;
      let name, args =
        match kind with
        | Crash_detected n -> ("crash-detected", [ ("in_window", Tr.I n) ])
        | Restart_scheduled d -> ("restart-scheduled", [ ("delay_us", Tr.I d) ])
        | Restarted -> ("restarted", [ ("restarts", Tr.I t.restarts) ])
        | Gave_up -> ("gave-up", [ ("crashes", Tr.I t.crashes) ])
        | Revived -> ("revived", [ ("restarts", Tr.I t.restarts) ])
      in
      Tr.emit tr ~ts:e.at ~cat:"supervisor" ~track:t.sup_name name ~args);
  (match t.monitor with
  | None -> ()
  | Some m ->
      let kname, detail =
        match kind with
        | Crash_detected n -> ("crash_detected", Printf.sprintf "%d in window" n)
        | Restart_scheduled d -> ("restart_scheduled", Printf.sprintf "delay=%dus" d)
        | Restarted -> ("restarted", Printf.sprintf "restarts=%d" t.restarts)
        | Gave_up -> ("gave_up", Printf.sprintf "crashes=%d" t.crashes)
        | Revived -> ("revived", "")
      in
      Telemetry.Monitor.journal m ~ts:e.at ~source:"supervisor" ~actor:t.sup_name
        ~detail kname);
  t.on_event e

let jittered_delay t =
  let b = t.policy.backoff in
  let base = t.next_delay_us in
  if b.jitter <= 0.0 then base
  else
    let span = int_of_float (float_of_int base *. b.jitter) in
    base + Rng.int (Sim.rng t.sim) (max 1 span)

let grow_backoff t =
  let b = t.policy.backoff in
  t.next_delay_us <-
    min b.max_us
      (max b.initial_us (int_of_float (float_of_int t.next_delay_us *. b.multiplier)))

let do_restart t _sim =
  if t.st = `Waiting_restart then begin
    t.restart ();
    t.restarts <- t.restarts + 1;
    t.st <- `Watching;
    record t Restarted
  end

let notify t =
  match t.st with
  | `Gave_up | `Waiting_restart -> ()
  | `Watching ->
      let now = Sim.now t.sim in
      let fresh = List.filter (fun at -> now - at <= t.policy.window_us) t.crash_times in
      if t.alive () then begin
        (* A quiet window earns a backoff reset, like systemd clearing
           its start counter after StartLimitInterval. *)
        if fresh = [] then t.next_delay_us <- t.policy.backoff.initial_us;
        t.crash_times <- fresh
      end
      else begin
        t.crash_times <- now :: fresh;
        t.crashes <- t.crashes + 1;
        let in_window = List.length t.crash_times in
        record t (Crash_detected in_window);
        if in_window > t.policy.burst then begin
          t.st <- `Gave_up;
          record t Gave_up
        end
        else begin
          let delay = jittered_delay t in
          grow_backoff t;
          t.st <- `Waiting_restart;
          record t (Restart_scheduled delay);
          Sim.schedule t.sim ~delay (do_restart t)
        end
      end

(* Quarantine's road back: a crash-loop verdict stops being terminal the
   moment an operator (or the fleet health machine) decides the device
   deserves another chance.  Everything the verdict was built on —
   window, backoff growth, pending-restart state — is discarded so the
   next crash is judged afresh; a dead daemon is restarted immediately
   rather than waiting out a stale backoff delay. *)
let revive t =
  t.st <- `Watching;
  t.next_delay_us <- t.policy.backoff.initial_us;
  t.crash_times <- [];
  record t Revived;
  if not (t.alive ()) then begin
    t.restart ();
    t.restarts <- t.restarts + 1;
    record t Restarted
  end

let register_metrics t reg =
  let labels = [ ("supervisor", t.sup_name) ] in
  Telemetry.Metrics.probe reg ~labels ~kind:`Counter
    ~help:"daemon restarts performed" "supervisor_restarts_total" (fun () ->
      float_of_int t.restarts);
  Telemetry.Metrics.probe reg ~labels ~kind:`Counter
    ~help:"crashes detected" "supervisor_crashes_total" (fun () ->
      float_of_int t.crashes);
  Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
    ~help:"1 if the supervisor entered the crash-loop give-up state"
    "supervisor_gave_up" (fun () -> if gave_up t then 1.0 else 0.0)

module Retry = struct
  let run sim ~attempts ~timeout_us ~attempt ~still_needed =
    if attempts <= 0 then
      invalid_arg "Supervisor.Retry.run: attempts must be positive";
    if timeout_us <= 0 then
      invalid_arg "Supervisor.Retry.run: timeout_us must be positive";
    let rec step i =
      attempt i;
      if i + 1 < attempts then
        Sim.schedule sim ~delay:timeout_us (fun _ ->
            if still_needed () then step (i + 1))
    in
    step 0
end
