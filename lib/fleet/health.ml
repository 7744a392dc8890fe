type state = Healthy | Degraded | Quarantined | Reintroduced

let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"
  | Reintroduced -> "reintroduced"

let all_states = [ Healthy; Degraded; Quarantined; Reintroduced ]

type cause =
  | Crashed
  | Compromised
  | Crash_loop
  | Cell_escalated
  | Probe_ok
  | Probation_over

type config = { quarantine_crashes : int; window_us : int; probation_us : int }

let default_config =
  { quarantine_crashes = 3; window_us = 10_000_000; probation_us = 15_000_000 }

type transition = { at : int; from_state : state; to_state : state; cause : cause }

type t = {
  cfg : config;
  mutable st : state;
  mutable crash_times : int list;  (* most recent first, pruned to window *)
  mutable log : transition list;  (* most recent first *)
  mutable quarantines : int;
  mutable reintroductions : int;
}

let create ?(config = default_config) () =
  if config.quarantine_crashes < 1 then
    invalid_arg "Health.create: quarantine_crashes must be positive";
  if config.window_us < 0 || config.probation_us < 0 then
    invalid_arg "Health.create: windows must be non-negative";
  { cfg = config; st = Healthy; crash_times = []; log = [];
    quarantines = 0; reintroductions = 0 }

let config t = t.cfg
let state t = t.st
let transitions t = List.rev t.log
let quarantines t = t.quarantines
let reintroductions t = t.reintroductions

let goto t ~now cause st =
  if st <> t.st then begin
    t.log <- { at = now; from_state = t.st; to_state = st; cause } :: t.log;
    (match st with
    | Quarantined -> t.quarantines <- t.quarantines + 1
    | Reintroduced -> t.reintroductions <- t.reintroductions + 1
    | Healthy | Degraded -> ());
    t.st <- st
  end

let observe t ~now cause =
  (match (t.st, cause) with
  | Quarantined, Probation_over -> goto t ~now cause Reintroduced
  | Quarantined, _ -> ()  (* sitting out: only probation ends it *)
  | _, Probation_over -> ()
  | _, (Compromised | Crash_loop) ->
      t.crash_times <- [];
      goto t ~now cause Quarantined
  | Degraded, Cell_escalated ->
      t.crash_times <- [];
      goto t ~now cause Quarantined
  | _, Cell_escalated -> ()
  | _, Crashed ->
      let fresh =
        List.filter (fun at -> now - at <= t.cfg.window_us) t.crash_times
      in
      t.crash_times <- now :: fresh;
      if List.length t.crash_times >= t.cfg.quarantine_crashes then begin
        t.crash_times <- [];
        goto t ~now cause Quarantined
      end
      else goto t ~now cause Degraded
  | (Degraded | Reintroduced), Probe_ok ->
      t.crash_times <- [];
      goto t ~now cause Healthy
  | Healthy, Probe_ok ->
      t.crash_times <-
        List.filter (fun at -> now - at <= t.cfg.window_us) t.crash_times);
  t.st
