module Supervisor = Core.Supervisor

type member = { m_name : string; m_sup : Supervisor.t; m_health : Health.t }

type cell = {
  c_name : string;
  c_owner : t;
  mutable c_members : member list;  (* reverse attach order *)
  mutable c_state : [ `Ok | `Degraded | `Escalated ];
  mutable c_hook : unit -> unit;
}

and t = {
  escalate_frac : float;
  mutable cells : cell list;  (* reverse creation order *)
  mutable escalations : int;
  mutable log : (int * string * string) list;  (* most recent first *)
}

let create ?(escalate_frac = 0.35) () =
  if not (escalate_frac > 0.0 && escalate_frac <= 1.0) then
    invalid_arg "Hierarchy.create: need 0 < escalate_frac <= 1";
  { escalate_frac; cells = []; escalations = 0; log = [] }

let add_cell t ~name =
  let c =
    { c_name = name; c_owner = t; c_members = []; c_state = `Ok;
      c_hook = (fun () -> ()) }
  in
  t.cells <- c :: t.cells;
  c

let attach c ~name ~sup ~health =
  c.c_members <- { m_name = name; m_sup = sup; m_health = health } :: c.c_members

let on_escalate c hook = c.c_hook <- hook

let member_down m =
  Health.state m.m_health = Health.Quarantined || Supervisor.gave_up m.m_sup

let cell_down c = List.length (List.filter member_down c.c_members)
let cell_size c = List.length c.c_members
let cell_state c = c.c_state

let check t c ~now =
  let size = cell_size c in
  if size > 0 then begin
    let down = cell_down c in
    let frac = float_of_int down /. float_of_int size in
    let all_healthy =
      List.for_all (fun m -> Health.state m.m_health = Health.Healthy)
        c.c_members
    in
    match c.c_state with
    | `Escalated ->
        if frac <= t.escalate_frac /. 2.0 then begin
          c.c_state <- (if all_healthy then `Ok else `Degraded);
          t.log <- (now, c.c_name, "recovered") :: t.log
        end
    | `Ok | `Degraded ->
        if frac >= t.escalate_frac then begin
          c.c_state <- `Escalated;
          t.escalations <- t.escalations + 1;
          t.log <- (now, c.c_name, "escalated") :: t.log;
          c.c_hook ()
        end
        else c.c_state <- (if all_healthy then `Ok else `Degraded)
  end

let cells t = List.rev t.cells
let escalations t = t.escalations
let events t = List.rev t.log

let state_counts t =
  let count st =
    List.fold_left
      (fun acc c ->
        acc
        + List.length
            (List.filter (fun m -> Health.state m.m_health = st) c.c_members))
      0 t.cells
  in
  List.map (fun st -> (st, count st)) Health.all_states
