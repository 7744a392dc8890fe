(* Campaign flight recorder.  See monitor.mli for the contract; the two
   load-bearing properties are (1) scrapes are driven by the sim clock at
   world barriers, after every event up to the barrier time, and (2) every
   export path orders by explicit deterministic keys — no Hashtbl
   iteration order, no wall clock, no global emission sequence. *)

(* --- store --------------------------------------------------------------- *)

type point = {
  p_ts : int;
  p_last : float;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_count : int;
}

(* Fixed-capacity ring with pairwise-merge downsampling: points [0..len-1]
   are chronological; every point except possibly the last covers [stride]
   scrapes ([fill] tracks the last point's coverage).  When the array
   fills, adjacent points merge pairwise and the stride doubles — capacity
   stays bounded while the window keeps extending. *)
type sstore = {
  ss_typ : string;
  ss_pts : point array;
  mutable ss_len : int;
  mutable ss_stride : int;
  mutable ss_fill : int;  (* scrapes merged into the last point *)
}

let zero_point = { p_ts = 0; p_last = 0.; p_sum = 0.; p_min = 0.; p_max = 0.; p_count = 0 }

let merge_points a b =
  {
    p_ts = b.p_ts;
    p_last = b.p_last;
    p_sum = a.p_sum +. b.p_sum;
    p_min = min a.p_min b.p_min;
    p_max = max a.p_max b.p_max;
    p_count = a.p_count + b.p_count;
  }

let sstore_create ~cap typ =
  { ss_typ = typ; ss_pts = Array.make cap zero_point; ss_len = 0; ss_stride = 1; ss_fill = 0 }

let sstore_append ss ~ts v =
  let fresh = { p_ts = ts; p_last = v; p_sum = v; p_min = v; p_max = v; p_count = 1 } in
  if ss.ss_len > 0 && ss.ss_fill < ss.ss_stride then begin
    ss.ss_pts.(ss.ss_len - 1) <- merge_points ss.ss_pts.(ss.ss_len - 1) fresh;
    ss.ss_fill <- ss.ss_fill + 1
  end
  else begin
    if ss.ss_len = Array.length ss.ss_pts then begin
      let half = ss.ss_len / 2 in
      for i = 0 to half - 1 do
        ss.ss_pts.(i) <- merge_points ss.ss_pts.(2 * i) ss.ss_pts.((2 * i) + 1)
      done;
      ss.ss_len <- half;
      ss.ss_stride <- ss.ss_stride * 2
    end;
    ss.ss_pts.(ss.ss_len) <- fresh;
    ss.ss_len <- ss.ss_len + 1;
    ss.ss_fill <- 1
  end

let sstore_points ss = Array.to_list (Array.sub ss.ss_pts 0 ss.ss_len)

(* Latest point with p_ts <= ts; falls back to the oldest retained point
   when the window has already been downsampled past [ts]. *)
let sstore_at ss ts =
  if ss.ss_len = 0 then None
  else begin
    let found = ref None in
    (try
       for i = ss.ss_len - 1 downto 0 do
         if ss.ss_pts.(i).p_ts <= ts then begin
           found := Some ss.ss_pts.(i);
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end

let sstore_oldest ss = if ss.ss_len = 0 then None else Some ss.ss_pts.(0)
let sstore_newest ss = if ss.ss_len = 0 then None else Some ss.ss_pts.(ss.ss_len - 1)

(* --- expressions --------------------------------------------------------- *)

type selector = { sel_name : string; sel_labels : (string * string) list }

type expr =
  | Const of float
  | Series of selector
  | Rate of selector * int
  | Delta of selector * int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type cmp = Gt | Lt | Ge | Le

(* --- rules --------------------------------------------------------------- *)

type rrule = { rr_name : string; rr_expr : expr }

type alert_state = Inactive | Pending | Firing

let state_name = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Firing -> "firing"

type transition = {
  tr_ts : int;
  tr_rule : string;
  tr_from : alert_state;
  tr_to : alert_state;
  tr_value : float;
}

type episode = {
  ep_rule : string;
  ep_pending : int;
  mutable ep_firing : int;
  mutable ep_resolved : int;
  mutable ep_peak : float;
}

type arule = {
  ar_name : string;
  ar_expr : expr;
  ar_cmp : cmp;
  ar_thr : float;
  ar_for : int;
  ar_clear : float;
  mutable ar_state : alert_state;
  mutable ar_since : int;  (* ts the current episode entered pending *)
  mutable ar_episode : episode option;
  mutable ar_last : float;
}

(* --- journal ------------------------------------------------------------- *)

type entry = {
  e_ts : int;
  e_source : string;
  e_kind : string;
  e_actor : string;
  e_detail : string;
}

type jrec = { jr_entry : entry; jr_ord : int (* per-actor ordinal *) }

let device_sources = [ "net"; "daemon"; "health"; "supervisor" ]

(* --- monitor ------------------------------------------------------------- *)

type t = {
  reg : Metrics.t;
  ival : int;
  cap : int;
  lookback : int;
  stores : (string, sstore) Hashtbl.t;  (* key = name ^ rendered labels *)
  mutable order : (string * (string * string) list * string) list;
      (* (name, labels, key), insertion order — never iterate [stores] *)
  mutable records : rrule list;  (* reverse declaration order *)
  mutable alerts : arule list;  (* reverse declaration order *)
  mutable trans : transition list;  (* reverse chronological *)
  mutable episodes : episode list;  (* reverse chronological *)
  jring : jrec array;
  mutable jstart : int;
  mutable jlen : int;
  mutable jtotal : int;
  jords : (string, int) Hashtbl.t;
  mutable nscrapes : int;
  mutable last_ts : int;
  mutable trace : Trace.t option;
}

let dummy_jrec =
  { jr_entry = { e_ts = 0; e_source = ""; e_kind = ""; e_actor = ""; e_detail = "" }; jr_ord = 0 }

let journal_cap = 131072

let create ?(interval_us = 1_000_000) ?(points = 512) reg =
  if interval_us <= 0 then invalid_arg "Monitor.create: interval_us must be positive";
  if points < 2 then invalid_arg "Monitor.create: points must be >= 2";
  let points = if points land 1 = 1 then points + 1 else points in
  {
    reg;
    ival = interval_us;
    cap = points;
    lookback = 2 * interval_us;
    stores = Hashtbl.create 64;
    order = [];
    records = [];
    alerts = [];
    trans = [];
    episodes = [];
    jring = Array.make journal_cap dummy_jrec;
    jstart = 0;
    jlen = 0;
    jtotal = 0;
    jords = Hashtbl.create 64;
    nscrapes = 0;
    last_ts = -1;
    trace = None;
  }

let registry t = t.reg
let interval_us t = t.ival
let set_trace t tr = t.trace <- tr
let scrapes t = t.nscrapes
let last_scrape_us t = t.last_ts

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") labels)
      ^ "}"

let skey name labels = name ^ render_labels labels

let store_for t name labels typ =
  let key = skey name labels in
  match Hashtbl.find_opt t.stores key with
  | Some ss -> ss
  | None ->
      let ss = sstore_create ~cap:t.cap typ in
      Hashtbl.add t.stores key ss;
      t.order <- (name, labels, key) :: t.order;
      ss

let store_append t name labels typ ~ts v =
  let v = if Float.is_finite v then v else 0.0 in
  sstore_append (store_for t name labels typ) ~ts v

(* --- queries ------------------------------------------------------------- *)

let find_store t name labels = Hashtbl.find_opt t.stores (skey name labels)

let points t ?(labels = []) name =
  match find_store t name labels with
  | None -> []
  | Some ss -> sstore_points ss

let value_at t ?(labels = []) name ts =
  match find_store t name labels with
  | None -> None
  | Some ss -> Option.map (fun p -> p.p_last) (sstore_at ss ts)

let window_ends ss ~now ~window_us =
  match sstore_newest ss with
  | None -> None
  | Some p1 ->
      let p0 =
        match sstore_at ss (now - window_us) with
        | Some p -> p
        | None -> Option.get (sstore_oldest ss)
      in
      Some (p0, p1)

let rate_of ss ~now ~window_us =
  match window_ends ss ~now ~window_us with
  | None -> 0.0
  | Some (p0, p1) ->
      let dt = p1.p_ts - p0.p_ts in
      if dt <= 0 then 0.0
      else (p1.p_last -. p0.p_last) /. (float_of_int dt /. 1e6)

let delta_of ss ~now ~window_us =
  match window_ends ss ~now ~window_us with
  | None -> 0.0
  | Some (p0, p1) -> if p1.p_ts <= p0.p_ts then 0.0 else p1.p_last -. p0.p_last

let rate_over t ?(labels = []) name ~now ~window_us =
  match find_store t name labels with
  | None -> 0.0
  | Some ss -> rate_of ss ~now ~window_us

let delta_over t ?(labels = []) name ~now ~window_us =
  match find_store t name labels with
  | None -> 0.0
  | Some ss -> delta_of ss ~now ~window_us

(* --- evaluation ---------------------------------------------------------- *)

let labels_match sel_labels labels =
  List.for_all (fun (k, v) -> List.assoc_opt k labels = Some v) sel_labels

let matching_stores t sel =
  List.filter_map
    (fun (name, labels, key) ->
      if name = sel.sel_name && labels_match sel.sel_labels labels then
        Hashtbl.find_opt t.stores key
      else None)
    (List.rev t.order)

let rec eval t ~now e =
  let v =
    match e with
    | Const c -> c
    | Series sel ->
        List.fold_left
          (fun acc ss ->
            match sstore_newest ss with Some p -> acc +. p.p_last | None -> acc)
          0.0 (matching_stores t sel)
    | Rate (sel, w) ->
        List.fold_left
          (fun acc ss -> acc +. rate_of ss ~now ~window_us:w)
          0.0 (matching_stores t sel)
    | Delta (sel, w) ->
        List.fold_left
          (fun acc ss -> acc +. delta_of ss ~now ~window_us:w)
          0.0 (matching_stores t sel)
    | Add (a, b) -> eval t ~now a +. eval t ~now b
    | Sub (a, b) -> eval t ~now a -. eval t ~now b
    | Mul (a, b) -> eval t ~now a *. eval t ~now b
    | Div (a, b) ->
        let d = eval t ~now b in
        if d = 0.0 then 0.0 else eval t ~now a /. d
  in
  if Float.is_finite v then v else 0.0

(* --- rules --------------------------------------------------------------- *)

let record t ~name expr = t.records <- { rr_name = name; rr_expr = expr } :: t.records

let alert t ~name ?(for_us = 0) ?clear ~cmp ~threshold expr =
  let clear = match clear with Some c -> c | None -> threshold in
  t.alerts <-
    {
      ar_name = name;
      ar_expr = expr;
      ar_cmp = cmp;
      ar_thr = threshold;
      ar_for = max 0 for_us;
      ar_clear = clear;
      ar_state = Inactive;
      ar_since = 0;
      ar_episode = None;
      ar_last = 0.0;
    }
    :: t.alerts

let breaches cmp thr v =
  match cmp with Gt -> v > thr | Lt -> v < thr | Ge -> v >= thr | Le -> v <= thr

(* Hysteresis: a firing alert resolves only once the value crosses the
   clear threshold on the non-breaching side (inclusive). *)
let cleared cmp clear v =
  match cmp with Gt | Ge -> v <= clear | Lt | Le -> v >= clear

let more_breaching cmp a b = match cmp with Gt | Ge -> max a b | Lt | Le -> min a b

let transition t ~now ar to_state v =
  t.trans <-
    { tr_ts = now; tr_rule = ar.ar_name; tr_from = ar.ar_state; tr_to = to_state; tr_value = v }
    :: t.trans;
  ar.ar_state <- to_state

let step_alert t ~now ar =
  let v = eval t ~now ar.ar_expr in
  ar.ar_last <- v;
  (match ar.ar_episode with
  | Some ep when ar.ar_state <> Inactive -> ep.ep_peak <- more_breaching ar.ar_cmp ep.ep_peak v
  | _ -> ());
  match ar.ar_state with
  | Inactive ->
      if breaches ar.ar_cmp ar.ar_thr v then begin
        let ep =
          { ep_rule = ar.ar_name; ep_pending = now; ep_firing = -1; ep_resolved = -1; ep_peak = v }
        in
        ar.ar_episode <- Some ep;
        t.episodes <- ep :: t.episodes;
        ar.ar_since <- now;
        if ar.ar_for = 0 then begin
          ep.ep_firing <- now;
          transition t ~now ar Firing v
        end
        else transition t ~now ar Pending v
      end
  | Pending ->
      if not (breaches ar.ar_cmp ar.ar_thr v) then begin
        (* cancelled before firing: drop the episode *)
        (match ar.ar_episode with
        | Some ep -> t.episodes <- List.filter (fun e -> e != ep) t.episodes
        | None -> ());
        ar.ar_episode <- None;
        transition t ~now ar Inactive v
      end
      else if now - ar.ar_since >= ar.ar_for then begin
        (match ar.ar_episode with Some ep -> ep.ep_firing <- now | None -> ());
        transition t ~now ar Firing v
      end
  | Firing ->
      if cleared ar.ar_cmp ar.ar_clear v then begin
        (match ar.ar_episode with Some ep -> ep.ep_resolved <- now | None -> ());
        ar.ar_episode <- None;
        transition t ~now ar Inactive v
      end

(* --- scrape -------------------------------------------------------------- *)

let scrape t ~now =
  if t.nscrapes > 0 && now <= t.last_ts then ()
  else begin
    t.nscrapes <- t.nscrapes + 1;
    t.last_ts <- now;
    List.iter
      (fun (name, labels, typ, Metrics.Value v) -> store_append t name labels typ ~ts:now v)
      (Metrics.samples t.reg);
    List.iter
      (fun rr ->
        let v = eval t ~now rr.rr_expr in
        store_append t rr.rr_name [] "gauge" ~ts:now v)
      (List.rev t.records);
    List.iter (fun ar -> step_alert t ~now ar) (List.rev t.alerts)
  end

(* --- journal ------------------------------------------------------------- *)

let journal t ~ts ~source ~actor ?(detail = "") kind =
  let ord =
    match Hashtbl.find_opt t.jords actor with Some n -> n | None -> 0
  in
  Hashtbl.replace t.jords actor (ord + 1);
  let r =
    {
      jr_entry = { e_ts = ts; e_source = source; e_kind = kind; e_actor = actor; e_detail = detail };
      jr_ord = ord;
    }
  in
  let cap = Array.length t.jring in
  if t.jlen < cap then begin
    t.jring.((t.jstart + t.jlen) mod cap) <- r;
    t.jlen <- t.jlen + 1
  end
  else begin
    t.jring.(t.jstart) <- r;
    t.jstart <- (t.jstart + 1) mod cap
  end;
  t.jtotal <- t.jtotal + 1

let journal_dropped t = t.jtotal - t.jlen

(* Export order: (ts, actor, per-actor ordinal).  Per-actor emission order
   is deterministic for a fixed seed; actor names break same-timestamp
   ties between actors, so the export does not follow global emission
   order. *)
let sorted_jrecs t =
  let cap = Array.length t.jring in
  let l = List.init t.jlen (fun i -> t.jring.((t.jstart + i) mod cap)) in
  List.stable_sort
    (fun a b ->
      let c = compare a.jr_entry.e_ts b.jr_entry.e_ts in
      if c <> 0 then c
      else
        let c = compare a.jr_entry.e_actor b.jr_entry.e_actor in
        if c <> 0 then c else compare a.jr_ord b.jr_ord)
    l

let journal_entries t = List.map (fun r -> r.jr_entry) (sorted_jrecs t)

(* --- alerts/incidents ---------------------------------------------------- *)

let transitions t = List.rev t.trans

let alert_states t = List.rev_map (fun ar -> (ar.ar_name, ar.ar_state)) t.alerts

type incident = {
  i_rule : string;
  i_pending_us : int;
  i_firing_us : int;
  i_resolved_us : int;
  i_peak : float;
  i_timeline : entry list;
  i_truncated : int;
}

let timeline_head = 48
let timeline_tail = 16

let trace_entries t ~lo ~hi =
  match t.trace with
  | None -> []
  | Some tr ->
      let acc = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          if e.ts >= lo && e.ts <= hi && e.cat <> "cpu" && e.cat <> "mem" then
            acc :=
              {
                e_ts = e.ts;
                e_source = "trace:" ^ e.cat;
                e_kind = e.name;
                e_actor = e.track;
                e_detail =
                  String.concat " "
                    (List.map (fun (k, v) -> k ^ "=" ^ Trace.arg_string v) e.args);
              }
              :: !acc)
        (Trace.events tr);
      List.rev !acc

let build_timeline t ep =
  let ep_end = if ep.ep_resolved >= 0 then ep.ep_resolved else t.last_ts in
  let lo = max 0 (ep.ep_pending - t.lookback) in
  let window =
    List.filter
      (fun r -> r.jr_entry.e_ts >= lo && r.jr_entry.e_ts <= ep_end)
      (sorted_jrecs t)
  in
  (* Causal anchor: the first wire-provenance entry in the window.  The
     timeline then narrows to that device's own events plus scope-wide
     ones, starting at the anchor. *)
  let anchor =
    List.find_opt (fun r -> r.jr_entry.e_kind = "wire_provenance") window
  in
  let selected =
    match anchor with
    | None -> window
    | Some a ->
        List.filter
          (fun r ->
            r.jr_entry.e_actor = a.jr_entry.e_actor
            || not (List.mem r.jr_entry.e_source device_sources))
          window
  in
  let selected =
    match anchor with
    | None -> selected
    | Some a ->
        (* drop everything sorted before the anchor *)
        let rec from = function
          | [] -> []
          | r :: rest -> if r == a then r :: rest else from rest
        in
        from selected
  in
  let entries = List.map (fun r -> r.jr_entry) selected in
  (* Join trace events (sim-clock cats only) after the anchor point. *)
  let lo' =
    match anchor with Some a -> a.jr_entry.e_ts | None -> lo
  in
  let traced = trace_entries t ~lo:lo' ~hi:ep_end in
  let entries =
    (* Stable merge by ts; journal entries win ties (they carry causal
       ordinals), trace events slot in after. *)
    List.stable_sort
      (fun a b -> compare a.e_ts b.e_ts)
      (entries @ traced)
  in
  (* Truncate after the last containment event so the narrative ends at
     the defense acting, not at trailing noise. *)
  let entries =
    let is_containment e = e.e_kind = "quarantine" || e.e_kind = "rollback" in
    let last_idx = ref (-1) in
    List.iteri (fun i e -> if is_containment e then last_idx := i) entries;
    if !last_idx < 0 then entries
    else List.filteri (fun i _ -> i <= !last_idx) entries
  in
  let n = List.length entries in
  if n <= timeline_head + timeline_tail then (entries, 0)
  else
    let head = List.filteri (fun i _ -> i < timeline_head) entries in
    let tail = List.filteri (fun i _ -> i >= n - timeline_tail) entries in
    (head @ tail, n - timeline_head - timeline_tail)

let incidents t =
  List.rev_map
    (fun ep ->
      let timeline, truncated = build_timeline t ep in
      {
        i_rule = ep.ep_rule;
        i_pending_us = ep.ep_pending;
        i_firing_us = ep.ep_firing;
        i_resolved_us = ep.ep_resolved;
        i_peak = ep.ep_peak;
        i_timeline = timeline;
        i_truncated = truncated;
      })
    (List.filter (fun ep -> ep.ep_firing >= 0) t.episodes)

(* --- export -------------------------------------------------------------- *)

(* Series sorted by (name, rendered labels): insertion-order free. *)
let sorted_keys t =
  List.sort
    (fun (n1, l1, _) (n2, l2, _) ->
      let c = compare n1 n2 in
      if c <> 0 then c else compare (render_labels l1) (render_labels l2))
    (List.rev t.order)

let json t =
  let open Json in
  let num = fixed 6 in
  let series (name, labels, key) =
    let ss = Hashtbl.find t.stores key in
    Obj
      [
        ("name", Str name);
        ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) labels));
        ("type", Str ss.ss_typ);
        ("stride", Int ss.ss_stride);
        ( "points",
          Arr
            (List.map
               (fun p ->
                 Obj
                   [
                     ("ts", Int p.p_ts);
                     ("last", num p.p_last);
                     ("sum", num p.p_sum);
                     ("min", num p.p_min);
                     ("max", num p.p_max);
                     ("n", Int p.p_count);
                   ])
               (sstore_points ss)) );
      ]
  in
  let alert tr =
    Obj
      [
        ("ts", Int tr.tr_ts);
        ("rule", Str tr.tr_rule);
        ("from", Str (state_name tr.tr_from));
        ("to", Str (state_name tr.tr_to));
        ("value", num tr.tr_value);
      ]
  in
  let incident inc =
    Obj
      [
        ("rule", Str inc.i_rule);
        ("pending_us", Int inc.i_pending_us);
        ("firing_us", Int inc.i_firing_us);
        ("resolved_us", Int inc.i_resolved_us);
        ("peak", num inc.i_peak);
        ("truncated", Int inc.i_truncated);
        ( "timeline",
          Arr
            (List.map
               (fun e ->
                 Obj
                   [
                     ("ts", Int e.e_ts);
                     ("source", Str e.e_source);
                     ("kind", Str e.e_kind);
                     ("actor", Str e.e_actor);
                     ("detail", Str e.e_detail);
                   ])
               inc.i_timeline) );
      ]
  in
  print
    (Obj
       [
         ("schema", Str "monitor-v1");
         ("interval_us", Int t.ival);
         ("scrapes", Int t.nscrapes);
         ("last_scrape_us", Int t.last_ts);
         ( "journal",
           Obj
             [
               ("emitted", Int t.jtotal);
               ("retained", Int t.jlen);
               ("dropped", Int (journal_dropped t));
             ] );
         ("series", Arr (List.map series (sorted_keys t)));
         ("alerts", Arr (List.map alert (transitions t)));
         ("incidents", Arr (List.map incident (incidents t)));
       ])

(* --- dashboard ----------------------------------------------------------- *)

let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline pts =
  let pts = if List.length pts > 32 then
      let n = List.length pts in
      List.filteri (fun i _ -> i >= n - 32) pts
    else pts
  in
  let vals = List.map (fun p -> p.p_last) pts in
  match (vals, vals) with
  | [], _ -> ""
  | _ ->
      let lo = List.fold_left min infinity vals in
      let hi = List.fold_left max neg_infinity vals in
      let span = hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             let idx =
               if span <= 0.0 then 0
               else
                 let i = int_of_float ((v -. lo) /. span *. 7.0 +. 0.5) in
                 if i < 0 then 0 else if i > 7 then 7 else i
             in
             spark_glyphs.(idx))
           vals)

let cmp_name = function Gt -> ">" | Lt -> "<" | Ge -> ">=" | Le -> "<="

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let fmt_us us =
  if us < 0 then "-"
  else Printf.sprintf "%.3fs" (float_of_int us /. 1e6)

let dashboard t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       "flight recorder: %d scrapes @ %s interval, %d series, journal %d events (%d dropped)\n"
       t.nscrapes (fmt_us t.ival) (List.length t.order) t.jtotal (journal_dropped t));
  let keys = sorted_keys t in
  (* Series with any movement; recorded rules surface alongside raw ones. *)
  let active =
    List.filter
      (fun (_, _, key) ->
        let ss = Hashtbl.find t.stores key in
        match (sstore_oldest ss, sstore_newest ss) with
        | Some a, Some z ->
            a.p_last <> z.p_last
            || (match sstore_points ss with
               | [] -> false
               | ps ->
                   let mn = List.fold_left (fun m p -> min m p.p_min) infinity ps in
                   let mx = List.fold_left (fun m p -> max m p.p_max) neg_infinity ps in
                   mn <> mx)
        | _ -> false)
      keys
  in
  let shown = List.filteri (fun i _ -> i < 24) active in
  Buffer.add_string b "series (changing, first 24):\n";
  List.iter
    (fun (name, labels, key) ->
      let ss = Hashtbl.find t.stores key in
      let pts = sstore_points ss in
      let last = match sstore_newest ss with Some p -> p.p_last | None -> 0.0 in
      Buffer.add_string b
        (Printf.sprintf "  %-44s %s last=%s\n"
           (name ^ render_labels labels)
           (sparkline pts) (fmt_value last)))
    shown;
  if List.length active > List.length shown then
    Buffer.add_string b
      (Printf.sprintf "  (%d more changing series)\n"
         (List.length active - List.length shown));
  Buffer.add_string b "alerts:\n";
  List.iter
    (fun ar ->
      let fired =
        List.length (List.filter (fun ep -> ep.ep_rule = ar.ar_name && ep.ep_firing >= 0) t.episodes)
      in
      Buffer.add_string b
        (Printf.sprintf "  %-28s %-8s value=%s thr=%s%s for=%s clear=%s episodes=%d\n"
           ar.ar_name
           (state_name ar.ar_state)
           (fmt_value ar.ar_last) (cmp_name ar.ar_cmp) (fmt_value ar.ar_thr)
           (fmt_us ar.ar_for) (fmt_value ar.ar_clear) fired))
    (List.rev t.alerts);
  let incs = incidents t in
  Buffer.add_string b (Printf.sprintf "incidents (%d):\n" (List.length incs));
  List.iteri
    (fun i inc ->
      Buffer.add_string b
        (Printf.sprintf "  #%d %s pending=%s firing=%s resolved=%s peak=%s\n"
           (i + 1) inc.i_rule (fmt_us inc.i_pending_us) (fmt_us inc.i_firing_us)
           (fmt_us inc.i_resolved_us) (fmt_value inc.i_peak));
      List.iter
        (fun e ->
          Buffer.add_string b
            (Printf.sprintf "     %10s [%-10s] %-18s %-12s %s\n" (fmt_us e.e_ts)
               e.e_source e.e_kind e.e_actor e.e_detail))
        inc.i_timeline;
      if inc.i_truncated > 0 then
        Buffer.add_string b
          (Printf.sprintf "     ... (%d entries elided from the middle)\n" inc.i_truncated))
    incs;
  Buffer.contents b

(* --- rules text format --------------------------------------------------- *)

type token =
  | TId of string
  | TNum of float
  | TDur of int
  | TStr of string
  | TSym of char
  | TGe
  | TLe

exception Parse_error of string

let tokenize line =
  let n = String.length line in
  let pos = ref 0 in
  let toks = ref [] in
  let is_id_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_id c = is_id_start c || (c >= '0' && c <= '9') || c = ':' || c = '.' in
  while !pos < n do
    let c = line.[!pos] in
    if c = ' ' || c = '\t' then incr pos
    else if c = '#' then pos := n
    else if is_id_start c then begin
      let start = !pos in
      while !pos < n && is_id line.[!pos] do incr pos done;
      toks := TId (String.sub line start (!pos - start)) :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      let start = !pos in
      while !pos < n && ((line.[!pos] >= '0' && line.[!pos] <= '9') || line.[!pos] = '.') do
        incr pos
      done;
      let num = float_of_string (String.sub line start (!pos - start)) in
      let sfx_start = !pos in
      while !pos < n && line.[!pos] >= 'a' && line.[!pos] <= 'z' do incr pos done;
      let sfx = String.sub line sfx_start (!pos - sfx_start) in
      let tok =
        match sfx with
        | "" -> TNum num
        | "s" -> TDur (int_of_float (num *. 1e6))
        | "ms" -> TDur (int_of_float (num *. 1e3))
        | "us" -> TDur (int_of_float num)
        | "m" -> TDur (int_of_float (num *. 60e6))
        | _ -> raise (Parse_error ("unknown duration unit '" ^ sfx ^ "'"))
      in
      toks := tok :: !toks
    end
    else if c = '"' then begin
      incr pos;
      let start = !pos in
      while !pos < n && line.[!pos] <> '"' do incr pos done;
      if !pos >= n then raise (Parse_error "unterminated string");
      toks := TStr (String.sub line start (!pos - start)) :: !toks;
      incr pos
    end
    else if c = '>' && !pos + 1 < n && line.[!pos + 1] = '=' then begin
      toks := TGe :: !toks;
      pos := !pos + 2
    end
    else if c = '<' && !pos + 1 < n && line.[!pos + 1] = '=' then begin
      toks := TLe :: !toks;
      pos := !pos + 2
    end
    else
      match c with
      | '(' | ')' | '{' | '}' | '[' | ']' | ',' | '=' | '+' | '-' | '*' | '/'
      | '<' | '>' ->
          toks := TSym c :: !toks;
          incr pos
      | _ -> raise (Parse_error (Printf.sprintf "unexpected character '%c'" c))
  done;
  List.rev !toks

(* Recursive-descent over the token list; the state is a mutable cursor. *)
let parse_line line =
  let toks = ref (tokenize line) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let next () =
    match !toks with
    | [] -> raise (Parse_error "unexpected end of line")
    | t :: rest ->
        toks := rest;
        t
  in
  let expect_sym c =
    match next () with
    | TSym x when x = c -> ()
    | _ -> raise (Parse_error (Printf.sprintf "expected '%c'" c))
  in
  let ident what =
    match next () with
    | TId s -> s
    | _ -> raise (Parse_error ("expected " ^ what))
  in
  let number what =
    match next () with
    | TNum f -> f
    | _ -> raise (Parse_error ("expected " ^ what))
  in
  let duration what =
    match next () with
    | TDur d -> d
    | _ -> raise (Parse_error ("expected " ^ what ^ " (e.g. 5s, 500ms)"))
  in
  let selector_of name =
    let labels =
      match peek () with
      | Some (TSym '{') ->
          ignore (next ());
          let rec pairs acc =
            let k = ident "label name" in
            expect_sym '=';
            let v =
              match next () with
              | TStr s -> s
              | _ -> raise (Parse_error "expected quoted label value")
            in
            match next () with
            | TSym ',' -> pairs ((k, v) :: acc)
            | TSym '}' -> List.rev ((k, v) :: acc)
            | _ -> raise (Parse_error "expected ',' or '}'")
          in
          pairs []
      | _ -> []
    in
    { sel_name = name; sel_labels = labels }
  in
  let windowed_selector () =
    let name = ident "series name" in
    let sel = selector_of name in
    expect_sym '[';
    let w = duration "window" in
    expect_sym ']';
    (sel, w)
  in
  let rec expr () =
    let rec sum acc =
      match peek () with
      | Some (TSym '+') ->
          ignore (next ());
          sum (Add (acc, prod ()))
      | Some (TSym '-') ->
          ignore (next ());
          sum (Sub (acc, prod ()))
      | _ -> acc
    in
    sum (prod ())
  and prod () =
    let rec go acc =
      match peek () with
      | Some (TSym '*') ->
          ignore (next ());
          go (Mul (acc, atom ()))
      | Some (TSym '/') ->
          ignore (next ());
          go (Div (acc, atom ()))
      | _ -> acc
    in
    go (atom ())
  and atom () =
    match next () with
    | TNum f -> Const f
    | TSym '(' ->
        let e = expr () in
        expect_sym ')';
        e
    | TSym '-' -> Sub (Const 0.0, atom ())
    | TId "rate" ->
        expect_sym '(';
        let sel, w = windowed_selector () in
        expect_sym ')';
        Rate (sel, w)
    | TId "delta" ->
        expect_sym '(';
        let sel, w = windowed_selector () in
        expect_sym ')';
        Delta (sel, w)
    | TId name when peek () = Some (TSym '(') ->
        raise (Parse_error (Printf.sprintf "unknown function '%s'" name))
    | TId name -> Series (selector_of name)
    | _ -> raise (Parse_error "expected expression")
  in
  match peek () with
  | None -> `Blank
  | Some (TId "record") ->
      ignore (next ());
      let name = ident "rule name" in
      expect_sym '=';
      let e = expr () in
      if !toks <> [] then raise (Parse_error "trailing tokens after expression");
      `Record (name, e)
  | Some (TId "alert") ->
      ignore (next ());
      let name = ident "rule name" in
      (match next () with
      | TId "if" -> ()
      | _ -> raise (Parse_error "expected 'if'"));
      let e = expr () in
      let cmp =
        match next () with
        | TSym '>' -> Gt
        | TSym '<' -> Lt
        | TGe -> Ge
        | TLe -> Le
        | _ -> raise (Parse_error "expected comparison (< > <= >=)")
      in
      let thr = number "threshold" in
      let for_us = ref 0 in
      let clear = ref None in
      let rec opts () =
        match peek () with
        | Some (TId "for") ->
            ignore (next ());
            for_us := duration "for-duration";
            opts ()
        | Some (TId "clear") ->
            ignore (next ());
            clear := Some (number "clear threshold");
            opts ()
        | None -> ()
        | _ -> raise (Parse_error "expected 'for', 'clear', or end of line")
      in
      opts ();
      `Alert (name, e, cmp, thr, !for_us, !clear)
  | Some _ -> raise (Parse_error "expected 'record' or 'alert'")

let add_rules t text =
  let lines = String.split_on_char '\n' text in
  let parsed = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None then
        match parse_line line with
        | `Blank -> ()
        | r -> parsed := r :: !parsed
        | exception Parse_error msg ->
            err := Some (Printf.sprintf "line %d: %s" (i + 1) msg))
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      let rules = List.rev !parsed in
      List.iter
        (function
          | `Blank -> ()
          | `Record (name, e) -> record t ~name e
          | `Alert (name, e, cmp, thr, for_us, clear) ->
              alert t ~name ~for_us ?clear ~cmp ~threshold:thr e)
        rules;
      Ok (List.length rules)
