module Mem = Memsim.Memory
module O = Machine.Outcome
module Tr = Telemetry.Trace

type daemon = {
  track : string;
  entry : string;
  frame : Arch.t -> Machine.Stack_frame.t;
  buffer_addr : Process.t -> int;
}

type t = {
  daemon : daemon;
  boot_seed : int;
  mutable proc : Process.t;
  mutable alive : bool;
  mutable restarts : int;
  mutable steps : int;
  mutable icache_hits : int;  (* across calls and restarts *)
  mutable icache_misses : int;
  mutable trace : Tr.t option;
  mutable profiler : Telemetry.Profile.t option;
  mutable sanitizer : Sanitizer.Oracle.t option;
}

let fuel = 400_000

let make daemon ~boot_seed ~alive proc =
  {
    daemon;
    boot_seed;
    proc;
    alive;
    restarts = 0;
    steps = 0;
    icache_hits = 0;
    icache_misses = 0;
    trace = None;
    profiler = None;
    sanitizer = None;
  }

let boot_process spec ~profile ~boot_seed ~restarts =
  Process.boot spec ~profile ~seed:(boot_seed + (restarts * 7919))

let boot daemon spec ~profile ~boot_seed =
  make daemon ~boot_seed ~alive:true
    (boot_process spec ~profile ~boot_seed ~restarts:0)

(* Fleet-scale spawning: a copy-on-write clone of the current machine
   state instead of a full boot.  The clone shares the template's
   boot-time randomness — a fork cohort models devices flashed from one
   firmware image, not independent boots.  A template nothing has
   written since its last fork hands back that fork's snapshot, so the
   snapshot is paid once per template. *)
let forked t = Process.fork t.proc (Process.snapshot t.proc)
let fork t = make t.daemon ~boot_seed:t.boot_seed ~alive:t.alive (forked t)

(* Diversified spawning: the variant is re-assembled into the
   already-mapped text region, so no libc/PLT/stack rebuild. *)
let fork_variant t spec =
  Option.map
    (make t.daemon ~boot_seed:t.boot_seed ~alive:t.alive)
    (Process.reimage (forked t) spec)

let process t = t.proc
let alive t = t.alive
let last_steps t = t.steps
let trace t = t.trace
let sanitizer t = t.sanitizer

let event t ?ts ?dur name args =
  match t.trace with
  | None -> ()
  | Some tr -> Tr.emit tr ?ts ?dur ~cat:"daemon" ~track:t.daemon.track name ~args

(* Attaching mid-run means the boot-time [map] events predate the trace;
   re-emit the current region snapshot so the timeline starts with a
   complete memory picture. *)
let snapshot_regions t =
  match t.trace with
  | None -> ()
  | Some tr ->
      List.iter
        (fun (reg : Mem.region) ->
          Tr.emit tr ~cat:"mem" ~track:"memory" "region"
            ~args:
              [
                ("name", Tr.S reg.Mem.name);
                ("base", Tr.I reg.Mem.base);
                ("size", Tr.I reg.Mem.size);
                ("proc", Tr.S t.daemon.track);
              ])
        (Mem.regions t.proc.Process.mem)

let set_trace t tr =
  t.trace <- tr;
  Mem.set_trace t.proc.Process.mem tr;
  Option.iter (fun o -> Sanitizer.Oracle.set_trace o tr) t.sanitizer;
  snapshot_regions t

let set_profiler t p = t.profiler <- p

let set_sanitizer t oracle =
  t.sanitizer <- oracle;
  Option.iter (fun o -> Sanitizer.Oracle.set_trace o t.trace) oracle

let restart t =
  t.restarts <- t.restarts + 1;
  t.proc <-
    boot_process t.proc.Process.spec ~profile:t.proc.Process.profile
      ~boot_seed:t.boot_seed ~restarts:t.restarts;
  t.alive <- true;
  (* The new process has a fresh address space: re-attach the sink and
     re-emit its layout. *)
  Mem.set_trace t.proc.Process.mem t.trace;
  event t "restart" [ ("restarts", Tr.I t.restarts) ];
  snapshot_regions t

type outcome =
  | Returned of int
  | Oversized
  | Compromised of O.stop_reason
  | Crashed of O.stop_reason
  | Blocked of O.stop_reason

(* The protocol boundary is where taint enters: every datagram byte
   lands in the rx buffer carrying a provenance label (source id + wire
   offset), and the overflow frame's return slot and redzone are
   registered from the daemon's frame geometry — all the sanitizer needs
   to chain a later detection back to the exact wire byte. *)
let call t ~origin wire =
  let proc = t.proc in
  let layout = proc.Process.layout in
  let buf = layout.Layout.heap_base and len = String.length wire in
  if len > layout.Layout.heap_size then Oversized
  else begin
    Mem.write_bytes proc.Process.mem buf wire;
    Option.iter
      (fun o ->
        Sanitizer.Oracle.arm o ~origin ~rx:buf ~len
          ~buffer:(t.daemon.buffer_addr proc)
          (t.daemon.frame proc.Process.arch))
      t.sanitizer;
    let entry = Process.symbol proc t.daemon.entry in
    let ts0 = match t.trace with Some tr -> Tr.now tr | None -> 0 in
    let r =
      Process.call proc ~fuel ?sanitizer:t.sanitizer ?trace:t.trace
        ?profile:t.profiler ~entry ~args:[ buf; len ]
    in
    t.steps <- r.Process.steps;
    t.icache_hits <- t.icache_hits + r.Process.icache_hits;
    t.icache_misses <- t.icache_misses + r.Process.icache_misses;
    event t "parse" ~ts:ts0 ~dur:r.Process.steps
      [ ("steps", Tr.I r.Process.steps) ];
    match r.Process.outcome with
    | O.Halted -> Returned r.Process.ret
    | O.Exec _ as reason ->
        t.alive <- false;
        Compromised reason
    | (O.Fault _ | O.Decode_error _ | O.Fuel_exhausted | O.Exited _) as reason
      ->
        t.alive <- false;
        Crashed reason
    | (O.Cfi_violation _ | O.Aborted _) as reason ->
        t.alive <- false;
        Blocked reason
  end

let register_metrics t reg =
  let labels = [ ("daemon", t.daemon.track) ] in
  Telemetry.Metrics.probe reg ~labels ~kind:`Counter
    ~help:"daemon restarts after a crash" "daemon_restarts_total" (fun () ->
      float_of_int t.restarts);
  Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
    ~help:"1 if the daemon is accepting responses" "daemon_alive" (fun () ->
      if t.alive then 1.0 else 0.0);
  Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
    ~help:"instructions retired by the most recent parse"
    "daemon_parse_steps" (fun () -> float_of_int t.steps);
  Telemetry.Metrics.probe reg ~labels ~kind:`Counter
    ~help:"decoded-instruction cache hits across parses"
    "daemon_icache_hits_total" (fun () -> float_of_int t.icache_hits);
  Telemetry.Metrics.probe reg ~labels ~kind:`Counter
    ~help:"decoded-instruction cache misses across parses"
    "daemon_icache_misses_total" (fun () -> float_of_int t.icache_misses);
  Option.iter
    (fun o -> Sanitizer.Oracle.register_metrics o reg)
    t.sanitizer
