(** End-to-end attack scenarios (§III-D).

    {!pineapple_attack} reproduces the paper's remote experiment: a
    victim device associated to its home network is lured onto a Wi-Fi
    Pineapple impersonating the same SSID at higher signal strength; the
    Pineapple's DHCP assigns the attacker's DNS server; the very next
    connectivity check delivers the exploit. *)

type result = {
  device : Device.t;
  associated_before : string;  (** AP name after the initial join *)
  associated_after : string;  (** AP name after the Pineapple appears *)
  dns_before : Netsim.Ip.t option;
  dns_after : Netsim.Ip.t option;
  benign_disposition : Connman.Dnsproxy.disposition option;
      (** the connectivity check through the honest resolver *)
  attack_disposition : Connman.Dnsproxy.disposition option;
      (** the connectivity check through the Pineapple *)
  queries_intercepted : int;
  strategy : string;
}

val pineapple_attack :
  ?seed:int ->
  ?strategy:Exploit.Autogen.strategy ->
  config:Connman.Dnsproxy.config ->
  unit ->
  (result, string) Result.t
(** [Error] only on payload-generation failure; an unsuccessful exploit
    still returns [Ok] with the observed dispositions.  The strategy
    defaults to the generator's §III decision table for the device's
    protections. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Botnet recruitment}

    The §III-D remark: "exploit code designed to create a botnet could be
    sent to visitors, allowing a recreation of the Mirai attack".  A fleet
    of devices (possibly mixed firmware) joins a network whose resolver
    the attacker poisoned; each connectivity check returns a payload
    fitted to that device's firmware. *)

type botnet_result = {
  fleet : (string * [ `Recruited | `Resisted | `Crashed ]) list;
  recruited : int;
  resisted : int;
}

val botnet_recruitment :
  ?seed:int -> firmwares:Firmware.t list -> unit -> botnet_result
