(** Stack-frame geometry of an overflow target.

    The vocabulary an attacker derives with a debugger from any
    stack-based buffer overflow (§V: the approach "can work out-of-the-box
    (with minimal modification) against DNS-based overflow
    vulnerabilities" — the modification being precisely these offsets):
    how large the buffer is and where, relative to its start, the
    overwrite reaches interesting slots. *)

type t = {
  buffer_size : int;
  off_null1 : int;
      (** pointer local dereferenced-when-non-NULL before the hijack
          point (0-width convention: equal to [off_null2] when absent) *)
  off_null2 : int;
  off_canary : int;  (** canary slot (meaningful when canaries are on) *)
  off_saved : (string * int) list;
      (** callee-saved register slots — don't-care payload positions *)
  off_ret : int;  (** saved return address / lr slot *)
  frame_end : int;  (** bytes from buffer start to past the frame *)
}
