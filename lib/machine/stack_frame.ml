type t = {
  buffer_size : int;
  off_null1 : int;
  off_null2 : int;
  off_canary : int;
  off_saved : (string * int) list;
  off_ret : int;
  frame_end : int;
}
