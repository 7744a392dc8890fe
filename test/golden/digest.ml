(* Print "<md5 hex>  <file>" for the file argument: the golden table pins
   a document too large to review in a diff by this line. *)
let () =
  let f = Sys.argv.(1) in
  Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file f)) f
