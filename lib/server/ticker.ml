type t = { wake : Unix.file_descr; domain : unit Domain.t }

let start ~period tick =
  let r, w = Unix.pipe ~cloexec:true () in
  let rec loop () =
    match Unix.select [ r ] [] [] period with
    | [], _, _ ->
        tick ();
        loop ()
    | _ :: _, _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  let domain =
    Domain.spawn (fun () ->
        loop ();
        Unix.close r)
  in
  { wake = w; domain }

let stop t =
  (* One byte makes the read end readable; the wait returns at once. *)
  ignore (Unix.single_write_substring t.wake "x" 0 1);
  Domain.join t.domain;
  Unix.close t.wake
