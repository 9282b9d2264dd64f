(* Peak resident-set measurement from the kernel's accounting, so
   benchmark numbers reflect real memory (Bigarray payloads included,
   which Gc.stat cannot see). Linux-only by nature; None elsewhere. *)

let status_field field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let prefix = field ^ ":" in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > String.length prefix
                   && String.sub line 0 (String.length prefix) = prefix
                then
                  (* "VmHWM:    123456 kB" *)
                  String.sub line (String.length prefix)
                    (String.length line - String.length prefix)
                  |> String.trim
                  |> String.split_on_char ' '
                  |> function
                  | kb :: _ -> int_of_string_opt kb
                  | [] -> None
                else scan ()
          in
          scan ())

let peak_kb () = status_field "VmHWM"
