exception Cancelled

let exit_code = 130

let flag = Atomic.make false

let requested () = Atomic.get flag

let request () = Atomic.set flag true

let reset () = Atomic.set flag false

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    let handler _signal =
      (* First signal: ask politely and let trial boundaries notice.
         Second signal: the user insists — stop now. [exit] still runs
         [at_exit], so buffered channels are flushed. *)
      if Atomic.get flag then exit exit_code else Atomic.set flag true
    in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handler))
  end
