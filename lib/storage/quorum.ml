type t = { r : int; rq : int; wq : int }

let make ~r ~rq ~wq =
  if r < 1 then invalid_arg "Quorum.make: r must be >= 1";
  if rq < 1 || rq > r then invalid_arg "Quorum.make: rq outside [1, r]";
  if wq < 1 || wq > r then invalid_arg "Quorum.make: wq outside [1, r]";
  { r; rq; wq }

let majority ~r =
  let m = (r / 2) + 1 in
  make ~r ~rq:m ~wq:m

type read_outcome = Quorum | Degraded of int | Unavailable

let classify t ~reached =
  if reached < 0 then invalid_arg "Quorum.classify: negative reached";
  if reached >= t.rq then Quorum
  else if reached > 0 then Degraded reached
  else Unavailable

let threshold_of_string ~r spec =
  if r < 1 then invalid_arg "Quorum.threshold_of_string: r must be >= 1";
  match String.lowercase_ascii (String.trim spec) with
  | "majority" -> Ok ((r / 2) + 1)
  | "one" -> Ok 1
  | "all" -> Ok r
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 && k <= r -> Ok k
      | Some k ->
          Error (Printf.sprintf "quorum threshold %d outside [1, %d]" k r)
      | None ->
          Error
            (Printf.sprintf
               "expected 'majority', 'one', 'all' or an integer, got %S" spec))

let pp ppf t = Format.fprintf ppf "R=%d Rq=%d Wq=%d" t.r t.rq t.wq
