(** Labelled data series: the rows/columns a figure plots, in a form
    that renders as an aligned text table or CSV. *)

type column = { label : string; values : float array }

type t = { title : string; x_label : string; x : float array; columns : column list }

val create : title:string -> x_label:string -> x:float array -> column list -> t
(** @raise Invalid_argument when column lengths disagree with [x]. *)

val column : label:string -> float array -> column

val tabulate :
  title:string -> x_label:string -> x:float list -> (string * (float -> float)) list -> t
(** [tabulate ~title ~x_label ~x columns] evaluates each labelled
    function over the x-grid. *)

val pp : Format.formatter -> t -> unit
(** Aligned plain-text rendering. *)

val to_csv : t -> string
