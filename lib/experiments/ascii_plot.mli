(** Terminal line plots of {!Series} tables.

    Renders each column as a marker trace on a character canvas with a
    y-axis range annotation, an x-axis rule and a legend — enough to
    eyeball the paper's figure shapes straight from the CLI. *)

val interpolate : float array -> float array -> float -> float option
(** Piecewise-linear interpolation over an x-sorted grid; [None]
    outside the range or across non-finite values. Test hook: {!render}
    shows it only at character resolution, and the tests check the
    values. *)

val render :
  ?width:int -> ?height:int -> ?y_floor:float -> ?y_ceiling:float -> Series.t -> string
(** [render series] is the plot as a string. [y_floor]/[y_ceiling] pin
    the y-range (e.g. 0..1 for routability; values outside are clamped
    onto the border). @raise Invalid_argument on an empty series or a
    canvas smaller than 16x4. *)

