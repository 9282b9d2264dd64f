(** Parameter grids shared by the figure-regeneration experiments. *)

val floats : lo:float -> hi:float -> steps:int -> float list
(** [steps] evenly spaced values from [lo] to [hi] inclusive. *)

val fig6_q : float list
(** q = 0.00, 0.05, ..., 0.50 (the x-axis of Fig. 6). *)

val fig7a_q : float list
(** q = 0.00, 0.05, ..., 0.70 (the x-axis of Fig. 7(a)). *)

val fig7b_d : int list
(** d = 3 .. 40, i.e. N = 8 .. ~10^12 (the x-axis of Fig. 7(b)). *)
