(** Special functions needed by the statistical models.

    Implemented from scratch (no numeric ecosystem available): the
    complementary error function uses W. J. Cody's rational approximations
    (double-precision accurate to ~1e-16 relative on the primary range). *)

val erfc : float -> float
(** Complementary error function, accurate for large arguments. *)
