(** Small statistics helpers for experiment reporting.

    The paper reports each data point as the average of 10 runs with 90%
    confidence intervals; [summary] computes the same quantities for a set
    of per-seed measurements. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  ci90 : float;    (** half-width of the 90% confidence interval *)
  min : float;
  max : float;
}

val summary : float list -> summary
(** [summary xs] summarises a non-empty list of observations.  For n = 1 the
    standard deviation and confidence interval are 0.  Uses Student-t
    critical values for small n (the relevant regime here). *)

val mean : float list -> float

val t_crit : int -> float
(** Two-sided 90% Student-t critical value for the given degrees of
    freedom.  Tabulated through df = 30; beyond that the asymptotic
    normal value 1.645 is returned (the t distribution is within ~1% of
    N(0,1) there).  Returns 0 for df <= 0. *)
